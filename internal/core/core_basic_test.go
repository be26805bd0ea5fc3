package core

import (
	"testing"

	"ccsim/internal/cache"
	"ccsim/internal/memsys"
	"ccsim/internal/network"
	"ccsim/internal/sim"
)

// testSystem builds a small machine for protocol-level tests.
func testSystem(t *testing.T, mutate func(*Params)) (*sim.Engine, *System) {
	t.Helper()
	p := DefaultParams()
	p.Nodes = 4
	if mutate != nil {
		mutate(&p)
	}
	eng := sim.NewEngine()
	net := network.NewUniform(eng, p.Timing.NetLatency)
	s, err := NewSystem(eng, net, p)
	if err != nil {
		t.Fatal(err)
	}
	return eng, s
}

// read performs a blocking read on node n and returns the completion time.
func read(t *testing.T, eng *sim.Engine, s *System, n int, a memsys.Addr) sim.Time {
	t.Helper()
	done := sim.Time(-1)
	if s.Nodes[n].Cache.Read(a, func() { done = eng.Now() }) {
		return eng.Now() // FLC hit
	}
	eng.Run()
	if done < 0 {
		t.Fatalf("read of %d by node %d never completed", a, n)
	}
	return done
}

// write performs a write on node n and drains the machine.
func write(t *testing.T, eng *sim.Engine, s *System, n int, a memsys.Addr) {
	t.Helper()
	performed := false
	if !s.Nodes[n].Cache.Write(a, nil, func() { performed = true }) {
		t.Fatalf("write by node %d not accepted", n)
	}
	eng.Run()
	if !performed {
		t.Fatalf("write by node %d never performed", n)
	}
}

// blockHomedAt returns an address whose block is homed at the given node.
func blockHomedAt(s *System, node int) memsys.Addr {
	for p := 0; ; p++ {
		b := memsys.Block(p * memsys.BlocksPerPage)
		if s.HomeOf(b) == node {
			return b.Addr()
		}
	}
}

func lineOf(s *System, n int, a memsys.Addr) *cache.Line {
	b := memsys.BlockOf(a)
	return s.Nodes[n].Cache.lookup(s.blockID(b), b)
}

func TestLocalReadMissLatencyIs30(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.Nodes = 1 })
	// Paper §4: FLC, SLC, and local memory access times of 1, 6, and 30
	// pclocks. The SLC-miss-to-local-memory path must compose to 30.
	if got := read(t, eng, s, 0, 0); got != 30 {
		t.Fatalf("local read miss completed at %d, want 30", got)
	}
}

func TestRemoteCleanReadMissTwoTransfers(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 1)
	// 6 SLC + 3 bus + 54 net + 3 bus + 9 mem + 6 bus + 54 net + 6 bus +
	// 6 SLC fill = 147: two node-to-node transfers.
	if got := read(t, eng, s, 0, a); got != 147 {
		t.Fatalf("remote clean miss completed at %d, want 147", got)
	}
	e, ok := s.Nodes[1].Home.Entry(memsys.BlockOf(a))
	if !ok || e.Modified || e.Presence != 1<<0 {
		t.Fatalf("directory after remote read: %+v", e)
	}
}

func TestFLCHitAfterFill(t *testing.T) {
	eng, s := testSystem(t, nil)
	read(t, eng, s, 0, 0)
	if !s.Nodes[0].Cache.Read(0, nil) {
		t.Fatal("second read of same block missed the FLC")
	}
	// A different word of the same block also hits.
	if !s.Nodes[0].Cache.Read(4, nil) {
		t.Fatal("other word of cached block missed")
	}
}

func TestRemoteDirtyReadMissFourTransfers(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	// Node 2 writes the block (becomes dirty owner), then node 0 reads.
	write(t, eng, s, 2, a)
	e, _ := s.Nodes[1].Home.Entry(b)
	if !e.Modified || e.Owner != 2 {
		t.Fatalf("after write: %+v", e)
	}
	start := eng.Now()
	lat := read(t, eng, s, 0, a) - start
	if lat <= 147 {
		t.Fatalf("dirty remote miss latency %d, want > 147 (four transfers)", lat)
	}
	// Owner downgraded to Shared, memory clean, both sharers present.
	e, _ = s.Nodes[1].Home.Entry(b)
	if e.Modified {
		t.Fatalf("directory still MODIFIED after read: %+v", e)
	}
	if e.Presence != (1<<0)|(1<<2) {
		t.Fatalf("presence = %b, want nodes 0 and 2", e.Presence)
	}
	if l := lineOf(s, 2, a); l == nil || l.State != cache.Shared {
		t.Fatalf("owner's line not downgraded: %+v", l)
	}
}

func TestWriteToSharedInvalidatesOtherCopies(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 0)
	b := memsys.BlockOf(a)
	read(t, eng, s, 1, a)
	read(t, eng, s, 2, a)
	read(t, eng, s, 3, a)
	write(t, eng, s, 1, a)
	e, _ := s.Nodes[0].Home.Entry(b)
	if !e.Modified || e.Owner != 1 || e.Presence != 1<<1 {
		t.Fatalf("after upgrade: %+v", e)
	}
	if lineOf(s, 2, a) != nil || lineOf(s, 3, a) != nil {
		t.Fatal("sharer copies not invalidated")
	}
	if l := lineOf(s, 1, a); l == nil || l.State != cache.Dirty {
		t.Fatalf("writer's line: %+v", l)
	}
	// FLC inclusion: invalidated nodes must miss in the FLC.
	if s.Nodes[2].Cache.Read(a, func() {}) {
		t.Fatal("node 2 FLC hit after invalidation")
	}
	eng.Run()
}

func TestWriteToInvalidFetchesExclusive(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 2)
	write(t, eng, s, 0, a)
	if l := lineOf(s, 0, a); l == nil || l.State != cache.Dirty {
		t.Fatalf("line after write miss: %+v", l)
	}
	e, _ := s.Nodes[2].Home.Entry(memsys.BlockOf(a))
	if !e.Modified || e.Owner != 0 {
		t.Fatalf("directory: %+v", e)
	}
}

func TestWriteToDirtyHitsLocally(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 1)
	write(t, eng, s, 0, a)
	before := s.Nodes[1].Home.OwnReqs
	write(t, eng, s, 0, a)
	write(t, eng, s, 0, a+4)
	if s.Nodes[1].Home.OwnReqs != before {
		t.Fatal("writes to a dirty line generated ownership requests")
	}
}

func TestWriteMissToDirtyBlockTakesOwnership(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 0)
	write(t, eng, s, 1, a)
	write(t, eng, s, 2, a) // write miss while dirty at node 1
	e, _ := s.Nodes[0].Home.Entry(memsys.BlockOf(a))
	if !e.Modified || e.Owner != 2 {
		t.Fatalf("directory: %+v", e)
	}
	if lineOf(s, 1, a) != nil {
		t.Fatal("previous owner still holds a copy")
	}
	if l := lineOf(s, 2, a); l == nil || l.State != cache.Dirty {
		t.Fatalf("new owner's line: %+v", l)
	}
}

func TestTwoSimultaneousWritersSerialize(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 0)
	read(t, eng, s, 1, a)
	read(t, eng, s, 2, a)
	// Both upgrade at once: home must serialize; the loser's ownership ack
	// must carry data because its copy was invalidated in between.
	n1 := 0
	n2 := 0
	s.Nodes[1].Cache.Write(a, nil, func() { n1++ })
	s.Nodes[2].Cache.Write(a, nil, func() { n2++ })
	eng.Run()
	if n1 != 1 || n2 != 1 {
		t.Fatalf("performed counts: %d, %d", n1, n2)
	}
	e, _ := s.Nodes[0].Home.Entry(memsys.BlockOf(a))
	if !e.Modified {
		t.Fatal("block not modified after two writes")
	}
	winner := e.Owner
	loser := 3 - winner // 1 or 2
	if l := lineOf(s, winner, a); l == nil || l.State != cache.Dirty {
		t.Fatalf("final owner %d has line %+v", winner, l)
	}
	if lineOf(s, loser, a) != nil {
		t.Fatalf("node %d still holds a copy", loser)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMergesWithPendingRead(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 1)
	done := 0
	s.Nodes[0].Cache.Read(a, func() { done++ })
	s.Nodes[0].Cache.Read(a+4, func() { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("%d of 2 merged reads completed", done)
	}
	if s.Nodes[1].Home.ReadReqs != 1 {
		t.Fatalf("home saw %d read requests, want 1 (merged)", s.Nodes[1].Home.ReadReqs)
	}
}

func TestWriteWhileReadPendingIsDeferred(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 1)
	reads := 0
	performed := false
	s.Nodes[0].Cache.Read(a, func() { reads++ })
	s.Nodes[0].Cache.Write(a, nil, func() { performed = true })
	eng.Run()
	if reads != 1 || !performed {
		t.Fatalf("reads=%d performed=%v", reads, performed)
	}
	if l := lineOf(s, 0, a); l == nil || l.State != cache.Dirty {
		t.Fatalf("line after read+write: %+v", l)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFiniteSLCReplacementWriteback(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.SLCSets = 4 })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	write(t, eng, s, 0, a)
	// Read a conflicting block (same frame, 4 sets apart): victimizes the
	// dirty line, which must be written back.
	conflict := b.Next(4).Addr()
	read(t, eng, s, 0, conflict)
	eng.Run()
	e, _ := s.Nodes[1].Home.Entry(b)
	if e.Modified {
		t.Fatalf("home still MODIFIED after writeback: %+v", e)
	}
	if s.Nodes[s.HomeOf(b)].Home.Writebacks != 1 {
		t.Fatal("writeback not recorded")
	}
	// Re-reading the victim must miss and be classified a replacement miss.
	cc := s.Nodes[0].Cache
	pre := cc.Misses
	read(t, eng, s, 0, a)
	if cc.Misses[2]-pre[2] != 1 { // stats.Replacement == 2
		t.Fatalf("replacement miss not classified: %v -> %v", pre, cc.Misses)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForwardRacesWithWriteback(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.SLCSets = 4 })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	write(t, eng, s, 0, a)
	// Victimize the dirty line and, before the writeback settles, let
	// another node read the block. The read may be forwarded to node 0,
	// which must serve it from its writeback buffer.
	done := 0
	s.Nodes[0].Cache.Read(b.Next(4).Addr(), func() { done++ })
	s.Nodes[2].Cache.Read(a, func() { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("%d of 2 reads completed", done)
	}
	if l := lineOf(s, 2, a); l == nil {
		t.Fatal("reader did not get the block")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSilentReplacementLeavesStalePresence(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.SLCSets = 4 })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	read(t, eng, s, 0, a)
	read(t, eng, s, 0, b.Next(4).Addr()) // silently replaces the Shared copy
	e, _ := s.Nodes[1].Home.Entry(b)
	if e.Presence&1 == 0 {
		t.Fatal("presence bit cleared by a silent replacement")
	}
	// A write by another node sends a (spurious) invalidation to node 0,
	// which must ack it without holding the block.
	write(t, eng, s, 2, a)
	e, _ = s.Nodes[1].Home.Entry(b)
	if !e.Modified || e.Owner != 2 {
		t.Fatalf("ownership not granted over stale presence: %+v", e)
	}
}

func TestLockAcquireReleaseHandoff(t *testing.T) {
	eng, s := testSystem(t, nil)
	lock := blockHomedAt(s, 3)
	var order []int
	granted := func(n int) func() { return func() { order = append(order, n) } }
	s.Nodes[0].Cache.Acquire(lock, granted(0))
	eng.Run()
	s.Nodes[1].Cache.Acquire(lock, granted(1))
	s.Nodes[2].Cache.Acquire(lock, granted(2))
	eng.Run()
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("grants before release: %v", order)
	}
	s.Nodes[0].Cache.Release(lock, nil)
	eng.Run()
	s.Nodes[1].Cache.Release(lock, nil)
	eng.Run()
	s.Nodes[2].Cache.Release(lock, nil)
	eng.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

func TestBarrierReleasesAllNodes(t *testing.T) {
	eng, s := testSystem(t, nil)
	released := 0
	for n := 0; n < 4; n++ {
		s.Nodes[n].Cache.Barrier(7, func() { released++ })
	}
	eng.Run()
	if released != 4 {
		t.Fatalf("%d of 4 nodes released", released)
	}
}

func TestReleaseWaitsForPendingWrites(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 1)
	lock := blockHomedAt(s, 2)
	// Share the block so the write needs invalidations.
	read(t, eng, s, 3, a)
	acquired := false
	s.Nodes[0].Cache.Acquire(lock, func() { acquired = true })
	eng.Run()
	if !acquired {
		t.Fatal("lock not acquired")
	}
	// Write (pending ownership) then release; then another node acquires.
	// The second acquire must not be granted until the write completed,
	// i.e. the release waited.
	s.Nodes[0].Cache.Write(a, nil, nil)
	s.Nodes[0].Cache.Release(lock, nil)
	got := false
	s.Nodes[1].Cache.Acquire(lock, func() {
		got = true
		// By grant time, node 0's write must be globally performed.
		if l := lineOf(s, 0, a); l == nil || l.State != cache.Dirty {
			t.Errorf("lock handed off before the write performed: %+v", l)
		}
		if lineOf(s, 3, a) != nil {
			t.Error("stale copy at node 3 when lock handed off")
		}
	})
	eng.Run()
	if !got {
		t.Fatal("second acquire never granted")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSLWBFullStallsWrites(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.SLWBEntries = 1
		p.FLWBEntries = 1
	})
	// Two writes to different uncached blocks: each needs an SLWB entry.
	// With one entry, the second write waits in the FLWB, and a third
	// write is not accepted immediately.
	a1 := blockHomedAt(s, 1)
	a2 := blockHomedAt(s, 2)
	c := s.Nodes[0].Cache
	if !c.Write(a1, nil, nil) {
		t.Fatal("first write not accepted into an empty FLWB")
	}
	acceptedLater := false
	if c.Write(a2, func() { acceptedLater = true }, nil) {
		t.Fatal("second write accepted with a full FLWB")
	}
	eng.Run()
	if !acceptedLater {
		t.Fatal("blocked write never accepted")
	}
	for _, a := range []memsys.Addr{a1, a2} {
		if l := lineOf(s, 0, a); l == nil || l.State != cache.Dirty {
			t.Fatalf("write to %d lost: %+v", a, l)
		}
	}
}

func TestSequentialConsistencyWriteStalls(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.SC = true
		p.FLWBEntries = 1
		p.SLWBEntries = 1
	})
	a := blockHomedAt(s, 1)
	start := eng.Now()
	performedAt := sim.Time(-1)
	s.Nodes[0].Cache.Write(a, nil, func() { performedAt = eng.Now() })
	eng.Run()
	if performedAt < 0 {
		t.Fatal("write never performed")
	}
	// A remote write miss takes well over 100 pclocks; SC exposes it all.
	if performedAt-start < 100 {
		t.Fatalf("SC write performed after only %d pclocks", performedAt-start)
	}
}

func TestMissClassificationColdThenCoherence(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 1)
	c := s.Nodes[0].Cache
	read(t, eng, s, 0, a)
	if c.Misses[0] != 1 { // stats.Cold
		t.Fatalf("first miss not cold: %v", c.Misses)
	}
	write(t, eng, s, 2, a) // invalidates node 0
	read(t, eng, s, 0, a)
	if c.Misses[1] != 1 { // stats.Coherence
		t.Fatalf("miss after invalidation not coherence: %v", c.Misses)
	}
}
