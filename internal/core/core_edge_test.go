package core

import (
	"strings"
	"testing"

	"ccsim/internal/cache"
	"ccsim/internal/memsys"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		mutate func(*Params)
		errHas string
	}{
		{func(p *Params) { p.Nodes = 0 }, "Nodes"},
		{func(p *Params) { p.FLCSets = 0 }, "FLCSets"},
		{func(p *Params) { p.SLCSets = -1 }, "SLCSets"},
		{func(p *Params) { p.FLWBEntries = 0 }, "write buffers"},
		{func(p *Params) { p.SLWBEntries = 0 }, "write buffers"},
		{func(p *Params) { p.CW = true; p.SC = true }, "sequential consistency"},
		{func(p *Params) { p.CW = true; p.CWThreshold = 0 }, "CW needs"},
		{func(p *Params) { p.CW = true; p.WriteCacheBlocks = 0 }, "CW needs"},
		{func(p *Params) { p.P = true; p.PrefetchMaxK = 0 }, "prefetch"},
		{func(p *Params) { p.P = true; p.PrefetchHighMark = 3; p.PrefetchLowMark = 5 }, "prefetch"},
	}
	for i, c := range cases {
		p := DefaultParams()
		c.mutate(&p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, c.errHas)
		}
	}
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestProtocolNameAllCombos(t *testing.T) {
	cases := []struct {
		p, m, cw, sc bool
		want         string
	}{
		{false, false, false, false, "BASIC"},
		{true, false, false, false, "P"},
		{false, true, false, false, "M"},
		{false, false, true, false, "CW"},
		{true, false, true, false, "P+CW"},
		{true, true, false, false, "P+M"},
		{false, true, true, false, "CW+M"},
		{true, true, true, false, "P+CW+M"},
		{false, false, false, true, "BASIC-SC"},
		{true, true, false, true, "P+M-SC"},
	}
	for _, c := range cases {
		p := DefaultParams()
		p.P, p.M, p.CW, p.SC = c.p, c.m, c.cw, c.sc
		if got := p.ProtocolName(); got != c.want {
			t.Errorf("ProtocolName = %q, want %q", got, c.want)
		}
	}
}

func TestCostTableContents(t *testing.T) {
	rows := CostTable(16)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if !strings.Contains(rows[2].MemoryBitsPerLine, "4 bits") {
		t.Errorf("M pointer for 16 nodes should be log2 16 = 4 bits: %q", rows[2].MemoryBitsPerLine)
	}
	if log2(1) != 0 || log2(2) != 1 || log2(16) != 4 || log2(17) != 5 {
		t.Error("log2 wrong")
	}
}

func TestMsgStringAndSizes(t *testing.T) {
	if MsgReadReq.String() != "ReadReq" || MsgBarGo.String() != "BarGo" {
		t.Error("message names wrong")
	}
	ctl := &Msg{Type: MsgInv}
	if ctl.Size() != 16 {
		t.Errorf("control size %d", ctl.Size())
	}
	data := &Msg{Type: MsgReadReply, Data: true}
	if data.Size() != 48 {
		t.Errorf("data size %d", data.Size())
	}
	upd := &Msg{Type: MsgUpdateReq, Mask: memsys.WordMask(0).Set(0).Set(3)}
	if upd.Size() != 16+8 {
		t.Errorf("update size %d", upd.Size())
	}
}

func TestPrefetchNackAblation(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.P = true
		p.PrefetchNackDirty = true
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	// Make b+1 dirty at node 2, then miss on b at node 0: the prefetch of
	// b+1 must be nacked, leaving node 2's copy untouched.
	write(t, eng, s, 2, b.Next(1).Addr())
	read(t, eng, s, 0, a)
	eng.Run()
	pf := s.Nodes[0].Cache.Prefetcher()
	if pf.Stats.Nacked != 1 {
		t.Fatalf("Nacked = %d, want 1", pf.Stats.Nacked)
	}
	if l := lineOf(s, 2, b.Next(1).Addr()); l == nil || l.State != cache.Dirty {
		t.Fatalf("owner's dirty copy disturbed: %+v", l)
	}
	if lineOf(s, 0, b.Next(1).Addr()) != nil {
		t.Fatal("nacked prefetch installed a line")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchToDirtyServedWithoutNackOption(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.P = true })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	write(t, eng, s, 2, b.Next(1).Addr())
	read(t, eng, s, 0, a)
	eng.Run()
	// Paper behavior: serviced four-hop; the owner is downgraded.
	if l := lineOf(s, 0, b.Next(1).Addr()); l == nil || !l.PrefetchBit {
		t.Fatalf("prefetch to dirty block not serviced: %+v", l)
	}
	if l := lineOf(s, 2, b.Next(1).Addr()); l == nil || l.State != cache.Shared {
		t.Fatalf("owner not downgraded: %+v", l)
	}
}

func TestNackWithMergedDemandReissues(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.P = true
		p.PrefetchNackDirty = true
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	write(t, eng, s, 2, b.Next(1).Addr())
	// Demand-read b (prefetches b+1, which will be nacked) and immediately
	// demand b+1 so it merges with the in-flight prefetch. The nack must
	// reissue a demand read, and the reader must still get data.
	done := 0
	s.Nodes[0].Cache.Read(a, func() { done++ })
	s.Nodes[0].Cache.Read(b.Next(1).Addr(), func() { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("%d of 2 reads completed", done)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSCReleaseAcknowledged(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.SC = true
		p.FLWBEntries = 1
	})
	lock := blockHomedAt(s, 2)
	acq, rel := false, false
	s.Nodes[0].Cache.Acquire(lock, func() { acq = true })
	eng.Run()
	if proceed := s.Nodes[0].Cache.Release(lock, func() { rel = true }); proceed {
		t.Fatal("SC release proceeded without ack")
	}
	eng.Run()
	if !acq || !rel {
		t.Fatalf("acq=%v rel=%v", acq, rel)
	}
}

func TestWritebackStampRejectsStale(t *testing.T) {
	// Exercise the grant-generation check directly: a writeback whose
	// stamp predates the current grant must be dropped.
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 0)
	b := memsys.BlockOf(a)
	write(t, eng, s, 1, a) // node 1 owner, grants=1
	home := s.Nodes[0].Home
	e, _ := home.Entry(b)
	if !e.Modified || e.Owner != 1 {
		t.Fatalf("setup: %+v", e)
	}
	// A forged stale writeback (stamp 0 < grants 1). Register the pending
	// entry first so the acknowledgment has a receiver.
	c := s.Nodes[1].Cache
	c.rec(s.blockID(b)).flags |= wbPending
	c.wbCount++
	home.Handle(&Msg{Type: MsgWBReq, Block: b, id: s.blockID(b), Src: 1, Dst: 0, Data: true, Stamp: 0})
	eng.Run()
	if home.StaleWritebacks != 1 {
		t.Fatalf("StaleWritebacks = %d", home.StaleWritebacks)
	}
	e, _ = home.Entry(b)
	if !e.Modified {
		t.Fatal("stale writeback cleared ownership")
	}
}

func TestOwnershipCyclesBackWithQueuedWriteback(t *testing.T) {
	// Regression for the ABA the fuzzer found: a cache victimizes its
	// dirty line, regains exclusivity through an update while the old
	// writeback is still queued, and the home must not let the stale
	// writeback clear the fresh ownership.
	eng, s := testSystem(t, func(p *Params) {
		p.CW = true
		p.SLCSets = 4
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	c := s.Nodes[0].Cache
	// Gain exclusivity via an update (writes to an uncached block).
	c.Write(a, nil, nil)
	eng.Run()
	for _, e := range c.WriteCache().DrainAll() {
		c.flushWC(e)
	}
	eng.Run()
	if l := lineOf(s, 0, a); l == nil || l.State != cache.Dirty {
		t.Fatalf("no exclusive copy: %+v", l)
	}
	// Victimize it (conflicting read), then immediately write again: the
	// new write-cache flush races the writeback.
	done := false
	c.Read(b.Next(4).Addr(), func() { done = true })
	c.Write(a, nil, nil)
	eng.Run()
	if !done {
		t.Fatal("conflicting read never completed")
	}
	for _, e := range c.WriteCache().DrainAll() {
		c.flushWC(e)
	}
	eng.Run()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuiescedAndIdle(t *testing.T) {
	eng, s := testSystem(t, nil)
	if !s.Quiesced() {
		t.Fatal("fresh system not quiesced")
	}
	a := blockHomedAt(s, 1)
	got := false
	s.Nodes[0].Cache.Read(a, func() { got = true })
	if s.Quiesced() {
		t.Fatal("quiesced with a read in flight")
	}
	eng.Run()
	if !got || !s.Quiesced() {
		t.Fatal("not quiesced after drain")
	}
}

func TestStatsGatingSuppressesCounters(t *testing.T) {
	eng, s := testSystem(t, nil)
	s.SetStatsEnabled(false)
	a := blockHomedAt(s, 1)
	read(t, eng, s, 0, a)
	c := s.Nodes[0].Cache
	if c.Misses.Total() != 0 || c.CStats.SLCReadMisses != 0 {
		t.Fatal("miss counters advanced while stats disabled")
	}
	if s.Traffic.TotalBytes() != 0 {
		t.Fatal("traffic counted while stats disabled")
	}
	s.SetStatsEnabled(true)
	read(t, eng, s, 2, a)
	if s.Nodes[2].Cache.Misses.Total() != 1 {
		t.Fatal("miss not counted after re-enabling")
	}
}

func TestCWMUpdateRecallOfMigratoryBlock(t *testing.T) {
	// CW+M: a block goes migratory-exclusive; a laggard updater's combined
	// writes must recall the owner's copy and transfer exclusivity.
	eng, s := testSystem(t, func(p *Params) {
		p.CW = true
		p.M = true
		p.CWThreshold = 4
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	// Node 0 writes into its write cache but does not flush yet.
	c0 := s.Nodes[0].Cache
	c0.Write(a, nil, nil)
	eng.Run()
	// Node 2 takes the block exclusive (write miss to uncached block, no
	// other copies: update grants exclusivity).
	c2 := s.Nodes[2].Cache
	c2.Write(a, nil, nil)
	eng.Run()
	for _, e := range c2.WriteCache().DrainAll() {
		c2.flushWC(e)
	}
	eng.Run()
	e, _ := s.Nodes[1].Home.Entry(b)
	if !e.Modified || e.Owner != 2 {
		t.Fatalf("setup: %+v", e)
	}
	// Now node 0's stale combined writes flush: recall from node 2, grant
	// to node 0.
	for _, we := range c0.WriteCache().DrainAll() {
		c0.flushWC(we)
	}
	eng.Run()
	e, _ = s.Nodes[1].Home.Entry(b)
	if !e.Modified || e.Owner != 0 {
		t.Fatalf("recall did not transfer ownership: %+v", e)
	}
	if lineOf(s, 2, a) != nil {
		t.Fatal("recalled owner kept its copy")
	}
	if l := lineOf(s, 0, a); l == nil || l.State != cache.Dirty {
		t.Fatalf("updater's line: %+v", l)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetcherDiscardStat(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.P = true })
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	read(t, eng, s, 0, a) // prefetches b+1
	if l := lineOf(s, 0, b.Next(1).Addr()); l == nil || !l.PrefetchBit {
		t.Fatal("setup failed")
	}
	// Node 2 writes b+1: node 0's unreferenced prefetched copy is
	// invalidated -> a discard.
	write(t, eng, s, 2, b.Next(1).Addr())
	if got := s.Nodes[0].Cache.Prefetcher().Stats.Discard; got != 1 {
		t.Fatalf("Discard = %d, want 1", got)
	}
}

func TestZeroDegreeRestartEndToEnd(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.P = true })
	pf := s.Nodes[0].Cache.Prefetcher()
	// Drive the degree to zero with useless fills.
	for i := 0; i < prefetchWindow; i++ {
		pf.OnFill()
	}
	if pf.Degree() != 0 {
		t.Fatalf("degree = %d", pf.Degree())
	}
	// A sequential scan of demand misses must restart prefetching through
	// the zero-bit machinery, end to end.
	base := memsys.BlockOf(blockHomedAt(s, 1))
	for i := 0; i < prefetchWindow+2; i++ {
		read(t, eng, s, 0, base.Next(i).Addr())
	}
	if pf.Degree() == 0 {
		t.Fatal("degree never restarted on a sequential miss stream")
	}
}

func TestStorageModel(t *testing.T) {
	base := DefaultParams()
	geomFrames, geomBlocks := 512, 1<<16
	basic := ComputeStorage(base, geomFrames, geomBlocks)
	// BASIC: 2 state bits per line; 3 + 16 bits per memory block.
	if basic.SLCLineBits != 2 {
		t.Fatalf("BASIC SLC bits = %d", basic.SLCLineBits)
	}
	if basic.MemoryLineBits != 19 {
		t.Fatalf("BASIC memory bits = %d", basic.MemoryLineBits)
	}
	p := base
	p.P = true
	if got := ComputeStorage(p, geomFrames, geomBlocks); got.SLCLineBits != 4 ||
		got.CacheMechanismBits != 12 {
		t.Fatalf("P storage = %+v", got)
	}
	m := base
	m.M = true
	sm := ComputeStorage(m, geomFrames, geomBlocks)
	if sm.MemoryLineBits != 19+1+4 { // +migratory bit +4-bit pointer
		t.Fatalf("M memory bits = %d", sm.MemoryLineBits)
	}
	cw := base
	cw.CW = true
	scw := ComputeStorage(cw, geomFrames, geomBlocks)
	if scw.SLCLineBits != 3 { // 2 state + 1-bit counter (threshold 1)
		t.Fatalf("CW SLC bits = %d", scw.SLCLineBits)
	}
	if scw.CacheMechanismBits == 0 {
		t.Fatal("CW write cache costs nothing")
	}
	// Limited pointers shrink the directory.
	lim := base
	lim.DirPointers = 2
	slim := ComputeStorage(lim, geomFrames, geomBlocks)
	if slim.MemoryLineBits >= basic.MemoryLineBits {
		t.Fatalf("Dir2B (%d bits) not smaller than full map (%d)",
			slim.MemoryLineBits, basic.MemoryLineBits)
	}
	// Every extension costs something over BASIC.
	all := base
	all.P, all.M, all.CW = true, true, true
	if ComputeStorage(all, geomFrames, geomBlocks).ExtraBitsOver(basic) <= 0 {
		t.Fatal("P+CW+M costs nothing")
	}
}
