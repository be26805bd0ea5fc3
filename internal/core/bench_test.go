package core

import (
	"testing"

	"ccsim/internal/memsys"
	"ccsim/internal/network"
	"ccsim/internal/sim"
)

// readMissRoundTrip returns a function that performs one remote clean read
// miss end to end: the SLC access, the request's hop to its home, the
// directory's memory access, the reply's hop back and the fill. Two blocks
// homed at node 1 share the frame of a one-frame SLC at node 0, so every
// read misses and replaces the other (clean, so no writeback). check
// verifies that each of the n round trips so far missed and completed.
func readMissRoundTrip(tb testing.TB) (step func(), check func(n int)) {
	p := DefaultParams()
	p.Nodes = 2
	p.SLCSets = 1
	eng := sim.NewEngine()
	s, err := NewSystem(eng, network.NewUniform(eng, p.Timing.NetLatency), p)
	if err != nil {
		tb.Fatal(err)
	}
	base := memsys.Block(memsys.BlocksPerPage) // page 1: homed at node 1
	blocks := [2]memsys.Addr{base.Addr(), base.Next(1).Addr()}
	c := s.Nodes[0].Cache
	filled, i := 0, 0
	done := func() { filled++ }
	step = func() {
		if c.Read(blocks[i&1], done) {
			tb.Fatal("read hit; every read must miss")
		}
		i++
		eng.Run()
	}
	check = func(n int) {
		if filled != n {
			tb.Fatalf("%d of %d reads completed", filled, n)
		}
		if misses := c.CStats.SLCReadMisses; misses != uint64(n) {
			tb.Fatalf("%d SLC misses for %d reads", misses, n)
		}
	}
	return step, check
}

// BenchmarkReadMissRoundTrip times one remote clean read miss end to end
// (see readMissRoundTrip). Run with -benchmem; TestReadMissRoundTripAllocs
// holds its allocation count at zero.
func BenchmarkReadMissRoundTrip(b *testing.B) {
	step, check := readMissRoundTrip(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		step()
	}
	check(b.N)
}

// TestReadMissRoundTripAllocs pins the protocol's allocation-free miss
// path: once the message, memory-job and MSHR pools are warm, a remote
// read miss round trip allocates nothing.
func TestReadMissRoundTripAllocs(t *testing.T) {
	step, check := readMissRoundTrip(t)
	const warm, runs = 64, 200
	for i := 0; i < warm; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Fatalf("read miss round trip allocates %.2f objects, want 0", allocs)
	}
	check(warm + runs + 1) // AllocsPerRun adds one warm-up call
}
