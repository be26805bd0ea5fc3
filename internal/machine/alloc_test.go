package machine

import (
	"runtime"
	"testing"

	"ccsim/internal/workload"
)

// maxAllocsPerRef bounds heap allocations per simulated processor reference
// (reads plus writes) while a machine runs; stream generation and machine
// construction are excluded. The per-reference path allocates nothing once
// its pools are warm: what remains is pool and record-table warm-up,
// per-block queues at the directory, and synchronization bookkeeping, all
// of which shrink per reference as runs grow. At scale 0.05 the runs below
// measure 0.1 to 0.4; allocating a message, MSHR or callback per miss or
// per reference again would push them past 1.
const maxAllocsPerRef = 0.5

// TestAllocsPerReference pins the allocation-free protocol path.
func TestAllocsPerReference(t *testing.T) {
	for _, tc := range []struct {
		kernel    string
		p, cw     bool
		slcBlocks int
	}{
		{"mp3d", true, true, 0},
		{"lu", false, false, 512},
		{"lu", true, true, 512},
	} {
		streams, err := workload.Streams(tc.kernel, 4, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Core.Nodes = 4
		cfg.Core.P, cfg.Core.CW = tc.p, tc.cw
		cfg.Core.SLCSets = tc.slcBlocks
		m, err := New(cfg, streams)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		refs := r.Reads + r.Writes
		perRef := float64(after.Mallocs-before.Mallocs) / float64(refs)
		t.Logf("%s P=%v CW=%v SLC=%d: %d allocs over %d refs = %.3f per ref",
			tc.kernel, tc.p, tc.cw, tc.slcBlocks, after.Mallocs-before.Mallocs, refs, perRef)
		if perRef > maxAllocsPerRef {
			t.Errorf("%s P=%v CW=%v SLC=%d: %.3f allocations per reference, bound %.1f",
				tc.kernel, tc.p, tc.cw, tc.slcBlocks, perRef, maxAllocsPerRef)
		}
	}
}
