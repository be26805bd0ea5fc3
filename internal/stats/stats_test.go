package stats

import (
	"testing"
	"testing/quick"
)

func TestProcTotal(t *testing.T) {
	p := Proc{Busy: 10, ReadStall: 20, WriteStall: 5, AcquireStall: 3, ReleaseStall: 2}
	if p.Total() != 40 {
		t.Fatalf("Total = %d, want 40", p.Total())
	}
}

func TestMissesAddAndTotal(t *testing.T) {
	var m Misses
	m.Add(Cold)
	m.Add(Cold)
	m.Add(Coherence)
	m.Add(Replacement)
	if m[Cold] != 2 || m[Coherence] != 1 || m[Replacement] != 1 {
		t.Fatalf("misses = %v", m)
	}
	if m.Total() != 4 {
		t.Fatalf("Total = %d, want 4", m.Total())
	}
}

func TestMissKindString(t *testing.T) {
	if Cold.String() != "cold" || Coherence.String() != "coherence" || Replacement.String() != "replacement" {
		t.Fatal("MissKind strings wrong")
	}
}

func TestTraffic(t *testing.T) {
	var tr Traffic
	tr.Add(CtlMsg, 8)
	tr.Add(DataMsg, 40)
	tr.Add(DataMsg, 40)
	tr.Add(UpdateMsg, 16)
	if tr.TotalBytes() != 104 || tr.TotalMsgs() != 4 {
		t.Fatalf("bytes=%d msgs=%d", tr.TotalBytes(), tr.TotalMsgs())
	}
	if tr.Bytes[DataMsg] != 80 || tr.Msgs[CtlMsg] != 1 {
		t.Fatalf("per-class wrong: %+v", tr)
	}
}

func TestClassifierColdFirstMiss(t *testing.T) {
	var c Classifier
	if got := c.Classify(); got != Cold {
		t.Fatalf("first miss classified %v, want cold", got)
	}
	if c.Seen() {
		t.Fatal("Seen before any fill")
	}
}

func TestClassifierCoherence(t *testing.T) {
	var c Classifier
	c.Fill()
	c.Invalidate()
	if got := c.Classify(); got != Coherence {
		t.Fatalf("miss after invalidation classified %v, want coherence", got)
	}
}

func TestClassifierReplacement(t *testing.T) {
	var c Classifier
	c.Fill()
	c.Evict()
	if got := c.Classify(); got != Replacement {
		t.Fatalf("miss after eviction classified %v, want replacement", got)
	}
}

func TestClassifierRefillResets(t *testing.T) {
	var c Classifier
	c.Fill()
	c.Invalidate()
	c.Fill() // brought back
	c.Evict()
	if got := c.Classify(); got != Replacement {
		t.Fatalf("invalidate->fill->evict classified %v, want replacement", got)
	}
}

func TestClassifierEvictWithoutFillIgnored(t *testing.T) {
	var c Classifier
	c.Evict()      // spurious
	c.Invalidate() // spurious
	if got := c.Classify(); got != Cold {
		t.Fatalf("never-filled block classified %v, want cold", got)
	}
}

// Property: classification is never Cold once the block has been filled,
// for any sequence of events.
func TestClassifierNeverColdAfterFillProperty(t *testing.T) {
	f := func(events []uint8) bool {
		var c Classifier
		c.Fill()
		for _, e := range events {
			switch e % 3 {
			case 0:
				c.Fill()
			case 1:
				c.Evict()
			case 2:
				c.Invalidate()
			}
		}
		return c.Classify() != Cold && c.Seen()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after Fill, only the most recent departure event decides the
// classification.
func TestClassifierLastDepartureWinsProperty(t *testing.T) {
	f := func(n uint8, lastIsInv bool) bool {
		var c Classifier
		for i := 0; i < int(n%8)+1; i++ {
			c.Fill()
			if i%2 == 0 {
				c.Evict()
			} else {
				c.Invalidate()
			}
		}
		c.Fill()
		if lastIsInv {
			c.Invalidate()
			return c.Classify() == Coherence
		}
		c.Evict()
		return c.Classify() == Replacement
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Quantile(50) != 0 || h.Quantile(100) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram counters not 0")
	}
}

func TestHistExactSmallValues(t *testing.T) {
	// Values below two octaves of sub-buckets land in exact buckets, so
	// every quantile of a small-value set is exact.
	var h Hist
	for v := int64(0); v < 16; v++ {
		h.Add(v)
	}
	if got := h.Quantile(100); got != 15 {
		t.Fatalf("P100 = %d, want 15", got)
	}
	if got := h.Quantile(50); got != 7 {
		t.Fatalf("P50 = %d, want 7", got)
	}
	if got := h.Quantile(6.25); got != 0 {
		t.Fatalf("P6.25 = %d, want 0", got)
	}
}

func TestHistBucketBoundaries(t *testing.T) {
	// 16 and 17 share the first coarse bucket: the quantile may not resolve
	// between them but must stay inside the bucket, and the max stays exact.
	var h Hist
	h.Add(16)
	h.Add(17)
	if p := h.Quantile(50); p < 16 || p > 17 {
		t.Fatalf("P50 = %d, want within [16,17]", p)
	}
	if p := h.Quantile(100); p != 17 {
		t.Fatalf("P100 = %d, want exact max 17", p)
	}
	// A quantile upper bound never exceeds the exact maximum, even when the
	// max sits at the bottom of its bucket.
	var g Hist
	g.Add(1 << 20)
	if p := g.Quantile(50); p != 1<<20 {
		t.Fatalf("single-sample P50 = %d, want %d", p, 1<<20)
	}
}

func TestHistQuantileUpperBound(t *testing.T) {
	// The quantile estimate brackets the true order statistic from above
	// with bounded relative error.
	var h Hist
	var vals []int64
	for i := int64(1); i < 40000; i += 37 {
		h.Add(i)
		vals = append(vals, i)
	}
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(vals))
	}
	last := int64(0)
	for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
		got := h.Quantile(p)
		rank := int(p / 100 * float64(len(vals)))
		if rank == 0 {
			rank = 1
		}
		truth := vals[rank-1]
		if got < truth {
			t.Fatalf("P%v = %d below true order statistic %d", p, got, truth)
		}
		if float64(got) > float64(truth)*1.125+1 {
			t.Fatalf("P%v = %d overshoots true %d by more than 12.5%%", p, got, truth)
		}
		if got < last {
			t.Fatalf("quantiles not monotonic at %v: %d < %d", p, got, last)
		}
		last = got
	}
}

func TestHistMergeAcrossProcessors(t *testing.T) {
	// Merging per-processor histograms must be indistinguishable from one
	// processor having recorded everything.
	var parts [4]Hist
	var whole Hist
	for i := int64(0); i < 4000; i++ {
		v := (i * i) % 9001
		parts[i%4].Add(v)
		whole.Add(v)
	}
	var merged Hist
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged != whole {
		t.Fatal("merged histogram differs from directly accumulated one")
	}
	for _, p := range []float64{1, 50, 95, 99, 100} {
		if merged.Quantile(p) != whole.Quantile(p) {
			t.Fatalf("P%v differs after merge", p)
		}
	}
}

func TestHistExtremes(t *testing.T) {
	var h Hist
	h.Add(-5) // clamps to 0
	h.Add(1 << 50)
	if h.Max() != 1<<50 {
		t.Fatalf("Max = %d", h.Max())
	}
	if h.Quantile(100) != 1<<50 {
		t.Fatal("overflow bucket must report the exact max")
	}
	if h.Quantile(1) != 0 {
		t.Fatal("clamped negative must land at 0")
	}
}
