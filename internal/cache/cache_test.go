package cache

import (
	"testing"
	"testing/quick"

	"ccsim/internal/memsys"
)

func TestSLCInfiniteNeverEvicts(t *testing.T) {
	c := NewSLC(0)
	slots := make([]Line, 1000) // an infinite cache's frames are the caller's
	for b := memsys.Block(0); b < 1000; b++ {
		if _, _, evicted := c.Insert(b, Shared, &slots[b]); evicted {
			t.Fatalf("infinite cache evicted on insert of %d", b)
		}
	}
	if n := validSlots(slots); n != 1000 {
		t.Fatalf("%d valid slots, want 1000", n)
	}
	for b := memsys.Block(0); b < 1000; b++ {
		if c.Lookup(b, &slots[b]) == nil {
			t.Fatalf("block %d missing", b)
		}
	}
}

func TestSLCFiniteDirectMappedConflict(t *testing.T) {
	c := NewSLC(4)
	c.Insert(1, Shared, nil)
	// Block 5 maps to the same frame (5 % 4 == 1).
	line, victim, evicted := c.Insert(5, Dirty, nil)
	if !evicted || victim.Block != 1 {
		t.Fatalf("expected victim block 1, got %v", victim)
	}
	if line.Block != 5 || line.State != Dirty {
		t.Fatalf("inserted line wrong: %+v", line)
	}
	if c.Lookup(1, nil) != nil {
		t.Fatal("victim still present")
	}
}

func TestSLCInsertSameBlockNoVictim(t *testing.T) {
	c := NewSLC(4)
	l, _, _ := c.Insert(2, Shared, nil)
	l.PrefetchBit = true
	l2, _, evicted := c.Insert(2, Dirty, nil)
	if evicted {
		t.Fatal("reinsert of same block reported a victim")
	}
	if l2.PrefetchBit {
		t.Fatal("reinsert did not reset extension bits")
	}
	if l2.State != Dirty {
		t.Fatal("reinsert did not set new state")
	}
}

func TestSLCInvalidate(t *testing.T) {
	c := NewSLC(8)
	c.Insert(3, Dirty, nil)
	old, ok := c.Invalidate(3, nil)
	if !ok || old.State != Dirty {
		t.Fatalf("Invalidate returned %v, %v", old, ok)
	}
	if c.Lookup(3, nil) != nil {
		t.Fatal("block still present after invalidate")
	}
	if _, ok := c.Invalidate(3, nil); ok {
		t.Fatal("second invalidate returned a line")
	}
	// Invalidate of a conflicting (different) block must not touch the line.
	c.Insert(3, Shared, nil)
	if _, ok := c.Invalidate(11, nil); ok { // 11 % 8 == 3 % 8
		t.Fatal("invalidate of absent conflicting block removed the line")
	}
	if c.Lookup(3, nil) == nil {
		t.Fatal("line lost by invalidate of a different block")
	}
}

func TestSLCInsertInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(Invalid) did not panic")
		}
	}()
	NewSLC(4).Insert(0, Invalid, nil)
}

func TestSLCForEach(t *testing.T) {
	c := NewSLC(16)
	for b := memsys.Block(0); b < 10; b++ {
		c.Insert(b, Shared, nil)
	}
	n := 0
	c.ForEach(func(l *Line) { n++ })
	if n != 10 {
		t.Fatalf("ForEach visited %d, want 10", n)
	}
	// An infinite cache's frames are the caller's: Insert and Invalidate
	// work on them, but the cache cannot walk or count them, and says so.
	inf := NewSLC(0)
	slots := make([]Line, 10)
	for b := range slots {
		inf.Insert(memsys.Block(b), Shared, &slots[b])
	}
	inf.Invalidate(3, &slots[3])
	if _, ok := inf.Invalidate(3, &slots[3]); ok {
		t.Fatal("second Invalidate of block 3 found it present")
	}
	if n := validSlots(slots); n != 9 {
		t.Fatalf("%d valid slots, want 9", n)
	}
	for name, f := range map[string]func(){
		"ForEach": func() { inf.ForEach(func(*Line) {}) },
		"Valid":   func() { inf.Valid() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("infinite %s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// validSlots counts the valid lines among an infinite cache's frames.
func validSlots(slots []Line) int {
	n := 0
	for i := range slots {
		if slots[i].State != Invalid {
			n++
		}
	}
	return n
}

// Property: a finite SLC holds at most Sets() blocks, and Lookup agrees
// with the most recent Insert/Invalidate for any operation sequence.
func TestSLCConsistencyProperty(t *testing.T) {
	f := func(ops []struct {
		B   uint8
		Inv bool
	}) bool {
		c := NewSLC(8)
		ref := map[memsys.Block]bool{}
		for _, op := range ops {
			b := memsys.Block(op.B % 32)
			if op.Inv {
				c.Invalidate(b, nil)
				delete(ref, b)
			} else {
				c.Insert(b, Shared, nil)
				// Displace any block sharing the frame.
				for rb := range ref {
					if rb%8 == b%8 && rb != b {
						delete(ref, rb)
					}
				}
				ref[b] = true
			}
		}
		if c.Valid() > 8 {
			return false
		}
		for b := memsys.Block(0); b < 32; b++ {
			if (c.Lookup(b, nil) != nil) != ref[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFLCBasic(t *testing.T) {
	f := NewFLC(128)
	if f.Lookup(7) {
		t.Fatal("hit in empty FLC")
	}
	f.Fill(7)
	if !f.Lookup(7) {
		t.Fatal("miss after fill")
	}
	// 135 = 7 + 128 conflicts with 7.
	f.Fill(135)
	if f.Lookup(7) {
		t.Fatal("conflicting fill did not displace")
	}
	if !f.Lookup(135) {
		t.Fatal("conflicting fill lost")
	}
	f.Invalidate(135)
	if f.Lookup(135) {
		t.Fatal("hit after invalidate")
	}
	// Invalidating an absent block must not disturb the resident one.
	f.Fill(7)
	f.Invalidate(135)
	if !f.Lookup(7) {
		t.Fatal("invalidate of absent block removed resident block")
	}
}

func TestWriteCacheCombining(t *testing.T) {
	w := NewWriteCache(4)
	if _, ev := w.Write(10, 0); ev {
		t.Fatal("first write evicted")
	}
	if _, ev := w.Write(10, 3); ev {
		t.Fatal("combining write evicted")
	}
	mask, ok := w.Lookup(10)
	if !ok || !mask.Has(0) || !mask.Has(3) || mask.Count() != 2 {
		t.Fatalf("mask = %v ok=%v", mask, ok)
	}
	if w.Combined() != 1 {
		t.Fatalf("Combined = %d, want 1", w.Combined())
	}
}

func TestWriteCacheConflictEviction(t *testing.T) {
	w := NewWriteCache(4)
	w.Write(2, 1)
	victim, evicted := w.Write(6, 0) // 6 % 4 == 2 % 4
	if !evicted || victim.Block != 2 || !victim.Mask.Has(1) {
		t.Fatalf("victim = %+v evicted=%v", victim, evicted)
	}
	if _, ok := w.Lookup(2); ok {
		t.Fatal("victim still allocated")
	}
	if w.Evictions() != 1 {
		t.Fatalf("Evictions = %d", w.Evictions())
	}
}

func TestWriteCacheDrainAll(t *testing.T) {
	w := NewWriteCache(4)
	w.Write(0, 0)
	w.Write(1, 1)
	w.Write(3, 7)
	out := w.DrainAll()
	if len(out) != 3 {
		t.Fatalf("drained %d entries, want 3", len(out))
	}
	if w.Occupancy() != 0 {
		t.Fatal("entries remain after drain")
	}
}

func TestWriteCacheRemove(t *testing.T) {
	w := NewWriteCache(4)
	w.Write(5, 2)
	e, ok := w.Remove(5)
	if !ok || e.Block != 5 || !e.Mask.Has(2) {
		t.Fatalf("Remove = %+v, %v", e, ok)
	}
	if _, ok := w.Remove(5); ok {
		t.Fatal("second remove succeeded")
	}
}

// Property: the mask for a block is exactly the union of words written
// since it was (re)allocated.
func TestWriteCacheMaskProperty(t *testing.T) {
	f := func(words []uint8) bool {
		w := NewWriteCache(4)
		var want memsys.WordMask
		for _, wd := range words {
			w.Write(42, int(wd%8))
			want = want.Set(int(wd % 8))
		}
		if len(words) == 0 {
			_, ok := w.Lookup(42)
			return !ok
		}
		mask, ok := w.Lookup(42)
		return ok && mask == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrderAndBounds(t *testing.T) {
	f := NewFIFO[int](3)
	if !f.Empty() || f.Full() {
		t.Fatal("fresh FIFO state wrong")
	}
	f.Push(1)
	f.Push(2)
	f.Push(3)
	if !f.Full() || f.Len() != 3 {
		t.Fatal("FIFO not full after cap pushes")
	}
	if v, _ := f.Peek(); v != 1 {
		t.Fatalf("Peek = %d", v)
	}
	for want := 1; want <= 3; want++ {
		v, ok := f.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = %d,%v want %d", v, ok, want)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("Pop from empty succeeded")
	}
	if f.HighWater != 3 {
		t.Fatalf("HighWater = %d, want 3", f.HighWater)
	}
}

func TestFIFOOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("push to full FIFO did not panic")
		}
	}()
	f := NewFIFO[int](1)
	f.Push(1)
	f.Push(2)
}

// TestFIFORingAllocatesNothing pins the fixed ring: push/pop cycles far past
// the capacity allocate nothing and keep FIFO order and the high-water mark.
func TestFIFORingAllocatesNothing(t *testing.T) {
	f := NewFIFO[int](4)
	next, expect := 0, 0
	cycle := func() {
		for i := 0; i < 3; i++ {
			f.Push(next)
			next++
		}
		for i := 0; i < 3; i++ {
			if v, ok := f.Pop(); !ok || v != expect {
				t.Fatalf("Pop = %d,%v want %d", v, ok, expect)
			}
			expect++
		}
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("push/pop cycle allocates %.1f objects, want 0", allocs)
	}
	if f.HighWater != 3 || !f.Empty() {
		t.Fatalf("HighWater = %d, Len = %d; want 3, 0", f.HighWater, f.Len())
	}
}

// Property: FIFO preserves order for any push/pop interleaving that
// respects capacity.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewFIFO[int](8)
		next, expect := 0, 0
		for _, push := range ops {
			if push && !q.Full() {
				q.Push(next)
				next++
			} else if !push {
				if v, ok := q.Pop(); ok {
					if v != expect {
						return false
					}
					expect++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
