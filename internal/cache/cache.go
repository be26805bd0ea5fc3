// Package cache provides the cache data structures of a processor node: the
// first-level cache (FLC) tag array, the second-level cache (SLC) with the
// per-line state the protocol extensions need, the FIFO write buffers
// (FLWB/SLWB capacity is enforced by their owners), and the small write
// cache used by the competitive-update extension. Controller logic lives in
// internal/core; these types only hold state, which keeps every structure
// directly unit-testable.
package cache

import "ccsim/internal/memsys"

// LineState is an SLC line's stable coherence state. The SLC needs no
// transient states because pending accesses are kept in the SLWB (paper §2).
type LineState uint8

const (
	Invalid LineState = iota
	Shared
	Dirty
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Dirty:
		return "D"
	}
	return "?"
}

// Line is one SLC line plus the per-line bits each extension adds
// (paper Table 1). Word versions for data verification are kept by the
// controller, per block, only when verification is on.
type Line struct {
	Block memsys.Block

	// ID is the controller's dense number for Block, stamped after a fill
	// so a victim names its block record without a lookup. The SLC never
	// reads it.
	ID int32

	State LineState

	// P: set when the block arrived by prefetch and has not yet been
	// referenced by the processor (one of P's two bits per line).
	PrefetchBit bool

	// CW+M: set when the processor has written the block since the last
	// update left for home (the extra bit migratory detection needs).
	LocallyModified bool

	// M: the "extra state" of the migratory optimization — set when the
	// copy was supplied exclusively by a migratory read miss; Written
	// records whether the processor has actually written it since, which
	// decides whether the home reverts the block to ordinary sharing.
	MigSupplied bool
	Written     bool

	// CW: remaining competitive count; a foreign update when the counter is
	// zero invalidates the copy. Preset on load and on every local access.
	CWCount int
}

// SLC is the second-level cache. frames == 0 selects the paper's default
// infinite cache, in which every block has its own frame; otherwise the
// cache has that many one-block frames arranged in ways-associative sets
// with LRU replacement (ways == 1 is the paper's direct-mapped
// organization).
//
// An infinite cache's frames belong to the caller: Lookup, Insert and
// Invalidate take slot, block b's own frame, and use it only when the cache
// is infinite (finite callers may pass nil). The controller keeps that frame
// in its per-block record, so no access hashes.
type SLC struct {
	frames int
	ways   int
	nsets  int
	array  []Line   // nsets * ways
	age    []uint64 // LRU timestamps, parallel to array
	tick   uint64
}

// NewSLC returns a direct-mapped SLC with the given number of frames, or an
// infinite one if frames == 0.
func NewSLC(frames int) *SLC { return NewSLCAssoc(frames, 1) }

// NewSLCAssoc returns a ways-associative SLC with the given total frame
// count (frames must be a multiple of ways), or an infinite one if
// frames == 0.
func NewSLCAssoc(frames, ways int) *SLC {
	if ways < 1 {
		panic("cache: SLC needs at least one way")
	}
	c := &SLC{frames: frames, ways: ways}
	if frames == 0 {
		return c
	}
	if frames%ways != 0 {
		panic("cache: SLC frame count not a multiple of the associativity")
	}
	c.nsets = frames / ways
	c.array = make([]Line, frames)
	c.age = make([]uint64, frames)
	return c
}

// Sets returns the frame count (0 = infinite).
func (c *SLC) Sets() int { return c.frames }

// Ways returns the associativity.
func (c *SLC) Ways() int { return c.ways }

// set returns the index range [lo, hi) of block b's set.
func (c *SLC) set(b memsys.Block) (lo, hi int) {
	s := int(uint64(b) % uint64(c.nsets))
	return s * c.ways, (s + 1) * c.ways
}

// Infinite reports whether every block has its own (caller-held) frame.
func (c *SLC) Infinite() bool { return c.frames == 0 }

// Lookup returns the line holding block b, or nil if b is not present in a
// valid state. A hit refreshes the line's LRU age.
func (c *SLC) Lookup(b memsys.Block, slot *Line) *Line {
	if c.frames == 0 {
		if slot.State == Invalid {
			return nil
		}
		return slot
	}
	lo, hi := c.set(b)
	for i := lo; i < hi; i++ {
		l := &c.array[i]
		if l.State != Invalid && l.Block == b {
			c.tick++
			c.age[i] = c.tick
			return l
		}
	}
	return nil
}

// Insert installs block b in state st and returns its line. If a valid line
// holding a different block had to be displaced (the set's LRU way), a copy
// of it is returned as victim with evicted set. Inserting over an existing
// line for the same block resets the extension bits (a fresh fill).
func (c *SLC) Insert(b memsys.Block, st LineState, slot *Line) (line *Line, victim Line, evicted bool) {
	if st == Invalid {
		panic("cache: inserting an invalid line")
	}
	if c.frames == 0 {
		*slot = Line{Block: b, State: st}
		return slot, victim, false
	}
	lo, hi := c.set(b)
	i := -1
	for j := lo; j < hi; j++ {
		l := &c.array[j]
		if l.State != Invalid && l.Block == b {
			i = j
			break
		}
		if l.State == Invalid && i < 0 {
			i = j
		}
	}
	if i < 0 {
		// Set full: evict the least recently used way.
		i = lo
		for j := lo + 1; j < hi; j++ {
			if c.age[j] < c.age[i] {
				i = j
			}
		}
		victim, evicted = c.array[i], true
	}
	c.tick++
	c.age[i] = c.tick
	c.array[i] = Line{Block: b, State: st}
	return &c.array[i], victim, evicted
}

// Invalidate removes block b if present and returns the line content it had
// (ok is false if it was not present).
func (c *SLC) Invalidate(b memsys.Block, slot *Line) (old Line, ok bool) {
	if c.frames == 0 {
		if slot.State == Invalid {
			return old, false
		}
		old = *slot
		slot.State = Invalid
		return old, true
	}
	lo, hi := c.set(b)
	for i := lo; i < hi; i++ {
		l := &c.array[i]
		if l.State != Invalid && l.Block == b {
			old = *l
			l.State = Invalid
			return old, true
		}
	}
	return old, false
}

// Valid returns the number of valid lines of a finite cache, in
// O(frames). An infinite cache's frames are the caller's, so it cannot
// count them and panics.
func (c *SLC) Valid() int {
	c.mustBeFinite("Valid")
	n := 0
	for i := range c.array {
		if c.array[i].State != Invalid {
			n++
		}
	}
	return n
}

// ForEach calls fn for every valid frame of a finite cache, in frame
// order; fn must not insert or invalidate. An infinite cache's frames are
// the caller's, so it cannot walk them and panics rather than silently
// visit nothing (internal/core walks its own records instead).
func (c *SLC) ForEach(fn func(*Line)) {
	c.mustBeFinite("ForEach")
	for i := range c.array {
		if c.array[i].State != Invalid {
			fn(&c.array[i])
		}
	}
}

func (c *SLC) mustBeFinite(op string) {
	if c.frames == 0 {
		panic("cache: " + op + " on an infinite SLC, whose frames are the caller's")
	}
}

// FLC is the first-level cache tag array: 4 KB direct-mapped, write-through,
// no allocation on write misses (paper §2). Only read hits matter for
// timing, so it holds tags only.
type FLC struct {
	sets  int
	tags  []memsys.Block
	valid []bool
}

// NewFLC returns an FLC with the given number of one-block frames.
func NewFLC(sets int) *FLC {
	return &FLC{sets: sets, tags: make([]memsys.Block, sets), valid: make([]bool, sets)}
}

func (f *FLC) idx(b memsys.Block) int { return int(uint64(b) % uint64(f.sets)) }

// Lookup reports whether block b hits.
func (f *FLC) Lookup(b memsys.Block) bool {
	i := f.idx(b)
	return f.valid[i] && f.tags[i] == b
}

// Fill installs block b (displacing whatever shared the frame).
func (f *FLC) Fill(b memsys.Block) {
	i := f.idx(b)
	f.tags[i] = b
	f.valid[i] = true
}

// Invalidate removes block b if present (inclusion with the SLC).
func (f *FLC) Invalidate(b memsys.Block) {
	i := f.idx(b)
	if f.valid[i] && f.tags[i] == b {
		f.valid[i] = false
	}
}
