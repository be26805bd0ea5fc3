package stats

// Classifier implements the standard cold / coherence / replacement miss
// taxonomy for one (processor, block) pair: it is the one history byte the
// cache keeps per block. The cache calls Fill, Evict and Invalidate as the
// block's line comes and goes, and Classify on each demand read miss. The
// zero value is a block never cached.
type Classifier uint8

const (
	neverCached Classifier = iota
	cached
	evicted     // left the cache by replacement
	invalidated // left the cache by a coherence action
)

// Classify returns the kind of a demand miss to the block.
func (c Classifier) Classify() MissKind {
	switch c {
	case neverCached:
		return Cold
	case invalidated:
		return Coherence
	default: // evicted, or (defensively) cached — a miss on a cached block
		// can only mean the line was displaced without notice; count it as
		// replacement.
		return Replacement
	}
}

// Fill records that the block is now cached.
func (c *Classifier) Fill() { *c = cached }

// Evict records that the block was replaced to make room.
func (c *Classifier) Evict() {
	if *c == cached {
		*c = evicted
	}
}

// Invalidate records that the block was removed by a coherence action
// (invalidation message, update-counter expiry, or migratory transfer).
func (c *Classifier) Invalidate() {
	if *c == cached {
		*c = invalidated
	}
}

// Seen reports whether the block has ever been cached by this processor.
func (c Classifier) Seen() bool { return c != neverCached }
