package core

import (
	"ccsim/internal/cache"
	"ccsim/internal/memsys"
	"ccsim/internal/sim"
	"ccsim/internal/stats"
)

// Per-block state lives in dense tables indexed by a block id. The System
// numbers a block the first time a processor reference that leaves the FLC
// or a prefetch candidate names it (blockID: at most one hash lookup per
// such reference or candidate), and the id travels in every protocol
// message about the block, so no handler hashes. Each cache controller
// keeps one blockRec per id, the directory one dirEntry per id; word
// versions for data verification sit in tables of their own that exist
// only when verification is on.

const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
)

// table is an id-indexed store of T kept in fixed-size chunks, allocated
// as ids reach them: element addresses stay valid as the table grows, and
// growing never copies.
type table[T any] struct {
	chunks [][]T
}

// at returns id's element, allocating its chunk on first use.
func (t *table[T]) at(id int32) *T {
	if c := int(id >> chunkShift); c < len(t.chunks) {
		if ch := t.chunks[c]; ch != nil {
			return &ch[id&(chunkLen-1)]
		}
	}
	return t.grow(id)
}

func (t *table[T]) grow(id int32) *T {
	c := int(id >> chunkShift)
	for len(t.chunks) <= c {
		t.chunks = append(t.chunks, nil)
	}
	t.chunks[c] = make([]T, chunkLen)
	return &t.chunks[c][id&(chunkLen-1)]
}

// peek returns id's element, or nil when its chunk was never allocated.
func (t *table[T]) peek(id int32) *T {
	if c := int(id >> chunkShift); c < len(t.chunks) && t.chunks[c] != nil {
		return &t.chunks[c][id&(chunkLen-1)]
	}
	return nil
}

// blockID returns b's dense id, numbering b on first sight.
func (s *System) blockID(b memsys.Block) int32 {
	id, ok := s.ids[b]
	if !ok {
		id = int32(len(s.blocks))
		s.ids[b] = id
		s.blocks = append(s.blocks, b)
	}
	return id
}

// blockRec is one cache controller's state for one block: the pending
// transaction, the writeback bookkeeping, the extension and classifier
// bits, and, when the SLC is infinite, the block's line itself.
type blockRec struct {
	line cache.Line // the block's frame in an infinite SLC
	ms   *mshr      // pending transaction (the SLWB entry); nil when none

	missStart sim.Time // issue time of the demand miss, valid while missTimed
	lastGrant int32    // grant generation of the dirty copy we hold (writeback tag)
	wbStamp   int32    // stamp of a follow-up writeback awaiting the first's ack
	zero      uint32   // prefetcher zero bit: set when equal to its generation

	cls    stats.Classifier
	wbMask memsys.WordMask // words the in-flight writeback carries
	flags  recFlags
}

type recFlags uint8

const (
	wbPending recFlags = 1 << iota // a writeback of this block awaits its ack
	wbRequeue                      // a follow-up writeback waits behind it
	missTimed                      // missStart holds a demand miss's issue time
)

// verRec is one cache controller's word versions for one block, kept only
// under data verification.
type verRec struct {
	data     memsys.BlockData // the SLC line's words (valid while the line is)
	lastSeen memsys.BlockData // versions this processor observed
	wbData   memsys.BlockData // payload of the in-flight writeback
}
