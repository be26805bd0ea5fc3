package core

import "ccsim/internal/stats"

// Prefetcher implements adaptive sequential prefetching (paper §3.1,
// following Dahlgren, Dubois & Stenström, ICPP '93). On each SLC read miss
// to block B the controller prefetches the K blocks following B. K adapts
// to the measured usefulness of past prefetches:
//
//   - a modulo-16 counter counts prefetched blocks arriving;
//   - a second counter counts useful prefetches (a prefetched block whose
//     prefetch bit is still set when the processor references it);
//   - every 16 arrivals the useful count is compared with a high and a low
//     mark: above the high mark K doubles (capped), below the low mark K
//     halves (possibly to zero).
//
// When K reaches zero, prefetching stops and the third counter with the
// per-line zero bits detects whether sequential prefetching would have been
// useful: each miss marks the next block's zero bit, and a miss that finds
// its own zero bit set counts as a would-have-been-useful prefetch. Enough
// of those within a 16-miss window restarts prefetching at K = 1.
type Prefetcher struct {
	maxK int
	high int
	low  int

	k int

	prefCount   int // prefetched blocks received this window (mod 16)
	usefulCount int // useful prefetches this window

	// The per-line zero bits live in the controller's block records: a bit
	// is set when it equals zeroGen, so bumping the generation clears them
	// all at once. zeroSet counts the bits set in this generation.
	zeroGen    uint32
	zeroSet    int
	zeroCount  int // simulated prefetches this window (mod 16)
	zeroUseful int

	// Stats accumulates whole-run effectiveness counters.
	Stats stats.Prefetch
}

const prefetchWindow = 16

// NewPrefetcher returns a prefetcher starting at degree 1.
func NewPrefetcher(maxK, highMark, lowMark int) *Prefetcher {
	return &Prefetcher{
		maxK:    maxK,
		high:    highMark,
		low:     lowMark,
		k:       1,
		zeroGen: 1,
	}
}

// Degree returns the current degree of prefetching K: after a demand miss
// on block B the controller prefetches blocks B+1 .. B+K, skipping those
// already present or pending.
func (p *Prefetcher) Degree() int { return p.k }

// OnMiss records a demand read miss while the degree is zero (the
// controller calls it on every such miss); it drives the zero-degree
// detection machinery. own and next are the zero bits of the missed block
// and of the block after it.
func (p *Prefetcher) OnMiss(own, next *uint32) {
	if p.k > 0 {
		return
	}
	if *own == p.zeroGen {
		*own = 0
		p.zeroSet--
		p.zeroUseful++
	}
	// Simulate a degree-1 prefetch of the following block.
	if *next != p.zeroGen {
		*next = p.zeroGen
		p.zeroSet++
	}
	if p.zeroSet > 4096 { // per-line bits are lossy by nature
		p.clearZeroBits()
	}
	p.zeroCount++
	if p.zeroCount >= prefetchWindow {
		if p.zeroUseful >= p.high {
			p.k = 1
			p.clearZeroBits()
		}
		p.zeroCount, p.zeroUseful = 0, 0
	}
}

func (p *Prefetcher) clearZeroBits() {
	p.zeroGen++
	p.zeroSet = 0
}

// OnIssue records that a prefetch request was sent to memory.
func (p *Prefetcher) OnIssue() { p.Stats.Issued++ }

// OnFill records the arrival of a prefetched block and runs the adaptation
// check at each window boundary.
func (p *Prefetcher) OnFill() {
	p.prefCount++
	if p.prefCount < prefetchWindow {
		return
	}
	switch {
	case p.usefulCount >= p.high:
		if p.k == 0 {
			p.k = 1
		} else if p.k*2 <= p.maxK {
			p.k *= 2
		} else {
			p.k = p.maxK
		}
	case p.usefulCount <= p.low:
		p.k /= 2
	}
	p.prefCount, p.usefulCount = 0, 0
}

// OnUseful records a demand reference to a block whose prefetch bit was
// still set (including a demand miss merging with a pending prefetch).
func (p *Prefetcher) OnUseful() {
	p.usefulCount++
	p.Stats.Useful++
}

// OnPartialHit records a demand miss that found a prefetch already pending
// for the block.
func (p *Prefetcher) OnPartialHit() {
	p.Stats.PartHits++
	p.OnUseful()
}

// OnDiscard records a prefetched block leaving the cache unreferenced.
func (p *Prefetcher) OnDiscard() { p.Stats.Discard++ }
