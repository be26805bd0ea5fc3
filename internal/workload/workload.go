// Package workload provides the five benchmark kernels that drive the
// evaluation. The paper runs MP3D, Water and Cholesky from the SPLASH suite
// plus LU and Ocean; we do not have SPLASH binaries or a SPARC front end, so
// each application is replaced by a deterministic synthetic kernel that
// issues the same kind of shared-memory reference stream — the same sharing
// pattern (migratory, producer-consumer, read-only), synchronization
// structure (locks, barriers, task queues) and locality profile the paper
// attributes to it. The protocol extensions react to exactly these
// properties, so the substitution preserves the evaluation's behavior (see
// DESIGN.md §3).
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"ccsim/internal/memsys"
	"ccsim/internal/proc"
)

// Address-space layout: shared data grows from dataBase; lock variables
// live far above it (one lock variable per memory block, paper §4).
const (
	dataBase memsys.Addr = 0
	lockBase memsys.Addr = 1 << 30
)

// lockAddr returns the address of lock variable i.
func lockAddr(i int) memsys.Addr {
	return lockBase + memsys.Addr(i)*memsys.BlockSize
}

// scriptChunk is the number of ops in one script chunk (16 KB).
const scriptChunk = 512

// script builds one processor's operation stream. Ops go into fixed-size
// chunks rather than one growing slice: appending to a large slice
// reallocates and copies it at every growth step, which cost several times
// the final stream size in allocation for the big kernels.
type script struct {
	chunks [][]proc.Op
}

func (s *script) add(op proc.Op) {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == scriptChunk {
		s.chunks = append(s.chunks, make([]proc.Op, 0, scriptChunk))
		n++
	}
	s.chunks[n-1] = append(s.chunks[n-1], op)
}

func (s *script) statsOn()            { s.add(proc.Op{Kind: proc.OpStatsOn}) }
func (s *script) read(a memsys.Addr)  { s.add(proc.Op{Kind: proc.OpRead, Addr: a}) }
func (s *script) write(a memsys.Addr) { s.add(proc.Op{Kind: proc.OpWrite, Addr: a}) }
func (s *script) busy(c int64)        { s.add(proc.Op{Kind: proc.OpBusy, Cycles: c}) }
func (s *script) acquire(l int)       { s.add(proc.Op{Kind: proc.OpAcquire, Addr: lockAddr(l)}) }
func (s *script) release(l int)       { s.add(proc.Op{Kind: proc.OpRelease, Addr: lockAddr(l)}) }
func (s *script) barrier(id int)      { s.add(proc.Op{Kind: proc.OpBarrier, Bar: id}) }
func (s *script) stream() proc.Stream { return &chunkStream{chunks: s.chunks} }

// chunkStream replays a script's chunks in order.
type chunkStream struct {
	chunks [][]proc.Op
	i      int // position in chunks[0]
}

// Next implements proc.Stream.
func (s *chunkStream) Next() (proc.Op, bool) {
	for len(s.chunks) > 0 {
		if c := s.chunks[0]; s.i < len(c) {
			op := c[s.i]
			s.i++
			return op, true
		}
		s.chunks[0] = nil // a replayed chunk is garbage
		s.chunks, s.i = s.chunks[1:], 0
	}
	return proc.Op{}, false
}

// readBlock touches n words of the block at a (spatial locality within a
// block appears as FLC hits after the first touch).
func (s *script) readBlock(a memsys.Addr, words int) {
	for w := 0; w < words; w++ {
		s.read(a + memsys.Addr(4*w))
	}
}

// Generator builds the per-processor streams of one kernel.
type Generator func(procs int, scale float64) []proc.Stream

var registry = map[string]Generator{
	"mp3d":     MP3D,
	"cholesky": Cholesky,
	"water":    Water,
	"lu":       LU,
	"ocean":    Ocean,
}

// Names returns the registered kernel names in the paper's order.
func Names() []string { return []string{"mp3d", "cholesky", "water", "lu", "ocean"} }

// namesSorted returns all registered names alphabetically (for errors).
func namesSorted() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Streams builds the streams for the named kernel. scale multiplies the
// problem size: 1.0 is the default size (seconds of host time per run),
// smaller values shrink it proportionally for tests and quick sweeps.
func Streams(name string, procs int, scale float64) ([]proc.Stream, error) {
	g, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown kernel %q (have %v)", name, namesSorted())
	}
	if procs < 1 {
		return nil, fmt.Errorf("workload: procs = %d", procs)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("workload: scale = %g", scale)
	}
	return g(procs, scale), nil
}

// scaled returns max(lo, round(v*scale)).
func scaled(v int, scale float64, lo int) int {
	n := int(float64(v)*scale + 0.5)
	if n < lo {
		n = lo
	}
	return n
}

// rng returns a deterministic per-processor random source.
func rng(kernel string, p int) *rand.Rand {
	seed := int64(1)
	for _, c := range kernel {
		seed = seed*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1000003 + int64(p)*7919))
}
