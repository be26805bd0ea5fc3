package core

import (
	"strings"
	"testing"

	"ccsim/internal/memsys"
)

func TestVerifyDataCleanRun(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) { p.VerifyData = true })
	a := blockHomedAt(s, 1)
	// A producer-consumer handoff: versions must flow through write,
	// invalidation, and refetch.
	write(t, eng, s, 0, a)
	read(t, eng, s, 2, a)
	write(t, eng, s, 2, a)
	read(t, eng, s, 0, a)
	if len(s.DataViolations) != 0 {
		t.Fatalf("violations on a coherent run: %v", s.DataViolations)
	}
	// The version counter advanced once per write.
	if got := s.verSeq.at(s.blockID(memsys.BlockOf(a)))[0]; got != 2 {
		t.Fatalf("version counter = %d, want 2", got)
	}
}

func TestVerifyDetectsRegression(t *testing.T) {
	// Force a backward observation directly: the checker, not the
	// protocol, is under test here.
	_, s := testSystem(t, func(p *Params) { p.VerifyData = true })
	c := s.Nodes[0].Cache
	id := s.blockID(7)
	c.observeVersion(id, 3, 5)
	c.observeVersion(id, 3, 5) // same version: fine
	if len(s.DataViolations) != 0 {
		t.Fatalf("spurious violation: %v", s.DataViolations)
	}
	c.observeVersion(id, 3, 4) // backward: must flag
	if len(s.DataViolations) != 1 || !strings.Contains(s.DataViolations[0], "block 7 word 3") {
		t.Fatalf("violations = %v", s.DataViolations)
	}
}

func TestVerifyViolationListBounded(t *testing.T) {
	_, s := testSystem(t, func(p *Params) { p.VerifyData = true })
	c := s.Nodes[0].Cache
	id := s.blockID(1)
	c.observeVersion(id, 0, 100)
	for i := 0; i < 50; i++ {
		c.observeVersion(id, 0, 1)
	}
	if len(s.DataViolations) > 16 {
		t.Fatalf("violation list unbounded: %d", len(s.DataViolations))
	}
}

func TestVerifyMigratoryHandoffCarriesData(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.M = true
		p.VerifyData = true
	})
	a := blockHomedAt(s, 0)
	// Build the migratory chain; each reader must see the previous
	// writer's version.
	for _, n := range []int{1, 2, 3, 1, 2, 3} {
		read(t, eng, s, n, a)
		write(t, eng, s, n, a)
	}
	if len(s.DataViolations) != 0 {
		t.Fatalf("violations in migratory chain: %v", s.DataViolations)
	}
	if got := s.verSeq.at(s.blockID(memsys.BlockOf(a)))[0]; got != 6 {
		t.Fatalf("version counter = %d, want 6", got)
	}
}

func TestVerifyWritebackCarriesData(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.SLCSets = 4
		p.VerifyData = true
	})
	a := blockHomedAt(s, 1)
	b := memsys.BlockOf(a)
	write(t, eng, s, 0, a)
	// Victimize the dirty line; its version must survive the writeback.
	read(t, eng, s, 0, b.Next(4).Addr())
	eng.Run()
	read(t, eng, s, 2, a) // must see version 1 from memory
	if len(s.DataViolations) != 0 {
		t.Fatalf("violations across writeback: %v", s.DataViolations)
	}
	l := lineOf(s, 2, a)
	if l == nil || dataOf(s, 2, a)[0] != 1 {
		t.Fatalf("reader's line %+v data %v, want word 0 version 1", l, dataOf(s, 2, a))
	}
}

func TestVerifyCWUpdatesCarryData(t *testing.T) {
	eng, s := testSystem(t, func(p *Params) {
		p.CW = true
		p.CWThreshold = 4
		p.VerifyData = true
	})
	a := blockHomedAt(s, 1)
	read(t, eng, s, 2, a) // a sharer that will receive updates
	c := s.Nodes[0].Cache
	for i := 0; i < 3; i++ {
		c.Write(a, nil, nil)
		eng.Run()
		for _, e := range c.WriteCache().DrainAll() {
			c.flushWC(e)
		}
		eng.Run()
		// The sharer reads after every update; versions must increase.
		read(t, eng, s, 2, a)
	}
	if len(s.DataViolations) != 0 {
		t.Fatalf("violations under competitive update: %v", s.DataViolations)
	}
	if l := lineOf(s, 2, a); l == nil || dataOf(s, 2, a)[0] != 3 {
		t.Fatalf("sharer line %+v data %v, want word 0 version 3", l, dataOf(s, 2, a))
	}
}

func TestVerifyOffByDefaultCostsNothing(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 1)
	write(t, eng, s, 0, a)
	read(t, eng, s, 2, a)
	if len(s.DataViolations) != 0 {
		t.Fatal("violations recorded with verification off")
	}
	if s.verify || len(s.verSeq.chunks) != 0 {
		t.Fatal("version state allocated without VerifyData")
	}
	for _, n := range s.Nodes {
		if len(n.Cache.ver.chunks) != 0 {
			t.Fatalf("node %d keeps word versions without VerifyData", n.ID)
		}
	}
}

// dataOf returns the word versions of node n's SLC line for address a.
func dataOf(s *System, n int, a memsys.Addr) memsys.BlockData {
	return s.Nodes[n].Cache.lineData(s.blockID(memsys.BlockOf(a)))
}
