package core

import (
	"ccsim/internal/memsys"

	"strings"
	"testing"
)

// TestInvariantUnknownDirState pins the exhaustive directory-state switch:
// an entry outside the known states must be reported as corrupt, not fall
// through a non-exhaustive switch silently.
func TestInvariantUnknownDirState(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 0)
	read(t, eng, s, 1, a)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("clean run fails invariants: %v", err)
	}
	e := s.dirOf(memsys.BlockOf(a))
	if e == nil {
		t.Fatalf("no directory entry after read")
	}
	e.state = 99
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "unknown directory state 99") {
		t.Fatalf("CheckInvariants = %v, want unknown-directory-state error", err)
	}
}

// TestInvariantUncachedWithCopies pins the empty-presence assertion: a
// CLEAN entry with no presence bits claims the block is uncached
// machine-wide, so any surviving cached copy is a violation.
func TestInvariantUncachedWithCopies(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 0)
	read(t, eng, s, 1, a)
	s.dirOf(memsys.BlockOf(a)).presence = 0
	found := s.CheckInvariantsBestEffort(8)
	joined := strings.Join(found, "\n")
	if !strings.Contains(joined, "uncached at home") {
		t.Fatalf("findings %q lack the uncached-with-copies violation", joined)
	}
	if !strings.Contains(joined, "not in the presence vector") {
		t.Fatalf("findings %q lack the presence-superset violation", joined)
	}
}

// TestBestEffortSkipsInflightBlocks pins the two checker modes against each
// other: a non-quiesced home entry is itself a violation at quiescence, but
// best-effort mode must exclude that block from every check — it may be
// mid-transaction — while still reporting violations on settled blocks.
func TestBestEffortSkipsInflightBlocks(t *testing.T) {
	eng, s := testSystem(t, nil)
	a := blockHomedAt(s, 0)
	b := blockHomedAt(s, 1)
	read(t, eng, s, 1, a)
	read(t, eng, s, 1, b)

	// Corrupt block a's entry and mark it busy, as if a transaction were
	// mid-flight when the machine stopped.
	ea := s.dirOf(memsys.BlockOf(a))
	ea.state = 99
	ea.busy = true
	// Corrupt block b's entry with nothing in flight.
	s.dirOf(memsys.BlockOf(b)).state = 77

	if err := s.CheckInvariants(); err == nil {
		t.Fatalf("quiescent checker accepted a busy home entry")
	}
	found := s.CheckInvariantsBestEffort(8)
	joined := strings.Join(found, "\n")
	if strings.Contains(joined, "99") || strings.Contains(joined, "not quiesced") {
		t.Fatalf("best-effort findings include the in-flight block: %q", joined)
	}
	if !strings.Contains(joined, "unknown directory state 77") {
		t.Fatalf("best-effort findings miss the settled block's violation: %q", joined)
	}
}

// TestBestEffortFindingsSortedAndCapped pins determinism of the fault-dump
// diagnostic: findings come out sorted and truncated to the requested max.
func TestBestEffortFindingsSortedAndCapped(t *testing.T) {
	eng, s := testSystem(t, nil)
	addrs := []int{0, 1, 2}
	for _, home := range addrs {
		a := blockHomedAt(s, home)
		read(t, eng, s, (home+1)%4, a)
		s.dirOf(memsys.BlockOf(a)).state = 99
	}
	found := s.CheckInvariantsBestEffort(2)
	if len(found) != 2 {
		t.Fatalf("got %d findings, want capped at 2: %q", len(found), found)
	}
	if !(found[0] < found[1]) {
		t.Fatalf("findings not sorted: %q", found)
	}
	all := s.CheckInvariantsBestEffort(8)
	if len(all) != 3 {
		t.Fatalf("got %d findings, want 3: %q", len(all), all)
	}
}

// TestWrongHomeRejected pins the one-home-per-entry rule of the shared
// directory table: a request delivered to a node that is not the block's
// home must be refused, not applied to the block's real entry.
func TestWrongHomeRejected(t *testing.T) {
	_, s := testSystem(t, nil)
	b := memsys.BlockOf(blockHomedAt(s, 0))
	m := Msg{Type: MsgReadReq, Block: b, id: s.blockID(b), Src: 2, Dst: 1, Requester: 2}
	defer func() {
		v := recover()
		msg, _ := v.(string)
		if !strings.Contains(msg, "whose home is 0") {
			t.Fatalf("wrong-home request: recovered %v, want a whose-home-is-0 panic", v)
		}
		if s.dirOf(b) != nil {
			t.Fatalf("wrong-home request created block %d's directory entry", b)
		}
	}()
	s.Nodes[1].Home.Handle(&m)
}
