package ccsim_test

import (
	"strings"
	"testing"

	"ccsim"
)

// TestRunRecoversInjectedPanic drives the whole fault-containment path: a
// deliberately injected panic must come back from Run as a structured
// *SimFault carrying stack, snapshot and flight-recorder tail — never as a
// process crash.
func TestRunRecoversInjectedPanic(t *testing.T) {
	cfg := tinyCfg("mp3d")
	cfg.FaultInject = "mp3d/BASIC"
	r, err := ccsim.Run(cfg)
	if err == nil || r != nil {
		t.Fatalf("injected panic produced result %v, err %v", r, err)
	}
	f, ok := ccsim.AsFault(err)
	if !ok {
		t.Fatalf("error is not a *SimFault: %v", err)
	}
	if f.Kind != ccsim.FaultPanic {
		t.Fatalf("fault kind %q, want %q", f.Kind, ccsim.FaultPanic)
	}
	if !strings.Contains(f.Message, "deliberate fault injection") {
		t.Errorf("fault message lost the panic value: %q", f.Message)
	}
	if len(f.Stack) == 0 {
		t.Error("panic fault carries no stack")
	}
	if f.Snapshot == nil {
		t.Fatal("panic fault carries no snapshot")
	}
	if f.Snapshot.MessagesSeen == 0 || len(f.Snapshot.Messages) == 0 {
		t.Errorf("flight recorder empty at fault: seen %d, tail %d",
			f.Snapshot.MessagesSeen, len(f.Snapshot.Messages))
	}
	var sb strings.Builder
	f.Dump(&sb)
	if !strings.Contains(sb.String(), "flight recorder") {
		t.Error("Dump does not render the flight recorder")
	}
}

// TestFaultInjectMatchesIdentity checks the injection key is precise: a
// key naming a different protocol must leave the run untouched.
func TestFaultInjectMatchesIdentity(t *testing.T) {
	cfg := tinyCfg("mp3d")
	cfg.FaultInject = "mp3d/P+CW" // this run is mp3d/BASIC
	if _, err := ccsim.Run(cfg); err != nil {
		t.Fatalf("non-matching FaultInject key affected the run: %v", err)
	}
}

// requireSameFault runs one faulting configuration a second time and
// requires the identical fault: watchdog faults are a deterministic
// function of the configuration, which is why a sweep never retries them.
func requireSameFault(t *testing.T, first *ccsim.SimFault, run func() error) {
	t.Helper()
	again, ok := ccsim.AsFault(run())
	if !ok {
		t.Fatalf("second run did not fault the same way: first %v", first)
	}
	if first.Kind != again.Kind || first.Component != again.Component ||
		first.Time != again.Time || first.Steps != again.Steps ||
		first.Message != again.Message {
		t.Fatalf("fault differs between identical runs:\nfirst  %s/%s t=%d steps=%d %q\nsecond %s/%s t=%d steps=%d %q",
			first.Kind, first.Component, first.Time, first.Steps, first.Message,
			again.Kind, again.Component, again.Time, again.Steps, again.Message)
	}
}

// TestDeadlockAborts runs the classic ABBA lock cycle: processor 0 takes
// lock A then wants B, processor 1 takes B then wants A. The watchdog must
// abort with a deadlock SimFault naming both stuck processors instead of
// hanging (or running into its event ceiling), and identically on a
// second run.
func TestDeadlockAborts(t *testing.T) {
	const lockA, lockB = 0, 4096
	cfg := ccsim.DefaultConfig()
	cfg.Procs = 2
	cfg.MaxEvents = 1_000_000 // backstop: the test must never hang
	run := func() error {
		streams := []ccsim.Stream{
			ccsim.Ops(
				ccsim.Op{Kind: ccsim.StatsOn},
				ccsim.Op{Kind: ccsim.Acquire, Addr: lockA},
				ccsim.Op{Kind: ccsim.Busy, Cycles: 500},
				ccsim.Op{Kind: ccsim.Acquire, Addr: lockB},
			),
			ccsim.Ops(
				ccsim.Op{Kind: ccsim.StatsOn},
				ccsim.Op{Kind: ccsim.Acquire, Addr: lockB},
				ccsim.Op{Kind: ccsim.Busy, Cycles: 500},
				ccsim.Op{Kind: ccsim.Acquire, Addr: lockA},
			),
		}
		_, err := ccsim.RunStreams(cfg, streams)
		return err
	}
	err := run()
	if err == nil {
		t.Fatal("ABBA deadlock completed successfully")
	}
	f, ok := ccsim.AsFault(err)
	if !ok {
		t.Fatalf("deadlock error is not a *SimFault: %v", err)
	}
	if f.Kind != ccsim.FaultDeadlock {
		t.Fatalf("fault kind %q, want %q (err: %v)", f.Kind, ccsim.FaultDeadlock, err)
	}
	requireSameFault(t, f, run)
	for _, agent := range []string{"proc 0", "proc 1"} {
		if !strings.Contains(f.Message, agent) {
			t.Errorf("deadlock fault does not name %s: %q", agent, f.Message)
		}
	}
	if !strings.Contains(f.Message, "waiting for lock") {
		t.Errorf("deadlock fault does not name the locks: %q", f.Message)
	}
}

// TestMaxEventsAborts checks Config.MaxEvents: a ceiling far below the
// workload's needs must abort with a max-events fault, identically on a
// second run, and the identical configuration without the ceiling must
// pass — tight-but-sufficient limits never fire (the chaos test runs whole
// sweeps under them).
func TestMaxEventsAborts(t *testing.T) {
	cfg := tinyCfg("mp3d")
	cfg.MaxEvents = 2_000
	run := func() error { _, err := ccsim.Run(cfg); return err }
	err := run()
	f, ok := ccsim.AsFault(err)
	if !ok || f.Kind != ccsim.FaultMaxEvents {
		t.Fatalf("err = %v, want a %s fault", err, ccsim.FaultMaxEvents)
	}
	requireSameFault(t, f, run)
	cfg.MaxEvents = 0
	if _, err := ccsim.Run(tinyCfg("mp3d")); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
}

// TestDeadlineAborts checks Config.Deadline maps to the watchdog's
// simulated-time ceiling, with the same fault on a second run.
func TestDeadlineAborts(t *testing.T) {
	cfg := tinyCfg("mp3d")
	cfg.Deadline = 100 // pclocks: far too early
	run := func() error { _, err := ccsim.Run(cfg); return err }
	err := run()
	f, ok := ccsim.AsFault(err)
	if !ok || f.Kind != ccsim.FaultDeadline {
		t.Fatalf("err = %v, want a %s fault", err, ccsim.FaultDeadline)
	}
	requireSameFault(t, f, run)
}
