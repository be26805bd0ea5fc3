package exp

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccsim"
)

// withRunSim swaps the scheduler's simulation entry point for the test's
// and restores it afterward.
func withRunSim(t *testing.T, fn func(ccsim.Config) (*ccsim.Result, error)) {
	t.Helper()
	orig := runSim
	runSim = fn
	t.Cleanup(func() { runSim = orig })
}

// TestSchedulerWorkerPanicUnblocksWaiters is the Pending.done leak
// regression test: a run that panics outside ccsim.Run's own recovery must
// still complete every Wait() — with an error — instead of deadlocking
// them.
func TestSchedulerWorkerPanicUnblocksWaiters(t *testing.T) {
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		panic("synthetic worker crash")
	})
	s := NewScheduler(2, "")
	p := s.Submit(tiny().config("mp3d"))
	const waiters = 8
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Wait()
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait() callers deadlocked after a worker panic")
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "synthetic worker crash") {
			t.Errorf("waiter %d: err = %v, want the panic surfaced", i, err)
		}
	}
	failed := s.Failed()
	if len(failed) != 1 || !strings.Contains(failed[0].Err.Error(), "synthetic worker crash") {
		t.Errorf("fault ledger = %+v, want the one panicked run", failed)
	}
}

// TestSchedulerSimFaultInLedger checks a contained simulation fault (not a
// raw panic) lands in the ledger and nils only its own cell.
func TestSchedulerSimFaultInLedger(t *testing.T) {
	s := NewScheduler(4, "")
	bad := tiny().config("mp3d")
	bad.FaultInject = "mp3d/BASIC" // matches: this cell faults
	good := tiny().config("mp3d")
	good.Extensions = ccsim.Ext{P: true} // mp3d/P: untouched
	pBad, pGood := s.Submit(bad), s.Submit(good)
	if r := pBad.Cell(); r != nil {
		t.Errorf("faulted run yielded a result: %+v", r)
	}
	if r := pGood.Cell(); r == nil {
		t.Error("clean run's cell is nil")
	}
	_, err := pBad.Wait()
	f, ok := ccsim.AsFault(err)
	if !ok || f.Kind != ccsim.FaultPanic {
		t.Fatalf("faulted cell's error = %v, want a contained panic SimFault", err)
	}
	failed := s.Failed()
	if len(failed) != 1 || failed[0].Cfg.FaultInject == "" {
		t.Errorf("fault ledger = %+v, want exactly the injected run", failed)
	}
}

// TestSchedulerRetryTerminalNotRetried: the scheduler never re-runs a
// faulted configuration. Every fault kind, the watchdog's included, is a
// deterministic function of the Config, so each runs exactly once, surfaces
// its own kind and lands in the ledger once.
func TestSchedulerRetryTerminalNotRetried(t *testing.T) {
	for _, kind := range []string{
		ccsim.FaultPanic, ccsim.FaultInvariant, ccsim.FaultCanceled,
		ccsim.FaultMaxEvents, ccsim.FaultDeadline, ccsim.FaultDeadlock, ccsim.FaultLivelock,
	} {
		t.Run(kind, func(t *testing.T) {
			var calls atomic.Int64
			withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
				calls.Add(1)
				return nil, &ccsim.SimFault{Kind: kind, Message: "terminal"}
			})
			s := NewScheduler(1, "")
			_, err := s.Submit(cfgN(0)).Wait()
			if f, ok := ccsim.AsFault(err); !ok || f.Kind != kind {
				t.Fatalf("err = %v, want the %s fault", err, kind)
			}
			if calls.Load() != 1 {
				t.Fatalf("%s fault ran %d times, want 1", kind, calls.Load())
			}
			if st := s.Stats(); st.Failed != 1 || st.Completed != 0 {
				t.Fatalf("stats = %+v, want one failed run", st)
			}
			if failed := s.Failed(); len(failed) != 1 {
				t.Fatalf("ledger = %+v, want the one faulted run", failed)
			}
		})
	}
}

// TestSchedulerMetricsFailureKeepsResult is the satellite-6 regression: a
// writeMetrics failure must surface as the run's error WITHOUT discarding
// the computed Result for in-process waiters.
func TestSchedulerMetricsFailureKeepsResult(t *testing.T) {
	// A regular file where the metrics directory should be makes MkdirAll
	// fail deterministically.
	dir := t.TempDir()
	blocked := filepath.Join(dir, "metrics")
	if err := os.WriteFile(blocked, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(2, blocked)
	p := s.Submit(tiny().config("mp3d"))
	r, err := p.Wait()
	if err == nil || !strings.Contains(err.Error(), "metrics") {
		t.Fatalf("err = %v, want the metrics-write failure", err)
	}
	if r == nil {
		t.Fatal("metrics-write failure discarded the computed Result")
	}
	if r.ExecTime <= 0 {
		t.Fatalf("kept Result looks empty: %+v", r)
	}
	if p.Cell() == nil {
		t.Fatal("Cell() dropped a Result that survived its metrics failure")
	}
	if len(s.Failed()) != 1 {
		t.Fatalf("metrics failure missing from the fault ledger: %+v", s.Failed())
	}
}

// TestConcurrentSubmitInterruptAccounting races many concurrent Submit
// calls — duplicates for dedup traffic — against an Interrupt landing
// while workers are mid-flight, and asserts the counter sum invariants
// hold once everything drains: every submission is a unique run or a dedup
// hit, every unique run resolves into exactly one of completed or failed,
// the ledger matches the failed count, the interrupted count matches the
// ledger's abandoned runs, and nothing is left queued or running. Run
// under -race (verify.sh's exp race pass), this is the scheduler's
// shutdown-accounting stress test.
func TestConcurrentSubmitInterruptAccounting(t *testing.T) {
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		time.Sleep(2 * time.Millisecond)
		return &ccsim.Result{Workload: cfg.Workload, Protocol: cfg.ProtocolName(), ExecTime: 1}, nil
	})
	s := NewScheduler(2, "")
	const (
		submitters   = 8
		perSubmitter = 24
		distinct     = 32 // i%distinct duplicates many submissions
	)
	var (
		mu   sync.Mutex
		pend []*Pending
		wg   sync.WaitGroup
	)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				p := s.Submit(cfgN((g*perSubmitter + i) % distinct))
				mu.Lock()
				pend = append(pend, p)
				mu.Unlock()
			}
		}(g)
	}
	// Interrupt while submissions and simulations are both in flight —
	// but only after at least one run has completed, so the race always
	// covers the completion path too.
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if s.Stats().Completed > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		s.Interrupt()
	}()
	wg.Wait()
	for _, p := range pend {
		p.Wait() //nolint:errcheck // the invariant below covers outcomes
	}

	stats := s.Stats()
	if stats.Queued != 0 || stats.Running != 0 {
		t.Errorf("drained scheduler still has queued=%d running=%d", stats.Queued, stats.Running)
	}
	if want := uint64(submitters * perSubmitter); stats.Submitted != want {
		t.Errorf("Submitted = %d, want %d", stats.Submitted, want)
	}
	if stats.Unique+stats.DedupHits != stats.Submitted {
		t.Errorf("Unique(%d) + DedupHits(%d) != Submitted(%d)",
			stats.Unique, stats.DedupHits, stats.Submitted)
	}
	if stats.Completed+stats.Failed != stats.Unique {
		t.Errorf("Completed(%d) + Failed(%d) != Unique(%d): a run was lost or double-counted",
			stats.Completed, stats.Failed, stats.Unique)
	}
	if got := uint64(len(s.Failed())); got != stats.Failed {
		t.Errorf("ledger has %d entries, Failed counter says %d", got, stats.Failed)
	}
	// Every ledger entry must be a shutdown casualty: this sweep's runs
	// cannot fail any other way.
	var abandoned uint64
	for _, f := range s.Failed() {
		if errors.Is(f.Err, ErrInterrupted) {
			abandoned++
			continue
		}
		if sf, ok := ccsim.AsFault(f.Err); ok && sf.Kind == ccsim.FaultCanceled {
			continue
		}
		t.Errorf("unexpected non-shutdown failure in ledger: %v", f.Err)
	}
	if abandoned != stats.Interrupted {
		t.Errorf("ledger has %d abandoned runs, Interrupted counter says %d", abandoned, stats.Interrupted)
	}
}

// TestFailedLedgerConcurrentMixedFaults hammers the ledger from many
// concurrent workers with every failure shape at once — raw worker panics,
// contained SimFaults of several kinds, plain errors — interleaved with
// clean runs, and checks nothing is lost, double-counted or misfiled.
func TestFailedLedgerConcurrentMixedFaults(t *testing.T) {
	const n = 48 // 12 of each shape
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		switch cfg.MaxEvents % 4 {
		case 0:
			panic(fmt.Sprintf("raw crash %d", cfg.MaxEvents))
		case 1:
			return nil, &ccsim.SimFault{Kind: ccsim.FaultDeadlock, Message: "stuck"}
		case 2:
			return nil, errors.New("plain failure")
		default:
			return &ccsim.Result{Workload: cfg.Workload, ExecTime: 1}, nil
		}
	})
	s := NewScheduler(8, "")
	var pending []*Pending
	for i := 0; i < n; i++ {
		cfg := tiny().config("mp3d")
		cfg.MaxEvents = uint64(1_000_000 + i)
		pending = append(pending, s.Submit(cfg))
	}
	var wg sync.WaitGroup
	for _, p := range pending {
		wg.Add(1)
		go func(p *Pending) { defer wg.Done(); p.Wait() }(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("waiters deadlocked under concurrent mixed faults")
	}
	var panics, faults, plain int
	for _, f := range s.Failed() {
		msg := f.Err.Error()
		switch {
		case strings.Contains(msg, "raw crash"):
			panics++
		case strings.Contains(msg, "stuck"):
			faults++
		case strings.Contains(msg, "plain failure"):
			plain++
		default:
			t.Errorf("unrecognized ledger entry: %v", f.Err)
		}
	}
	if panics != 12 || faults != 12 || plain != 12 {
		t.Fatalf("ledger = %d panics / %d faults / %d plain, want 12 each", panics, faults, plain)
	}
	st := s.Stats()
	if st.Failed != 36 || st.Completed != 12 {
		t.Fatalf("stats = %+v, want 36 failed / 12 completed", st)
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want an idle scheduler", st)
	}
	// Every cell resolved: failed ones nil, clean ones populated.
	for i, p := range pending {
		if r := p.Cell(); (i%4 == 3) != (r != nil) {
			t.Errorf("cell %d = %v", i, r)
		}
	}
}
