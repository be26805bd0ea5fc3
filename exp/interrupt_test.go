package exp

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccsim"
)

// cfgN returns distinct cacheable configurations (varying MaxEvents keeps
// the workload identical but the fingerprints apart).
func cfgN(i int) ccsim.Config {
	c := tiny().config("mp3d")
	c.MaxEvents = uint64(1_000_000 + i)
	return c
}

// TestSchedulerInterruptAbandonsQueued: with one worker slot held by a
// blocking run, Interrupt must fail every queued run with ErrInterrupted —
// promptly, without waiting for the in-flight run — and count them.
func TestSchedulerInterruptAbandonsQueued(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		once.Do(func() { close(started) })
		<-release
		return &ccsim.Result{Workload: cfg.Workload, ExecTime: 1}, nil
	})
	s := NewScheduler(1, "")
	var pending []*Pending
	for i := 0; i < 3; i++ {
		pending = append(pending, s.Submit(cfgN(i)))
	}
	<-started // one run holds the slot; two are queued
	s.Interrupt()
	if !s.Interrupted() {
		t.Fatal("Interrupted() false after Interrupt")
	}
	// The two queued runs abandon without the slot ever freeing. Which of
	// the three holds the slot depends on goroutine scheduling, so poll the
	// counter rather than naming them.
	deadline := time.After(5 * time.Second)
	for s.Stats().Interrupted != 2 {
		select {
		case <-deadline:
			t.Fatalf("queued runs did not abandon after Interrupt: %+v", s.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	var interrupted, completed int
	for _, p := range pending {
		if _, err := p.Wait(); errors.Is(err, ErrInterrupted) {
			interrupted++
		} else if err == nil {
			completed++
		} else {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if interrupted != 2 || completed != 1 {
		t.Fatalf("%d interrupted / %d completed, want 2 / 1", interrupted, completed)
	}
	st := s.Stats()
	if st.Interrupted != 2 || st.Failed != 2 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	for _, f := range s.Failed() {
		if !errors.Is(f.Err, ErrInterrupted) {
			t.Fatalf("ledger entry %v, want ErrInterrupted", f.Err)
		}
	}
}

// TestSchedulerInterruptCancelsInFlight drives a real simulation (no stub)
// and interrupts it mid-run: the shared cancel flag must abort it with a
// canceled SimFault rather than letting it run to completion.
func TestSchedulerInterruptCancelsInFlight(t *testing.T) {
	s := NewScheduler(1, "")
	// A large config so the run is still in flight when the interrupt lands;
	// the watchdog polls the flag every batch, so the abort is prompt.
	o := Options{Scale: 1.0, Procs: 16}
	prog := &ccsim.Progress{}
	cfg := o.config("mp3d")
	cfg.Progress = prog // watch the run so we can interrupt mid-flight
	p := s.Submit(cfg)
	deadline := time.After(10 * time.Second)
	for prog.Snapshot().Events == 0 {
		select {
		case <-deadline:
			t.Fatal("run never started")
		case <-time.After(time.Millisecond):
		}
	}
	s.Interrupt()
	_, err := p.Wait()
	f, ok := ccsim.AsFault(err)
	if !ok || f.Kind != ccsim.FaultCanceled {
		t.Fatalf("interrupted in-flight run: err = %v, want a canceled SimFault", err)
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("fault message %q", err)
	}
}

// TestSchedulerInterruptBeatsFreeSlot: once Interrupt has fired, a run
// submitted to a scheduler with a free slot must abandon, not start. The
// slot and the stop signal are both ready at that point, and select picks
// between ready cases at random, so without the re-check after acquiring
// a slot about half of these runs would still simulate.
func TestSchedulerInterruptBeatsFreeSlot(t *testing.T) {
	var calls atomic.Int64
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		calls.Add(1)
		return &ccsim.Result{Workload: cfg.Workload, ExecTime: 1}, nil
	})
	s := NewScheduler(1, "")
	s.Interrupt()
	const n = 40
	var pending []*Pending
	for i := 0; i < n; i++ {
		pending = append(pending, s.Submit(cfgN(i)))
	}
	for i, p := range pending {
		if _, err := p.Wait(); !errors.Is(err, ErrInterrupted) {
			t.Errorf("run %d: err = %v, want ErrInterrupted", i, err)
		}
	}
	if c := calls.Load(); c != 0 {
		t.Errorf("runSim called %d times after Interrupt, want 0", c)
	}
	if st := s.Stats(); st.Interrupted != n || st.Failed != n || st.Completed != 0 {
		t.Errorf("stats = %+v, want %d interrupted and failed, 0 completed", st, n)
	}
}
