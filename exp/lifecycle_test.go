package exp

import (
	"regexp"
	"sync"
	"testing"
	"time"

	"ccsim"
)

// tickClock is a deterministic clock: every read advances it by step, so
// any phase measured between two reads reports exactly one step.
type tickClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

// TestSchedulerLifecycleStats runs a stubbed sweep under an injected clock
// and checks the per-phase histograms: every executed run contributes one
// queue_wait and one simulate sample, metrics_write stays empty without a
// metrics directory, and the engine queue-internals aggregate sums the
// per-run snapshots.
func TestSchedulerLifecycleStats(t *testing.T) {
	withRunSim(t, func(cfg ccsim.Config) (*ccsim.Result, error) {
		r := &ccsim.Result{Workload: cfg.Workload, Protocol: cfg.ProtocolName(), ExecTime: 1}
		r.Queue.Dispatched = 100
		r.Queue.WheelScheduled = 90
		r.Queue.Migrations = 10
		r.Queue.Cohorts = 40
		r.Queue.WheelHighWater = 7
		r.Queue.CohortSizeLog2[1] = 40
		return r, nil
	})
	s := NewScheduler(2, "")
	clk := &tickClock{now: time.Unix(0, 0), step: time.Millisecond}
	s.SetClock(clk.Now)

	const runs = 3
	var ps []*Pending
	for i := 0; i < runs; i++ {
		cfg := tiny().config("mp3d")
		cfg.Procs = 4 + i // distinct fingerprints: no dedup
		ps = append(ps, s.Submit(cfg))
	}
	for _, p := range ps {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	if len(st.Lifecycle) != numPhases {
		t.Fatalf("Lifecycle has %d phases, want %d", len(st.Lifecycle), numPhases)
	}
	byPhase := map[string]DurationStats{}
	for _, d := range st.Lifecycle {
		byPhase[d.Phase] = d
	}
	for _, phase := range []string{"queue_wait", "simulate"} {
		d := byPhase[phase]
		if d.Count != runs {
			t.Errorf("%s count = %d, want %d", phase, d.Count, runs)
		}
		if d.MaxSeconds <= 0 || d.SumSeconds <= 0 {
			t.Errorf("%s has zero durations under the ticking clock: %+v", phase, d)
		}
	}
	if d := byPhase["metrics_write"]; d.Count != 0 {
		t.Errorf("metrics_write count = %d, want 0 (no metrics dir)", d.Count)
	}
	if st.Engine == nil {
		t.Fatal("Engine aggregate nil after completed runs")
	}
	if st.Engine.Dispatched != 100*runs || st.Engine.Migrations != 10*runs {
		t.Errorf("Engine aggregate = %+v, want %d dispatched / %d migrations",
			st.Engine, 100*runs, 10*runs)
	}
	if st.Engine.WheelHighWater != 7 {
		t.Errorf("Engine.WheelHighWater = %d, want 7 (max, not sum)", st.Engine.WheelHighWater)
	}
	if st.Engine.CohortSizeLog2[1] != 40*runs {
		t.Errorf("Engine histogram bucket 1 = %d, want %d", st.Engine.CohortSizeLog2[1], 40*runs)
	}
}

// TestRunID pins the identifier's shape and its independence from side
// channels: workload/protocol/8-hex-digit fingerprint prefix, identical
// whether or not the config carries a probe or checker.
func TestRunID(t *testing.T) {
	cfg := tiny().config("mp3d")
	cfg.Procs = 4
	id := RunID(cfg)
	if !regexp.MustCompile(`^mp3d/[A-Z+]+(-SC)?/[0-9a-f]{8}$`).MatchString(id) {
		t.Fatalf("RunID = %q, want workload/PROTOCOL/8-hex", id)
	}
	withProbe := cfg
	withProbe.Progress = &ccsim.Progress{}
	withProbe.Check = ccsim.NewChecker()
	if got := RunID(withProbe); got != id {
		t.Errorf("RunID changed with side channels attached: %q vs %q", got, id)
	}
	other := cfg
	other.Procs = 8
	if got := RunID(other); got == id {
		t.Errorf("RunID identical for distinct configurations: %q", got)
	}
}
