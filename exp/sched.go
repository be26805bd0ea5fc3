package exp

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"ccsim"
	"ccsim/internal/stats"
)

// ErrInterrupted marks a run abandoned before execution because the sweep
// was interrupted (Scheduler.Interrupt): no worker ever picked it up.
// Re-running the sweep runs it normally.
var ErrInterrupted = errors.New("sweep interrupted before this run started")

// runSim executes one simulation. A package variable so tests can
// substitute a run that panics or fails without needing a real protocol
// bug; production code never reassigns it.
var runSim = ccsim.Run

// Scheduler fans independent simulations out across a bounded pool of
// goroutines and memoizes completed runs by configuration fingerprint, so
// a sweep that names the same configuration many times — the BASIC
// baseline of every figure, the default grid shared by both sensitivity
// studies — simulates it exactly once. Each simulation stays
// single-threaded and deterministic; only the scheduling of whole runs is
// concurrent, so results are bit-identical to a sequential harness at any
// worker count.
//
// The zero value is not usable; call NewScheduler. A Scheduler is safe for
// concurrent use and is normally shared across every experiment of one
// invocation (cmd/experiments builds one for -exp all).
type Scheduler struct {
	jobs       int
	metricsDir string

	// slots bounds the number of simulations running at once.
	slots chan struct{}

	// stop closes on Interrupt: queued runs abandon instead of starting,
	// and cancel — attached to every executing run — aborts in-flight
	// simulations cleanly at their next event batch.
	stop     chan struct{}
	stopOnce sync.Once
	cancel   *ccsim.Cancel

	mu          sync.Mutex
	runs        map[string]*Pending
	unique      uint64
	failed      []FailedRun
	submitted   uint64
	dedupHits   uint64
	queued      int
	completed   uint64
	interrupted uint64
	nextID      uint64
	live        map[uint64]LiveRun

	// droppedSpans accumulates Result.DroppedSpans over completed runs so
	// sweeps can alert on telemetry overflow from /metrics.
	droppedSpans uint64

	// sharing aggregates per-run analyzer totals across the sweep
	// (Options.Sharing runs; see SharingReport).
	sharing ccsim.SharingTotals

	// clock reads wall time for lifecycle histograms; SetClock substitutes
	// a deterministic one in tests. Never nil after NewScheduler.
	clock func() time.Time

	// phases holds the per-run lifecycle duration histograms in
	// microseconds, indexed by phaseQueueWait..phaseMetricsWrite and
	// guarded by mu.
	phases [numPhases]stats.Hist

	// engine aggregates completed runs' Result.Queue snapshots; engineRuns
	// counts contributions. Guarded by mu.
	engine     ccsim.QueueStats
	engineRuns uint64
}

// Lifecycle phase indexes into Scheduler.phases; phaseNames names them in
// Stats() snapshots and Prometheus labels.
const (
	phaseQueueWait    = iota // Submit to worker-slot acquisition
	phaseSimulate            // the simulation itself
	phaseMetricsWrite        // writing the per-run metrics JSON file
	numPhases
)

var phaseNames = [numPhases]string{
	phaseQueueWait:    "queue_wait",
	phaseSimulate:     "simulate",
	phaseMetricsWrite: "metrics_write",
}

// DurationStats is one phase's duration distribution as Stats() snapshots
// it, in seconds — the shape the ops plane exports as
// ccsim_sched_duration_seconds.
type DurationStats struct {
	Phase      string  `json:"phase"`
	Count      uint64  `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
}

// SchedStats is one consistent snapshot of the scheduler's counters — the
// gauges the ops plane exports at /metrics.
type SchedStats struct {
	Submitted uint64 // Submit calls, including cache hits
	Unique    uint64 // distinct cacheable configurations started
	DedupHits uint64 // Submit calls served by the run cache
	Queued    int    // runs waiting for a worker slot
	Running   int    // runs executing right now
	Completed uint64 // runs finished without error
	Failed    uint64 // runs finished with an error (see Failed())

	// DroppedSpans sums Result.DroppedSpans over completed runs: nonzero
	// means telemetry span buffers overflowed somewhere in the sweep and
	// exported timelines undercount transactions.
	DroppedSpans uint64

	// Lifecycle decomposes completed runs' wall-clock into the scheduler's
	// three phases (queue_wait, simulate, metrics_write), one entry per
	// phase in that fixed order.
	Lifecycle []DurationStats

	// Engine aggregates the event engine's queue-internals counters over
	// every run this sweep simulated. Nil until the first run completes.
	Engine *ccsim.QueueStats

	// Interrupted counts runs abandoned by graceful shutdown before they
	// started; they sit in the Failed ledger with ErrInterrupted.
	Interrupted uint64
}

// LiveRun describes one currently-executing simulation. Progress is the
// run's lock-free probe: snapshot it at any time for the run's position
// without disturbing the simulation.
type LiveRun struct {
	ID       uint64 // scheduler-assigned, ascending in start order
	RunID    string // stable cross-cutting identifier (see RunID)
	Workload string
	Protocol string
	Progress *ccsim.Progress
}

// FailedRun records one run that completed with an error — a contained
// panic (a *ccsim.SimFault), a watchdog abort, or a metrics-write failure.
// The sweep continues past it; cmd/experiments dumps the ledger at the end
// and exits non-zero.
type FailedRun struct {
	Cfg ccsim.Config
	Err error
}

// Pending is a handle to a submitted run; Wait blocks until it completes.
// The same Pending is returned to every submitter of one fingerprint.
type Pending struct {
	done chan struct{}
	res  *ccsim.Result
	err  error
}

// NewScheduler returns a scheduler running at most jobs simulations
// concurrently (jobs <= 0 selects GOMAXPROCS). When metricsDir is
// non-empty, every unique run writes its Result there as JSON, exactly
// once, named by writeMetrics' encoding.
func NewScheduler(jobs int, metricsDir string) *Scheduler {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{
		jobs:       jobs,
		metricsDir: metricsDir,
		slots:      make(chan struct{}, jobs),
		runs:       make(map[string]*Pending),
		live:       make(map[uint64]LiveRun),
		stop:       make(chan struct{}),
		cancel:     &ccsim.Cancel{},
		clock:      time.Now,
	}
}

// SetClock substitutes the wall clock the lifecycle histograms read.
// Call before submitting; tests use it for deterministic durations.
func (s *Scheduler) SetClock(now func() time.Time) { s.clock = now }

// observe records one lifecycle phase duration.
func (s *Scheduler) observe(phase int, d time.Duration) {
	s.mu.Lock()
	s.phases[phase].Add(d.Microseconds())
	s.mu.Unlock()
}

// durationStats renders one histogram of microsecond samples as a
// DurationStats in seconds. Callers hold s.mu.
func durationStats(name string, h *stats.Hist) DurationStats {
	return DurationStats{
		Phase:      name,
		Count:      h.Count(),
		SumSeconds: float64(h.Sum) / 1e6,
		P50Seconds: float64(h.Quantile(50)) / 1e6,
		P95Seconds: float64(h.Quantile(95)) / 1e6,
		P99Seconds: float64(h.Quantile(99)) / 1e6,
		MaxSeconds: float64(h.Max()) / 1e6,
	}
}

// Interrupt begins graceful shutdown: runs still waiting for a worker slot
// — and runs submitted afterwards — abandon with ErrInterrupted instead of
// starting, and every in-flight simulation is cancelled cooperatively (it
// aborts at its next event batch with a canceled SimFault). Results
// completed before the interrupt are untouched. Idempotent and safe from
// any goroutine (it is meant for signal handlers).
func (s *Scheduler) Interrupt() {
	s.stopOnce.Do(func() {
		s.cancel.Cancel()
		close(s.stop)
	})
}

// Interrupted reports whether Interrupt has been called.
func (s *Scheduler) Interrupted() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	st := SchedStats{
		Submitted:    s.submitted,
		Unique:       s.unique,
		DedupHits:    s.dedupHits,
		Queued:       s.queued,
		Running:      len(s.live),
		Completed:    s.completed,
		Failed:       uint64(len(s.failed)),
		DroppedSpans: s.droppedSpans,
		Interrupted:  s.interrupted,
	}
	st.Lifecycle = make([]DurationStats, numPhases)
	for i := range s.phases {
		st.Lifecycle[i] = durationStats(phaseNames[i], &s.phases[i])
	}
	if s.engineRuns > 0 {
		eng := s.engine
		st.Engine = &eng
	}
	s.mu.Unlock()
	return st
}

// LiveRuns snapshots the registry of currently-executing runs, oldest
// first. Each entry's Progress probe stays valid after the run completes;
// its Done flag flips when the run leaves the registry.
func (s *Scheduler) LiveRuns() []LiveRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LiveRun, 0, len(s.live))
	for _, lr := range s.live {
		out = append(out, lr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SharingReport renders the sweep-wide sharing-pattern aggregate: every
// completed analyzed run's (Options.Sharing) per-class totals merged. Nil
// until at least one analyzed run completes.
func (s *Scheduler) SharingReport() *ccsim.SharingReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sharing.Report()
}

// Jobs returns the worker-pool size.
func (s *Scheduler) Jobs() int { return s.jobs }

// Unique returns how many distinct simulations have been submitted so far;
// the difference against the number of Submit calls is the work the run
// cache saved.
func (s *Scheduler) Unique() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unique
}

// Submit queues cfg for simulation and returns its handle immediately. A
// configuration already submitted — by this experiment or any other
// sharing the scheduler — returns the existing handle without a new run.
// Configurations carrying side channels (TraceWriter, Telemetry) bypass
// the cache: their runs are observable and must execute per submission.
func (s *Scheduler) Submit(cfg ccsim.Config) *Pending {
	key, cacheable := Fingerprint(cfg)
	p := &Pending{done: make(chan struct{})}
	submittedAt := s.clock()
	s.mu.Lock()
	s.submitted++
	if cacheable {
		if prev, ok := s.runs[key]; ok {
			s.dedupHits++
			s.mu.Unlock()
			return prev
		}
		s.runs[key] = p
		s.unique++
	}
	s.queued++
	s.mu.Unlock()
	go s.exec(p, cfg, submittedAt)
	return p
}

// Failed returns every run that completed with an error, in completion
// order. The order depends on worker scheduling; callers wanting
// deterministic output sort by configuration.
func (s *Scheduler) Failed() []FailedRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]FailedRun(nil), s.failed...)
}

func (s *Scheduler) exec(p *Pending, cfg ccsim.Config, submittedAt time.Time) {
	select {
	case s.slots <- struct{}{}:
		// select picks at random when a slot and stop are both ready, so a
		// run may win a slot after Interrupt; it must abandon all the same.
		if s.Interrupted() {
			<-s.slots
			s.abandon(p, cfg)
			return
		}
	case <-s.stop:
		s.abandon(p, cfg)
		return
	}
	defer func() { <-s.slots }()
	s.observe(phaseQueueWait, s.clock().Sub(submittedAt))
	// Register in the live table once a worker slot is held: the run is
	// about to execute, so its probe starts advancing. A caller-supplied
	// probe is reused (the submitter is watching); otherwise the scheduler
	// attaches its own so the ops plane sees every run.
	prog := cfg.Progress
	if prog == nil {
		prog = &ccsim.Progress{Label: cfg.Workload + "/" + cfg.ProtocolName()}
		cfg.Progress = prog
	}
	if cfg.Cancel == nil {
		// The scheduler's shared flag: Interrupt stops this run at its next
		// event batch. Attached after fingerprinting, like the probe, so it
		// never affects cacheability.
		cfg.Cancel = s.cancel
	}
	if cfg.Check != nil {
		// A checker holds per-run shadow state; sweeps copy one base config
		// across many concurrent cells, so each run gets its own oracle.
		cfg.Check = ccsim.NewChecker()
	}
	if cfg.Sharing != nil {
		// Same per-run-state rule as the checker; totals merge into the
		// sweep aggregate on completion.
		cfg.Sharing = ccsim.NewSharingAnalytics()
	}
	s.mu.Lock()
	s.queued--
	s.nextID++
	id := s.nextID
	s.live[id] = LiveRun{ID: id, RunID: RunID(cfg), Workload: cfg.Workload,
		Protocol: cfg.ProtocolName(), Progress: prog}
	s.mu.Unlock()
	// done closes on every path — a panicking run must never leave Wait()
	// callers hanging. Deferred before the recover handler so the handler
	// has set p.err by the time done closes (LIFO order).
	defer close(p.done)
	defer func() {
		if v := recover(); v != nil {
			p.res = nil
			p.err = fmt.Errorf("run panicked outside the simulation: %v\n%s", v, debug.Stack())
		}
		s.mu.Lock()
		delete(s.live, id)
		if p.err != nil {
			s.failed = append(s.failed, FailedRun{Cfg: cfg, Err: p.err})
		} else {
			s.completed++
			if p.res != nil {
				s.droppedSpans += p.res.DroppedSpans
				s.engine.Merge(p.res.Queue)
				s.engineRuns++
			}
			if cfg.Sharing != nil {
				s.sharing.Merge(cfg.Sharing.Totals())
			}
		}
		s.mu.Unlock()
	}()
	t0 := s.clock()
	p.res, p.err = runSim(cfg)
	s.observe(phaseSimulate, s.clock().Sub(t0))
	if p.err == nil && s.metricsDir != "" {
		t1 := s.clock()
		werr := writeMetrics(s.metricsDir, cfg, p.res)
		s.observe(phaseMetricsWrite, s.clock().Sub(t1))
		if werr != nil {
			// The simulation itself succeeded: keep the Result for
			// in-process waiters and report the metrics failure as this
			// run's error.
			p.err = fmt.Errorf("metrics: %w", werr)
		}
	}
}

// abandon resolves one run interrupted before it started: it never ran,
// and under graceful shutdown never will. The error routes through the
// Failed ledger so cmd/experiments can count abandoned runs.
func (s *Scheduler) abandon(p *Pending, cfg ccsim.Config) {
	p.err = ErrInterrupted
	s.mu.Lock()
	s.queued--
	s.interrupted++
	s.failed = append(s.failed, FailedRun{Cfg: cfg, Err: p.err})
	s.mu.Unlock()
	close(p.done)
}

// Wait blocks until the run completes and returns its result. The Result
// is shared between all submitters of one configuration and must be
// treated as read-only.
func (p *Pending) Wait() (*ccsim.Result, error) {
	<-p.done
	return p.res, p.err
}

// Cell resolves the run for one table cell of a fault-tolerant sweep: the
// Result, or nil when the run faulted. The error itself is not lost — it
// sits in the scheduler's Failed ledger. A run whose simulation succeeded
// but whose metrics write failed still yields its Result here.
func (p *Pending) Cell() *ccsim.Result {
	r, _ := p.Wait()
	return r
}

// Fingerprint canonicalizes cfg into the scheduler's cache key. The second
// return is false when the configuration cannot be cached (it carries a
// trace, telemetry, progress, cancel, live-checker or sharing-analytics
// side channel, so running it has observable effects beyond the Result).
func Fingerprint(cfg ccsim.Config) (string, bool) {
	if cfg.TraceWriter != nil || cfg.Telemetry != nil || cfg.Progress != nil ||
		cfg.Check != nil || cfg.Sharing != nil || cfg.Cancel != nil {
		return "", false
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1.0 // Run applies the same default
	}
	e := cfg.Extensions
	return fmt.Sprintf("%s|x%g|p%d|P%t|M%t|CW%t|SC%t|net%d|link%d|slc%d|ways%d|flwb%d|slwb%d|pfk%d|cwt%d|wcb%d|nack%t|dir%d|vd%t|me%d|dl%d|np%d|inj%s",
		cfg.Workload, scale, cfg.Procs, e.P, e.M, e.CW, cfg.SC,
		cfg.Net, cfg.LinkBits, cfg.SLCBlocks, cfg.SLCWays,
		cfg.FLWBEntries, cfg.SLWBEntries,
		cfg.PrefetchMaxK, cfg.CWThreshold, cfg.WriteCacheBlocks,
		cfg.PrefetchNackDirty, cfg.DirPointers, cfg.VerifyData,
		cfg.MaxEvents, cfg.Deadline, cfg.NoProgressEvents, cfg.FaultInject), true
}
