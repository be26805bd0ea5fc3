package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"ccsim/internal/workload"
)

// span is one traced interval, in nanoseconds since harness start.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for none
	Run    string `json:"run,omitempty"`
}

// profileHz is the traced pass's CPU sampling rate.
const profileHz = 500

// tracer keeps the traced run's spans in memory until it ends. A nil
// tracer records nothing.
type tracer struct {
	spans  []span
	parent int
}

func since(t time.Time) int64 { return t.Sub(harnessStart).Nanoseconds() }

// open starts a span under the current parent and returns its index.
func (tr *tracer) open(name, run string) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Start: since(time.Now()), Parent: tr.parent, Run: run})
	return len(tr.spans) - 1
}

func (tr *tracer) close(i int) {
	if tr != nil {
		tr.spans[i].End = since(time.Now())
	}
}

// runSample is a run's open span and the runtime counters at its start.
type runSample struct {
	span    int
	samples []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func (tr *tracer) begin(label string) runSample {
	if tr == nil {
		return runSample{}
	}
	return runSample{span: tr.open("run", label), samples: readRuntime()}
}

// end closes a run's span and adds its runtime counter deltas to t.
func (tr *tracer) end(rs runSample, t *totals) {
	if tr == nil {
		return
	}
	after := readRuntime()
	tr.close(rs.span)
	delta := func(i int) uint64 { return after[i].Value.Uint64() - rs.samples[i].Value.Uint64() }
	t.allocBytes += delta(0)
	t.allocs += delta(1)
	t.gcCycles += delta(2)
}

// traced measures an untraced pass for reference, then a traced pass under
// a CPU profile, then each kernel's stream generation on its own, and
// returns the per-layer metrics. It writes the spans and the profile to
// the output directory.
func (b *bench) traced() ([]metric, error) {
	tr := &tracer{parent: -1}
	tr.spans = append(tr.spans, span{Name: "setup", Start: 0, Parent: -1, Run: b.grid[0].label})
	s := b.setUp()
	tr.close(0)
	plain := b.pass(s, nil)

	s = b.setUp()
	sweep := tr.open("sweep", "")
	tr.parent = sweep
	var prof bytes.Buffer
	// Sample at profileHz rather than pprof's 100 Hz, so that layers
	// holding under 1% of the time still collect tens of samples. The
	// runtime warns on stderr that the rate was set before the profile.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	t := b.pass(s, tr)
	pprof.StopCPUProfile()
	tr.close(sweep)
	st := s.Stats()

	tr.parent = -1
	gen, err := b.generate(tr)
	if err != nil {
		return nil, err
	}
	counts, samples, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if err := b.writeTrace(tr, prof.Bytes()); err != nil {
		return nil, err
	}

	refs := float64(t.refs)
	var spanSum float64
	for _, d := range t.runSeconds {
		spanSum += d
	}
	ms := []metric{
		{"exp.dedup_hit_frac", float64(st.DedupHits) / float64(st.Submitted), "frac"},
		{"exp.run_s_p50", quantile(t.runSeconds, 0.50), "s"},
		{"exp.run_s_p75", quantile(t.runSeconds, 0.75), "s"},
		{"workload.gen_s", gen.seconds, "s"},
		{"workload.ops_per_s", float64(gen.ops) / gen.seconds, "1/s"},
		{"workload.alloc_mb", float64(gen.allocBytes) / 1e6, "MB"},
	}
	for _, l := range cpuLayers {
		ms = append(ms, metric{shareName(l), float64(counts[l]) / float64(samples), "frac"})
	}
	ms = append(ms,
		metric{"workload.incl_cpu_share", float64(counts[workloadIncl]) / float64(samples), "frac"},
		metric{"profile.samples", float64(samples), "count"},
		metric{"runtime.alloc_mb_per_run", float64(t.allocBytes) / 1e6 / float64(len(t.runSeconds)), "MB"},
		metric{"runtime.allocs_per_ref", float64(t.allocs) / refs, "1/ref"},
		metric{"runtime.gc_cycles", float64(t.gcCycles), "count"},
		metric{"sim.events_per_ref", float64(t.events) / refs, "1/ref"},
		metric{"sim.ns_per_event", spanSum * 1e9 / float64(t.events), "ns"},
		metric{"core.msgs_per_ref", float64(t.msgs) / refs, "1/ref"},
		metric{"cache.replacement_misses_per_kref", float64(t.replMisses) * 1000 / refs, "1/kref"},
		metric{"trace.overhead_frac", t.wall/plain.wall - 1, "frac"},
	)
	return ms, nil
}

// genTotals sums isolated stream generation over a grid's kernel inputs.
type genTotals struct {
	seconds    float64
	ops        uint64
	allocBytes uint64
}

// generate times workload.Streams plus draining every stream, once per
// distinct kernel input of the grid, so lazy and eager generators are
// timed alike.
func (b *bench) generate(tr *tracer) (genTotals, error) {
	var g genTotals
	done := map[string]bool{}
	for _, c := range b.grid {
		wl := c.cfg.Workload
		if done[wl] {
			continue
		}
		done[wl] = true
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := tr.open("workload.Streams", wl)
		start := time.Now()
		streams, err := workload.Streams(wl, c.cfg.Procs, c.cfg.Scale)
		if err != nil {
			return g, err
		}
		for _, st := range streams {
			for {
				if _, ok := st.Next(); !ok {
					break
				}
				g.ops++
			}
		}
		g.seconds += time.Since(start).Seconds()
		tr.close(sp)
		runtime.ReadMemStats(&after)
		g.allocBytes += after.TotalAlloc - before.TotalAlloc
	}
	return g, nil
}

// writeTrace writes the spans as JSON and the sweep's CPU profile.
func (b *bench) writeTrace(tr *tracer, prof []byte) error {
	if err := os.MkdirAll(b.opts.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(b.opts.out, fmt.Sprintf("%s-seed%d", b.opts.workload, b.opts.seed))
	j, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", j, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o644)
}
