// Command perfbench is the ccsim benchmark: it runs one workload — a grid
// of paper simulations — through a single-job exp.Scheduler, checks every
// result against a committed digest, and prints its metrics by name with
// their units, ending with one JSON line.
//
//	go run . --workload rc_sweep --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer ones (see README.md).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ccsim"
	"ccsim/exp"
)

// harnessStart is when the process began running Go code; set-up time is
// measured from here.
var harnessStart = time.Now()

// probeEnv marks a child process that measures one cold set-up and exits.
const probeEnv = "PERFBENCH_SETUP_PROBE"

// The benchmark's fixed settings: the paper's machine size and kernel
// scale, at which the committed digests hold, and the number of extra cold
// set-ups, each in a child process, behind the setup_s median.
const (
	procs       = 16
	scale       = 1.0
	setupProbes = 10
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	probes   int
	out      string
}

func main() {
	if os.Getenv(probeEnv) != "" {
		os.Exit(probe(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs the benchmark at its fixed settings
// with every result checked against its digest, and returns the process
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "shuffles the submission order of the grid")
	fs.Float64Var(&o.seconds, "seconds", 10, "measure whole grid passes until this much host time has passed")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/trace", "directory the traced run writes its spans and CPU profile to")
	writeDigests := fs.Bool("write-digests", false, "simulate every grid and rewrite digests.txt in the current directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = *traceFlag == 1
	o.scale, o.probes = scale, setupProbes
	if *writeDigests {
		if err := regenerate(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	all, err := parseDigests(digestsFile)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := all[o.workload]
	if want == nil {
		fmt.Fprintf(stderr, "perfbench: no expected digests for workload %q (have %v)\n", o.workload, workloads)
		return 2
	}
	return report(o, want, stdout, stderr)
}

// report runs one workload with the given options, checks every simulated
// result against want (nil checks nothing, which only the benchmark's own
// tests use, at scales without digests), prints the metrics and the JSON
// result line, and returns the exit code.
func report(o options, want map[string]string, stdout, stderr io.Writer) int {
	g, err := grid(o.workload, procs, o.scale)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{opts: o, grid: g, order: shuffled(g, o.seed), want: want, log: stderr}
	var metrics []metric
	if o.trace {
		metrics, err = b.traced()
	} else {
		metrics, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d scale %g\n", o.workload, o.seed, o.scale)
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "%-40s %d/%d %s\n", "failed_runs", b.failed, b.attempted, "count")
	fmt.Fprintf(stdout, "%-40s %14.6g %s\n", "failed_share", float64(b.failed)/float64(b.attempted), "frac")
	line, err := resultJSON(b, metrics)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// probe is a set-up probe child's whole run: args are the workload and its
// scale. It builds a single-job scheduler, runs the grid's first cell and
// prints the host time since the process started.
func probe(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "perfbench: set-up probe wants a workload and a scale")
		return 2
	}
	sc, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up probe:", err)
		return 2
	}
	g, err := grid(args[0], procs, sc)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if _, err := exp.NewScheduler(1, "").Submit(g[0].cfg).Wait(); err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up run:", err)
		return 1
	}
	fmt.Fprintln(stdout, time.Since(harnessStart).Seconds())
	return 0
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

func resultJSON(b *bench, ms []metric) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	j, err := json.Marshal(out)
	return string(j), err
}

// bench is one workload's run: its grid, the seeded order and the tally
// of checked runs.
type bench struct {
	opts  options
	grid  []cell
	order []cell            // grid[1:] in seeded order
	want  map[string]string // expected digests; nil checks nothing

	attempted, failed int
	log               io.Writer
}

// setUp builds a single-job scheduler and runs the grid's first cell.
func (b *bench) setUp() *exp.Scheduler {
	s := exp.NewScheduler(1, "")
	b.runCell(s, b.grid[0])
	return s
}

// runCell submits one cell, waits for it and checks a result it had to
// simulate. It reports the result, nil when the run failed.
func (b *bench) runCell(s *exp.Scheduler, c cell) *ccsim.Result {
	r, err := s.Submit(c.cfg).Wait()
	b.attempted++
	if err == nil {
		err = check(b.want, c, r)
	}
	if err != nil {
		b.failed++
		fmt.Fprintln(b.log, "perfbench: run failed:", err)
		return nil
	}
	return r
}

// totals sums a pass's simulated runs.
type totals struct {
	wall, cpu          float64 // host seconds
	runs               int
	refs, events, msgs uint64
	replMisses         uint64
	runSeconds         []float64 // per simulated run, Submit to Wait
	allocBytes, allocs uint64    // traced passes only
	gcCycles           uint64
}

// pass runs the seeded order on s, which has already run the first cell:
// every later submission of a configuration is a dedup hit. A non-nil
// tracer records a span around each submission, and runtime counters
// around each simulated run.
func (b *bench) pass(s *exp.Scheduler, tr *tracer) totals {
	var t totals
	seen := map[string]bool{b.grid[0].label: true}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	for _, c := range b.order {
		if seen[c.label] {
			// A dedup hit: the scheduler hands back the first run's result.
			sp := tr.open("hit", c.label)
			s.Submit(c.cfg).Wait()
			tr.close(sp)
			continue
		}
		seen[c.label] = true
		rs := tr.begin(c.label)
		start := time.Now()
		r := b.runCell(s, c)
		t.runSeconds = append(t.runSeconds, time.Since(start).Seconds())
		tr.end(rs, &t)
		if r == nil {
			continue
		}
		t.runs++
		t.refs += r.Reads + r.Writes
		t.events += r.Queue.Dispatched
		t.msgs += r.TrafficMsgs
		t.replMisses += r.ReplacementMisses
	}
	t.wall = time.Since(t0).Seconds()
	t.cpu = cpuSeconds() - cpu0
	return t
}

// endToEnd measures set-up and then whole grid passes until the requested
// time has passed; the first pass reuses the set-up scheduler, later ones
// get a fresh scheduler whose first cell runs untimed. Every pass runs the
// same simulations, so pass medians compare directly. The peak resident
// set comes from a last, untimed pass.
func (b *bench) endToEnd() ([]metric, error) {
	s := b.setUp()
	setups := []float64{time.Since(harnessStart).Seconds()}
	// Half the set-up probes run before the passes and half after, so the
	// median spans the run rather than one moment of it.
	probe := func(n int) error {
		for i := 0; i < n; i++ {
			v, err := probeSetUp(b.opts)
			if err != nil {
				return err
			}
			setups = append(setups, v)
		}
		return nil
	}
	if err := probe(b.opts.probes / 2); err != nil {
		return nil, err
	}
	var walls, cpus []float64
	var refs uint64 // per pass
	for measured := 0.0; len(walls) == 0 || measured < b.opts.seconds; {
		if len(walls) > 0 {
			s = b.setUp()
		}
		t := b.pass(s, nil)
		fmt.Fprintf(b.log, "perfbench: pass %d: %d runs, wall %.3f s, cpu %.3f s\n", len(walls)+1, t.runs, t.wall, t.cpu)
		walls, cpus = append(walls, t.wall), append(cpus, t.cpu)
		refs = t.refs
		measured += t.wall
	}
	if err := probe(b.opts.probes - b.opts.probes/2); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "perfbench: set-up samples %.4f s\n", setups)
	peak := b.peakPass()
	wall := median(walls)
	return []metric{
		{"setup_s", median(setups), "s"},
		{"wall_s", wall, "s"},
		{"cpu_s", median(cpus), "s"},
		{"refs_per_s", float64(refs) / wall, "1/s"},
		{"peak_rss_mb", peak, "MB"},
	}, nil
}

// peakPass runs each distinct cell once more on a fresh scheduler and
// returns the largest peak resident set of a single run. Before each run
// the heap is collected and its free pages are returned to the OS, so the
// peak is the run's own: in the timed passes a run's peak is mostly what
// the runs before it left resident, which depends on the seeded order and
// on the background scavenger. Refaulting those pages would distort the
// times, so this pass is not timed.
func (b *bench) peakPass() float64 {
	s := exp.NewScheduler(1, "")
	seen := map[string]bool{}
	var peak float64
	var at string
	for _, c := range b.grid {
		if seen[c.label] {
			continue
		}
		seen[c.label] = true
		debug.FreeOSMemory()
		resetPeakRSS()
		b.runCell(s, c)
		if p := peakRSSMB(); p > peak {
			peak, at = p, c.label
		}
	}
	fmt.Fprintf(b.log, "perfbench: peak resident set %.1f MB, in %s\n", peak, at)
	return peak
}

// probeSetUp measures one cold set-up in a child process of this binary.
func probeSetUp(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, o.workload, strconv.FormatFloat(o.scale, 'g', -1, 64))
	cmd.Env = append(os.Environ(), probeEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %v: %s", err, stderr.String())
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// cpuSeconds returns the process's user + system time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS lowers the kernel's peak-RSS mark to the current resident
// set, so the next peakRSSMB covers one run. Where /proc/self/clear_refs
// is unavailable the mark keeps covering the whole process so far.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB returns the peak resident set since the last reset (VmHWM) in
// MB (10^6 bytes), falling back to the process peak from getrusage.
func peakRSSMB() float64 {
	if st, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(st), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// regenerate simulates every workload's distinct runs at the benchmark's
// settings and rewrites digests.txt.
func regenerate() error {
	all := expectations{}
	for _, wl := range workloads {
		g, err := grid(wl, procs, scale)
		if err != nil {
			return err
		}
		s := exp.NewScheduler(0, "")
		pend := map[string]*exp.Pending{}
		for _, c := range g {
			pend[c.label] = s.Submit(c.cfg)
		}
		all[wl] = map[string]string{}
		for l, p := range pend {
			r, err := p.Wait()
			if err != nil {
				return fmt.Errorf("%s %s: %w", wl, l, err)
			}
			all[wl][l] = digest(r)
		}
	}
	return os.WriteFile("digests.txt", []byte(formatDigests(all)), 0o644)
}
