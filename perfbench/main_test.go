package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"ccsim"
	"ccsim/exp"
)

// TestMain lets this test binary serve as its own set-up probe child.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		os.Exit(probe(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the smoke test checks output against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, with
// one set-up probe, and checks that each metric BENCHMARK.json names prints
// with its unit and that no run fails. Digests hold only at the command
// line's fixed scale, so none are checked here.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, runner has %v", names, workloads)
	}
	for _, w := range workloads {
		for _, tc := range []struct {
			trace string
			want  []struct{ Name, Unit string }
		}{{"0", s.EndToEnd}, {"1", s.PerLayer}} {
			var out, errb bytes.Buffer
			o := options{workload: w, seed: 3, trace: tc.trace == "1", scale: 0.05, probes: 1, out: t.TempDir()}
			if code := report(o, nil, &out, &errb); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w, tc.trace, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, tc.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d runs failed: %s",
					w, tc.trace, res.Correct, res.Failed, res.Attempted, errb.String())
			}
			if len(res.Metrics) != len(tc.want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w, tc.trace, len(res.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, tc.trace, m.Name, got, m.Unit)
				}
				if !hasLine(lines, m.Name, m.Unit) {
					t.Errorf("%s trace %s: no output line for %s in %s", w, tc.trace, m.Name, m.Unit)
				}
			}
			if tc.trace == "0" {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// TestCommandLineFixedSettings checks that the command line offers no way
// to change the scale or the probe count, so every result it reports has
// been checked against its digest.
func TestCommandLineFixedSettings(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "rc_sweep", "--scale", "0.05"},
		{"--workload", "rc_sweep", "--setup-probes", "1"},
		{"--workload", "nosuch"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q): exit %d, stdout %q; want an error and no output", args, code, out.String())
		}
	}
}

func hasLine(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

func tinyBench(t *testing.T, want map[string]string) *bench {
	t.Helper()
	g, err := grid("rc_sweep", procs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	return &bench{grid: g, order: shuffled(g, 1), want: want, log: &log}
}

// TestDigestMismatchFailsRun checks that a run whose digest differs from
// its expectation — or has none — counts as failed, and a matching one
// does not.
func TestDigestMismatchFailsRun(t *testing.T) {
	b := tinyBench(t, nil)
	r := b.runCell(exp.NewScheduler(1, ""), b.grid[0])
	if r == nil || b.failed != 0 {
		t.Fatalf("unchecked run failed")
	}
	good := digest(r)
	first := b.grid[0].label
	for _, tc := range []struct {
		want   map[string]string
		failed int
	}{
		{map[string]string{first: good}, 0},
		{map[string]string{first: perturb(good)}, 1},
		{map[string]string{"other": good}, 1},
	} {
		b := tinyBench(t, tc.want)
		b.setUp()
		if b.attempted != 1 || b.failed != tc.failed {
			t.Errorf("want %v: %d of %d runs failed, want %d of 1", tc.want, b.failed, b.attempted, tc.failed)
		}
	}
}

func perturb(d string) string {
	if d[0] == '0' {
		return "1" + d[1:]
	}
	return "0" + d[1:]
}

// TestDigestIgnoresQueue checks that a change confined to Result.Queue —
// engine internals a pure speed-up may move — keeps the digest, while a
// paper-facing statistic changes it.
func TestDigestIgnoresQueue(t *testing.T) {
	cfg := ccsim.DefaultConfig()
	cfg.Workload, cfg.Scale = "water", 0.05
	r, err := ccsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := digest(r)
	q := *r
	q.Queue.Dispatched++
	q.Queue.Cohorts += 7
	q.Queue.MaxCohort = 0
	q.Queue.CohortSizeLog2[0]++
	if digest(&q) != d {
		t.Error("digest moved with Result.Queue")
	}
	for name, mut := range map[string]func(*ccsim.Result){
		"ExecTime":          func(r *ccsim.Result) { r.ExecTime++ },
		"ReleaseStall":      func(r *ccsim.Result) { r.ReleaseStall++ },
		"ReplacementMisses": func(r *ccsim.Result) { r.ReplacementMisses++ },
		"DataBytes":         func(r *ccsim.Result) { r.DataBytes++ },
	} {
		c := *r
		mut(&c)
		if digest(&c) == d {
			t.Errorf("digest ignores %s", name)
		}
	}
}

// TestDigestsCoverGrids checks that the committed expectations name
// exactly the distinct runs of every grid.
func TestDigestsCoverGrids(t *testing.T) {
	all, err := parseDigests(digestsFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		g, err := grid(w, procs, scale)
		if err != nil {
			t.Fatal(err)
		}
		labels := map[string]bool{}
		for _, c := range g {
			labels[c.label] = true
			if _, ok := all[w][c.label]; !ok {
				t.Errorf("%s: no digest for %s", w, c.label)
			}
		}
		if len(all[w]) != len(labels) {
			t.Errorf("%s: %d digests for %d distinct runs", w, len(all[w]), len(labels))
		}
	}
	if got := formatDigests(all); got != digestsFile {
		t.Error("digests.txt is not in canonical form; regenerate it")
	}
}

// TestShuffleSeeded checks that the seed fixes the order of everything
// after the set-up cell and changes nothing else.
func TestShuffleSeeded(t *testing.T) {
	g, err := grid("rc_sweep", procs, scale)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := shuffled(g, 1), shuffled(g, 1), shuffled(g, 2)
	if !reflect.DeepEqual(labels(a), labels(b)) {
		t.Error("same seed, different order")
	}
	if reflect.DeepEqual(labels(a), labels(c)) {
		t.Error("seeds 1 and 2 give the same order")
	}
	want := labels(g[1:])
	sort.Strings(want)
	got := labels(c)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Error("shuffle changed the grid's cells")
	}
	if len(g) != 90 || len(distinct(g)) != 40 {
		t.Errorf("rc_sweep: %d submissions, %d distinct; want 90, 40", len(g), len(distinct(g)))
	}
}

func labels(cs []cell) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.label)
	}
	return out
}

func distinct(cs []cell) map[string]bool {
	m := map[string]bool{}
	for _, c := range cs {
		m[c.label] = true
	}
	return m
}

// TestLayerTable checks how sampled stacks fold to layers.
func TestLayerTable(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"ccsim/internal/cache.(*SLC).Lookup"}, "cache"},
		{[]string{"ccsim/internal/cache.(*FIFO[go.shape.struct { ccsim/internal/core.block ccsim/internal/memsys.Block }]).Pop"}, "cache"},
		{[]string{"ccsim.Run"}, "ccsim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "ccsim/internal/core.f"}, "runtime.malloc"},
		{[]string{"runtime.memmove", "runtime.growslice", "ccsim/internal/workload.(*script).read"}, "runtime.malloc"},
		{[]string{"runtime.memhash64", "runtime.mapaccess1_fast64", "ccsim/internal/core.f"}, "runtime.map"},
		{[]string{"internal/runtime/maps.h2", "ccsim/internal/core.f"}, "runtime.map"},
		{[]string{"runtime.futex", "runtime.futexsleep"}, "runtime.other"},
		{[]string{"math/rand.(*Rand).Intn", "ccsim/internal/workload.Cholesky"}, "std"},
		{[]string{"ccsim/internal/newlayer.F"}, "unattributed"},
		{[]string{"main.main"}, "unattributed"},
		{nil, "unattributed"},
	} {
		if got := layer(tc.stack); got != tc.want {
			t.Errorf("layer(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestFoldSumsToOne folds a real CPU profile and checks that the reported
// layers account for every sample.
func TestFoldSumsToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	counts, total, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Skip("profile recorded no samples")
	}
	var sum int64
	for _, l := range cpuLayers {
		sum += counts[l]
	}
	if sum != total {
		t.Errorf("layers cover %d of %d samples", sum, total)
	}
	if counts["unattributed"] == 0 {
		t.Error("the test's own frames should fold to unattributed")
	}
}

var sink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}
