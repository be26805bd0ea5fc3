package main

import (
	"fmt"
	"math/rand"

	"ccsim"
	"ccsim/exp"
)

// cell is one submission of a workload's grid.
type cell struct {
	cfg   ccsim.Config
	label string // unique per distinct run within a workload: the digest key
}

// workloads names the benchmark's workloads in the order BENCHMARK.json
// lists them.
var workloads = []string{"rc_sweep", "slc16k", "mesh16"}

// kernels are the paper's five programs in its order.
var kernels = []string{"mp3d", "cholesky", "water", "lu", "ocean"}

// grid returns a workload's submissions in the paper's order. The first
// cell is the set-up run; later occurrences of its configuration are dedup
// hits like any other repeat.
func grid(workload string, procs int, scale float64) ([]cell, error) {
	base := func(wl string, c exp.Combo) ccsim.Config {
		cfg := ccsim.DefaultConfig()
		cfg.Workload = wl
		cfg.Procs = procs
		cfg.Scale = scale
		cfg.Extensions = c.Ext
		return cfg
	}
	var out []cell
	add := func(cfg ccsim.Config) {
		out = append(out, cell{cfg: cfg, label: label(cfg)})
	}
	switch workload {
	case "rc_sweep":
		// Figure 2 (all eight combos), then Table 2 and Figure 4, whose
		// cells are all Figure 2 cells: one scheduler dedups them.
		for _, names := range [][]string{
			nil,                                      // Figure 2: every combo
			{"BASIC", "P", "CW", "P+CW"},             // Table 2
			{"BASIC", "P", "CW", "M", "P+CW", "P+M"}, // Figure 4
		} {
			for _, wl := range kernels {
				for _, c := range pick(names) {
					add(base(wl, c))
				}
			}
		}
	case "slc16k":
		// §5.4: 16-KB direct-mapped SLC (512 blocks of 32 bytes).
		for _, wl := range kernels {
			for _, c := range pick([]string{"BASIC", "P", "CW", "P+CW"}) {
				cfg := base(wl, c)
				cfg.SLCBlocks = 512
				add(cfg)
			}
		}
	case "mesh16":
		// Table 3: wormhole mesh at each link width, BASIC vs P+CW vs P+M.
		for _, wl := range kernels {
			for _, bits := range exp.Table3LinkWidths {
				for _, c := range pick([]string{"BASIC", "P+CW", "P+M"}) {
					cfg := base(wl, c)
					cfg.Net = ccsim.Mesh
					cfg.LinkBits = bits
					add(cfg)
				}
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
	}
	return out, nil
}

// pick returns the combos named, in exp.Combos order; nil names all eight.
func pick(names []string) []exp.Combo {
	if names == nil {
		return exp.Combos()
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []exp.Combo
	for _, c := range exp.Combos() {
		if want[c.Name] {
			out = append(out, c)
		}
	}
	return out
}

// label names a run by every axis the grids vary.
func label(cfg ccsim.Config) string {
	net := "uniform"
	if cfg.Net == ccsim.Mesh {
		net = fmt.Sprintf("mesh%d", cfg.LinkBits)
	}
	return fmt.Sprintf("%s/%s/%s/slc%d", cfg.Workload, cfg.ProtocolName(), net, cfg.SLCBlocks)
}

// shuffled returns the grid after its set-up cell in an order drawn from
// seed. The seed never reaches the kernels: their inputs are the paper's
// fixed programs, and the digests depend on them.
func shuffled(g []cell, seed int64) []cell {
	rest := append([]cell(nil), g[1:]...)
	rand.New(rand.NewSource(seed)).Shuffle(len(rest), func(i, j int) {
		rest[i], rest[j] = rest[j], rest[i]
	})
	return rest
}
