.PHONY: verify test bench chaos golden loc

# Tier-1 gate: build + vet + full tests + race passes (sim, telemetry, ops,
# exp) + the metrics regression gate against golden/.
verify:
	sh verify.sh

test:
	go test ./...

# Randomized robustness sweep: every extension combo under both consistency
# models and networks at seeded-random small scales, under the watchdog
# with data verification on (see exp/chaos_test.go).
chaos:
	go test -run TestChaos -v -count=1 ./exp

# Benchmarks, archived machine-readably: the raw go test output streams to
# the terminal while cmd/benchjson writes the parsed results to $(BENCH_OUT)
# for cross-PR comparison. The default output is untracked (.gitignore), so
# a plain `make bench` never overwrites a committed baseline; archive one
# explicitly with `make bench BENCH_OUT=<name>.json`. Diff two
# baselines with `go run ./cmd/benchjson -compare BENCH_PR7.json
# BENCH_PR9.json`, adding `-fail-over 20` to turn the comparison into a
# hard gate.
BENCH_OUT ?= bench.json
# -p 1 serializes the per-package test binaries: benchmark-bearing packages
# must not run concurrently or they contend for cores and inflate ns/op.
bench:
	go test -p 1 -bench=. -benchmem -count=1 ./... | go run ./cmd/benchjson -o $(BENCH_OUT)

# Regenerate the committed metrics baseline that verify.sh gates against:
# the Table 2 grid (5 workloads x 4 protocols) at a small fixed scale. Run
# this after an intentional metrics change and commit the result.
golden:
	rm -f golden/*.json
	go run ./cmd/experiments -exp table2 -scale 0.05 -procs 4 -q -metrics golden > /dev/null

# Non-test Go line count outside perfbench/ (a separate module): the code
# size figure ROADMAP.md tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | xargs cat | wc -l
