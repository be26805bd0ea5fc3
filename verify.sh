#!/bin/sh
# Tier-1 verification: everything must build, vet clean, and pass the full
# test suite; the event engine, telemetry collector, ops plane, coherence
# checker, litmus harness, and the parallel experiment scheduler
# additionally run under the race detector (the scheduler fans ccsim.Run
# calls across goroutines and the ops server scrapes them live, so exp and
# ops are the race-sensitive surface; checked runs ride those same
# goroutines). CI and `make verify` both run this.
set -eux

go build ./...
go vet ./...
go test ./...
go test -race -short ccsim/internal/sim ccsim/internal/telemetry ccsim/internal/fault ccsim/internal/ops ccsim/internal/check ccsim/internal/litmus ccsim/internal/store ccsim/exp

# Queue-focused race pass, named directly in CI logs: TestEngine* plus the
# differential event-order tests cover every calendar-queue path (wheel
# scheduling, overflow migration, cohort dispatch, watchdog batching).
go test -race -count=1 -run 'TestEngine|TestEventOrder' ccsim/internal/sim

# Ops-handler race pass, named directly in CI logs: live scrapes against a
# running scheduler plus the dashboard and gated pprof endpoints.
go test -race -count=1 -run 'TestScrapeDuringSweep|TestDashboardServes|TestPprofGating' ccsim/internal/ops

# Advisory engine-speed trend: print the ns/op delta table (with its
# geomean summary row) between the two most recent archived baselines.
# Informational only — benchmark noise must never fail the gate.
if [ -f BENCH_PR7.json ] && [ -f BENCH_PR9.json ]; then
    go run ./cmd/benchjson -compare BENCH_PR7.json BENCH_PR9.json || true
fi

# Watchdog smoke: a generous event ceiling must not disturb a clean run,
# and a far-too-tight one must abort with a structured fault (non-zero
# exit) instead of hanging or crashing.
go build -o /tmp/ccsim-verify ./cmd/ccsim
/tmp/ccsim-verify -workload mp3d -scale 0.05 -procs 4 -max-events 50000000 > /dev/null
if /tmp/ccsim-verify -workload mp3d -scale 0.05 -procs 4 -max-events 1000 > /dev/null 2>&1; then
    echo "watchdog smoke: tight -max-events ceiling did not abort" >&2
    exit 1
fi

# Live-checker smoke: a clean workload must pass with the transition-time
# coherence checker attached, and -check must leave stdout byte-identical
# to an unchecked run (the checker is a pure side channel).
/tmp/ccsim-verify -workload mp3d -scale 0.05 -procs 4 -check > /tmp/ccsim-checked.txt
/tmp/ccsim-verify -workload mp3d -scale 0.05 -procs 4 > /tmp/ccsim-unchecked.txt
cmp /tmp/ccsim-checked.txt /tmp/ccsim-unchecked.txt

# Analytics smoke: sharing-pattern analytics and the engine self-profiler
# are pure side channels too — a run with both attached (and the checker,
# the heaviest combination) must pass and leave stdout byte-identical to a
# plain run, with the reports landing in their side files. The disabled
# path must stay free: the no-allocs tests pin the nil-hook cost to zero.
/tmp/ccsim-verify -workload mp3d -scale 0.05 -procs 4 -check \
    -sharing /tmp/ccsim-sharing.txt -selfprofile /tmp/ccsim-selfprof.json \
    > /tmp/ccsim-analytics.txt
cmp /tmp/ccsim-analytics.txt /tmp/ccsim-unchecked.txt
test -s /tmp/ccsim-sharing.txt
test -s /tmp/ccsim-selfprof.json
go test -count=1 -run 'TestAnalyticsDisabledAddsNoAllocs' ccsim
go test -count=1 -run 'TestSelfProfilerDisabledAddsNoAllocs' ccsim/internal/sim
rm -f /tmp/ccsim-verify /tmp/ccsim-checked.txt /tmp/ccsim-unchecked.txt \
    /tmp/ccsim-analytics.txt /tmp/ccsim-sharing.txt /tmp/ccsim-selfprof.json

# Bounded checked-random-walk litmus pass: seeded micro-programs across the
# protocol grid under the live checker (the corpus itself runs in
# `go test ./...` above; this repeats the randomized walk subset alone so a
# litmus regression is named directly in CI logs).
go test -count=1 -run 'TestRandomWalkChecked' ccsim/internal/litmus

# Tier-2 metrics regression gate: regenerate the golden grid (Table 2 at a
# small fixed scale) and require every metric to match the committed
# baseline exactly — the simulator is deterministic, so any drift is a
# behavior change. `make golden` refreshes the baseline after an
# intentional one.
go build -o /tmp/metricsdiff-verify ./cmd/metricsdiff
go build -o /tmp/experiments-verify ./cmd/experiments
rm -rf /tmp/ccsim-metrics-check
/tmp/experiments-verify -exp table2 -scale 0.05 -procs 4 -q -metrics /tmp/ccsim-metrics-check > /dev/null
/tmp/metricsdiff-verify golden /tmp/ccsim-metrics-check

# Gate self-check: the baseline must pass against itself, and a perturbed
# copy must fail — proves the gate can actually catch a regression.
/tmp/metricsdiff-verify golden golden > /dev/null
rm -rf /tmp/ccsim-metrics-perturbed
cp -r golden /tmp/ccsim-metrics-perturbed
sed -i 's/"ExecTime": [0-9]*/"ExecTime": 1/' /tmp/ccsim-metrics-perturbed/mp3d_BASIC_p4_x0.05.json
if /tmp/metricsdiff-verify golden /tmp/ccsim-metrics-perturbed > /dev/null 2>&1; then
    echo "metricsdiff self-check: perturbed baseline was not rejected" >&2
    exit 1
fi
rm -rf /tmp/ccsim-metrics-check /tmp/ccsim-metrics-perturbed

# Crash-resume smoke: a sweep with -cache-dir killed mid-flight must
# resume by re-running the same command, producing stdout byte-identical
# to an uninterrupted, uncached sweep; a corrupted store entry must be
# quarantined and re-executed, never crash the resume.
rm -rf /tmp/ccsim-store
/tmp/experiments-verify -exp table2 -scale 0.05 -procs 4 -q > /tmp/ccsim-resume-ref.txt
/tmp/experiments-verify -exp table2 -scale 0.05 -procs 4 -q \
    -cache-dir /tmp/ccsim-store > /dev/null 2>&1 &
SWEEP_PID=$!
sleep 1
kill -9 "$SWEEP_PID" 2> /dev/null || true
wait "$SWEEP_PID" 2> /dev/null || true
/tmp/experiments-verify -exp table2 -scale 0.05 -procs 4 -q \
    -cache-dir /tmp/ccsim-store > /tmp/ccsim-resume-out.txt
cmp /tmp/ccsim-resume-ref.txt /tmp/ccsim-resume-out.txt
# The resume committed an entry for every unique run; truncate one (the
# kill -9 shape) and resume again: quarantined, re-run, still identical.
for f in /tmp/ccsim-store/*.res; do
    truncate -s 10 "$f"
    break
done
/tmp/experiments-verify -exp table2 -scale 0.05 -procs 4 -q \
    -cache-dir /tmp/ccsim-store > /tmp/ccsim-resume-out2.txt
cmp /tmp/ccsim-resume-ref.txt /tmp/ccsim-resume-out2.txt
ls /tmp/ccsim-store/quarantine/* > /dev/null
rm -rf /tmp/ccsim-store /tmp/ccsim-resume-ref.txt /tmp/ccsim-resume-out.txt \
    /tmp/ccsim-resume-out2.txt

# Live ops-plane smoke: a sweep serving -listen -pprof must answer
# /dashboard and the gated /debug/pprof/ endpoints, and /metrics must carry
# the engine queue-internals and lifecycle-duration families once the first
# runs complete — scraped mid-sweep, while the scheduler is still working.
fetch() {
    if command -v curl > /dev/null 2>&1; then
        curl -sf "$1"
    else
        wget -qO- "$1"
    fi
}
# No -q: the listening address arrives as an Info-level stderr record.
# Scale 1 keeps the sweep alive for more than a second (on a 2-vCPU VM)
# so the scrapes below genuinely land mid-sweep.
/tmp/experiments-verify -exp table2 -scale 1 -procs 8 \
    -listen 127.0.0.1:0 -pprof > /dev/null 2> /tmp/ccsim-ops-log.txt &
OPS_PID=$!
ADDR=""
i=0
while [ "$i" -lt 100 ]; do
    ADDR=$(sed -n 's/.*ops server listening.*addr=\([0-9.]*:[0-9]*\).*/\1/p' /tmp/ccsim-ops-log.txt | head -1)
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    sleep 0.1
done
test -n "$ADDR"
fetch "http://$ADDR/dashboard" | grep -q "ccsim sweep dashboard"
fetch "http://$ADDR/debug/pprof/heap?debug=1" > /dev/null
fetch "http://$ADDR/debug/pprof/cmdline" > /dev/null
# Poll /metrics until the engine and duration families appear (they need
# one completed run), keeping the last successful scrape so a sweep that
# drains between polls can't empty the assertion input.
MID=""
i=0
while [ "$i" -lt 300 ] && kill -0 "$OPS_PID" 2> /dev/null; do
    CUR=$(fetch "http://$ADDR/metrics" || true)
    [ -n "$CUR" ] && MID=$CUR
    if printf '%s' "$MID" | grep -q ccsim_engine_events_dispatched_total &&
        printf '%s' "$MID" | grep -q ccsim_sched_duration_seconds_count; then
        break
    fi
    i=$((i + 1))
    sleep 0.1
done
printf '%s' "$MID" | grep -q ccsim_engine_events_dispatched_total
printf '%s' "$MID" | grep -q ccsim_sched_duration_seconds_count
printf '%s' "$MID" | grep -q ccsim_engine_cohort_size_events_bucket
wait "$OPS_PID"
rm -f /tmp/ccsim-ops-log.txt

# Distributed-sweep smoke, part 1: a coordinator (-serve-jobs) plus one
# worker pulling jobs over HTTP must produce stdout AND -metrics output
# byte-identical to the same sweep in a single process, and the worker
# must exit 0 once the coordinator goes away. -jobs 1 keeps the
# coordinator's own slot busy so the queue genuinely feeds the worker.
rm -rf /tmp/ccsim-dist-ref-metrics /tmp/ccsim-dist-metrics
/tmp/experiments-verify -exp fig2 -scale 0.5 -procs 8 -q \
    -metrics /tmp/ccsim-dist-ref-metrics > /tmp/ccsim-dist-ref.txt
/tmp/experiments-verify -exp fig2 -scale 0.5 -procs 8 -jobs 1 \
    -listen 127.0.0.1:0 -serve-jobs -metrics /tmp/ccsim-dist-metrics \
    > /tmp/ccsim-dist-out.txt 2> /tmp/ccsim-dist-log.txt &
COORD_PID=$!
ADDR=""
i=0
while [ "$i" -lt 100 ]; do
    ADDR=$(sed -n 's/.*ops server listening.*addr=\([0-9.]*:[0-9]*\).*/\1/p' /tmp/ccsim-dist-log.txt | head -1)
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    sleep 0.05
done
test -n "$ADDR"
/tmp/experiments-verify -worker "http://$ADDR" -worker-poll 10ms \
    2> /tmp/ccsim-dist-worker.txt &
WORKER_PID=$!
wait "$COORD_PID"
cmp /tmp/ccsim-dist-ref.txt /tmp/ccsim-dist-out.txt
/tmp/metricsdiff-verify /tmp/ccsim-dist-ref-metrics /tmp/ccsim-dist-metrics
# The worker notices the coordinator is gone and exits cleanly (status 0),
# having delivered at least one job.
wait "$WORKER_PID"
grep -q "job completed" /tmp/ccsim-dist-worker.txt

# Distributed-sweep smoke, part 2: kill -9 a worker sitting on a lease.
# Its heartbeats stop, the lease expires (1s TTL), the job re-queues and
# the coordinator finishes it locally — same stdout, no lost runs.
/tmp/experiments-verify -exp fig2 -scale 0.5 -procs 8 -jobs 1 \
    -listen 127.0.0.1:0 -serve-jobs -lease-ttl 1s \
    > /tmp/ccsim-dist-out2.txt 2> /tmp/ccsim-dist-log2.txt &
COORD_PID=$!
ADDR=""
i=0
while [ "$i" -lt 100 ]; do
    ADDR=$(sed -n 's/.*ops server listening.*addr=\([0-9.]*:[0-9]*\).*/\1/p' /tmp/ccsim-dist-log2.txt | head -1)
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    sleep 0.05
done
test -n "$ADDR"
# -worker-hold makes the worker sit on its lease without simulating, so
# the kill below always lands mid-job.
/tmp/experiments-verify -worker "http://$ADDR" -worker-poll 10ms \
    -worker-hold 60s -worker-name crashy 2> /dev/null &
WORKER_PID=$!
sleep 0.7
kill -9 "$WORKER_PID" 2> /dev/null || true
wait "$WORKER_PID" 2> /dev/null || true
wait "$COORD_PID"
cmp /tmp/ccsim-dist-ref.txt /tmp/ccsim-dist-out2.txt
grep -q "lease expired" /tmp/ccsim-dist-log2.txt
rm -rf /tmp/ccsim-dist-ref-metrics /tmp/ccsim-dist-metrics \
    /tmp/ccsim-dist-ref.txt /tmp/ccsim-dist-out.txt /tmp/ccsim-dist-out2.txt \
    /tmp/ccsim-dist-log.txt /tmp/ccsim-dist-log2.txt /tmp/ccsim-dist-worker.txt
rm -f /tmp/metricsdiff-verify /tmp/experiments-verify
