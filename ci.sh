#!/bin/sh
# CI gate: build, vet, gofmt, the full test suite under the race
# detector, and a one-iteration benchmark smoke run (benchmarks are part
# of the paper reproduction — they must at least still execute).
set -eux

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
go test -race ./...
go test -run='^$' -bench=. -benchtime=1x -benchmem ./...

# Fabric perf gates, outside the race detector (race instrumentation
# allocates): steady-state fabric events must stay allocation-free, a
# warm ring round of flows and a warm GPU→CPU copy must cost (almost) no
# allocation of their own, and the fabric benchmarks must still run at
# every scale.
go test -run='^TestSteadyStateFabricEventsDoNotAllocate$|^TestFlowLifecycleAllocs$|^TestCopierSteadyStateAllocs$' -count=1 ./internal/netsim
go test -run='^$' -bench='^BenchmarkFabricRing' -benchtime=1x -benchmem ./internal/netsim

# Control-plane perf gates (outside the race detector): a lease renewal
# with nothing due must allocate nothing at 1024 leases, with or without
# a watcher on the leased keys; a steady heartbeat round (ticker fire,
# renewal, sweep re-aim) must allocate nothing either; and neither may
# the root's health poll over 256 healthy ranks.
go test -run='^TestKeepAliveAllocsZero$' -count=1 ./internal/kvstore
go test -run='^TestTickerFireAllocsZero$' -count=1 ./internal/simclock
go test -run='^TestHeartbeatTickAllocsZero$|^TestRootCheckAllocsZero$' -count=1 ./internal/agent

# Control-plane concurrency gate (under the race detector, repeated):
# Watch/Unwatch/Put/KeepAlive from several goroutines at once pin the
# copy-on-write watcher list and the single-lock flush.
go test -race -run='^TestConcurrentWatchersAndHeartbeats$' -count=5 ./internal/kvstore

# Control-plane scaling gate: the same recovery run at 1024 machines
# must cost under 6x its cost at 256 (heartbeat events grow 4x), so the
# control plane stays near-linear in N. Each size's best of three runs
# is compared, which keeps a noisy neighbour from failing the gate.
go test -run='^$' -bench='^BenchmarkControlPlaneScale$/^(256|1024)$' -benchtime=5x -count=3 ./internal/agent | awk '
	/^BenchmarkControlPlaneScale\/256(-[0-9]+)?[ \t]/ { if (a == "" || $3 < a) a = $3 }
	/^BenchmarkControlPlaneScale\/1024(-[0-9]+)?[ \t]/ { if (b == "" || $3 < b) b = $3 }
	END {
		if (a == "" || b == "") { print "ControlPlaneScale: missing the 256 or 1024 result" > "/dev/stderr"; exit 1 }
		printf "ControlPlaneScale 1024/256 ns/op ratio: %.2f\n", b / a
		if (b / a >= 6) { print "ControlPlaneScale: 1024/256 ratio reached 6" > "/dev/stderr"; exit 1 }
	}'

# Availability-kernel perf gates (outside the race detector): the
# steady-state Monte-Carlo shard must allocate exactly 0 bytes per trial
# and the kernel probe itself must stay allocation-free, the 10k-machine
# placement benchmark must still run, the profiling loop must stay
# allocation-flat (no per-iteration trace copy), and every parallelism's
# timeline build must allocate a constant (labels interned, none per op).
go test -run='^TestMonteCarloShardSteadyStateAllocsZero$|^TestSurvivesFailedAllocsZero$' -count=1 ./internal/placement
go test -run='^$' -bench='^BenchmarkMonteCarloN10000$|^BenchmarkSurvivesFailed$' -benchtime=1x -benchmem ./internal/placement
go test -run='^TestProfileWithJitterAllocationFlat$|^TestBuildTimelineSteadyStateAllocs$|^TestBuildTimelineForSteadyStateAllocs$' -count=1 ./internal/training

# Observability gates. Disabled tracing and metrics must stay
# allocation-free (also outside the race detector), and the geminisim
# -trace export must parse as Chrome trace JSON with events from at
# least four subsystems — a refactor that silently unwires a
# subsystem's tracing fails here instead of shipping an empty track.
go test -run='^TestDisabledTracingAllocsZero$' -count=1 ./internal/trace
go test -run='^TestHistogramObserveAllocsZero$' -count=1 ./internal/metrics
go test -run='^TestRecorderSampleAllocsZero$' -count=1 ./internal/metrics
TRACE_OUT="$(mktemp -t geminitrace.XXXXXX.json)"
go run ./cmd/geminisim -days 1 -trace "$TRACE_OUT" > /dev/null
go run ./cmd/tracelint -min-categories 4 -min-events 1000 "$TRACE_OUT"
rm -f "$TRACE_OUT"

# Health-monitor export gates: the -metrics Prometheus exposition must
# validate with enough metric families, and the -timeline CSV must be a
# well-formed monotone timeline with one row per sampled iteration.
PROM_OUT="$(mktemp -t geminiprom.XXXXXX.prom)"
CSV_OUT="$(mktemp -t geminitl.XXXXXX.csv)"
go run ./cmd/geminisim -days 1 -metrics "$PROM_OUT" -timeline "$CSV_OUT" > /dev/null
go run ./cmd/promcheck -prom "$PROM_OUT" -min-families 10 -csv "$CSV_OUT" -min-rows 20
rm -f "$PROM_OUT" "$CSV_OUT"

# Strategy gates: every registered checkpoint strategy must survive the
# geminisim control-plane smoke (-strategy is the registry's public
# surface), and an unknown name must fail at job construction instead
# of misbehaving mid-run.
for s in adaptive gemini sparse tiered; do
	go run ./cmd/geminisim -days 1 -strategy "$s" > /dev/null
done
if go run ./cmd/geminisim -days 1 -strategy no-such-strategy > /dev/null 2>&1; then
	echo "geminisim accepted an unknown strategy name" >&2
	exit 1
fi

# Campaign-engine gates (outside the race detector): a warm-key NewJob
# must stay fully cache-resident (≤ 2 allocs — any accidental
# re-derivation blows through by three orders of magnitude), the
# cold/warm campaign benchmark must still run, and benchdiff must parse
# a checked-in snapshot and agree a snapshot equals itself at
# threshold 0 (the derivation-cache race hammer already ran above,
# inside `go test -race ./...`).
go test -run='^TestNewJobWarmKeyAllocs$' -count=1 ./internal/core

# Campaign fan-out gates (outside the race detector): a warm aggregated,
# run-recording campaign must allocate the same per variation at 256 and
# 1024 variations (its run registries and schedule buffers are recycled
# window slots, not per-variation garbage), and a failure-schedule draw
# must allocate only its output slice. A short fuzz smoke holds the
# schedule merge to its sort.Slice oracle.
go test -run='^TestRunCampaignWarmAllocs$' -count=1 ./internal/scenario
go test -run='^TestGenerateAllocs$' -count=1 ./internal/failure
go test -run='^$' -fuzz='^FuzzMerge$' -fuzztime=5s ./internal/failure
go test -run='^$' -bench='^BenchmarkCampaign1000$' -benchtime=1x -benchmem .
BENCH_BASE="$(ls BENCH_*.json | sort | tail -1)"
go run ./cmd/benchdiff -threshold 0 "$BENCH_BASE" "$BENCH_BASE" > /dev/null

# Scenario-engine gates: the checked-in scenarios must parse and compile
# (the 100k one only that: it exists to size cold derivation), the 1k
# smoke must reproduce its pinned aggregate hash for seed 7 (any drift in
# the simulator, the report shape, or the scenario compiler fails here),
# and the 10k campaign's JSON and HTML reports must be byte-identical at
# workers=1 vs workers=8. geminisim's -scenario path must run the same
# campaign.
go run ./cmd/campaign -validate examples/scenarios/smoke-1k.yaml
go run ./cmd/campaign -validate examples/scenarios/chaos-10k.yaml
go run ./cmd/campaign -validate examples/scenarios/chaos-100k.yaml
CAMP_DIR="$(mktemp -d -t geminicamp.XXXXXX)"
go run ./cmd/campaign -quiet -json "$CAMP_DIR/smoke.json" -html "$CAMP_DIR/smoke.html" examples/scenarios/smoke-1k.yaml
grep -q '"hash": "352980d25448928c30d66858cac44f4644e059fff2148565f8e6b55ca9739727"' "$CAMP_DIR/smoke.json"
go run ./cmd/campaign -quiet -workers 1 -aggregate -json "$CAMP_DIR/w1.json" -html "$CAMP_DIR/w1.html" -prom "$CAMP_DIR/w1.prom" examples/scenarios/chaos-10k.yaml
go run ./cmd/campaign -quiet -workers 8 -aggregate -json "$CAMP_DIR/w8.json" -html "$CAMP_DIR/w8.html" -prom "$CAMP_DIR/w8.prom" examples/scenarios/chaos-10k.yaml
cmp "$CAMP_DIR/w1.json" "$CAMP_DIR/w8.json"
cmp "$CAMP_DIR/w1.html" "$CAMP_DIR/w8.html"
cmp "$CAMP_DIR/w1.prom" "$CAMP_DIR/w8.prom"
rm -rf "$CAMP_DIR"
go run ./cmd/geminisim -scenario examples/scenarios/smoke-1k.yaml > /dev/null

# Campaign-observability gates. The disabled progress sink and the zero
# runsim Observer must add no allocations to the hot paths (outside the
# race detector); the aggregated campaign exposition for the 1k smoke is
# pinned by sha256 (any drift in the run.* instruments, the merge order,
# or the histogram exposition fails here) and must satisfy promcheck's
# histogram contract; and the flight recorder must replay the two worst
# smoke runs to bit-equal outcomes with lint-clean traces and monotone
# timelines.
go test -run='^TestProgressAllocsZero$' -count=1 ./internal/obs
go test -run='^TestRunZeroObserverAllocs$' -count=1 ./internal/runsim
OBS_DIR="$(mktemp -d -t geminiobs.XXXXXX)"
go run ./cmd/campaign -quiet -progress -aggregate -prom "$OBS_DIR/agg.prom" -json "$OBS_DIR/agg.json" examples/scenarios/smoke-1k.yaml 2> /dev/null
echo "c3b35edc0d0e7f9f0422845ae678c066a11e9ae326c42b9bb58551c073fa1aea  $OBS_DIR/agg.prom" | sha256sum -c - > /dev/null
go run ./cmd/promcheck -prom "$OBS_DIR/agg.prom" -min-families 10
go run ./cmd/campaign -quiet -flight 2 -flight-key wasted -flight-dir "$OBS_DIR" -json /dev/null examples/scenarios/smoke-1k.yaml
for k in 0 1; do
	go run ./cmd/tracelint -structure-only "$OBS_DIR/outlier-$k.trace.json"
	go run ./cmd/promcheck -prom "$OBS_DIR/outlier-$k.prom" -csv "$OBS_DIR/outlier-$k.timeline.csv" -min-rows 2
done
rm -rf "$OBS_DIR"

# Facade gates: the examples are the documented surface of the options
# API (WithStrategy/WithTracer/WithMetrics) and must keep running.
go run ./examples/quickstart > /dev/null
EX_DIR="$(mktemp -d -t geminiex.XXXXXX)"
go build -o "$EX_DIR/observability" ./examples/observability
(cd "$EX_DIR" && ./observability > /dev/null)
rm -rf "$EX_DIR"
