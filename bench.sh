#!/bin/sh
# Benchmark suite runner: executes every Benchmark* three times with
# allocation stats and records the raw `go test -json` event stream in
# BENCH_<date>.json, so runs on different machines/dates can be diffed
# (e.g. with benchstat fed from the "Output" fields). This includes the
# observability pair (BenchmarkControlPlaneMonitor{Off,On}), the
# per-strategy overhead set (BenchmarkControlPlaneStrategy/<name>), and
# the availability-kernel set (BenchmarkMonteCarloN10000/N50000,
# BenchmarkSurvivesFailed, BenchmarkBuildTimeline,
# BenchmarkProfileWithJitter) and the control-plane scaling set
# (BenchmarkLeaseKeepAlive/N, BenchmarkControlPlaneScale/N) whose
# numbers back the EXPERIMENTS.md overhead, kernel and scaling tables,
# the §7.4 data-plane set (BenchmarkExecuteSchemes: all five
# interleaving schemes through the flow engine and the executor), and the
# cold-derivation set (BenchmarkScenarioCompile/10k and /100k: a cold
# Parse + Compile of the chaos scenario, derivation cache cleared per op,
# alongside BenchmarkBuildTimeline and BenchmarkProfileWithJitter).
#
# Usage:
#   ./bench.sh                # full suite, -count=3
#   ./bench.sh -benchtime=1x  # extra args are passed to `go test`
#
# Snapshots are never overwritten: a second run on the same date writes
# BENCH_<date>.1.json, then .2.json, and so on. Compare any two with
#   go run ./cmd/benchdiff -threshold 10 OLD.json NEW.json
# (threshold gates ns/op regressions and exits 1; use -threshold -1 for
# report-only when the snapshots come from different machines).
set -eu

out="BENCH_$(date +%Y-%m-%d).json"
n=0
while [ -e "$out" ]; do
	n=$((n + 1))
	out="BENCH_$(date +%Y-%m-%d).$n.json"
done
echo "writing $out" >&2
go test -json -run='^$' -bench=. -benchmem -count=3 "$@" ./... >"$out"
grep -c '"Action":"output"' "$out" >/dev/null || {
	echo "bench run produced no output events" >&2
	exit 1
}
echo "done: $out" >&2
