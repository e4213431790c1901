#!/usr/bin/env sh
# bench.sh — run the perf benchmark suites and emit machine-readable
# snapshots, so the perf trajectory is comparable PR-over-PR.
#
# Usage:
#   scripts/bench.sh            # writes BENCH_refine.json + BENCH_campaign.json + BENCH_fabric.json + BENCH_serve.json
#   BENCHTIME=3x scripts/bench.sh
#   OUT=/tmp/refine.json CAMPAIGN_OUT=/tmp/campaign.json FABRIC_OUT=/tmp/fabric.json SERVE_OUT=/tmp/serve.json scripts/bench.sh
#
# BENCH_refine.json covers the refinement grid end-to-end
# (BenchmarkRefineGrid, serial + budgeted workers) plus the micro
# kernels it is built from (C4.5 induction, SMOTE, the SMOTE neighbour
# index, cross-validation).
# BENCH_campaign.json covers the resumable campaign engine
# (BenchmarkCampaign: bare propane reference, engine overhead,
# journaled checkpointing, and journal replay = resume overhead).
# BENCH_fabric.json covers the distributed campaign fabric
# (BenchmarkFabric: one coordinator plus 1/2/4 in-process workers over
# loopback on a latency-bound synthetic target — the workers=2 over
# workers=1 runs/s ratio is the scaling figure, target >=1.8x).
# BENCH_serve.json covers the serving runtime's request loop
# (internal/serve BenchmarkServe*: a 64-sample batch over loopback HTTP
# in the json and binary codecs, each plain and with the bundle loaded
# as its own lifecycle shadow candidate — the Shadow over plain ns/op
# ratio is the dual-evaluation cost). A request takes microseconds, so
# this suite runs for 1s per leg instead of BENCHTIME.
# The open-loop serving latencies live in the end-to-end benchmark
# (bench/run.sh, workloads serve-bin64 and serve-json512).
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"

# run_suite PATTERN OUT [PKG [BENCHTIME]] — run one benchmark set of
# package PKG (default .) and convert the output into a JSON snapshot
# at OUT.
run_suite() {
    PATTERN="$1"
    SUITE_OUT="$2"
    PKG="${3:-.}"
    SUITE_BENCHTIME="${4:-$BENCHTIME}"

    RAW="$(go test -run '^$' -bench "$PATTERN" -benchtime "$SUITE_BENCHTIME" -benchmem "$PKG" 2>&1)"
    printf '%s\n' "$RAW"

    printf '%s\n' "$RAW" | awk -v benchtime="$SUITE_BENCHTIME" '
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ && /ns\/op/ {
    name = $1
    iters = $2
    ns = ""; bytes = ""; allocs = ""; runs = ""
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
        if ($(i + 1) == "runs/s") runs = $i
    }
    row = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"runs_per_sec\": %s}",
                  name, iters, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs, runs == "" ? "null" : runs)
    rows = rows == "" ? row : rows ",\n" row
}
END {
    if (rows == "") { print "bench.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    print "{"
    print "  \"generated_by\": \"scripts/bench.sh\","
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    print "  \"benchmarks\": ["
    print rows
    print "  ]"
    print "}"
}' > "$SUITE_OUT"

    echo "wrote $SUITE_OUT"
}

run_suite 'BenchmarkRefineGrid|BenchmarkMicro_C45Induction|BenchmarkMicro_SMOTE|BenchmarkMicro_NeighborIndex|BenchmarkMicro_CrossValidate' "${OUT:-BENCH_refine.json}"
run_suite 'BenchmarkCampaign/' "${CAMPAIGN_OUT:-BENCH_campaign.json}"
run_suite 'BenchmarkFabric/' "${FABRIC_OUT:-BENCH_fabric.json}"

run_suite '^BenchmarkServe' "${SERVE_OUT:-BENCH_serve.json}" ./internal/serve 1s
