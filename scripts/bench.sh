#!/usr/bin/env bash
# bench.sh runs the scan/analysis benchmark suite — the parallel dataset
# scanners and the fused figure pipeline, including the incremental
# snapshot append path — and records the results as BENCH_scan.json.
#
# A full run measures the suite twice: once pinned to GOMAXPROCS=1 (the
# per-core number the batch-kernel acceptance bar is stated against —
# parallel speedup cannot mask a slow kernel) and once at the host's
# default GOMAXPROCS (the figure users see). Each run is one entry set
# under "runs", stamped with its gomaxprocs; the file carries the git
# SHA, Go version, and UTC timestamp that produced it. Per benchmark it
# records ns/op plus the reported rates: samples_per_s counts predicate
# matches, rows_per_s counts rows decoded (they differ on filtered
# scans — see internal/scan/bench_test.go).
#
#   scripts/bench.sh          # full measurement run
#   scripts/bench.sh smoke    # one iteration per benchmark (CI gate)
#
# Smoke mode exists so scripts/check.sh can exercise every benchmark's
# code path and still emit a (non-statistical) BENCH_scan.json; it runs
# the suite once, at the default GOMAXPROCS.
#
# The serving layer has its own closed-loop load benchmark (sustained
# QPS and p50/p99/p999 against the hot query API, cache on/off, steady
# state and during live ingestion — see internal/serve/loadbench_test.go):
#
#   scripts/bench.sh serve        # full measurement run -> BENCH_serve.json
#   scripts/bench.sh serve-smoke  # short CI-gate pass (non-statistical)
#
# A serve run executes at the host's default GOMAXPROCS and records it
# beside host_cores (runtime.NumCPU, the affinity mask nproc reads), so
# a worker sweep measured on fewer cores than it runs workers shows as
# such. The committed baseline is the per-field median of several full
# runs; the p99 gate only judges a run taken at the baseline's
# gomaxprocs and host_cores, and says so when it skips.
#
# SERVE_BENCH_OUT overrides the serve output path.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"
out="${BENCH_OUT:-BENCH_scan.json}"
case "$mode" in
smoke) benchtime="1x" ;;
full) benchtime="2s" ;;
serve | serve-smoke)
    out="${SERVE_BENCH_OUT:-BENCH_serve.json}"
    # The test binary runs inside the package directory; anchor a
    # relative output path to the repo root.
    case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
    if ! (: >>"$out") 2>/dev/null; then
        echo "bench.sh: output path '$out' is not writable" >&2
        exit 1
    fi
    full=""
    if [ "$mode" = serve ]; then full=1; fi
    # Snapshot the committed baseline before the run: a full serve run's
    # default output path IS the committed BENCH_serve.json, so the
    # on-disk file is already overwritten by the time the gate compares.
    baseline="$(git show HEAD:BENCH_serve.json 2>/dev/null || true)"
    baseline_p99="$(jq -r '[.scenarios[] | select(.scenario == "cdf_window_index")][0].p99_us // empty' \
        <<<"$baseline" 2>/dev/null || true)"
    baseline_shape="$(jq -r '"\(.gomaxprocs // "")/\(.host_cores // "")"' <<<"$baseline" 2>/dev/null || true)"
    SERVE_BENCH_OUT="$out" \
        SERVE_BENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
        SERVE_BENCH_FULL="$full" \
        go test -run '^TestServeLoadBench$' -count=1 -v ./internal/serve
    echo "serve bench results written to $out"
    # Regression gate: the windowed-index scenario's p99 must stay within
    # 20% of the committed baseline. Smoke runs are single-shot and
    # non-statistical, so only full serve runs are gated; the gate skips
    # (loudly) when the committed baseline predates the scenario or was
    # measured at another gomaxprocs/host_cores than this run.
    if [ "$mode" = serve ]; then
        new_p99="$(jq -r '[.scenarios[] | select(.scenario == "cdf_window_index")][0].p99_us // empty' "$out")"
        new_shape="$(jq -r '"\(.gomaxprocs // "")/\(.host_cores // "")"' "$out")"
        if [ -n "$baseline_p99" ] && [ "$baseline_shape" != "$new_shape" ]; then
            echo "cdf_window_index p99 gate SKIPPED: this run's gomaxprocs/host_cores ${new_shape} differ from the committed baseline's ${baseline_shape}" >&2
        elif [ -n "$baseline_p99" ] && [ -n "$new_p99" ]; then
            if awk -v n="$new_p99" -v b="$baseline_p99" 'BEGIN { exit !(n > 1.2 * b) }'; then
                echo "bench.sh: cdf_window_index p99 regressed >20%: ${new_p99}us vs committed baseline ${baseline_p99}us" >&2
                exit 1
            fi
            echo "cdf_window_index p99 gate passed: ${new_p99}us vs baseline ${baseline_p99}us (limit +20%)"
        else
            echo "cdf_window_index p99 gate skipped (committed baseline lacks the scenario)"
        fi
    fi
    exit 0
    ;;
*)
    echo "usage: scripts/bench.sh [smoke|full|serve|serve-smoke]" >&2
    exit 2
    ;;
esac

# Fail before spending minutes benchmarking if the destination cannot
# be written (e.g. BENCH_OUT points into a read-only mount or a missing
# directory).
if ! (: >>"$out") 2>/dev/null; then
    echo "bench.sh: output path '$out' is not writable" >&2
    exit 1
fi

raw="$(mktemp)"
runsfile="$(mktemp)"
trap 'rm -f "$raw" "$runsfile"' EXIT

# Provenance stamp: the numbers are only comparable when the code,
# toolchain, and parallelism that produced them are known.
git_sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
go_version="$(go version | { read -r _ _ v _; echo "$v"; })"
default_procs="${GOMAXPROCS:-$(nproc 2>/dev/null || echo unknown)}"
timestamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# bench_run PROCS LAST: run the suite (pinned to PROCS unless empty)
# and append one run object to $runsfile.
bench_run() {
    local procs="$1" last="$2" label
    label="${procs:-$default_procs}"
    echo "== bench run: GOMAXPROCS=${label} =="
    if [ -n "$procs" ]; then
        GOMAXPROCS="$procs" go test -run='^$' -bench='Scan|Incremental|AllFigures' \
            -benchtime="$benchtime" ./internal/scan ./internal/core | tee "$raw"
    else
        go test -run='^$' -bench='Scan|Incremental|AllFigures' \
            -benchtime="$benchtime" ./internal/scan ./internal/core | tee "$raw"
    fi
    awk -v procs="$label" -v last="$last" '
    BEGIN { n = 0 }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = ""; sps = ""; rps = ""
        for (i = 2; i < NF; i++) {
            if ($(i + 1) == "ns/op") ns = $i
            if ($(i + 1) == "samples/s") sps = $i
            if ($(i + 1) == "rows/s") rps = $i
        }
        if (ns == "") next
        line = sprintf("    {\"name\": \"%s\", \"ns_op\": %s", name, ns)
        if (sps != "") line = line sprintf(", \"samples_per_s\": %s", sps)
        if (rps != "") line = line sprintf(", \"rows_per_s\": %s", rps)
        line = line "}"
        rows[n++] = line
    }
    END {
        printf "  {\"gomaxprocs\": \"%s\", \"benchmarks\": [\n", procs
        for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n - 1 ? "," : "")
        printf "  ]}%s\n", (last == "yes" ? "" : ",")
    }
    ' "$raw" >>"$runsfile"
}

if [ "$mode" = smoke ]; then
    bench_run "" yes
else
    bench_run 1 no
    bench_run "" yes
fi

{
    printf '{\n"mode": "%s",\n' "$mode"
    printf '"git_sha": "%s",\n"go_version": "%s",\n' "$git_sha" "$go_version"
    printf '"timestamp": "%s",\n' "$timestamp"
    printf '"runs": [\n'
    cat "$runsfile"
    printf ']\n}\n'
} >"$out"

if ! [ -s "$out" ]; then
    echo "bench.sh: no benchmark output landed in '$out'" >&2
    exit 1
fi
echo "bench results written to $out"
