#!/bin/sh
# benchcompare.sh — compare benchmark results between a baseline git ref and
# the working tree.
#
# Usage:
#   scripts/benchcompare.sh [BASE_REF] [BENCH_REGEX]
#
# BASE_REF defaults to HEAD~1; BENCH_REGEX defaults to the hot-path
# benchmarks shared across revisions. The baseline is built from a temporary
# git worktree so the working tree is never touched. Results go to
# bench-old.txt / bench-new.txt in the current directory.
#
# If a `benchstat` binary is on PATH it renders the statistical comparison;
# otherwise a plain old/new/delta table is printed per benchmark. The script
# is a report, not a gate: it always exits 0 unless the benchmarks
# themselves fail to run.
set -u

GO=${GO:-go}
BASE_REF=${1:-HEAD~1}
BENCH=${2:-'Energy|ProvisionTopology|ProvisionEffective|GreedyAlloc|Greedy|AnnealISP100|AnnealISP200|ClaimRepair|UpdatePlan|RouteTables|ColdStart|SimSlot'}
COUNT=${COUNT:-6}
PKGS=${PKGS:-'./...'}
OLD_OUT=${OLD_OUT:-bench-old.txt}
NEW_OUT=${NEW_OUT:-bench-new.txt}

repo_root=$(git rev-parse --show-toplevel) || exit 1
cd "$repo_root" || exit 1

worktree=$(mktemp -d "${TMPDIR:-/tmp}/benchbase.XXXXXX")
cleanup() {
    git worktree remove --force "$worktree" >/dev/null 2>&1
    rm -rf "$worktree"
}
trap cleanup EXIT INT TERM

echo "== baseline: $BASE_REF"
if ! git worktree add --detach "$worktree" "$BASE_REF" >/dev/null 2>&1; then
    echo "benchcompare: cannot create worktree for $BASE_REF" >&2
    exit 1
fi
( cd "$worktree" && $GO test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" $PKGS ) >"$OLD_OUT" 2>&1
old_status=$?

echo "== head: working tree"
$GO test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" $PKGS >"$NEW_OUT" 2>&1
new_status=$?

if [ $old_status -ne 0 ]; then
    echo "benchcompare: baseline benchmarks failed (see $OLD_OUT); continuing with HEAD only" >&2
fi
if [ $new_status -ne 0 ]; then
    echo "benchcompare: HEAD benchmarks failed" >&2
    tail -20 "$NEW_OUT" >&2
    exit 1
fi

if command -v benchstat >/dev/null 2>&1; then
    benchstat "$OLD_OUT" "$NEW_OUT"
    exit 0
fi

# Fallback: geometric-mean-free old/new/delta table from the raw `go test`
# output (benchstat is not vendored; install golang.org/x/perf/cmd/benchstat
# for confidence intervals).
echo "(benchstat not found; showing mean old/new/delta per benchmark)"
awk '
    FNR == 1 { file++ }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op")     { t[file, name] += $(i-1); tc[file, name]++ }
            if ($(i) == "B/op")      { b[file, name] += $(i-1); bc[file, name]++ }
            if ($(i) == "allocs/op") { a[file, name] += $(i-1); ac[file, name]++ }
        }
        names[name] = 1
    }
    END {
        printf "%-34s %14s %14s %9s   %12s %12s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta"
        for (n in names) {
            if (tc[1, n] == 0 || tc[2, n] == 0) continue
            ot = t[1, n] / tc[1, n]; nt = t[2, n] / tc[2, n]
            oa = (ac[1, n] ? a[1, n] / ac[1, n] : 0); na = (ac[2, n] ? a[2, n] / ac[2, n] : 0)
            dt = (ot > 0) ? (nt - ot) / ot * 100 : 0
            da = (oa > 0) ? (na - oa) / oa * 100 : 0
            printf "%-34s %14.0f %14.0f %+8.1f%%   %12.1f %12.1f %+8.1f%%\n", n, ot, nt, dt, oa, na, da
        }
    }
' "$OLD_OUT" "$NEW_OUT" | sort
exit 0
