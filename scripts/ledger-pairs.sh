#!/usr/bin/env bash
# Interleaved parent/change pairs of perf-ledger workloads
# (choosing-metrics §8): the evidence a PR that claims — or denies — a
# performance change has to show.
#
#   scripts/ledger-pairs.sh <rev> <workload>[,<workload>...] [pairs=10] [seed]
#
#   scripts/ledger-pairs.sh HEAD~1 replay_wide
#   scripts/ledger-pairs.sh HEAD~1 replay_wide 10 held-out
#   scripts/ledger-pairs.sh HEAD~1 serve_reject,serve_admit,replay_wide,sim_sweep
#   LEDGER_SECONDS=2 scripts/ledger-pairs.sh HEAD replay_wide,serve_admit 1  # CI smoke
#
# "parent" is <rev>, extracted into a temporary directory; "change" is the
# checkout the script is run from, uncommitted edits included. Each side's
# ledger is built by that side's own benchmark/run.sh into a
# CARGO_TARGET_DIR of its own, so the two never share an artefact — once,
# before the first pair, however many workloads the list names (every run
# still goes through run.sh, which then finds the build fresh). The
# workloads run one after the other. Every pair runs both sides untraced
# (`--trace 0`) for LEDGER_SECONDS (default: BENCHMARK.json's
# run_seconds), alternating which side goes first. Per workload and
# end-to-end metric it prints each side's median and quartiles, wins/pairs
# (ties count for neither side), and whether the medians lie further apart
# than the parent's own inter-quartile distance.
#
# Exits non-zero only when a run fails (build error, failed correctness
# gate); the verdict columns are for the reader. Temporary files go under
# ${TMPDIR:-/tmp} and are removed on exit. No network.
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 2 ] && [ $# -le 4 ] || usage
rev=$1
IFS=, read -r -a workloads <<<"$2"
pairs=${3:-10}
seed=${4:-}
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
[ ${#workloads[@]} -ge 1 ] || usage
for workload in "${workloads[@]}"; do [ -n "$workload" ] || usage; done

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
seconds=${LEDGER_SECONDS:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)}
parent_sha=$(git rev-parse --verify --quiet "$rev^{commit}") || {
    echo "ledger-pairs: unknown revision $rev" >&2
    exit 2
}

work=$(mktemp -d "${TMPDIR:-/tmp}/ledger-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$parent_sha" | tar -x -C "$work/parent"

# name and direction of every end-to-end metric, from the declaration
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/  { on = 0 }
    on && /"name"/   { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); print name, $2 }
' BENCHMARK.json)

# ledger <parent|change> <ledger arguments>: that side's benchmark/run.sh
ledger() {
    local side=$1 dir=$root
    [ "$side" = parent ] && dir=$work/parent
    shift
    CARGO_TARGET_DIR="$work/target-$side" bash "$dir/benchmark/run.sh" "$@"
}

# run_side <parent|change>: one untraced run of $workload; the ledger's
# result line (its last line of stdout) is appended to
# $work/<side>.<workload>.results
run_side() {
    local side=$1 line
    line=$(ledger "$side" --workload "$workload" ${seed:+--seed "$seed"} \
        --seconds "$seconds" --trace 0 | tail -n 1) || line="exit $?: $line"
    case $line in
    '{"correct": true,'*) echo "$line" >>"$work/$side.$workload.results" ;;
    *)
        echo "ledger-pairs: the $side run failed: $line" >&2
        exit 1
        ;;
    esac
}

# value <metric> <file>: that metric of every result line, one per line
value() {
    sed -n 's/.*"'"$1"'": {"value": \([^,]*\),.*/\1/p' "$2"
}

# The one build of each side (run.sh builds, the ledger prints its usage).
for side in parent change; do
    ledger "$side" --help >/dev/null || {
        echo "ledger-pairs: the $side build failed" >&2
        exit 1
    }
done

for workload in "${workloads[@]}"; do
    echo "# ledger-pairs parent=$rev ($(git rev-parse --short "$parent_sha"))" \
        "change=$root ($(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +uncommitted))" \
        "workload=$workload pairs=$pairs seed=${seed:-default} seconds=$seconds"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do run_side "$side"; done
        echo "# pair $i/$pairs ($order):" \
            "parent ops_per_s=$(value ops_per_s "$work/parent.$workload.results" | tail -n 1)" \
            "change ops_per_s=$(value ops_per_s "$work/change.$workload.results" | tail -n 1)"
    done

    printf '%-14s %-6s %-34s %-34s %-6s %-7s %s\n' \
        metric better "parent median [q1, q3]" "change median [q1, q3]" wins chg/par "medians apart by > parent IQR"
    while read -r metric better; do
        paste -d' ' <(value "$metric" "$work/parent.$workload.results") \
            <(value "$metric" "$work/change.$workload.results") |
            awk -v metric="$metric" -v better="$better" '
            # quartiles as Python statistics.quantiles(n=4) computes them
            # (exclusive method), which is what the acceptance rule uses
            function quantile(v, n, p,    pos, lo, frac) {
                if (n == 1) return v[1]
                pos = p * (n + 1); lo = int(pos); frac = pos - lo
                if (lo < 1) return v[1]
                if (lo >= n) return v[n]
                return v[lo] + frac * (v[lo + 1] - v[lo])
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                        t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
                    }
            }
            {
                n++; parent[n] = $1; change[n] = $2
                if (better == "higher" ? ($2 > $1) : ($2 < $1)) wins++
                else if ($1 == $2) ties++
            }
            END {
                sorted(parent, p, n); sorted(change, c, n)
                pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
                pq1 = quantile(p, n, 0.25); pq3 = quantile(p, n, 0.75)
                apart = cm > pm ? cm - pm : pm - cm
                printf "%-14s %-6s %-34s %-34s %-6s %-7.3f %s\n", metric, better,
                    sprintf("%.5g [%.5g, %.5g]", pm, pq1, pq3),
                    sprintf("%.5g [%.5g, %.5g]", cm, quantile(c, n, 0.25), quantile(c, n, 0.75)),
                    sprintf("%d/%d", wins, n), cm / pm,
                    (apart > pq3 - pq1 ? "yes" : "no") (ties ? sprintf(" (%d tie(s))", ties) : "")
            }'
    done <<<"$metrics"
done
