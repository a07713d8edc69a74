#!/usr/bin/env bash
# Interleaved parent/change pairs of perf-ledger workloads
# (choosing-metrics §8), each pair built at a code layout of its own: the
# evidence a PR that claims — or denies — a performance change has to show.
#
#   scripts/ledger-pairs.sh <rev> <workload>[,<workload>...] [pairs=10] [seed]
#   scripts/ledger-pairs.sh --self-test <workload>[,<workload>...] [pairs=10] [seed]
#
#   scripts/ledger-pairs.sh HEAD~1 replay_wide
#   scripts/ledger-pairs.sh HEAD~1 replay_wide 10 held-out
#   scripts/ledger-pairs.sh HEAD~1 serve_reject,serve_admit,replay_wide,sim_sweep
#   scripts/ledger-pairs.sh --self-test serve_reject,serve_admit,replay_wide,sim_sweep
#   LEDGER_SECONDS=2 scripts/ledger-pairs.sh HEAD replay_wide,serve_admit 1  # CI smoke
#
# "parent" is <rev>; "change" is the checkout the script is run from,
# uncommitted edits and untracked files included, as it stood when the
# script started. A ledger binary's speed follows the source path it was
# built from — the path feeds cargo's `-C metadata`, hence the symbol
# hashes, hence the code layout — by up to ~8 % on every workload. So:
#
# - within a pair, both sides are built from one source path: the parent
#   is extracted there and built by its own benchmark/run.sh, then the
#   change is extracted there in its place and built by its own, each into
#   a CARGO_TARGET_DIR of its own (two builds a pair);
# - every pair draws a fresh path, its directory name of a length no other
#   pair's has (up to 24 pairs), so the pairs sample layouts and the spread
#   of their ratios includes layout noise instead of one draw hiding it.
#
# Each pair then runs every workload in turn, both sides untraced
# (`--trace 0`) for LEDGER_SECONDS (default: BENCHMARK.json's
# run_seconds) from the pair's directory, alternating which side goes
# first. Per workload and end-to-end metric it prints each side's median
# and quartiles over the pairs, wins/pairs (ties count for neither side),
# the ratio of the medians, whether the medians lie further apart than
# the parent's own inter-quartile distance, and the layout-noise floor:
# the parent's IQR as a share of its median.
#
# --self-test pairs HEAD with itself: each pair's two builds must be
# byte-identical (cmp). The table is printed as for any pair run, for the
# reader; no timing verdict is gated, because identical binaries on a
# shared host do not meet one reliably (at 27 s and 10 pairs, `setup_s`
# read 1.067 on replay_wide and `peak_rss_mib` lost 9/10 on sim_sweep).
#
# Exits non-zero when a build or run fails (build error, failed
# correctness gate) or a self-test's builds differ; otherwise the verdict
# columns are for the reader. Temporary files go under ${TMPDIR:-/tmp}
# and are removed on exit. No network.
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
}

self_test=0
if [ "${1:-}" = --self-test ]; then
    self_test=1
    shift
    set -- HEAD "$@"
fi
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
git archive -o "$work/parent.tar" "$parent_sha"
if ((self_test)); then
    cp "$work/parent.tar" "$work/change.tar"
    change_label="$rev (self-test)"
else
    # Every file git would see, tracked or not, that exists on disk.
    git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
        tar --null -T - -cf "$work/change.tar"
    change_label="$root ($(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +uncommitted))"
fi

# name and direction of every end-to-end metric, from the declaration
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/  { on = 0 }
    on && /"name"/   { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); print name, $2 }
' BENCHMARK.json)

# build <side> <dir>: extracts that side into <dir> (emptied first), builds
# its ledger with its own run.sh from cold (a new source path rebuilds every
# workspace crate anyway), and keeps the binary as $work/<side>.bin
build() {
    local side=$1 dir=$2
    rm -rf "$dir" "$work/target-$side"
    mkdir "$dir"
    tar -x -C "$dir" -f "$work/$side.tar"
    CARGO_TARGET_DIR="$work/target-$side" bash "$dir/benchmark/run.sh" --help >/dev/null || {
        echo "ledger-pairs: the $side build failed" >&2
        exit 1
    }
    cp "$work/target-$side/release/pqos-ledger" "$work/$side.bin"
}

# run_side <parent|change>: one untraced run of $workload from the pair's
# directory; the ledger's result line (its last line of stdout) is
# appended to $work/<side>.<workload>.results
run_side() {
    local side=$1 line
    line=$(cd "$dir" && "$work/$side.bin" --workload "$workload" ${seed:+--seed "$seed"} \
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

echo "# ledger-pairs parent=$rev ($(git rev-parse --short "$parent_sha")) change=$change_label" \
    "workloads=$2 pairs=$pairs seed=${seed:-default} seconds=$seconds builds_per_pair=2"
failed=0
for ((i = 1; i <= pairs; i++)); do
    # A directory name 1..24 characters long, drawn afresh.
    dir=$work/$(od -An -N12 -tx1 /dev/urandom | tr -d ' \n' | cut -c1-$(((i - 1) % 24 + 1)))
    for side in parent change; do build "$side" "$dir"; done
    if ((self_test)) && ! cmp -s "$work/parent.bin" "$work/change.bin"; then
        echo "ledger-pairs: self-test: two builds at $dir differ" >&2
        failed=1
    fi
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for workload in "${workloads[@]}"; do
        for side in $order; do run_side "$side"; done
        echo "# pair $i/$pairs workload=$workload path_len=${#dir} ($order):" \
            "parent ops_per_s=$(value ops_per_s "$work/parent.$workload.results" | tail -n 1)" \
            "change ops_per_s=$(value ops_per_s "$work/change.$workload.results" | tail -n 1)"
    done
done

for workload in "${workloads[@]}"; do
    echo "# workload=$workload pairs=$pairs (one layout each)"
    printf '%-14s %-6s %-34s %-34s %-6s %-7s %-8s %-22s %s\n' \
        metric better "parent median [q1, q3]" "change median [q1, q3]" wins chg/par floor \
        "ratio median [q1, q3]" "medians apart by > parent IQR"
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
                ratio[n] = $1 == 0 ? ($2 == 0 ? 1 : 0) : $2 / $1
                if (better == "higher" ? ($2 > $1) : ($2 < $1)) wins++
                else if ($1 == $2) ties++
            }
            END {
                sorted(parent, p, n); sorted(change, c, n); sorted(ratio, r, n)
                pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
                pq1 = quantile(p, n, 0.25); pq3 = quantile(p, n, 0.75)
                rm = quantile(r, n, 0.5); rq1 = quantile(r, n, 0.25); rq3 = quantile(r, n, 0.75)
                apart = cm > pm ? cm - pm : pm - cm
                printf "%-14s %-6s %-34s %-34s %-6s %-7.3f %-8s %-22s %s\n", metric, better,
                    sprintf("%.5g [%.5g, %.5g]", pm, pq1, pq3),
                    sprintf("%.5g [%.5g, %.5g]", cm, quantile(c, n, 0.25), quantile(c, n, 0.75)),
                    sprintf("%d/%d", wins, n), pm ? cm / pm : 1,
                    sprintf("%.1f%%", pm ? 100 * (pq3 - pq1) / pm : 0),
                    sprintf("%.3f [%.3f, %.3f]", rm, rq1, rq3),
                    (apart > pq3 - pq1 ? "yes" : "no") (ties ? sprintf(" (%d tie(s))", ties) : "")
            }'
    done <<<"$metrics"
done
if ((self_test)); then
    if ((failed)); then echo "# self-test: FAIL" && exit 1; fi
    echo "# self-test: ok"
fi
