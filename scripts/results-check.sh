#!/usr/bin/env bash
# The committed results are what `experiments all` writes.
#
#   scripts/results-check.sh [experiments-binary]
#
# Runs `experiments all` (default: target/release/experiments, which must
# be built) in a temporary directory and compares what it writes — every
# results/*.csv and its stdout, results/experiments_all.txt — with the
# committed files, byte for byte, and prints the run's wall time and its
# CPU time (user + sys, all threads). The one column masked is
# replay-parity's `replay_entries_per_sec`, a wall-clock rate. A file
# missing on either side is a difference too. Exits 1 on any difference
# and prints a unified diff of each differing file; to accept new numbers,
# run `experiments all > results/experiments_all.txt` at the repository
# root and commit the results. Temporary files go under ${TMPDIR:-/tmp}.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
bin=${1:-$root/target/release/experiments}
bin=$(cd "$(dirname "$bin")" && pwd)/$(basename "$bin")
[ -x "$bin" ] || {
    echo "results-check: no experiments binary at $bin (cargo build --release -p pqos-bench)" >&2
    exit 2
}

work=$(mktemp -d "${TMPDIR:-/tmp}/results-check.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/run/results"
TIMEFORMAT='%3R %3U %3S'
{ time (cd "$work/run" && "$bin" all >"$work/stdout" 2>/dev/null); } 2>"$work/time"
read -r wall user sys <"$work/time"
mv "$work/stdout" "$work/run/results/experiments_all.txt"
cpu=$(awk -v u="$user" -v s="$sys" 'BEGIN { printf "%.3f", u + s }')
echo "results-check: experiments all ran in ${wall} s wall, ${cpu} s CPU (user ${user} + sys ${sys})"

python3 - "$root/results" "$work/run/results" <<'EOF'
import difflib, os, sys

committed, fresh = sys.argv[1], sys.argv[2]

def masked(name, text):
    """The file's lines with replay_entries_per_sec blanked."""
    lines = text.splitlines()
    if name == "replay-parity.csv":
        return [line.rsplit(",", 1)[0] + ",*" for line in lines]
    if name == "experiments_all.txt":
        out, inside = [], False
        for line in lines:
            if line.startswith("== "):
                inside = line.startswith("== replay-parity:")
            elif inside and line.strip():
                # Column widths follow the rate's digits: compare fields.
                fields = line.split()
                line = "-" if set(line) == {"-"} else " ".join(fields[:-1] + ["*"])
            out.append(line)
        return out
    return lines

names = sorted(set(os.listdir(committed)) | set(os.listdir(fresh)))
bad = 0
for name in names:
    a, b = os.path.join(committed, name), os.path.join(fresh, name)
    if not (os.path.exists(a) and os.path.exists(b)):
        print(f"results-check: {name} only in {'committed' if os.path.exists(a) else 'fresh'} results")
        bad += 1
        continue
    want, got = masked(name, open(a).read()), masked(name, open(b).read())
    if want != got:
        bad += 1
        sys.stdout.writelines(
            l + "\n" for l in difflib.unified_diff(
                want, got, f"committed/{name}", f"fresh/{name}", lineterm=""))
print(f"results-check: {len(names)} files, {bad} differ")
sys.exit(1 if bad else 0)
EOF
