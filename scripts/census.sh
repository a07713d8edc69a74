#!/usr/bin/env bash
# Compile-checked public-surface census: which `pub` items of a library
# crate have no caller outside it, and which have no caller at all.
#
#   scripts/census.sh CRATE...
#
#   scripts/census.sh core ckpt predict replay workload sim-core
#
# CRATE is a directory under crates/. On a temporary copy of the checkout
# (uncommitted edits included) the script
#   1. demotes every `pub` fn, const, static, struct, enum, trait and type
#      in each CRATE's public modules (src/ reached through `pub mod`, not
#      src/bin/; above the `#[cfg(test)] mod` ending a file) to
#      `pub(crate)`, and splits every `pub use` into one `pub(crate) use`
#      per name, so a re-export is not a caller;
#   2. runs `cargo check --all-targets` on the workspace and on benchmark/
#      and re-promotes every item or re-export that a compile error points
#      at, until both build;
#   3. runs `cargo check --lib` on each CRATE and reads its dead-code and
#      unused-import warnings.
# Then it prints one line per finding, sorted:
#   demotable CRATE ITEM FILE:LINE   no caller outside its crate
#   dead      CRATE ITEM FILE:LINE   no caller outside its crate's tests
# A finding named in scripts/census-keep.txt (lines "CRATE ITEM  reason")
# prints as `kept` instead; a keep-list entry for one of the given crates
# that matches no finding is stale, named on stderr and fails the census.
# Doctests are not compiled, so an item only a doctest calls shows up and
# belongs in the keep-list with that reason. Tests, examples, bins and
# benchmark/ count as callers.
#
# Exits 0 when every finding is kept and no keep-list entry is stale, 1
# otherwise, 2 on a usage or build error. Temporary files go under
# ${TMPDIR:-/tmp} and are removed on exit. Needs bash, python3 and cargo;
# no network (cargo runs --offline).
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 1 ] || usage
root=$(cd "$(dirname "$0")/.." && pwd)
for crate in "$@"; do
    [ -f "$root/crates/$crate/src/lib.rs" ] || { echo "census: no library crate crates/$crate" >&2; usage; }
done

work=$(mktemp -d "${TMPDIR:-/tmp}/census.XXXXXX")
trap 'rm -rf "$work"' EXIT
tree=$work/tree
mkdir -p "$tree"
(cd "$root" && git ls-files -z -co --exclude-standard |
    while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
    tar --null -T - -cf -) | tar -C "$tree" -xf -
export CARGO_TARGET_DIR=$work/target

# Per-file map of the copy's demoted lines: copy line -> item, origin line.
map=$work/map.json

cat >"$work/demote.py" <<'PY'
import json, os, re, sys

tree, map_path, crates = sys.argv[1], sys.argv[2], sys.argv[3:]
ITEM = re.compile(
    r'^(\s*)pub ((?:const |unsafe |async |extern "[^"]*" )*'
    r'(?:fn|const|static|struct|enum|trait|type|union)\s+(\w+))')
IMPL = re.compile(r'^impl\b')


def impl_type(header):
    """`impl<T: X> Foo<T> where ..` -> `Foo` (None for trait impls)."""
    rest = header[len("impl"):].strip()
    if rest.startswith("<"):
        depth = 0
        for i, c in enumerate(rest):
            depth += (c == "<") - (c == ">")
            if depth == 0:
                rest = rest[i + 1:].strip()
                break
    if re.search(r"\sfor\s", " " + rest):
        return None
    m = re.match(r"[\w:]*?(\w+)\s*(<|\{|where|$)", rest)
    return m.group(1) if m else None


def use_leaves(tree_text):
    """Leaves of a use tree: `a::{b, c::{d as e}}` -> [a::b, a::c::d as e]."""
    def parse(s, i, prefix, out):
        path = ""
        while i < len(s):
            c = s[i]
            if c == "{":
                i = parse(s, i + 1, prefix + path.strip(), out)
                path = ""
            elif c in ",}":
                if path.strip():
                    out.append(prefix + path.strip())
                path = ""
                i += 1
                if c == "}":
                    return i
            else:
                path += c
                i += 1
        if path.strip():
            out.append(prefix + path.strip())
        return i

    out = []
    parse(re.sub(r"\s+", " ", tree_text).replace(" ::", "::").replace(":: ", "::"), 0, "", out)
    return [" ".join(leaf.split()) for leaf in out]


def public_module(src, path):
    """Whether `path` is reachable from the crate root through `pub mod`s
    (a `pub` item in a private module is not public API)."""
    parts = os.path.splitext(os.path.relpath(path, src))[0].split(os.sep)
    if parts[-1] == "mod":
        parts.pop()
    if parts in (["lib"], []):
        return True
    parent = os.path.join(src, "lib.rs")
    for depth, name in enumerate(parts):
        text = open(parent, encoding="utf-8").read() if os.path.exists(parent) else ""
        if not re.search(rf"^\s*pub mod {name}\b", text, re.M):
            return False
        base = os.path.join(src, *parts[: depth + 1])
        parent = base + ".rs" if os.path.exists(base + ".rs") else os.path.join(base, "mod.rs")
    return True


demoted = {}
for crate in crates:
    src = os.path.join(tree, "crates", crate, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = [d for d in dirnames if not (dirpath == src and d == "bin")]
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if not name.endswith(".rs") or (dirpath == src and name == "main.rs") \
                    or not public_module(src, path):
                continue
            rel = os.path.relpath(path, tree)
            lines = open(path, encoding="utf-8").read().split("\n")
            out, entries, impl = [], {}, None
            i = 0
            while i < len(lines):
                line = lines[i]
                if line.startswith("#[cfg(test)]") and i + 1 < len(lines) \
                        and re.match(r"(pub(\([^)]*\))? )?mod \w+", lines[i + 1]):
                    out.extend(lines[i:])
                    break
                if IMPL.match(line):
                    impl = impl_type(line.rstrip("{ "))
                elif line and not line[0].isspace() and line[0] not in "}#/":
                    impl = None
                cfg_test = i > 0 and lines[i - 1].strip() == "#[cfg(test)]"
                stripped = line.lstrip()
                if stripped.startswith("pub use ") and not cfg_test:
                    indent = line[: len(line) - len(stripped)]
                    stmt, j = stripped, i
                    while not stmt.rstrip().endswith(";"):
                        j += 1
                        stmt += " " + lines[j].strip()
                    body = stmt[len("pub use "):].rstrip().rstrip(";")
                    for leaf in use_leaves(body):
                        out.append(f"{indent}pub(crate) use {leaf};")
                        entries[len(out)] = {"item": "use:" + leaf.replace(" ", "_"),
                                             "line": i + 1}
                    i = j + 1
                    continue
                m = ITEM.match(line)
                if m and not cfg_test:
                    ident = m.group(3)
                    item = f"{impl}::{ident}" if impl and m.group(1) else ident
                    out.append(line.replace("pub ", "pub(crate) ", 1))
                    entries[len(out)] = {"item": item, "line": i + 1}
                else:
                    out.append(line)
                i += 1
            if entries:
                open(path, "w", encoding="utf-8").write("\n".join(out))
                demoted[rel] = {"crate": crate, "lines": entries}
json.dump(demoted, open(map_path, "w"))
PY
python3 "$work/demote.py" "$tree" "$map" "$@"

# Reads cargo's JSON messages on stdin; re-promotes the demoted lines that
# any error's spans touch. Prints how many it re-promoted, or "stuck" with
# the first unexplained errors when the build fails for another reason.
cat >"$work/repromote.py" <<'PY'
import json, os, re, sys

tree, map_path, cwd = sys.argv[1], sys.argv[2], sys.argv[3]
demoted = json.load(open(map_path))
hits, other, errors = set(), [], 0


def spans(msg):
    for s in msg.get("spans", []):
        yield s
        exp = s.get("expansion")
        while exp:
            yield exp["span"]
            exp = exp["span"].get("expansion")
    for child in msg.get("children", []):
        yield from spans(child)


for raw in sys.stdin:
    try:
        msg = json.loads(raw)
    except ValueError:
        continue
    if msg.get("reason") != "compiler-message" or msg["message"]["level"] != "error":
        continue
    m = msg["message"]
    if m["message"].startswith("aborting due to") or m["message"].startswith("could not compile"):
        continue
    errors += 1
    found = False
    for s in spans(m):
        rel = os.path.relpath(os.path.realpath(os.path.join(cwd, s["file_name"])), tree)
        entry = demoted.get(rel)
        if entry and str(s["line_start"]) in entry["lines"]:
            hits.add((rel, s["line_start"]))
            found = True
    # "type `model::ExecutionPlan` is private" has no span at the item:
    # find it by name (and module, when the message gives one).
    named = re.search(r"`([\w:]+)(?:<[^`]*>)?` is (?:private|only public within the crate)",
                      m["message"])
    if not found and named:
        *module, name = named.group(1).split("::")
        for rel, entry in demoted.items():
            stem = os.path.splitext(os.path.basename(rel))[0]
            if module and module[-1] != stem and stem != "lib":
                continue
            for line, e in entry["lines"].items():
                if e["item"] == name:
                    hits.add((rel, int(line)))
                    found = True
    # A demoted re-export can leave its name resolving to something else
    # ("expected function, found module `audit`"): re-promote every
    # re-export of a name the message quotes.
    if not found:
        quoted = set(re.findall(r"`(\w+)`", m["message"]))
        for rel, entry in demoted.items():
            for line, e in entry["lines"].items():
                leaf = e["item"].split("::")[-1].split("_as_")[-1]
                if e["item"].startswith("use:") and leaf in quoted:
                    hits.add((rel, int(line)))
                    found = True
    if not found:
        other.append(m.get("rendered") or m["message"])

if errors and not hits:
    print("stuck")
    for text in other[:5]:
        sys.stderr.write(text + "\n")
    sys.exit(0)
by_file = {}
for rel, line in hits:
    by_file.setdefault(rel, []).append(line)
for rel, lines in by_file.items():
    path = os.path.join(tree, rel)
    text = open(path, encoding="utf-8").read().split("\n")
    for line in lines:
        text[line - 1] = text[line - 1].replace("pub(crate) ", "pub ", 1)
        del demoted[rel]["lines"][str(line)]
    open(path, "w", encoding="utf-8").write("\n".join(text))
json.dump(demoted, open(map_path, "w"))
print(len(hits))
PY
repromote() { python3 "$work/repromote.py" "$tree" "$map" "$1"; }

round=0
while :; do
    round=$((round + 1))
    n=0
    for dir in "$tree" "$tree/benchmark"; do
        out=$(cd "$dir" && cargo check --offline --keep-going --all-targets \
            --message-format=json 2>/dev/null | repromote "$dir") || true
        if [ "$out" = stuck ]; then
            echo "census: the copy does not build for a reason no demotion explains" >&2
            exit 2
        fi
        n=$((n + out))
    done
    echo "census: round $round re-promoted $n item(s)" >&2
    [ "$n" -gt 0 ] || break
done

packages=()
for crate in "$@"; do
    packages+=(-p "$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$tree/crates/$crate/Cargo.toml" | head -n 1)")
done
cat >"$work/report.py" <<'PY'
import json, os, re, sys

tree, map_path, keep_path, crates = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
demoted = json.load(open(map_path))
DECL = re.compile(r"\b(?:fn|const|static|struct|enum|trait|type|union|mod)\s+(\w+)|^\s*(?:pub(?:\([^)]*\))? )?(\w+)\s*[:(,{]")
dead = {}

for raw in sys.stdin:
    try:
        msg = json.loads(raw)
    except ValueError:
        continue
    if msg.get("reason") != "compiler-message":
        continue
    m = msg["message"]
    code = (m.get("code") or {}).get("code")
    if code not in ("dead_code", "unused_imports"):
        continue
    for s in m["spans"]:
        if not s["is_primary"]:
            continue
        rel = os.path.relpath(os.path.realpath(os.path.join(tree, s["file_name"])), tree)
        entry = demoted.get(rel)
        line = s["line_start"]
        if entry and str(line) in entry["lines"]:
            e = entry["lines"][str(line)]
            dead[(entry["crate"], e["item"])] = (rel, e["line"])
        elif rel.startswith("crates/") and rel.split("/")[1] in crates:
            # A field, variant or private item: name it by its owner.
            text = open(os.path.join(tree, rel), encoding="utf-8").read().split("\n")
            d = DECL.search(text[line - 1])
            name = (d.group(1) or d.group(2)) if d else s["text"][0]["text"].strip()
            owner = next((o.group(1) for o in (re.match(r"(?:pub(?:\([^)]*\))? )?(?:struct|enum|impl)\s+(\w+)", t)
                                               for t in reversed(text[:line - 1])) if o), None)
            item = f"{owner}.{name}" if owner and text[line - 1].startswith(" ") else name
            # The copy's line numbers match the original's only above the
            # first split re-export; name the line as the copy has it.
            dead[(rel.split("/")[1], item)] = (rel + " (copy)", line)

found = []
for rel, entry in demoted.items():
    for e in entry["lines"].values():
        key = (entry["crate"], e["item"])
        kind = "dead" if key in dead else "demotable"
        found.append((kind, entry["crate"], e["item"], f"{rel}:{e['line']}"))
        dead.pop(key, None)
for (crate, item), (rel, line) in dead.items():
    found.append(("dead", crate, item, f"{rel}:{line}"))

keep = {}
for raw in open(keep_path, encoding="utf-8") if os.path.exists(keep_path) else []:
    raw = raw.strip()
    if raw and not raw.startswith("#"):
        crate, item = raw.split()[:2]
        keep[(crate, item)] = False

status = 0
for i, (kind, crate, item, where) in enumerate(found):
    if (crate, item) in keep:
        keep[(crate, item)] = True
        found[i] = ("kept", crate, item, where)
    else:
        status = 1
for kind, crate, item, where in sorted(found):
    print(f"{kind:<9} {crate} {item} {where}")
for (crate, item), used in sorted(keep.items()):
    if crate in crates and not used:
        sys.stderr.write(f"census: keep-list entry matches nothing: {crate} {item}\n")
        status = 1
sys.exit(status)
PY
(cd "$tree" && cargo check --offline --lib "${packages[@]}" --message-format=json 2>/dev/null) |
    python3 "$work/report.py" "$tree" "$map" "$root/scripts/census-keep.txt" "$@"
