#!/usr/bin/env bash
# The repository benchmark on two commits, as alternating pairs: the ledger a
# performance change reports, as a command.
#
#   .github/paired_bench.sh <parent-ref> [--pairs N] [--seconds S] [--seed N]
#                           [--workload NAME]... [--rates-advisory] [--record FILE]
#   .github/paired_bench.sh --summary FILE [--rates-advisory]
#   .github/paired_bench.sh --trajectory FILE...
#
# The parent is exported with `git archive`, the change with `git
# checkout-index` (what is staged: `git add -A` first; in CI, the checked-out
# commit), each into a temporary directory of its own, and both harnesses are
# built from the change's benchmark/ sources, so the two sides differ in
# crates/ only. Every pair runs each workload once per side, one process a run,
# and who goes first alternates from pair to pair. Defaults: 10 pairs,
# BENCHMARK.json's run_seconds, seed 20220509, every workload of BENCHMARK.json.
#
# It prints, per workload and end-to-end metric, the parent's median [Q1, Q3],
# the change's, the ratio of the medians and the pairs the change won (ties
# count for neither side; "better" is only said of ten pairs or more), and
# exits non-zero when
#   - a median of the change is worse than the parent's by more than the
#     metric's bound (`bound` and `better` are read from BENCHMARK.json),
#   - a metric that is a pure function of the stored bytes (bits_per_value,
#     psnr_db, model_*_accuracy) differs between any two runs, or
#   - a run failed an operation, or printed no result.
# With --rates-advisory only the last two are fatal: a shared runner cannot
# resolve a 25 % bound on a rate, it can still tell that the bytes moved.
#
# --record FILE also writes the ledger as one JSON file before the temporary
# directory is removed: every run's result (`runs.<workload>.<side>[pair]`,
# null for a run that printed none), the seed, pair count and seconds, the
# parent's commit, the change's (HEAD, and the tree of the index that ran),
# and each workload's `machine` descriptor from benchmark/out/results-<w>.json.
# --summary FILE prints the table and verdicts of such a file, against the
# bounds of this checkout's BENCHMARK.json, and runs nothing.
#
# --trajectory FILE... reads recorded files only and runs nothing. Per workload
# and end-to-end metric it prints each file's ratio of the change's median to
# the parent's ("-" where a file did not run the workload), in the order the
# files are given, and the product of those ratios: what the changes add up
# to. It exits non-zero when a product is worse than the metric's bound in
# this checkout's BENCHMARK.json, even when every file passed on its own.
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/p' "${BASH_SOURCE[0]}" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 1 ] || usage
root="$(git rev-parse --show-toplevel)"
# The recorded ledgers to read (none: run the pairs and read their ledger).
parent_ref="" mode=summary files=()
if [ "$1" = --summary ]; then
    [ $# -ge 2 ] || usage
    files=("$2")
    shift 2
elif [ "$1" = --trajectory ]; then
    [ $# -ge 2 ] || usage
    mode=trajectory files=("${@:2}")
    set --
else
    parent_ref="$1"
    shift
fi
pairs=10 seconds="" seed=20220509 advisory=0 workloads=() record=""
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        --rates-advisory) advisory=1; shift ;;
        --record) record="$2"; shift 2 ;;
        *) usage ;;
    esac
done

# Run the pairs and write their ledger to $ledger.
run_pairs() {
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    mkdir "$work/parent" "$work/change" "$work/runs"
    git -C "$root" archive "$parent_ref" | tar -x -C "$work/parent"
    (cd "$root" && git checkout-index -a --prefix="$work/change/")
    rm -rf "$work/parent/benchmark"
    cp -r "$work/change/benchmark" "$work/parent/benchmark"
    manifest="$work/change/BENCHMARK.json"

    [ -n "$seconds" ] || seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$manifest")"
    if [ ${#workloads[@]} -eq 0 ]; then
        mapfile -t workloads < <(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "$manifest")
    fi

    for side in parent change; do
        cargo build --release --offline --quiet --manifest-path "$work/$side/benchmark/Cargo.toml" >&2
    done

    echo "parent $(git -C "$root" rev-parse --short "$parent_ref"), change: the index of $root; $pairs pairs x $seconds s, seed $seed, workloads: ${workloads[*]}" >&2
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        for w in "${workloads[@]}"; do
            for side in "${order[@]}"; do
                # The last line of a run is its result as JSON; a run that fails an
                # operation exits non-zero and still prints it.
                (cd "$work/$side" && bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null || true) |
                    tail -n 1 >"$work/runs/$side.$w.$i.json"
            done
            echo "pair $((i + 1))/$pairs $w done" >&2
        done
    done

    ledger="$work/ledger.json"
    python3 - "$work" "$ledger" "$pairs" "$seconds" "$seed" \
        "$(git -C "$root" rev-parse "$parent_ref^{commit}")" "$(git -C "$root" rev-parse HEAD)" \
        "$(cd "$root" && git write-tree)" "${workloads[@]}" <<'EOF'
import json, sys

work, ledger, pairs, seconds, seed, parent, head, tree = sys.argv[1:9]
workloads, pairs = sys.argv[9:], int(pairs)

def load(path):
    try:
        return json.load(open(path))
    except (OSError, ValueError):
        return None

json.dump({
    "parent": {"commit": parent},
    "change": {"head": head, "tree": tree},
    "seed": int(seed),
    "pairs": pairs,
    "seconds": float(seconds),
    "workloads": workloads,
    "machine": {w: (load(f"{work}/change/benchmark/out/results-{w}.json") or {}).get("machine") for w in workloads},
    "runs": {w: {side: [load(f"{work}/runs/{side}.{w}.{i}.json") for i in range(pairs)]
                 for side in ("parent", "change")} for w in workloads},
}, open(ledger, "w"), indent=1)
EOF
    [ -z "$record" ] || cp "$ledger" "$record"
}

if [ ${#files[@]} -gt 0 ]; then
    manifest="$root/BENCHMARK.json"
else
    run_pairs
    files=("$ledger")
fi

python3 - "$manifest" "$advisory" "$mode" "${files[@]}" <<'EOF'
import json, math, statistics, sys

manifest, advisory, mode, files = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
metrics = json.load(open(manifest))["end_to_end"]
exact = lambda name: name in ("bits_per_value", "psnr_db") or (name.startswith("model_") and name.endswith("_accuracy"))

def spread(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

def done_pairs(ledger, w):
    """The pairs of workload `w` in which both sides printed a result."""
    results = ledger["runs"][w]
    return [i for i in range(ledger["pairs"]) if results["parent"][i] and results["change"][i]]

def sides(ledger, w, name, done):
    """The parent's and the change's values of metric `name`, pair by pair."""
    results = ledger["runs"][w]
    return ([results["parent"][i]["metrics"][name]["value"] for i in done],
            [results["change"][i]["metrics"][name]["value"] for i in done])

def median_ratio(pm, cm):
    return cm / pm if pm else (1.0 if cm == pm else float("nan"))

if mode == "trajectory":
    ledgers = [json.load(open(f)) for f in files]
    workloads = list(dict.fromkeys(w for ledger in ledgers for w in ledger["workloads"]))
    print("files, in order: " + ", ".join(
        f"{f} (parent {l['parent']['commit'][:10]}, change {l['change']['head'][:10]})" for f, l in zip(files, ledgers)))
    print(f"{'workload':13} {'metric':21} " + " ".join(f"{i + 1:>7}" for i in range(len(files))) + f" {'product':>8}  verdict")
    fatal = []
    for w in workloads:
        for m in metrics:
            name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
            cells, product = [], 1.0
            for ledger in ledgers:
                done = done_pairs(ledger, w) if w in ledger["workloads"] else []
                if not done:
                    cells.append(f"{'-':>7}")
                    continue
                p, c = sides(ledger, w, name, done)
                ratio = median_ratio(spread(p)[0], spread(c)[0])
                cells.append(f"{ratio:7.3f}")
                product *= ratio
            worse = math.isnan(product) or (product < 1 - bound if higher else product > 1 + bound)
            verdict = f"WORSE by more than {bound:g}" if worse else "inside its bound"
            if worse:
                fatal.append(f"{w} {name}: product {product:.4g}, bound {bound:g}")
            print(f"{w:13} {name:21} " + " ".join(cells) + f" {product:8.3f}  {verdict}")
    for line in fatal:
        print("FATAL:", line)
    sys.exit(1 if fatal else 0)

ledger = json.load(open(files[0]))
pairs, workloads = ledger["pairs"], ledger["workloads"]
print(f"parent {ledger['parent']['commit'][:10]}, change {ledger['change']['head'][:10]} (tree {ledger['change']['tree'][:10]});"
      f" {pairs} pairs x {ledger['seconds']:g} s, seed {ledger['seed']}")
fatal = []
print(f"{'workload':13} {'metric':21} {'parent median [Q1, Q3]':>34} {'change median [Q1, Q3]':>34} {'ratio':>7} {'won':>6}  verdict")
for w in workloads:
    results = ledger["runs"][w]
    for side, rs in results.items():
        for i, r in enumerate(rs):
            if r is None:
                fatal.append(f"{w}: {side} run {i} printed no result")
            elif r["failed"] != 0 or not r["correct"]:
                fatal.append(f"{w}: {side} run {i} failed {r['failed']} of {r['attempted']} operations")
    done = done_pairs(ledger, w)
    if not done:
        continue
    for m in metrics:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        p, c = sides(ledger, w, name, done)
        (pm, p1, p3), (cm, c1, c3) = spread(p), spread(c)
        won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        lost = sum((b < a) if higher else (b > a) for a, b in zip(p, c))
        ratio = median_ratio(pm, cm)
        if exact(name):
            same = len({repr(v) for v in p + c}) == 1
            verdict = "equal" if same else "DIFFERS"
            if not same:
                fatal.append(f"{w} {name}: not the same number in every run of both sides")
        else:
            worse = cm < pm * (1 - bound) if higher else cm > pm * (1 + bound)
            better = (cm > pm) if higher else (cm < pm)
            if worse:
                verdict = f"WORSE by more than {bound:g}"
                if not advisory:
                    fatal.append(f"{w} {name}: median {cm:.6g} against {pm:.6g}, bound {bound:g}")
            elif better and len(done) >= 10 and won >= 0.9 * len(done) and abs(cm - pm) > p3 - p1:
                verdict = "better (>= 9/10 of the pairs, medians apart by more than the parent's IQR)"
            elif max(p3 - p1, c3 - c1) > bound * abs(pm):
                verdict = "unresolved (spread wider than the bound)"
            else:
                verdict = "inside its bound"
        cell = lambda med, lo, hi: f"{med:.6g} [{lo:.6g}, {hi:.6g}]"
        print(f"{w:13} {name:21} {cell(pm, p1, p3):>34} {cell(cm, c1, c3):>34} {ratio:7.3f} {won:>3}/{won + lost:<2}  {verdict}")

for line in fatal:
    print("FATAL:", line)
sys.exit(1 if fatal else 0)
EOF
