#!/usr/bin/env bash
# The repository benchmark on two commits, as alternating pairs: the ledger a
# performance change reports, as a command.
#
#   .github/paired_bench.sh <parent-ref> [--pairs N] [--seconds S] [--seed N]
#                           [--workload NAME]... [--rates-advisory]
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
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/p' "${BASH_SOURCE[0]}" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_ref="$1"
shift
pairs=10 seconds="" seed=20220509 advisory=0 workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        --rates-advisory) advisory=1; shift ;;
        *) usage ;;
    esac
done

root="$(git rev-parse --show-toplevel)"
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

python3 - "$manifest" "$work/runs" "$pairs" "$advisory" "${workloads[@]}" <<'EOF'
import json, statistics, sys

manifest, runs, pairs, advisory = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
workloads = sys.argv[5:]
metrics = json.load(open(manifest))["end_to_end"]
exact = lambda name: name in ("bits_per_value", "psnr_db") or (name.startswith("model_") and name.endswith("_accuracy"))

def load(side, workload, i):
    try:
        return json.load(open(f"{runs}/{side}.{workload}.{i}.json"))
    except (OSError, ValueError):
        return None

def spread(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

fatal = []
print(f"{'workload':13} {'metric':21} {'parent median [Q1, Q3]':>34} {'change median [Q1, Q3]':>34} {'ratio':>7} {'won':>6}  verdict")
for w in workloads:
    results = {side: [load(side, w, i) for i in range(pairs)] for side in ("parent", "change")}
    for side, rs in results.items():
        for i, r in enumerate(rs):
            if r is None:
                fatal.append(f"{w}: {side} run {i} printed no result")
            elif r["failed"] != 0 or not r["correct"]:
                fatal.append(f"{w}: {side} run {i} failed {r['failed']} of {r['attempted']} operations")
    done = [i for i in range(pairs) if results["parent"][i] and results["change"][i]]
    if not done:
        continue
    for m in metrics:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        p = [results["parent"][i]["metrics"][name]["value"] for i in done]
        c = [results["change"][i]["metrics"][name]["value"] for i in done]
        (pm, p1, p3), (cm, c1, c3) = spread(p), spread(c)
        won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        lost = sum((b < a) if higher else (b > a) for a, b in zip(p, c))
        ratio = cm / pm if pm else float("nan")
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
