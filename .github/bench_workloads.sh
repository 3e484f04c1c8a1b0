#!/usr/bin/env bash
# The workloads of the repository benchmark a change can move, chosen from the
# paths it touches: prints the `--workload NAME` arguments for paired_bench.sh.
#
#   .github/bench_workloads.sh <base-ref>     the paths of `git diff <base-ref>...HEAD`
#   .github/bench_workloads.sh --self-test    the map on fixed lists of paths
#
# The map is the bold cells of "Which layer moves which end-to-end metric" in
# benchmark/README.md: the reader engine moves posthoc_read, the scheduler and
# its backends archive_auto, the chunk kernel and the model insitu_dump, the
# transport serve_hot, the catalog serve_steps. The worker pool (chunked.rs)
# schedules the writer and the reader, so it moves posthoc_read and also
# archive_auto, whose chunks differ in cost by codec. Every catalog step is
# written by the archive writer and read by the archive reader at two threads
# on that pool, so the engine (stream.rs) and the pool move serve_steps too.
# The lossless stage
# (crates/encoding/src/{lossless,lzss,rle}.rs) runs on every SZ chunk and every
# catalog segment, so it moves posthoc_read, insitu_dump and serve_steps, where
# chunks keep it most often. A change anywhere else
# under crates/ gets archive_auto, the run CI made before this script; a change
# outside crates/ gets no paired run, and nothing is printed. Workloads come
# out in BENCHMARK.json's order, each once. Run from the root of a checkout.
#
# Where the base and HEAD share no history (the depth-1 checkout of a pull
# request's merge commit, whose first parent is the base tip), the paths are
# those of `git diff <base-ref> HEAD`, which there name the same change.
set -euo pipefail

workload_of() {
    case "$1" in
        crates/compress/src/chunked.rs) echo posthoc_read archive_auto serve_steps ;;
        crates/compress/src/stream.rs) echo posthoc_read serve_steps ;;
        crates/compress/src/container.rs) echo posthoc_read ;;
        crates/compress/src/scheduler.rs | crates/compress/src/rolz.rs | crates/zfp/*) echo archive_auto ;;
        crates/encoding/src/lossless.rs | crates/encoding/src/lzss.rs | \
            crates/encoding/src/rle.rs) echo posthoc_read insitu_dump serve_steps ;;
        crates/core/* | crates/predict/* | crates/quant/* | crates/encoding/* | \
            crates/compress/src/pipeline.rs | crates/compress/src/codec.rs | \
            crates/compress/src/kernels.rs) echo insitu_dump ;;
        crates/serve/*) echo serve_hot ;;
        crates/catalog/*) echo serve_steps ;;
        crates/*) echo archive_auto ;;
    esac
}

# Paths on stdin, the arguments on stdout (one line, empty for no run).
select_workloads() {
    local picked=" " path w out=()
    while IFS= read -r path; do
        picked+="$(workload_of "$path") "
    done
    while IFS= read -r w; do
        case "$picked" in *" $w "*) out+=(--workload "$w") ;; esac
    done < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
    echo "${out[*]}"
}

[ $# -eq 1 ] || { sed -n '2,/^set -euo/p' "${BASH_SOURCE[0]}" | sed '$d; s/^# \{0,1\}//' >&2; exit 2; }

if [ "$1" != --self-test ]; then
    if base="$(git merge-base "$1" HEAD 2>/dev/null)"; then
        git diff --name-only "$base" HEAD | select_workloads
    else
        git diff --name-only "$1" HEAD | select_workloads
    fi
    exit 0
fi

failed=0
check() {
    local want="$1" got
    shift
    got="$(printf '%s\n' "$@" | select_workloads)"
    if [ "$got" != "$want" ]; then
        echo "bench_workloads self-test: [$*] gave [$got], want [$want]" >&2
        failed=1
    fi
}
# PR 25's paths: the reader engine and the catalog. The engine alone moves
# the catalog's workload too.
check "--workload posthoc_read --workload serve_steps" \
    crates/compress/src/stream.rs crates/catalog/src/dataset.rs \
    tests/decode_parallel.rs docs/ARCHITECTURE.md .github/bench_workloads.sh
check "--workload posthoc_read --workload serve_steps" crates/compress/src/stream.rs
check "--workload archive_auto" crates/compress/src/scheduler.rs crates/zfp/src/codec.rs
# The worker pool: the writer's and the reader's workloads, the catalog's
# among them.
check "--workload archive_auto --workload posthoc_read --workload serve_steps" \
    crates/compress/src/chunked.rs
check "--workload insitu_dump" crates/core/src/model.rs crates/compress/src/kernels.rs
# The lossless stage: every SZ chunk and every catalog segment; the rest of the
# entropy crate stays on the chunk kernel's workload.
check "--workload insitu_dump --workload posthoc_read --workload serve_steps" \
    crates/encoding/src/lzss.rs crates/encoding/src/huffman.rs
check "--workload serve_hot" crates/serve/src/server.rs
check "--workload archive_auto" crates/datagen/src/fields.rs crates/cli/src/main.rs
check "--workload insitu_dump --workload archive_auto --workload posthoc_read --workload serve_hot --workload serve_steps" \
    crates/catalog/src/lib.rs crates/serve/src/cache.rs crates/compress/src/container.rs \
    crates/quant/src/quantizer.rs crates/compress/src/rolz.rs
check "" README.md tests/fuzz_container.rs .github/workflows/ci.yml benchmark/src/adapter.rs
check ""
[ "$failed" -eq 0 ] && echo "bench_workloads self-test: ok"
exit "$failed"
