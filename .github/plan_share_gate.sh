#!/usr/bin/env bash
# The paper's Fig. 9 claim as a gate: on the in-situ dump the model (build +
# PSNR inversion) takes at most 0.20 of the traced dump wall, and no operation
# fails. core.plan_share is a ratio of two times taken in one process, so it
# holds on any runner. Run from the root of a checkout.
set -euo pipefail
bash benchmark/run.sh --workload insitu_dump --seed 20220509 --seconds 3 --trace 1 |
    awk '$1 == "insitu_dump" && $2 == "core.plan_share" { share = $3 }
         $1 == "insitu_dump" && $2 == "ops.failed" { failed = $3 }
         END {
             if (share == "" || failed == "") { print "plan-share gate: metrics missing from the run"; exit 1 }
             printf "core.plan_share %.3f (gate 0.20), ops.failed %d (gate 0)\n", share, failed
             exit !(share + 0 <= 0.20 && failed + 0 == 0)
         }'
