#!/usr/bin/env bash
# The codec scheduler's audit as a gate: on the adaptive archives a traced run
# re-encodes a sample of chunks with all three codecs; the picks may cost at
# most 0.002 over the best of three in bits, every codec keeps at least 0.10 of
# the stored values (an estimate that prices a codec out shows here first), and
# no operation fails. Byte counts and shares of a deterministic choice, so they
# hold on any runner. Run from the root of a checkout.
set -euo pipefail
bash benchmark/run.sh --workload archive_auto --seed 20220509 --seconds 3 --trace 1 |
    awk '$1 == "archive_auto" && $2 == "compress.scheduler_regret_frac" { regret = $3 }
         $1 == "archive_auto" && $2 ~ /^compress\.auto_share_/ { shares++; if ($3 + 0 < least || least == "") least = $3 + 0 }
         $1 == "archive_auto" && $2 == "ops.failed" { failed = $3 }
         END {
             if (regret == "" || shares != 3 || failed == "") { print "scheduler-regret gate: metrics missing from the run"; exit 1 }
             printf "compress.scheduler_regret_frac %.5f (gate 0.002), least compress.auto_share_* %.3f (gate 0.10), ops.failed %d (gate 0)\n", regret, least, failed
             exit !(regret + 0 <= 0.002 && least >= 0.10 && failed + 0 == 0)
         }'
