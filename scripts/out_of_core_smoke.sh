#!/usr/bin/env bash
# Out-of-core + checkpoint/resume smoke drill (CI: the `out-of-core` job).
#
# Exercises the persistent driver end to end on a small deterministic
# workload and asserts its two core guarantees:
#
#   1. A run under a tiny `--memory-budget` (bucket batches built and
#      clustered one at a time) produces the *identical* partition to the
#      unconstrained in-memory run — compared canonically, since batch
#      order may relabel clusters — and builds each planned batch once.
#   2. A run killed mid-clustering (deterministic `--crash-after` hook)
#      and restarted with `--resume` converges to that same partition,
#      and its `pairs.*` and `merges` counters equal drill 1's (same
#      input, same budget, so the same plan), with no pairs lost.
#
# The budget run's metrics report is left at bench_out/out_of_core.json
# so scripts/bench_gate.sh and the CI artifact pick up the io.*/ckpt.*
# counters.
#
# Usage: scripts/out_of_core_smoke.sh [pace-binary]
set -euo pipefail

PACE=${1:-target/release/pace}
OUT=bench_out/ooc-smoke
mkdir -p bench_out
rm -rf "$OUT"
mkdir -p "$OUT"

if [[ ! -x "$PACE" ]]; then
    echo "out_of_core_smoke: binary '$PACE' not found (cargo build --release)" >&2
    exit 2
fi

"$PACE" simulate --ests 300 --genes 25 --seed 9 \
    --out "$OUT/reads.fasta" --truth "$OUT/truth.tsv"

echo "== reference: unconstrained in-memory run"
"$PACE" cluster --in "$OUT/reads.fasta" --out "$OUT/mem.tsv" --quiet

same_partition() {
    # Canonical comparison: identical partitions show zero FP and FN
    # (labels may be permuted between drivers, set identity may not).
    local verdict
    verdict=$("$PACE" assess --pred "$1" --truth "$2" | tail -1)
    echo "   $verdict"
    [[ "$verdict" == *" FP 0 "* && "$verdict" == *" FN 0 "* ]]
}

echo "== drill 1: 64K memory budget, one batch built and clustered at a time"
"$PACE" cluster --in "$OUT/reads.fasta" --out "$OUT/ooc.tsv" \
    --checkpoint-dir "$OUT/ckpt" --memory-budget 64K --checkpoint-every 3 \
    --metrics-out bench_out/out_of_core.json --quiet
same_partition "$OUT/ooc.tsv" "$OUT/mem.tsv" || {
    echo "out_of_core_smoke: FAIL budget-constrained partition differs" >&2
    exit 1
}

echo "== drill 2: kill after batch 2 (cluster checkpoint every 100 batches), resume"
if "$PACE" cluster --in "$OUT/reads.fasta" --out "$OUT/crash.tsv" \
    --checkpoint-dir "$OUT/ckpt2" --memory-budget 64K --checkpoint-every 100 \
    --crash-after cluster-batch:2 --quiet; then
    echo "out_of_core_smoke: FAIL injected crash did not fail the run" >&2
    exit 1
fi
"$PACE" cluster --in "$OUT/reads.fasta" --out "$OUT/resumed.tsv" \
    --checkpoint-dir "$OUT/ckpt2" --memory-budget 64K --checkpoint-every 100 \
    --resume --metrics-out "$OUT/resumed.json" --quiet
same_partition "$OUT/resumed.tsv" "$OUT/mem.tsv" || {
    echo "out_of_core_smoke: FAIL resumed partition differs" >&2
    exit 1
}

echo "== asserting io.*/ckpt.* counters"
python3 - bench_out/out_of_core.json "$OUT/resumed.json" "$OUT/ckpt" <<'PY'
import json
import os
import sys

budget_doc = json.load(open(sys.argv[1]))
budget = budget_doc["counters"]
resumed = json.load(open(sys.argv[2]))["counters"]

def need(counters, key, cond, desc):
    v = counters.get(key)
    if v is None or not cond(v):
        raise SystemExit(f"out_of_core_smoke: FAIL {key} = {v} ({desc})")
    print(f"  {key} = {v:.0f}")

need(budget, "io.spill_batches", lambda v: v > 1, "budget must force batching")
built = budget_doc["timers"]["gst_construction"]["count"]
if built != budget["io.spill_batches"]:
    raise SystemExit(f"out_of_core_smoke: FAIL gst_construction ran {built:.0f} times "
                     f"for {budget['io.spill_batches']:.0f} planned batches")
print(f"  gst_construction samples = {built:.0f}")
need(budget, "ckpt.writes", lambda v: v > 0, "checkpoints must be written")
files = sorted(os.listdir(sys.argv[3]))
if files != ["cluster.snap", "ingest.snap"]:
    raise SystemExit(f"out_of_core_smoke: FAIL checkpoint dir holds {files}")
print(f"  checkpoint dir = {' '.join(files)}")
need(resumed, "ckpt.phases_resumed", lambda v: v > 0, "resume must restore phases")
need(resumed, "faults.lost_pairs", lambda v: v == 0,
     "a resume re-runs the uncovered batches and loses nothing")
# Same input and budget, so the same plan: the resumed run's counters
# equal the uninterrupted drill 1's.
keys = sorted(k for k in budget if k.startswith("pairs.")) + ["merges"]
for key in keys:
    if resumed.get(key) != budget[key]:
        raise SystemExit(f"out_of_core_smoke: FAIL resumed {key} = {resumed.get(key)}, "
                         f"uninterrupted {budget[key]}")
print(f"  resumed {', '.join(keys)} equal the uninterrupted run's")
PY

echo "out_of_core_smoke: OK"
