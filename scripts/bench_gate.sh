#!/usr/bin/env bash
# Paired benchmark regression gate.
#
# Runs the smoke bench (`target/release/smoke`) of the merge base and of
# the candidate on one machine, alternating the two binaries round by
# round, and judges each *gated* phase on candidate over base: the
# phase's minimum over all of a side's reps, candidate divided by base.
# A gated phase fails when that ratio exceeds 1 + tolerance (default
# 1.25x). Gated are alignment, gst_construction, node_sorting,
# pairgen_kernel and myers_kernel, the phases and kernels this code path
# owns. The other phases and the total are reported for context but never
# fail the gate: on shared CI runners their noise swamps any signal.
#
# Both sides run on the same host in the same minutes, so host drift
# moves both and cancels in the ratio; a stored, machine-relative
# baseline could not tell drift from a regression. Odd rounds run the
# base first and even rounds the candidate first, so neither side always
# runs on a warmer machine.
#
# A gated phase missing from the candidate's reports is a hard failure,
# never a silent pass: the bench stopped emitting it. One missing from the
# base's reports is new in the candidate and is reported, not judged.
#
# Overriding the gate
# -------------------
# A legitimate slowdown (algorithm change with better accuracy, extra
# bookkeeping a feature needs) is shipped by setting BENCH_GATE_SKIP=1 on
# the CI job (e.g. export it in the workflow step after applying a
# `bench-gate-override` PR label), which turns a failure into a warning.
#
# Usage: scripts/bench_gate.sh BASE_SMOKE CAND_SMOKE [ooc-report.json] [uds-report.json] [serve.json]
#   BASE_SMOKE, CAND_SMOKE are the merge base's and the candidate's smoke
#   binaries. Each side runs 3 reps per round for 5 rounds; each run
#   writes its smoke.json (and its stdout, as run.log) under
#   bench_out/gate/{base,cand}/round<N>/. Both sides'
#   pairgen.peak_buffered gauges are echoed (report-only).
#   The optional third argument (default bench_out/out_of_core.json) is an
#   out-of-core run's metrics report; when present its io.* and ckpt.*
#   counters (the batch planner's io.spill_batches, io.oversized_buckets
#   and io.peak_batch_bytes, and the checkpoint traffic) are echoed into
#   the gate log so the uploaded CI artifact records them alongside the
#   timings.
#   The optional fourth argument (default bench_out/smoke_uds.json) is the
#   socket-transport smoke rep written under PACE_TRANSPORT=uds; when
#   present its comm.messages / comm.bytes counters are echoed into the
#   gate log (report-only, no gate).
#   The optional fifth argument (default BENCH_serve.json) is the serve
#   load-test trajectory written by the loadgen binary; when present the
#   latest entry's serve.query.p99 and ingest throughput are echoed into
#   the gate log (report-only — daemon latency on a shared runner is too
#   noisy to gate).
#   BENCH_GATE_TOLERANCE  fractional slowdown allowed (default 0.25)
#   BENCH_GATE_SKIP=1     report, but never fail
set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: scripts/bench_gate.sh BASE_SMOKE CAND_SMOKE [ooc.json] [uds.json] [serve.json]" >&2
    exit 2
fi
BASE=$1
CAND=$2
OOC=${3:-bench_out/out_of_core.json}
UDS=${4:-bench_out/smoke_uds.json}
SERVE=${5:-BENCH_serve.json}
# 5 alternating rounds of 3 reps kept every gated ratio of a commit
# against itself within 0.91-1.19 on a 2-vCPU host; 3 rounds of 2 reps
# once read a false 1.27.
ROUNDS=5
REPS=3
DIR=bench_out/gate
TOLERANCE=${BENCH_GATE_TOLERANCE:-0.25}

for bin in "$BASE" "$CAND"; do
    if [[ ! -x "$bin" ]]; then
        echo "bench_gate: smoke binary '$bin' not found or not executable" >&2
        exit 2
    fi
done

# One smoke run of `side` ("base" or "cand") in round `round`. The run
# writes no trajectory and takes the channel transport, whatever the
# caller's environment says.
run_side() {
    local side=$1 bin=$2 round=$3
    local out="$DIR/$side/round$round"
    mkdir -p "$out"
    if ! env -u PACE_BENCH_TRAJECTORY -u PACE_TRANSPORT \
        PACE_SMOKE_REPS="$REPS" PACE_METRICS_DIR="$out" "$bin" >"$out/run.log" 2>&1; then
        echo "bench_gate: $side smoke run failed in round $round:" >&2
        tail -20 "$out/run.log" >&2
        exit 1
    fi
}

rm -rf "$DIR/base" "$DIR/cand"
for ((round = 1; round <= ROUNDS; round++)); do
    if ((round % 2 == 1)); then
        run_side base "$BASE" "$round"
        run_side cand "$CAND" "$round"
    else
        run_side cand "$CAND" "$round"
        run_side base "$BASE" "$round"
    fi
    echo "bench_gate: round $round of $ROUNDS done ($REPS reps per side)"
done

python3 - "$DIR" "$ROUNDS" "$TOLERANCE" "${BENCH_GATE_SKIP:-0}" "$OOC" "$UDS" "$SERVE" <<'PY'
import json
import os
import sys

gate_dir, rounds, tolerance, skip, ooc_path, uds_path, serve_path = sys.argv[1:8]
rounds = int(rounds)
tolerance = float(tolerance)
skip = skip not in ("", "0", "false")

GATED = (
    "alignment",
    "gst_construction",
    "node_sorting",
    "pairgen_kernel",
    "myers_kernel",
)


def reports(side):
    return [
        json.load(open(os.path.join(gate_dir, side, f"round{r}", "smoke.json")))
        for r in range(1, rounds + 1)
    ]


def phase_min(docs):
    """Each phase's minimum over every rep of every run of one side."""
    out = {}
    for doc in docs:
        for phase, secs in doc["phase_min"].items():
            out[phase] = min(secs, out.get(phase, secs))
    return out


base_docs, cand_docs = reports("base"), reports("cand")
base, cand = phase_min(base_docs), phase_min(cand_docs)

failures = []
print(
    f"bench_gate: tolerance {tolerance:.0%}, {rounds} alternating rounds, "
    f"minimum over each side's reps"
)
print(f"{'phase':<18} {'base':>10} {'candidate':>10} {'ratio':>7}  gated")
for phase in sorted(set(base) | set(cand)):
    gated = phase in GATED
    flag = "yes" if gated else "no"
    b, c = base.get(phase), cand.get(phase)
    if c is None:
        if gated:
            failures.append(f"gated phase '{phase}' missing from the candidate's smoke reports")
        print(f"{phase:<18} {b:>9.4f}s {'-':>10} {'-':>7}  {flag} (missing from candidate)")
        continue
    if b is None:
        print(f"{phase:<18} {'-':>10} {c:>9.4f}s {'-':>7}  {flag} (new in candidate, not judged)")
        continue
    ratio = c / b if b > 0 else float("inf")
    verdict = ""
    if gated and ratio > 1.0 + tolerance:
        verdict = "  << REGRESSION"
        failures.append(
            f"{phase}: {c:.4f}s vs base {b:.4f}s "
            f"({ratio:.2f}x > {1.0 + tolerance:.2f}x allowed)"
        )
    print(f"{phase:<18} {b:>9.4f}s {c:>9.4f}s {ratio:>6.2f}x  {flag}{verdict}")

# Echo each side's largest generator buffer (reported, never gated).
def peak(docs):
    value = docs[-1].get("gauges", {}).get("pairgen.peak_buffered")
    return "absent" if value is None else f"{value:.0f} pairs"


print(
    f"bench_gate: pairgen.peak_buffered base {peak(base_docs)}, "
    f"candidate {peak(cand_docs)} (report-only)"
)

# Echo the candidate's per-batch alignment latency quantiles (reported,
# never gated): the registry's log-bucket estimates, so tail latency
# shows up in the gate log next to the phase minima.
ab = cand_docs[-1].get("timers", {}).get("align_batch")
if ab and "p99" in ab:
    print(
        f"bench_gate: align_batch p50 {ab['p50'] * 1e3:.3f} ms, "
        f"p90 {ab['p90'] * 1e3:.3f} ms, p99 {ab['p99'] * 1e3:.3f} ms "
        f"over {ab['count']:.0f} batches (candidate, report-only)"
    )

# Echo the socket-transport rep's communication volume (reported, never
# gated): real serialized bytes and message counts from the uds backend,
# so wire-level cost trends are visible in the gate log.
if os.path.exists(uds_path):
    counters = json.load(open(uds_path)).get("counters", {})
    comm_keys = sorted(k for k in counters if k.startswith("comm."))
    if comm_keys:
        print(f"bench_gate: uds transport counters from {uds_path} (report-only)")
        for key in comm_keys:
            print(f"  {key:<24} {counters[key]:>14.0f}")

# Echo the serve load test's latest trajectory entry (reported, never
# gated): client-observed query p99 under ~1k concurrent connections and
# the concurrent-ingest throughput, so daemon latency trends are visible
# in the gate log.
if os.path.exists(serve_path):
    entries = json.load(open(serve_path))
    if isinstance(entries, list) and entries:
        e = entries[-1]
        print(
            f"bench_gate: serve load test from {serve_path} (report-only): "
            f"{e.get('clients', 0):.0f} clients, {e.get('qps', 0):.0f} q/s — "
            f"query p99 {e.get('query_p99_us', 0):.0f}µs client-observed "
            f"({e.get('serve_query_p99_us', 0):.0f}µs server-side), "
            f"ingest {e.get('ingest_ests_per_sec', 0):.0f} ESTs/s while serving"
        )

# Echo the out-of-core run's batching and checkpoint counters (reported,
# never gated) so the CI artifact keeps them next to the timings.
if os.path.exists(ooc_path):
    counters = json.load(open(ooc_path)).get("counters", {})
    io_keys = sorted(k for k in counters if k.startswith(("io.", "ckpt.")))
    if io_keys:
        print(f"bench_gate: out-of-core counters from {ooc_path}")
        for key in io_keys:
            print(f"  {key:<24} {counters[key]:>14.0f}")

if failures:
    print()
    for f in failures:
        print(f"bench_gate: FAIL {f}")
    if skip:
        print("bench_gate: BENCH_GATE_SKIP set — reporting only, not failing")
        sys.exit(0)
    print("bench_gate: set BENCH_GATE_SKIP=1 to ship a deliberate slowdown "
          "(see header of scripts/bench_gate.sh)")
    sys.exit(1)
print("bench_gate: OK")
PY
