#!/usr/bin/env bash
# Benchmark regression gate.
#
# Compares the smoke bench's cross-rep phase minima (bench_out/smoke.json,
# written by `target/release/smoke` with PACE_METRICS_DIR set) against the
# committed reference in bench/baseline.json. Fails when a *gated* phase —
# alignment, gst_construction, node_sorting, pairgen_kernel or
# myers_kernel, the phases and kernels this code path owns — regresses
# by more than the tolerance (default 25%). The other phases and the
# total are reported for context but never fail the gate: on shared CI
# runners their noise swamps any signal. pair_generation is in the smoke
# report but not in the baseline, so it prints as "not in baseline".
#
# The gate statistic is a min-over-reps, which is robust to transient load
# spikes but still machine-relative: the committed baseline is only
# meaningful on hardware comparable to the machine that produced it.
#
# A *gated* phase missing from either file is a hard failure, never a
# silent pass: a missing key in the smoke report means the bench stopped
# emitting it, and a missing key in the baseline means the baseline
# predates the phase and must be refreshed.
#
# Overriding the gate / refreshing the baseline
# ---------------------------------------------
# A legitimate slowdown (algorithm change with better accuracy, extra
# bookkeeping a feature needs) is shipped by either
#   * refreshing bench/baseline.json in the same PR:
#       cargo build --release -p pace-bench --bin smoke
#       PACE_SMOKE_REPS=5 PACE_METRICS_DIR=bench_out ./target/release/smoke
#     then copy bench_out/smoke.json's "phase_min" values for the gated
#     phases, partitioning and total into bench/baseline.json (keep its
#     "note"/"meta" fields current; see EXPERIMENTS.md). The recipe sets
#     no PACE_BENCH_TRAJECTORY, so it adds nothing to the committed
#     BENCH_smoke.json trajectory, or
#   * setting BENCH_GATE_SKIP=1 on the CI job (e.g. export it in the
#     workflow step after applying a `bench-gate-override` PR label),
#     which turns a failure into a warning.
#
# Usage: scripts/bench_gate.sh [smoke.json] [baseline.json] [ooc-report.json] [uds-report.json] [serve.json]
#   The optional third argument (default bench_out/out_of_core.json) is an
#   out-of-core run's metrics report; when present its io.* and ckpt.*
#   counters (the batch planner's io.spill_batches, io.oversized_buckets
#   and io.peak_batch_bytes, and the checkpoint traffic) are echoed into
#   the gate log so the uploaded CI artifact records them alongside the
#   timings.
#   The optional fourth argument (default bench_out/smoke_uds.json) is the
#   socket-transport smoke rep written under PACE_TRANSPORT=uds; when
#   present its comm.messages / comm.bytes counters are echoed into the
#   gate log (report-only, no gate — wire volume has no machine-relative
#   baseline yet).
#   The optional fifth argument (default BENCH_serve.json) is the serve
#   load-test trajectory written by the loadgen binary; when present the
#   latest entry's serve.query.p99 and ingest throughput are echoed into
#   the gate log (report-only — daemon latency on a shared runner has no
#   machine-relative baseline).
#   BENCH_GATE_TOLERANCE  fractional slowdown allowed (default 0.25)
#   BENCH_GATE_SKIP=1     report, but never fail
set -euo pipefail

SMOKE=${1:-bench_out/smoke.json}
BASELINE=${2:-bench/baseline.json}
OOC=${3:-bench_out/out_of_core.json}
UDS=${4:-bench_out/smoke_uds.json}
SERVE=${5:-BENCH_serve.json}
TOLERANCE=${BENCH_GATE_TOLERANCE:-0.25}

if [[ ! -f "$SMOKE" ]]; then
    echo "bench_gate: smoke report '$SMOKE' not found (run the smoke bench first)" >&2
    exit 2
fi
if [[ ! -f "$BASELINE" ]]; then
    echo "bench_gate: baseline '$BASELINE' not found" >&2
    exit 2
fi

python3 - "$SMOKE" "$BASELINE" "$TOLERANCE" "${BENCH_GATE_SKIP:-0}" "$OOC" "$UDS" "$SERVE" <<'PY'
import json
import os
import sys

smoke_path, baseline_path, tolerance, skip, ooc_path, uds_path, serve_path = sys.argv[1:8]
tolerance = float(tolerance)
skip = skip not in ("", "0", "false")

smoke = json.load(open(smoke_path))
baseline = json.load(open(baseline_path))
current = smoke["phase_min"]
reference = baseline["phase_min"]

GATED = (
    "alignment",
    "gst_construction",
    "node_sorting",
    "pairgen_kernel",
    "myers_kernel",
)

failures = []
# A gated phase absent from the baseline must fail loudly — iterating
# only over the baseline's own keys would silently skip the comparison.
for phase in GATED:
    if phase not in reference:
        failures.append(
            f"gated phase '{phase}' missing from baseline {baseline_path} — "
            "the baseline is stale; refresh it in this PR (recipe in the "
            "header of scripts/bench_gate.sh and in bench/baseline.json's "
            "'note' field)"
        )

print(f"bench_gate: tolerance {tolerance:.0%}, baseline {baseline_path}")
print(f"{'phase':<18} {'baseline':>10} {'current':>10} {'ratio':>7}  gated")
for phase in sorted(set(reference) | set(current)):
    ref = reference.get(phase)
    cur = current.get(phase)
    if ref is None:
        # Ungated phases new to the bench are informational only; gated
        # ones were already flagged above.
        print(f"{phase:<18} {'-':>10} {cur:>9.4f}s {'-':>7}  {'yes' if phase in GATED else 'no'} (not in baseline)")
        continue
    if cur is None:
        failures.append(f"phase '{phase}' missing from {smoke_path}")
        continue
    ratio = cur / ref if ref > 0 else float("inf")
    gated = phase in GATED
    flag = "yes" if gated else "no"
    verdict = ""
    if gated and ratio > 1.0 + tolerance:
        verdict = "  << REGRESSION"
        failures.append(
            f"{phase}: {cur:.4f}s vs baseline {ref:.4f}s "
            f"({ratio:.2f}x > {1.0 + tolerance:.2f}x allowed)"
        )
    print(f"{phase:<18} {ref:>9.4f}s {cur:>9.4f}s {ratio:>6.2f}x  {flag}{verdict}")

# Echo the per-batch alignment latency quantiles (reported, never
# gated): the registry's log-bucket estimates, so tail latency shows up
# in the gate log next to the critical-path minima.
ab = smoke.get("timers", {}).get("align_batch")
if ab and "p99" in ab:
    print(
        f"bench_gate: align_batch p50 {ab['p50'] * 1e3:.3f} ms, "
        f"p90 {ab['p90'] * 1e3:.3f} ms, p99 {ab['p99'] * 1e3:.3f} ms "
        f"over {ab['count']:.0f} batches (report-only)"
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
    print("bench_gate: refresh bench/baseline.json or set BENCH_GATE_SKIP=1 "
          "(see header of scripts/bench_gate.sh)")
    sys.exit(1)
print("bench_gate: OK")
PY
