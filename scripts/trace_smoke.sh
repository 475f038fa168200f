#!/usr/bin/env bash
# Trace smoke check: the CI gate behind the causal-tracing subsystem.
#
# Runs a small deterministic clustering workload under the lossless
# `stall` fault profile (one slave rank sleeps at seeded points, nothing
# is dropped) with `--trace-out`, then validates:
#
#   1. `pace-trace --check` — the structural invariants: every
#      dispatch→report flow edge resolves, per-rank utilization ∈ [0,1],
#      critical path ≤ wall clock.
#   2. The exported file is schema-versioned Chrome-tracing/Perfetto
#      JSON: `traceEvents` array, known phase letters, positive complete-
#      event durations, metadata naming every rank track.
#   3. Straggler attribution: the analyzer's worst-ranked straggler is
#      exactly the rank that received the injected stalls.
#   4. The run report carries the trace-derived figures (p99 align_batch
#      latency is echoed for the CI log; report-only, never gated).
#   5. The trace holds one `merge` instant per effective union: the
#      analyzer's `instants.merge` count equals the run report's
#      `merges` counter.
#   6. The same traced run over the socket transport (`--transport uds`,
#      one process per rank): `pace-trace --check` over the merged
#      per-process files, and a run report that holds what the workers
#      ship home in their summaries (`timers.align_batch`,
#      `counters["gst.nodes"]`, `histograms["pairs.mcs_len"]`, and
#      positive `gauges["gst.memory_bytes"]` and
#      `gauges["pairgen.memory_bytes"]`).
#
# Usage: scripts/trace_smoke.sh [pace-binary] [pace-trace-binary] [outdir]
set -euo pipefail

PACE=${1:-target/release/pace}
PACE_TRACE=${2:-target/release/pace-trace}
OUT=${3:-bench_out/trace_smoke}

if [[ ! -x "$PACE" || ! -x "$PACE_TRACE" ]]; then
    echo "trace_smoke: build the binaries first (cargo build --release --bins)" >&2
    exit 2
fi
mkdir -p "$OUT"

echo "trace_smoke: generating deterministic workload"
"$PACE" simulate --ests 120 --genes 10 --seed 9 --out "$OUT/reads.fasta" 2> /dev/null

echo "trace_smoke: traced run under the stall fault profile"
"$PACE" cluster --in "$OUT/reads.fasta" --out "$OUT/clusters.tsv" \
    --procs 4 --psi 16 --batchsize 8 --min-overlap 40 \
    --fault-profile stall --fault-seed 5 \
    --trace-out "$OUT/trace.json" --metrics-out "$OUT/metrics.json" --quiet

echo "trace_smoke: structural invariants (pace-trace --check)"
"$PACE_TRACE" "$OUT/trace.json" --check | tee "$OUT/report.txt"
"$PACE_TRACE" "$OUT/trace.json" --json > "$OUT/analysis.json"

echo "trace_smoke: schema + attribution checks"
python3 - "$OUT/trace.json" "$OUT/analysis.json" "$OUT/metrics.json" <<'PY'
import json
import sys

trace_path, analysis_path, metrics_path = sys.argv[1:4]
failures = []

# --- exported Chrome/Perfetto JSON schema -----------------------------
trace = json.load(open(trace_path))
events = trace.get("traceEvents")
if not isinstance(events, list) or not events:
    failures.append("traceEvents missing or empty")
    events = []
schema = trace.get("otherData", {}).get("schema_version")
if schema != 1:
    failures.append(f"otherData.schema_version is {schema!r}, expected 1")
known_ph = {"M", "X", "i", "s", "t", "f"}
tids = set()
for i, ev in enumerate(events):
    ph = ev.get("ph")
    if ph not in known_ph:
        failures.append(f"event {i}: unknown phase {ph!r}")
        break
    if ph != "M" and not isinstance(ev.get("ts"), (int, float)):
        failures.append(f"event {i}: missing ts")
        break
    if ph == "X":
        if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 1:
            failures.append(f"event {i}: complete event without positive dur")
            break
        tids.add(ev.get("tid"))
thread_meta = {e.get("args", {}).get("name") for e in events if e.get("ph") == "M" and e.get("name") == "thread_name"}
if len(tids) < 2:
    failures.append(f"expected spans on several rank tracks, saw tids {sorted(tids)}")
if not thread_meta:
    failures.append("no thread_name metadata naming the rank tracks")

# --- analyzer invariants (redundant with --check, but from the file) --
a = json.load(open(analysis_path))
if a["flows_total"] <= 0:
    failures.append("no flow edges recorded")
if a["flows_unresolved"] != 0:
    failures.append(f"{a['flows_unresolved']} flow edges never resolved (stall profile is lossless)")
for r in a["ranks"]:
    if not (0.0 <= r["utilization"] <= 1.0):
        failures.append(f"rank {r['rank']} utilization {r['utilization']} outside [0,1]")
if a["critical_path_secs"] > a["wall_secs"] * (1 + 1e-9) + 1e-9:
    failures.append(f"critical path {a['critical_path_secs']}s exceeds wall {a['wall_secs']}s")

# --- straggler attribution: worst rank == the stalled rank ------------
stalled = [r["rank"] for r in a["ranks"] if r["stall_secs"] > 0]
if len(stalled) != 1:
    failures.append(f"stall profile should stall exactly one rank, saw {stalled}")
elif not a["stragglers"]:
    failures.append("straggler ranking is empty")
elif a["stragglers"][0]["rank"] != stalled[0]:
    failures.append(
        f"straggler ranking blames rank {a['stragglers'][0]['rank']}, "
        f"but rank {stalled[0]} received the injected stalls"
    )
else:
    print(f"trace_smoke: straggler ranking correctly blames stalled rank {stalled[0]}")

# --- merges: one `merge` instant per effective union -----------------
metrics = json.load(open(metrics_path))
merge_instants = a["instants"].get("merge", 0)
merges = metrics.get("counters", {}).get("merges")
if merges is None:
    failures.append("merges counter missing from the metrics report")
elif merge_instants != merges:
    failures.append(f"{merge_instants} merge instants in the trace, but the report counts {merges:.0f} merges")
else:
    print(f"trace_smoke: {merge_instants} merge instants match the report's merges counter")

# --- report-only latency echo ----------------------------------------
timers = metrics.get("timers", {})
ab = timers.get("align_batch")
if ab and "p99" in ab:
    print(
        f"trace_smoke: align_batch p50 {ab['p50'] * 1e3:.3f} ms, "
        f"p99 {ab['p99'] * 1e3:.3f} ms over {ab['count']:.0f} batches (report-only)"
    )
else:
    failures.append("align_batch quantiles missing from the metrics report")

print(
    f"trace_smoke: {len(events)} events, {a['flows_total']} flows resolved, "
    f"critical path {a['critical_path_secs']:.3f}s of {a['wall_secs']:.3f}s wall"
)
if failures:
    for f in failures:
        print(f"trace_smoke: FAIL {f}")
    sys.exit(1)
print("trace_smoke: OK")
PY

echo "trace_smoke: the same traced run over the socket transport"
mkdir -p "$OUT/uds"
"$PACE" cluster --in "$OUT/reads.fasta" --out "$OUT/uds/clusters.tsv" \
    --procs 4 --psi 16 --batchsize 8 --min-overlap 40 --transport uds \
    --fault-profile stall --fault-seed 5 \
    --trace-out "$OUT/uds/trace.json" --metrics-out "$OUT/uds/metrics.json" --quiet
"$PACE_TRACE" "$OUT/uds/trace.json" "$OUT"/uds/trace.json.rank*.json --check \
    | tee "$OUT/uds/report.txt"

python3 - "$OUT/uds/metrics.json" <<'PY'
import json
import sys

metrics = json.load(open(sys.argv[1]))
missing = [
    f'{section}["{key}"]'
    for section, key in [
        ("timers", "align_batch"),
        ("counters", "gst.nodes"),
        ("histograms", "pairs.mcs_len"),
    ]
    if key not in metrics.get(section, {})
]
missing += [
    f'gauges["{key}"] > 0'
    for key in ["gst.memory_bytes", "pairgen.memory_bytes"]
    if not metrics.get("gauges", {}).get(key, 0) > 0
]
if missing:
    print(f"trace_smoke: FAIL the uds run report lacks {', '.join(missing)}")
    sys.exit(1)
print("trace_smoke: uds OK")
PY
