//! Deterministic smoke benchmark for CI.
//!
//! Runs one small, fixed-seed clustering workload through the parallel
//! driver `PACE_SMOKE_REPS` times and records, next to the standard
//! per-run metrics report, the per-phase *minimum* critical-path time
//! across reps — the noise-robust statistic `scripts/bench_gate.sh`
//! compares between the merge base's smoke binary and the candidate's,
//! run alternately on one machine.
//!
//! Outputs:
//! - `$PACE_METRICS_DIR/smoke.json` — gate document: `phase_min` object
//!   plus the last rep's full registry report sections. `phase_min`
//!   also holds `pair_generation`, which is report-only: the gate does
//!   not judge it.
//! - `$PACE_BENCH_TRAJECTORY`, only when set — a JSON array the run
//!   appends one trajectory entry to, so successive CI runs accumulate a
//!   timing history artifact. Each entry carries its provenance
//!   (`git_sha`, `nproc`, `rustc`; see [`pace_bench::provenance`]).
//!   Unset, the run writes no trajectory.
//!
//! Knobs: `PACE_SMOKE_N` (ESTs, default 800), `PACE_SMOKE_REPS`
//! (default 3). The seed and rank count are fixed — the workload must
//! be bit-identical on every run.

use pace_bench::{banner, dataset, paper_cfg};
use pace_cluster::{cluster_parallel_obs, AlignContext};
use pace_obs::{metric, Json, Obs};
use pace_seq::SequenceStore;
use std::collections::BTreeMap;
use std::time::Instant;

/// Fixed seed: the smoke workload must be identical on every run.
const SMOKE_SEED: u64 = 3000;
/// Ranks for the parallel driver (1 master + 2 slaves).
const SMOKE_RANKS: usize = 3;
/// Phases the gate tracks.
const GATE_PHASES: [&str; 5] = [
    metric::PHASE_PARTITIONING,
    metric::PHASE_GST_CONSTRUCTION,
    metric::PHASE_NODE_SORTING,
    metric::PHASE_ALIGNMENT,
    metric::PHASE_TOTAL,
];
/// Phases whose minima are recorded beside the gate's, for the report
/// only.
const REPORT_PHASES: [&str; 1] = [metric::PHASE_PAIR_GENERATION];

/// Deterministic micro-bench for pair generation: one `generate_all`
/// over the smoke workload's in-scope forest, the one the drivers walk.
/// Generator setup is left out — that is the `node_sorting` phase.
fn micro_pairgen(
    store: &SequenceStore,
    forest: &pace_gst::LocalForest,
    cfg: pace_pairgen::PairGenConfig,
) -> f64 {
    let mut g = pace_pairgen::PairGenerator::new(store, forest, cfg);
    let t0 = Instant::now();
    std::hint::black_box(g.generate_all());
    t0.elapsed().as_secs_f64()
}

/// Deterministic micro-bench for the opt-in kernel, run over the smoke
/// workload's own candidate pairs: the Myers bit-parallel alignment path
/// (edit-convertible scoring), timed per rep and folded into `phase_min`
/// like the driver phases.
fn micro_kernels(store: &SequenceStore, pairs: &[pace_pairgen::CandidatePair]) -> f64 {
    let mut cfg = paper_cfg();
    cfg.scoring = pace_align::Scoring::edit_linear();
    cfg.myers_alignment = true;
    cfg.validate().expect("myers smoke config");
    let mut ctx = AlignContext::new(store, None);
    let t0 = Instant::now();
    for p in pairs {
        std::hint::black_box(ctx.align(p, &cfg));
    }
    t0.elapsed().as_secs_f64()
}

fn env_usize(name: &str, default: usize, min: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= min)
        .unwrap_or(default)
}

fn main() {
    // Hidden: when the uds rep below spawns worker processes, it
    // re-invokes this very binary as `smoke __pace-worker ...`.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("__pace-worker") {
        match pace_core::worker_main(&args[1..]) {
            Ok(code) => std::process::exit(code),
            Err(msg) => {
                eprintln!("smoke worker: {msg}");
                std::process::exit(1);
            }
        }
    }
    banner(
        "Smoke bench: fixed-seed clustering workload",
        "CI regression sentinel; scripts/bench_gate.sh pairs it with the merge base's run",
    );
    let n = env_usize("PACE_SMOKE_N", 800, 60);
    let reps = env_usize("PACE_SMOKE_REPS", 3, 1);
    let ds = dataset(n, SMOKE_SEED);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    println!(
        "n = {n} ESTs, {} bases, p = {SMOKE_RANKS}, reps = {reps}",
        ds.total_bases()
    );

    // The forest and candidate pairs for the kernel micro-benches, built
    // once — the same fixed-seed workload the driver reps cluster, and
    // the same in-scope forest their slaves build.
    let pair_gen = paper_cfg().pair_gen();
    let counts = pace_gst::count_buckets(&store, paper_cfg().window_w);
    let partition = pace_gst::assign_buckets(&counts, 1);
    let forest = pace_gst::build_in_scope_forest(&store, &partition, 0, pair_gen.psi);
    let micro_pairs = pace_pairgen::PairGenerator::new(&store, &forest, pair_gen).generate_all();

    let mut phase_min: BTreeMap<String, f64> = BTreeMap::new();
    let mut last: Option<(Obs, pace_cluster::ClusterResult)> = None;
    for rep in 1..=reps {
        let obs = Obs::noop();
        let (r, _) = cluster_parallel_obs(&store, &paper_cfg(), SMOKE_RANKS, &obs);
        let snap = obs.registry().snapshot();
        let crit = |name: &str| snap.phases.get(name).map_or(0.0, |a| a.max);
        let pairgen_s = micro_pairgen(&store, &forest, pair_gen);
        let myers_s = micro_kernels(&store, &micro_pairs);
        println!(
            "rep {rep}: partitioning {:.4}s, gst {:.4}s, node_sorting {:.4}s, \
             pair_generation {:.4}s, alignment {:.4}s, total {:.4}s, \
             pairgen_kernel {pairgen_s:.4}s, myers_kernel {myers_s:.4}s",
            crit(metric::PHASE_PARTITIONING),
            crit(metric::PHASE_GST_CONSTRUCTION),
            crit(metric::PHASE_NODE_SORTING),
            crit(metric::PHASE_PAIR_GENERATION),
            crit(metric::PHASE_ALIGNMENT),
            crit(metric::PHASE_TOTAL),
        );
        for (phase, t) in GATE_PHASES
            .iter()
            .chain(&REPORT_PHASES)
            .map(|&p| (p, crit(p)))
            .chain([("pairgen_kernel", pairgen_s), ("myers_kernel", myers_s)])
        {
            phase_min
                .entry(phase.to_string())
                .and_modify(|m| *m = m.min(t))
                .or_insert(t);
        }
        last = Some((obs, r));
    }
    let (obs, r) = last.expect("at least one rep");
    println!(
        "pairs: generated {}, processed {}, accepted {}, clusters {}",
        r.stats.pairs_generated, r.stats.pairs_processed, r.stats.pairs_accepted, r.num_clusters
    );

    let snap = obs.registry().snapshot();
    check_workspace_reuse(&snap, &r);
    check_trace_off(&obs, &snap);

    // Gate document: the standard report plus the cross-rep phase minima.
    let meta = vec![
        ("p".to_string(), Json::Num(SMOKE_RANKS as f64)),
        ("num_ests".to_string(), Json::Num(n as f64)),
        ("seed".to_string(), Json::Num(SMOKE_SEED as f64)),
        ("reps".to_string(), Json::Num(reps as f64)),
    ];
    let mut doc = pace_obs::report::to_json(&snap, meta);
    let min_obj = Json::from_map(&phase_min);
    if let Json::Obj(entries) = &mut doc {
        entries.push(("phase_min".to_string(), min_obj.clone()));
    }
    if let Ok(dir) = std::env::var("PACE_METRICS_DIR") {
        let path = std::path::Path::new(&dir).join("smoke.json");
        let write = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, pace_obs::report::to_pretty_string(&doc)));
        match write {
            Ok(()) => eprintln!("[metrics] wrote {}", path.display()),
            Err(e) => eprintln!("[metrics] could not write {}: {e}", path.display()),
        }
    }
    if let Ok(path) = std::env::var("PACE_BENCH_TRAJECTORY") {
        append_trajectory(&path, &min_obj, &snap, n, reps);
    }

    // Optional socket-transport rep: same workload, one master process
    // plus real worker processes over the Unix-socket backend. Records
    // the communication volume (`comm.messages` / `comm.bytes`) that
    // `scripts/bench_gate.sh` echoes into the gate log — report-only,
    // never gated, so wire-level cost is visible in CI without a
    // machine-relative threshold.
    if std::env::var("PACE_TRANSPORT").as_deref() == Ok("uds") {
        run_uds_rep(&store, n);
    }
}

/// One clustering rep over the Unix-socket multi-process backend,
/// writing `$PACE_METRICS_DIR/smoke_uds.json`. Timing is deliberately
/// not folded into `phase_min`: process spawn + serialization costs
/// belong in their own report, not in the channel runs' gate.
fn run_uds_rep(store: &SequenceStore, n: usize) {
    let exe = std::env::current_exe().expect("locating smoke binary");
    let mut config = pace_core::PaceConfig::paper();
    config.cluster = paper_cfg();
    config.num_processors = SMOKE_RANKS;
    let obs = Obs::noop();
    let outcome = match pace_core::cluster_store_uds(
        store,
        &config,
        &pace_core::UdsLaunchOpts::new(exe),
        &obs,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("FAIL: uds smoke rep: {e}");
            std::process::exit(1);
        }
    };
    let snap = obs.registry().snapshot();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    println!(
        "uds rep: {} clusters, {} messages, {} wire bytes ({} workers)",
        outcome.num_clusters(),
        counter(metric::COMM_MESSAGES),
        counter(metric::COMM_BYTES),
        SMOKE_RANKS - 1
    );
    if counter(metric::COMM_BYTES) == 0 {
        eprintln!("FAIL: uds rep moved no wire bytes — socket backend not exercised");
        std::process::exit(1);
    }
    let meta = vec![
        ("transport".to_string(), Json::Str("uds".into())),
        ("p".to_string(), Json::Num(SMOKE_RANKS as f64)),
        ("num_ests".to_string(), Json::Num(n as f64)),
        ("seed".to_string(), Json::Num(SMOKE_SEED as f64)),
    ];
    let doc = pace_obs::report::to_json(&snap, meta);
    if let Ok(dir) = std::env::var("PACE_METRICS_DIR") {
        let path = std::path::Path::new(&dir).join("smoke_uds.json");
        let write = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, pace_obs::report::to_pretty_string(&doc)));
        match write {
            Ok(()) => eprintln!("[metrics] wrote {}", path.display()),
            Err(e) => eprintln!("[metrics] could not write {}: {e}", path.display()),
        }
    }
}

/// The tentpole's allocation discipline, asserted on every CI run: each
/// pair aligned must have gone through a reused per-rank workspace
/// (`align.ws_reuses == pairs.processed`), i.e. zero per-pair heap
/// allocations in the align phase.
fn check_workspace_reuse(snap: &pace_obs::RegistrySnapshot, r: &pace_cluster::ClusterResult) {
    let reuses = snap.counters.get(metric::ALIGN_WS_REUSES).copied();
    match reuses {
        Some(reuses) if reuses == r.stats.pairs_processed => {
            println!(
                "workspace reuse: {reuses} kernel calls over {} per-rank workspaces — \
                 zero per-pair allocations",
                SMOKE_RANKS - 1
            );
        }
        Some(reuses) => {
            eprintln!(
                "FAIL: workspace reuses ({reuses}) != pairs processed ({})",
                r.stats.pairs_processed
            );
            std::process::exit(1);
        }
        None => {
            eprintln!(
                "FAIL: {} counter missing from registry",
                metric::ALIGN_WS_REUSES
            );
            std::process::exit(1);
        }
    }
}

/// The tracing subsystem's off-by-default discipline, asserted
/// structurally on every CI run: the smoke bench attaches no tracer, so
/// `trace_with` closures must never run (no per-event allocations on
/// the hot path — the trace analogue of the workspace-reuse check) and
/// no `trace.*` key may leak into the registry.
fn check_trace_off(obs: &Obs, snap: &pace_obs::RegistrySnapshot) {
    if obs.trace_enabled() || obs.tracer().is_some() {
        eprintln!("FAIL: smoke bench expected tracing off, found a tracer attached");
        std::process::exit(1);
    }
    if let Some(key) = snap
        .gauges
        .keys()
        .chain(snap.counters.keys())
        .find(|k| k.starts_with("trace."))
    {
        eprintln!("FAIL: trace metric {key} recorded with tracing off");
        std::process::exit(1);
    }
    println!("tracing off: no tracer attached, no trace.* metrics — zero trace-path work");
}

/// Append one entry, stamped with its provenance, to the trajectory file
/// at `path` (a JSON array). A missing or malformed file starts a fresh
/// array; failures never abort the bench.
fn append_trajectory(
    path: &str,
    phase_min: &Json,
    snap: &pace_obs::RegistrySnapshot,
    n: usize,
    reps: usize,
) {
    let mut entries = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| pace_obs::json::parse(&text).ok())
        .and_then(|v| match v {
            Json::Arr(items) => Some(items),
            _ => None,
        })
        .unwrap_or_default();
    let counters = Json::Obj(
        snap.counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
            .collect(),
    );
    let entry = [
        ("schema_version", Json::Num(pace_obs::SCHEMA_VERSION as f64)),
        ("bench", Json::Str("smoke".into())),
        ("num_ests", Json::Num(n as f64)),
        ("p", Json::Num(SMOKE_RANKS as f64)),
        ("reps", Json::Num(reps as f64)),
        ("phase_min", phase_min.clone()),
        ("counters", counters),
    ];
    entries.push(Json::obj(entry.into_iter().chain(pace_bench::provenance())));
    match std::fs::write(path, Json::Arr(entries).to_line()) {
        Ok(()) => eprintln!("[metrics] appended trajectory entry to {path}"),
        Err(e) => eprintln!("[metrics] could not write {path}: {e}"),
    }
}
