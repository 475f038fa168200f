//! `pace` — command-line interface to the clustering pipeline.
//!
//! ```text
//! pace simulate --ests 2000 --genes 160 --seed 7 --out reads.fasta [--truth truth.tsv]
//! pace cluster  --in reads.fasta --out clusters.tsv [--procs 4] [--psi 20]
//!               [--batchsize 60] [--window 8] [--min-overlap 40] [--min-ratio 0.8]
//! pace assess   --pred clusters.tsv --truth truth.tsv
//! pace splice   --in reads.fasta --clusters clusters.tsv
//! ```
//!
//! Cluster output is one `est_id<TAB>cluster_label` line per EST, in
//! input order — trivially diffable and joinable. Argument parsing is
//! hand-rolled (no CLI dependency): `--flag value` pairs plus a few
//! boolean switches (`-v`/`--verbose`, `--quiet`). Each subcommand
//! accepts a fixed set of flags; an unknown or repeated flag is an error.
//!
//! Observability (cluster subcommand):
//! `--metrics-out FILE` writes the schema-versioned JSON run report,
//! `--trace-out FILE` records causal per-message spans plus fault,
//! recovery and `merge` instants and writes a Perfetto/Chrome-tracing
//! timeline (analyze it with the `pace-trace` binary), `-v` prints the
//! report to stderr, `--quiet` silences everything but errors.

use pace::core::{detect_splice_events, SpliceScanConfig};
use pace::{Pace, PaceConfig, SimConfig};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // Hidden: the multi-process launcher re-invokes this binary as
    // `pace __pace-worker --rank R --procs P --socket S ...` for each
    // worker rank of a `--transport uds` run. Not part of the CLI.
    if command == "__pace-worker" {
        return match pace::worker_main(rest) {
            Ok(code) => ExitCode::from(code as u8),
            Err(msg) => {
                eprintln!("pace worker: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match command.as_str() {
        "simulate" => cmd_simulate(rest),
        "cluster" => cmd_cluster(rest),
        "assess" => cmd_assess(rest),
        "splice" => cmd_splice(rest),
        "stats" => cmd_stats(rest),
        "serve" => cmd_serve(rest),
        "ingest" => cmd_ingest(rest),
        "query" => cmd_query(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pace: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
pace — space and time efficient parallel EST clustering (ICPP 2002)

USAGE:
  pace simulate --ests N [--genes N] [--seed N] --out FILE [--truth FILE]
  pace cluster  --in FASTA --out FILE [--procs N] [--transport channel|uds]
                [--psi N] [--window N]
                [--batchsize N] [--min-overlap N] [--min-ratio F] [--truth FILE]
                [--fault-profile drop|delay|reorder|crash|mixed|stall] [--fault-seed N]
                [--slave-timeout SECS] [--max-retries N]
                [--checkpoint-dir DIR] [--resume] [--memory-budget BYTES[K|M|G]]
                [--checkpoint-every N] [--crash-after ingest|cluster-batch:K]
                [--metrics-out FILE] [--trace-out FILE]
                [-v|--verbose] [--quiet]
  pace assess   --pred FILE --truth FILE
  pace splice   --in FASTA --clusters FILE [--min-event N]
  pace stats    --in FASTA
  pace serve    --listen SOCKET [--checkpoint-dir DIR] [--checkpoint-every N]
                [--memory-budget BYTES[K|M|G]] [--psi N] [--window N]
                [--batchsize N] [--min-overlap N] [--min-ratio F]
                [--metrics-out FILE] [--quiet]
  pace ingest   --socket SOCKET --in FASTA [--batch N] [--ambiguous reject|normalize]
  pace query    --socket SOCKET (--member ID | --cluster LABEL | --rep LABEL |
                --stats | --ping | --shutdown)";

/// Switches that take no value; stored with the value `"true"`.
const BOOL_FLAGS: &[&str] = &["verbose", "quiet", "resume", "stats", "ping", "shutdown"];

/// The flags each subcommand accepts (see USAGE).
const SIMULATE_FLAGS: &[&str] = &["ests", "genes", "seed", "out", "truth"];
const CLUSTER_FLAGS: &[&str] = &[
    "in",
    "out",
    "procs",
    "transport",
    "psi",
    "window",
    "batchsize",
    "min-overlap",
    "min-ratio",
    "truth",
    "fault-profile",
    "fault-seed",
    "slave-timeout",
    "max-retries",
    "checkpoint-dir",
    "resume",
    "memory-budget",
    "checkpoint-every",
    "crash-after",
    "metrics-out",
    "trace-out",
    "verbose",
    "quiet",
];
const ASSESS_FLAGS: &[&str] = &["pred", "truth"];
const SPLICE_FLAGS: &[&str] = &["in", "clusters", "min-event"];
const STATS_FLAGS: &[&str] = &["in"];
const SERVE_FLAGS: &[&str] = &[
    "listen",
    "checkpoint-dir",
    "checkpoint-every",
    "memory-budget",
    "psi",
    "window",
    "batchsize",
    "min-overlap",
    "min-ratio",
    "metrics-out",
    "quiet",
];
const INGEST_FLAGS: &[&str] = &["socket", "in", "batch", "ambiguous"];
const QUERY_FLAGS: &[&str] = &[
    "socket", "member", "cluster", "rep", "stats", "ping", "shutdown",
];

/// Parse `--key value` pairs and boolean switches. A flag outside
/// `accepted`, or one given twice, is an error naming it.
fn parse_flags(args: &[String], accepted: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = match key.as_str() {
            "-v" => "verbose",
            k => k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {key:?}"))?,
        };
        if !accepted.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        if flags.contains_key(name) {
            return Err(format!("--{name} given more than once"));
        }
        let value = if BOOL_FLAGS.contains(&name) {
            "true".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} requires a value"))?
                .clone()
        };
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse {v:?}")),
    }
}

fn require<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, SIMULATE_FLAGS)?;
    let ests: usize = get(&flags, "ests", 1000)?;
    let genes: usize = get(&flags, "genes", (ests / 12).max(1))?;
    let seed: u64 = get(&flags, "seed", 42)?;
    let out = require(&flags, "out")?;

    let cfg = SimConfig {
        num_ests: ests,
        num_genes: genes,
        seed,
        ..SimConfig::default()
    };
    let data = pace::simulate::generate(&cfg);

    let records: Vec<pace::seq::FastaRecord> = data
        .ests
        .iter()
        .enumerate()
        .map(|(i, est)| pace::seq::FastaRecord {
            id: format!("est_{i}"),
            description: format!("gene={} isoform={}", data.truth[i], data.isoforms[i]),
            sequence: est.clone(),
        })
        .collect();
    let fasta = pace::seq::fasta::to_fasta_string(&records, 70);
    std::fs::write(out, fasta).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {ests} ESTs from {genes} genes to {out}");

    if let Some(truth_path) = flags.get("truth") {
        let mut tsv = String::new();
        for (i, &g) in data.truth.iter().enumerate() {
            tsv.push_str(&format!("est_{i}\t{g}\n"));
        }
        std::fs::write(truth_path, tsv).map_err(|e| format!("writing {truth_path}: {e}"))?;
        eprintln!("wrote ground truth to {truth_path}");
    }
    Ok(())
}

fn read_fasta_file(path: &str) -> Result<Vec<pace::seq::FastaRecord>, String> {
    // Real EST data carries IUPAC ambiguity codes; the batch commands
    // map them to 'A' (ingest to a live daemon is stricter — see
    // cmd_ingest and its --ambiguous flag).
    read_fasta_policy(path, pace::seq::AmbiguityPolicy::Normalize)
}

fn read_fasta_policy(
    path: &str,
    policy: pace::seq::AmbiguityPolicy,
) -> Result<Vec<pace::seq::FastaRecord>, String> {
    pace::seq::read_fasta_file_with(path, policy).map_err(|e| format!("{path}: {e}"))
}

/// Read a `id<TAB>label` file into (ids, labels).
fn read_labels(path: &str) -> Result<(Vec<String>, Vec<usize>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut ids = Vec::new();
    let mut labels = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let id = parts
            .next()
            .ok_or_else(|| format!("{path}:{}: empty line", lineno + 1))?;
        let label = parts
            .next()
            .ok_or_else(|| format!("{path}:{}: missing label column", lineno + 1))?;
        ids.push(id.to_string());
        labels.push(
            label
                .trim()
                .parse()
                .map_err(|_| format!("{path}:{}: bad label {label:?}", lineno + 1))?,
        );
    }
    Ok((ids, labels))
}

/// Assemble the schema-versioned metrics document for one run.
fn run_report_json(
    snap: &pace::obs::RegistrySnapshot,
    outcome: &pace::PaceOutcome,
) -> pace::obs::Json {
    use pace::obs::Json;
    let meta = vec![
        ("num_ests".to_string(), Json::Num(outcome.num_ests as f64)),
        (
            "total_bases".to_string(),
            Json::Num(outcome.total_bases as f64),
        ),
        (
            "num_processors".to_string(),
            Json::Num(outcome.num_processors as f64),
        ),
        (
            "num_clusters".to_string(),
            Json::Num(outcome.num_clusters() as f64),
        ),
    ];
    pace::obs::report::to_json(snap, meta)
}

/// Parse a byte size with an optional K/M/G (binary) suffix.
fn parse_byte_size(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (digits, mult) = match t.chars().last() {
        Some('K') | Some('k') => (&t[..t.len() - 1], 1u64 << 10),
        Some('M') | Some('m') => (&t[..t.len() - 1], 1u64 << 20),
        Some('G') | Some('g') => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    digits
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| format!("cannot parse byte size {s:?} (expected e.g. 512M)"))
}

/// Parse a `--crash-after` point (test/CI hook for kill-resume drills).
fn parse_crash_point(s: &str) -> Result<pace::CrashPoint, String> {
    match s {
        "ingest" => Ok(pace::CrashPoint::AfterIngest),
        _ => s
            .strip_prefix("cluster-batch:")
            .and_then(|k| k.parse().ok())
            .map(pace::CrashPoint::AfterClusterBatch)
            .ok_or_else(|| format!("--crash-after: {s:?} is not ingest|cluster-batch:K")),
    }
}

/// Shared tail of the cluster subcommand: label TSV, run report,
/// metrics document, optional truth assessment.
fn finish_cluster_output(
    flags: &HashMap<String, String>,
    out: &str,
    ids: &[String],
    outcome: &pace::PaceOutcome,
    obs: &pace::obs::Obs,
) -> Result<(), String> {
    let verbose = flags.contains_key("verbose");
    let quiet = flags.contains_key("quiet");
    let mut tsv = String::new();
    for (id, &label) in ids.iter().zip(outcome.labels()) {
        tsv.push_str(&format!("{id}\t{label}\n"));
    }
    std::fs::write(out, tsv).map_err(|e| format!("writing {out}: {e}"))?;

    // Trace export + analysis first, so the derived gauges are in the
    // registry before the summary and the metrics document read it.
    if let (Some(path), Some(tracer)) = (flags.get("trace-out"), obs.tracer()) {
        tracer
            .write_chrome_file(std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        let doc = pace::obs::TraceDoc::from_tracer(tracer);
        let analysis = pace::obs::trace::analyze(&doc);
        let reg = obs.registry();
        reg.set_gauge(
            pace::obs::metric::TRACE_CRITICAL_PATH_SECS,
            analysis.critical_path_secs,
        );
        if !analysis.ranks.is_empty() {
            let utils: Vec<f64> = analysis.ranks.iter().map(|r| r.utilization).collect();
            let min = utils.iter().copied().fold(f64::INFINITY, f64::min);
            let mean = utils.iter().sum::<f64>() / utils.len() as f64;
            reg.set_gauge(pace::obs::metric::TRACE_UTILIZATION_MIN, min);
            reg.set_gauge(pace::obs::metric::TRACE_UTILIZATION_MEAN, mean);
        }
        if !quiet {
            eprintln!(
                "wrote trace timeline to {path} ({} events); \
                 critical path {:.3}s of {:.3}s wall — inspect with \
                 `pace-trace {path}` or load into ui.perfetto.dev",
                tracer.recorded(),
                analysis.critical_path_secs,
                analysis.wall_secs
            );
        }
    }

    // One snapshot feeds both reports, so the summary's phase times are
    // the metrics document's `timers.<phase>.max`.
    let snap = obs.registry().snapshot();
    if !quiet {
        eprint!("{}", pace::RunReport::new(outcome, &snap, None));
        eprintln!("wrote {} cluster labels to {out}", outcome.num_ests);
    }

    if flags.contains_key("metrics-out") || verbose {
        let doc = run_report_json(&snap, outcome);
        if let Some(path) = flags.get("metrics-out") {
            std::fs::write(path, pace::obs::report::to_pretty_string(&doc))
                .map_err(|e| format!("writing {path}: {e}"))?;
            if !quiet {
                eprintln!("wrote metrics report to {path}");
            }
        }
        if verbose {
            eprint!("{}", pace::obs::report::to_pretty_string(&doc));
        }
    }

    if let Some(truth_path) = flags.get("truth") {
        let (_, truth) = read_labels(truth_path)?;
        if truth.len() != outcome.num_ests {
            return Err(format!(
                "truth has {} entries, input has {}",
                truth.len(),
                outcome.num_ests
            ));
        }
        eprintln!("quality: {}", outcome.quality(&truth));
    }
    Ok(())
}

/// Flags that switch the cluster subcommand onto the persistent
/// (out-of-core / checkpointed) driver.
const PERSIST_FLAGS: &[&str] = &["memory-budget", "resume", "checkpoint-every", "crash-after"];

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, CLUSTER_FLAGS)?;
    let input = require(&flags, "in")?;
    let out = require(&flags, "out")?;
    let verbose = flags.contains_key("verbose");
    let quiet = flags.contains_key("quiet");
    if verbose && quiet {
        return Err("--verbose and --quiet are mutually exclusive".into());
    }

    let mut config = PaceConfig::paper();
    config.num_processors = get(&flags, "procs", 1)?;
    config.cluster.psi = get(&flags, "psi", config.cluster.psi)?;
    config.cluster.window_w = get(&flags, "window", config.cluster.window_w)?;
    config.cluster.batchsize = get(&flags, "batchsize", config.cluster.batchsize)?;
    config.cluster.overlap.min_overlap_len = get(
        &flags,
        "min-overlap",
        config.cluster.overlap.min_overlap_len,
    )?;
    config.cluster.overlap.min_score_ratio =
        get(&flags, "min-ratio", config.cluster.overlap.min_score_ratio)?;
    config.cluster.slave_timeout = get(&flags, "slave-timeout", config.cluster.slave_timeout)?;
    config.cluster.max_retries = get(&flags, "max-retries", config.cluster.max_retries)?;

    // Fault injection (testing/demo): a seeded deterministic plan for
    // the thread-backed message runtime. Only meaningful with --procs ≥ 2.
    if let Some(profile) = flags.get("fault-profile") {
        let profile: pace::FaultProfile = profile
            .parse()
            .map_err(|e: String| format!("--fault-profile: {e}"))?;
        let seed: u64 = get(&flags, "fault-seed", 0)?;
        if config.num_processors < 2 {
            return Err(
                "--fault-profile needs --procs ≥ 2 (faults live in the message runtime)".into(),
            );
        }
        config.faults = pace::FaultPlan::seeded(profile, seed, config.num_processors);
        if !quiet {
            eprintln!(
                "injecting {profile} faults (seed {seed}) across {} ranks",
                config.num_processors
            );
        }
    } else if flags.contains_key("fault-seed") {
        return Err("--fault-seed requires --fault-profile".into());
    }

    let obs = if flags.contains_key("trace-out") {
        pace::obs::Obs::with_tracer()
    } else {
        pace::obs::Obs::noop()
    };

    // Transport selection: "channel" (default) runs every rank as a
    // thread of this process; "uds" forks one worker process per slave
    // rank and speaks the wire codec over a Unix-domain socket.
    let transport = flags
        .get("transport")
        .map(String::as_str)
        .unwrap_or("channel");
    let uds = match transport {
        "channel" => false,
        "uds" => true,
        other => return Err(format!("--transport: {other:?} is not channel|uds")),
    };

    // Persistent (out-of-core / checkpointed) path: streams the FASTA
    // through the store builder instead of materialising the records,
    // and takes the ids back from the ingest snapshot on resume.
    let persistent = flags.contains_key("checkpoint-dir")
        || PERSIST_FLAGS.iter().any(|f| flags.contains_key(*f));
    if uds && persistent {
        return Err("--transport uds does not compose with the persistent \
                    (checkpoint/resume) driver yet"
            .into());
    }
    if uds && config.num_processors < 2 {
        return Err("--transport uds needs --procs ≥ 2 (one master + worker processes)".into());
    }
    if persistent {
        let Some(ckpt_dir) = flags.get("checkpoint-dir") else {
            return Err(format!(
                "--{} requires --checkpoint-dir",
                PERSIST_FLAGS
                    .iter()
                    .find(|f| flags.contains_key(**f))
                    .unwrap_or(&"checkpoint-dir")
            ));
        };
        let mut persist = pace::PersistConfig::new(ckpt_dir);
        if let Some(budget) = flags.get("memory-budget") {
            persist.memory_budget = parse_byte_size(budget)?;
        }
        persist.checkpoint_every = get(&flags, "checkpoint-every", 1u64)?;
        if persist.checkpoint_every == 0 {
            return Err("--checkpoint-every must be ≥ 1".into());
        }
        persist.resume = flags.contains_key("resume");
        persist.crash_after = flags
            .get("crash-after")
            .map(|s| parse_crash_point(s))
            .transpose()?;
        if !quiet {
            eprintln!(
                "clustering {input} with checkpoints in {ckpt_dir}{}",
                if persist.resume { " (resuming)" } else { "" }
            );
        }
        let result = Pace::new(config)
            .cluster_fasta_persistent(std::path::Path::new(input), &persist, &obs)
            .map_err(|e| e.to_string())?;
        return finish_cluster_output(&flags, out, &result.ids, &result.outcome, &obs);
    }

    // Stream the records straight into the store, normalizing ambiguity
    // codes like the other batch commands (see `read_fasta_file`).
    let (store, ids, _replaced) =
        pace::seq::read_fasta_into_store(input).map_err(|e| format!("{input}: {e}"))?;
    if !quiet {
        eprintln!("clustering {} ESTs ...", store.num_ests());
    }

    let outcome = if uds {
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let mut opts = pace::UdsLaunchOpts::new(exe);
        opts.trace_out = flags.get("trace-out").map(std::path::PathBuf::from);
        let outcome =
            pace::cluster_store_uds(&store, &config, &opts, &obs).map_err(|e| e.to_string())?;
        if let (Some(path), false) = (flags.get("trace-out"), quiet) {
            eprintln!(
                "worker traces at {path}.rankN.json — merge the timeline with \
                 `pace-trace {path} {path}.rank*.json`"
            );
        }
        outcome
    } else {
        Pace::new(config)
            .cluster_store_obs(&store, &obs)
            .map_err(|e| e.to_string())?
    };

    finish_cluster_output(&flags, out, &ids, &outcome, &obs)
}

/// `pace serve`: run the clustering daemon (`paced`) until a client
/// sends `shutdown` or the process receives SIGTERM/SIGINT. With
/// `--checkpoint-dir` the daemon restores existing state on start and
/// rolls a checkpoint as it ingests, so a kill + restart resumes
/// transparently.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, SERVE_FLAGS)?;
    let listen = require(&flags, "listen")?;
    let quiet = flags.contains_key("quiet");

    let mut cluster = PaceConfig::paper().cluster;
    cluster.psi = get(&flags, "psi", cluster.psi)?;
    cluster.window_w = get(&flags, "window", cluster.window_w)?;
    cluster.batchsize = get(&flags, "batchsize", cluster.batchsize)?;
    cluster.overlap.min_overlap_len = get(&flags, "min-overlap", cluster.overlap.min_overlap_len)?;
    cluster.overlap.min_score_ratio = get(&flags, "min-ratio", cluster.overlap.min_score_ratio)?;

    let mut cfg = pace::serve::ServerConfig::new(listen, cluster);
    cfg.checkpoint_dir = flags.get("checkpoint-dir").map(std::path::PathBuf::from);
    cfg.checkpoint_every = get(&flags, "checkpoint-every", 1u64)?;
    if cfg.checkpoint_every == 0 {
        return Err("--checkpoint-every must be ≥ 1".into());
    }
    if let Some(budget) = flags.get("memory-budget") {
        cfg.memory_budget = parse_byte_size(budget)?;
    }

    pace::core::signals::install();
    let obs = pace::obs::Obs::noop();
    let handle = pace::serve::Server::start(cfg, obs.clone())
        .map_err(|e| format!("starting daemon: {e}"))?;
    if !quiet {
        let resumed = handle.socket_path().display();
        eprintln!("paced listening on {resumed}");
    }
    let outcome = handle.wait();

    if let Some(path) = flags.get("metrics-out") {
        let doc = pace::obs::report::to_json(&obs.registry().snapshot(), Vec::new());
        std::fs::write(path, pace::obs::report::to_pretty_string(&doc))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }

    match outcome {
        Ok(stats) => {
            if !quiet {
                eprintln!(
                    "paced: served {} queries over {} connections, folded {} batches \
                     ({} ESTs in {} clusters); query p99 {:.0}µs",
                    stats.queries,
                    stats.connections,
                    stats.ingests,
                    stats.num_ests,
                    stats.num_clusters,
                    stats.query_p99_us
                );
            }
            Ok(())
        }
        Err(e) => {
            // A fatal signal: state is already checkpointed; exit with
            // the conventional 128+signo status.
            if let Some(signum) = pace::core::signals::pending() {
                eprintln!("paced: {e}");
                std::process::exit(pace::core::signals::exit_status_for(signum));
            }
            Err(format!("daemon failed: {e}"))
        }
    }
}

/// `pace ingest`: stream a FASTA file into a running daemon in batches.
fn cmd_ingest(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, INGEST_FLAGS)?;
    let socket = require(&flags, "socket")?;
    let input = require(&flags, "in")?;
    let batch: usize = get(&flags, "batch", usize::MAX)?;
    if batch == 0 {
        return Err("--batch must be ≥ 1".into());
    }
    // Strict by default: a dirty record fails here, cleanly, before any
    // batch reaches the daemon — not mid-stream as a daemon-side packing
    // error after earlier batches already folded.
    let policy = match flags.get("ambiguous").map(String::as_str) {
        None | Some("reject") => pace::seq::AmbiguityPolicy::Reject,
        Some("normalize") => pace::seq::AmbiguityPolicy::Normalize,
        Some(other) => return Err(format!("--ambiguous: {other:?} is not reject|normalize")),
    };

    let records = read_fasta_policy(input, policy)?;
    let mut client =
        pace::serve::Client::connect(socket).map_err(|e| format!("connecting to {socket}: {e}"))?;
    let mut sent = 0usize;
    let mut last = (0u64, 0u64);
    for chunk in records.chunks(batch) {
        let ids: Vec<String> = chunk.iter().map(|r| r.id.clone()).collect();
        let seqs: Vec<Vec<u8>> = chunk.iter().map(|r| r.sequence.clone()).collect();
        last = client
            .ingest(ids, seqs)
            .map_err(|e| format!("ingest failed after {sent} ESTs: {e}"))?;
        sent += chunk.len();
    }
    eprintln!(
        "ingested {sent} ESTs; daemon now holds {} ESTs in {} clusters",
        last.0, last.1
    );
    Ok(())
}

/// `pace query`: one request against a running daemon.
fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, QUERY_FLAGS)?;
    let socket = require(&flags, "socket")?;
    let mut client =
        pace::serve::Client::connect(socket).map_err(|e| format!("connecting to {socket}: {e}"))?;

    if let Some(id) = flags.get("member") {
        let (index, label, size) = client.member(id).map_err(|e| e.to_string())?;
        println!("{id}\tcluster={label}\tsize={size}\tindex={index}");
    } else if let Some(label) = flags.get("cluster") {
        let label: u64 = label
            .parse()
            .map_err(|_| format!("--cluster: bad label {label:?}"))?;
        for id in client.cluster(label).map_err(|e| e.to_string())? {
            println!("{id}");
        }
    } else if let Some(label) = flags.get("rep") {
        let label: u64 = label
            .parse()
            .map_err(|_| format!("--rep: bad label {label:?}"))?;
        let (id, seq) = client.rep(label).map_err(|e| e.to_string())?;
        println!(">{id}");
        println!("{}", String::from_utf8_lossy(&seq));
    } else if flags.contains_key("stats") {
        let s = client.stats().map_err(|e| e.to_string())?;
        println!("num_ests\t{}", s.num_ests);
        println!("num_clusters\t{}", s.num_clusters);
        println!("ingest_batches\t{}", s.ingest_batches);
        println!("trace_len\t{}", s.trace_len);
        println!("pairs_generated\t{}", s.pairs_generated);
        println!("pairs_processed\t{}", s.pairs_processed);
        println!("pairs_skipped\t{}", s.pairs_skipped);
        println!("queries_served\t{}", s.queries_served);
        println!("uptime_us\t{}", s.uptime_us);
    } else if flags.contains_key("ping") {
        let ests = client.ping().map_err(|e| e.to_string())?;
        println!("pong\tnum_ests={ests}");
    } else if flags.contains_key("shutdown") {
        client.shutdown().map_err(|e| e.to_string())?;
        eprintln!("daemon shutting down");
    } else {
        return Err(
            "pick one of --member ID | --cluster LABEL | --rep LABEL | --stats | --ping | \
             --shutdown"
                .into(),
        );
    }
    Ok(())
}

fn cmd_assess(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, ASSESS_FLAGS)?;
    let (pred_ids, pred) = read_labels(require(&flags, "pred")?)?;
    let (truth_ids, truth) = read_labels(require(&flags, "truth")?)?;
    if pred_ids != truth_ids {
        return Err("prediction and truth files list different ESTs (or different order)".into());
    }
    let m = pace::quality::assess(&pred, &truth);
    println!("{m}");
    println!(
        "TP {}  FP {}  FN {}  TN {}",
        m.counts.tp, m.counts.fp, m.counts.fn_, m.counts.tn
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, STATS_FLAGS)?;
    let records = read_fasta_file(require(&flags, "in")?)?;
    let seqs: Vec<&[u8]> = records.iter().map(|r| r.sequence.as_slice()).collect();
    match pace::seq::length_stats(&seqs) {
        None => println!("no sequences"),
        Some(stats) => {
            println!("{stats}");
            let [a, c, g, t] = pace::seq::base_composition(&seqs);
            println!(
                "composition: A {a}  C {c}  G {g}  T {t}  (GC {:.1}%)",
                100.0 * pace::seq::gc_content(&seqs)
            );
        }
    }
    Ok(())
}

fn cmd_splice(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, SPLICE_FLAGS)?;
    let records = read_fasta_file(require(&flags, "in")?)?;
    let (label_ids, labels) = read_labels(require(&flags, "clusters")?)?;
    let ids: Vec<String> = records.iter().map(|r| r.id.clone()).collect();
    if ids != label_ids {
        return Err("FASTA and cluster files list different ESTs (or different order)".into());
    }
    let ests: Vec<Vec<u8>> = records.into_iter().map(|r| r.sequence).collect();

    let mut cfg = SpliceScanConfig::default();
    cfg.min_event_len = get(&flags, "min-event", cfg.min_event_len)?;
    let events = detect_splice_events(&ests, &labels, &cfg);
    println!("long_read\tshort_read\tcluster\tevent_len\tleft_flank\tright_flank");
    for e in &events {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            ids[e.long_read],
            ids[e.short_read],
            e.cluster,
            e.event_len,
            e.left_flank,
            e.right_flank
        );
    }
    eprintln!("{} candidate splice events", events.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The `--flag` names the USAGE block of `pace <command>` lists: its
    /// first line and the continuation lines up to the next command.
    fn usage_flags(command: &str) -> BTreeSet<&'static str> {
        let head = format!("  pace {command} ");
        USAGE
            .lines()
            .skip_while(|l| !l.starts_with(&head))
            .enumerate()
            .take_while(|&(i, l)| i == 0 || !l.trim_start().starts_with("pace "))
            .flat_map(|(_, l)| l.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
            .filter_map(|word| word.strip_prefix("--"))
            .collect()
    }

    #[test]
    fn usage_lists_exactly_each_subcommands_flags() {
        for (command, table) in [
            ("simulate", SIMULATE_FLAGS),
            ("cluster", CLUSTER_FLAGS),
            ("assess", ASSESS_FLAGS),
            ("splice", SPLICE_FLAGS),
            ("stats", STATS_FLAGS),
            ("serve", SERVE_FLAGS),
            ("ingest", INGEST_FLAGS),
            ("query", QUERY_FLAGS),
        ] {
            let table: BTreeSet<&str> = table.iter().copied().collect();
            assert_eq!(usage_flags(command), table, "pace {command}");
        }
    }
}
