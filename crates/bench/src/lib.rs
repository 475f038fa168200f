//! Shared workloads and formatting for the benchmark harness.
//!
//! Every table and figure of the paper has a binary in `src/bin` that
//! regenerates it (`table1`–`table3`, `fig6a`–`fig8`, `ablations`), and
//! the criterion benches in `benches/` time the underlying kernels.
//!
//! ## Scaling
//!
//! The paper's runs use up to 81,414 ESTs of ~500–600 bases on a 128-CPU
//! IBM SP. The harness reproduces the *shape* of each experiment at a
//! configurable fraction of that size: every binary divides the paper's
//! EST counts by the scale factor `σ` (default 20, environment variable
//! `PACE_SCALE`), keeping read length, error rate and coverage per gene
//! realistic so the pair statistics behave like the original.

pub mod model;

use pace_cluster::{cluster_parallel_obs, ClusterConfig, ClusterResult};
use pace_obs::{Json, Obs, RegistrySnapshot};
use pace_seq::SequenceStore;
use pace_simulate::{EstDataset, SimConfig};
use std::collections::BTreeMap;

/// The paper's benchmark data set sizes (Arabidopsis subsets).
pub const PAPER_SIZES: [usize; 4] = [10_051, 30_000, 60_018, 81_414];

/// The scale divisor σ: paper sizes are divided by this.
pub fn scale() -> usize {
    std::env::var("PACE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(20)
}

/// A paper size divided by the current scale (at least 60 ESTs).
pub fn scaled(n_paper: usize) -> usize {
    (n_paper / scale()).max(60)
}

/// Threads available for the `p` sweeps.
pub fn max_ranks() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Generate the benchmark data set for `n` ESTs: full-length reads
/// (~550 bases), 2% sequencing error, both strands, genomic repeats and
/// a trickle of chimeric reads — the library artifacts that give real
/// EST clustering its over-prediction floor (the paper's non-zero OV
/// column). Expression is a flattened Zipf, modeling the *normalized*
/// cDNA libraries EST projects sequenced (normalization suppresses the
/// head transcripts precisely so coverage spreads — and it also bounds
/// the damage any single chimera can do, which is what keeps real OV in
/// the single digits).
pub fn dataset(n: usize, seed: u64) -> EstDataset {
    let cfg = SimConfig {
        chimera_prob: 0.002,
        expression: pace_simulate::Expression::Zipf(0.6),
        ..SimConfig::sized(n, seed)
    };
    pace_simulate::generate(&cfg)
}

/// The clustering configuration used throughout the harness: the paper's
/// settings (window 8, ψ 20, batchsize 60).
pub fn paper_cfg() -> ClusterConfig {
    ClusterConfig::default()
}

/// Seconds per phase name, as read off a registry snapshot.
pub type PhaseTimes = BTreeMap<String, f64>;

/// Each recorded phase's critical path in `snap`: its max over ranks,
/// the figure Table 3 reports.
pub fn critical_path(snap: &RegistrySnapshot) -> PhaseTimes {
    snap.phases
        .iter()
        .map(|(phase, agg)| (phase.clone(), agg.max))
        .collect()
}

/// Cluster `store` on `p` ranks (the sequential driver at `p ≤ 1`) and
/// return the result with the run's phase times; `total` is the wall
/// clock.
pub fn timed_run(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    p: usize,
) -> (ClusterResult, PhaseTimes) {
    let obs = Obs::noop();
    let (result, _) = cluster_parallel_obs(store, cfg, p, &obs);
    (result, critical_path(&obs.registry().snapshot()))
}

/// If `PACE_METRICS_DIR` is set, write the schema-versioned metrics
/// report for one instrumented run to `<dir>/<tag>.json` — the same
/// `pace_obs::report` document the CLI's `--metrics-out` produces. Meta
/// entries are `(key, value)` pairs stored under the report's `"meta"`
/// object; numbers should be passed as `Json::Num`. The directory is
/// created if missing; failures are reported on stderr but never abort
/// a benchmark.
pub fn maybe_write_metrics(tag: &str, obs: &Obs, meta: Vec<(String, Json)>) {
    let Ok(dir) = std::env::var("PACE_METRICS_DIR") else {
        return;
    };
    let doc = pace_obs::report::to_json(&obs.registry().snapshot(), meta);
    let path = std::path::Path::new(&dir).join(format!("{tag}.json"));
    let write = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, pace_obs::report::to_pretty_string(&doc)));
    match write {
        Ok(()) => eprintln!("[metrics] wrote {}", path.display()),
        Err(e) => eprintln!("[metrics] could not write {}: {e}", path.display()),
    }
}

/// Provenance for one trajectory entry, so entries compare across
/// commits and hosts: `git_sha` (the commit checked out in the working
/// directory, `"unknown"` where it has no `.git`), `nproc` (logical CPUs)
/// and `rustc` (the compiler's version line, `"unknown"` if it cannot be
/// run).
pub fn provenance() -> [(&'static str, Json); 3] {
    let line = |cmd: &str, args: &[&str]| -> Option<String> {
        let out = std::process::Command::new(cmd).args(args).output().ok()?;
        let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
        (out.status.success() && !text.is_empty()).then_some(text)
    };
    let sha = std::path::Path::new(".git")
        .exists()
        .then(|| line("git", &["rev-parse", "HEAD"]))
        .flatten();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = line("rustc", &["--version"]);
    let unknown = || "unknown".to_string();
    [
        ("git_sha", Json::Str(sha.unwrap_or_else(unknown))),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(rustc.unwrap_or_else(unknown))),
    ]
}

/// Pretty horizontal rule for table output.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Format seconds compactly.
pub fn secs(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}s")
    } else if t >= 1.0 {
        format!("{t:.1}s")
    } else {
        format!("{:.0}ms", t * 1000.0)
    }
}

/// Format a byte count as MB.
pub fn megabytes(bytes: usize) -> String {
    format!("{:.1} MB", bytes as f64 / (1024.0 * 1024.0))
}

/// Standard experiment banner: what the paper reported and how we scale.
pub fn banner(title: &str, paper_note: &str) {
    println!("{}", rule(72));
    println!("{title}");
    println!("paper: {paper_note}");
    println!(
        "this run: scale 1/{} of the paper's EST counts ({} hardware threads)",
        scale(),
        max_ranks()
    );
    println!("{}", rule(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_names_commit_cpus_and_compiler() {
        let stamp = provenance();
        let keys: Vec<&str> = stamp.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["git_sha", "nproc", "rustc"]);
        for (key, value) in &stamp {
            match value {
                Json::Str(text) => assert!(!text.is_empty(), "{key} is empty"),
                Json::Num(n) => assert!(*n >= 0.0, "{key} = {n}"),
                other => panic!("{key} = {other:?}"),
            }
        }
    }

    #[test]
    fn scaled_sizes_are_sane() {
        for n in PAPER_SIZES {
            assert!(scaled(n) >= 60);
            assert!(scaled(n) <= n);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(0.5), "500ms");
        assert_eq!(secs(2.25), "2.2s");
        assert_eq!(secs(123.0), "123s");
        assert_eq!(megabytes(1024 * 1024), "1.0 MB");
        assert_eq!(rule(3), "---");
    }

    #[test]
    fn dataset_matches_request() {
        let ds = dataset(80, 5);
        assert_eq!(ds.len(), 80);
        // Full-length reads: mean ~550.
        let mean = ds.total_bases() as f64 / ds.len() as f64;
        assert!((450.0..650.0).contains(&mean), "mean read length {mean}");
    }
}
