//! The PaCE benchmark: two workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced replay.
//!
//! * `library_seq` — the paper's benchmark library through the
//!   sequential driver (the `pace cluster` default path).
//! * `daemon_ingest` — ingest a fixed number of batches into a freshly
//!   preloaded `pace-serve` daemon, with a reader querying each new
//!   snapshot; the cycle repeats until the time is up.
//!
//! The traced run (`--trace 1`) times the public calls into each crate
//! from this package; nothing inside the program is instrumented. It
//! also reports the query latencies of a `pace-serve` daemon serving the
//! workload's partition.

pub mod batch;
pub mod daemon;
pub mod load;
pub mod replay;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LibrarySeq,
    DaemonIngest,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::LibrarySeq, Workload::DaemonIngest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LibrarySeq => "library_seq",
            Workload::DaemonIngest => "daemon_ingest",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::tiny`] exercises every code path in a second or two.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// ESTs in the `library_seq` input.
    pub library_ests: usize,
    /// ESTs the daemon holds before the timed ingest starts.
    pub preload_ests: usize,
    /// ESTs per ingest batch.
    pub batch_ests: usize,
    /// Batches one daemon cycle ingests after its preload.
    pub cycle_batches: usize,
    /// Seconds of repeated set-up before each `library_seq` clustering
    /// call (at least one set-up).
    pub setup_slice_s: f64,
    /// Aligned pairs replayed through each kernel pair for the ratios.
    pub kernel_pairs: usize,
    /// Timed passes per kernel in the ratio measurement.
    pub kernel_rounds: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            library_ests: 2000,
            preload_ests: 500,
            batch_ests: 10,
            cycle_batches: 4,
            setup_slice_s: 0.25,
            kernel_pairs: 4000,
            kernel_rounds: 3,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            library_ests: 120,
            preload_ests: 60,
            batch_ests: 5,
            cycle_batches: 3,
            setup_slice_s: 0.0,
            kernel_pairs: 200,
            kernel_rounds: 1,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch directory for the daemon's socket and checkpoints. A
    /// relative path keeps the socket path short.
    pub work_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Provenance and sizes, as `(key, value)` pairs.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn tally(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 20 {
            self.failures.push(format!("{failed} of {n} {what} failed"));
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Run one workload.
pub fn run(opts: &Opts) -> std::io::Result<Outcome> {
    std::fs::create_dir_all(&opts.work_dir)?;
    let mut out = Outcome::default();
    out.info("workload", opts.workload.name());
    out.info("seed", opts.seed);
    out.info("trace", u8::from(opts.trace));
    let result = match opts.workload {
        Workload::LibrarySeq => batch::run(opts, &mut out),
        Workload::DaemonIngest => daemon::run(opts, &mut out),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    result.map(|()| out)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Time `f`, adding its wall time to `acc`.
#[inline]
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    *acc += secs(t0);
    r
}

/// Median of `v` (sorts it). 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The reported set-up time: the fastest of the set-ups sampled across
/// the run. Contention from other tenants of a shared host slows single
/// set-ups by up to 1.7×, in states lasting seconds; the median of such
/// samples follows the share of the run spent contended, which moves
/// from run to run (a ten-seed spread near 0.4 on `library_seq`). The
/// fastest set-up only needs one sample in the uncontended state.
pub fn setup_s(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile of `v` (sorts it). 0 for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's high-water resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Relabel a partition by first occurrence, so equal partitions compare
/// equal whatever labels their drivers chose.
pub fn canonical(labels: &[usize]) -> Vec<usize> {
    let mut first: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = first.len();
            *first.entry(l).or_insert(next)
        })
        .collect()
}

/// EST ids the benchmark hands to the daemon: `est<i>` for index `i`.
pub fn est_id(i: usize) -> String {
    format!("est{i}")
}
