//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload library_seq --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the run's provenance, every metric with its unit, and as the
//! last line one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics.

use pace_perfbench::{run, Opts, Sizes, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: pace-perfbench --workload <library_seq|daemon_ingest> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Opts {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes: Sizes::full(),
        work_dir: PathBuf::from(".perfbench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

/// First line of a command's standard output, if it runs.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before the run: the daemon pins the calling thread to one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(1);
        }
    };

    // Provenance. A checkout without `.git` has no SHA to report.
    let sha = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    outcome.info("git_sha", sha);
    outcome.info("nproc", nproc);
    outcome.info(
        "rustc",
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    );
    for (key, value) in &outcome.info {
        println!("info {key} = {value}");
    }
    for m in &outcome.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac = {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
