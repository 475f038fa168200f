//! `pace-trace` — offline analyzer for timelines recorded with
//! `pace cluster --trace-out FILE`.
//!
//! ```text
//! pace-trace TRACE.json            human-readable report
//! pace-trace TRACE.json --json     machine-readable analysis document
//! pace-trace TRACE.json --check    validate structural invariants;
//!                                  exit 1 and list violations if any fail
//! ```
//!
//! The report covers the run's critical path (the longest causal chain
//! of work spans, stitched across ranks by the dispatch→report flow
//! arrows), a per-rank utilization/idle/stall breakdown, a straggler
//! ranking, per-span-name duration quantiles, and the count of each
//! instant name over all ranks (`merge`, `resend`, `fault.*`, …). The
//! input is the Chrome-tracing/Perfetto JSON the engine exports — the
//! same file loads in `ui.perfetto.dev`.
//!
//! Multiple files merge into one timeline before analysis. This is how
//! a `--transport uds` run is stitched back together: the master
//! exports `trace.json` and each worker process exports
//! `trace.json.rankN.json` (already shifted onto the master's clock by
//! the rendezvous handshake), so
//! `pace-trace trace.json trace.json.rank*.json` analyzes the
//! cross-process run as if it had been one process.

use pace::obs::trace::{analysis_to_json, analyze, Analysis, TraceDoc};
use std::process::ExitCode;

const USAGE: &str = "\
pace-trace — analyze a PaCE trace timeline

USAGE:
  pace-trace TRACE.json [MORE.json ...] [--json] [--check] [--top N]

  Multiple trace files (e.g. a uds run's per-process exports) are
  merged into one timeline before analysis.

  --json    print the analysis as JSON instead of the report
  --check   exit non-zero if any structural invariant is violated
  --top N   rows in the straggler ranking (default 8)";

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("pace-trace: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<&str> = Vec::new();
    let mut json_mode = false;
    let mut check_mode = false;
    let mut top = 8usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_mode = true,
            "--check" => check_mode = true,
            "--top" => {
                let v = it.next().ok_or("--top requires a value")?;
                top = v.parse().map_err(|_| format!("--top: bad value {v:?}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if !other.starts_with('-') => paths.push(other),
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    if paths.is_empty() {
        return Err(format!("missing trace file\n{USAGE}"));
    }

    let mut merged: Option<TraceDoc> = None;
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc =
            pace::obs::json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        let trace = TraceDoc::from_chrome_json(&doc).map_err(|e| format!("{path}: {e}"))?;
        match &mut merged {
            None => merged = Some(trace),
            Some(m) => m.merge(trace).map_err(|e| format!("merging {path}: {e}"))?,
        }
    }
    let trace = merged.expect("at least one trace file");
    if paths.len() > 1 && !json_mode {
        println!("merged {} trace files into one timeline", paths.len());
    }
    let analysis = analyze(&trace);

    if json_mode {
        println!(
            "{}",
            pace::obs::report::to_pretty_string(&analysis_to_json(&analysis))
        );
    } else {
        print_report(&analysis, top);
    }

    if check_mode {
        let violations = analysis.check_invariants();
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("pace-trace: invariant violated: {v}");
            }
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("pace-trace: all invariants hold");
    }
    Ok(ExitCode::SUCCESS)
}

fn print_report(a: &Analysis, top: usize) {
    println!("wall clock      : {:>10.3}s", a.wall_secs);
    let pct = if a.wall_secs > 0.0 {
        100.0 * a.critical_path_secs / a.wall_secs
    } else {
        0.0
    };
    println!(
        "critical path   : {:>10.3}s  ({pct:.1}% of wall, {} steps)",
        a.critical_path_secs,
        a.critical_path.len()
    );
    println!(
        "flows           : {} total, {} resolved, {} unresolved, {} orphan ends",
        a.flows_total, a.flows_resolved, a.flows_unresolved, a.flows_orphan_ends
    );

    println!("\nper-rank breakdown:");
    println!("  rank   busy(s)   idle(s)  stall(s)   util  max-gap(s)  spans  role");
    for r in &a.ranks {
        let role = if a.coordinators.contains(&r.rank) {
            "master"
        } else {
            ""
        };
        println!(
            "  {:>4} {:>9.3} {:>9.3} {:>9.3} {:>5.1}% {:>11.3} {:>6}  {role}",
            r.rank,
            r.busy_secs,
            r.idle_secs,
            r.stall_secs,
            100.0 * r.utilization,
            r.max_gap_secs,
            r.spans
        );
    }

    let ranking = a.straggler_ranking();
    println!("\nstraggler ranking (worst first):");
    println!("  rank  score(s)  stall(s)  max-gap(s)");
    for r in ranking.iter().take(top) {
        println!(
            "  {:>4} {:>9.3} {:>9.3} {:>11.3}",
            r.rank,
            r.straggler_score(),
            r.stall_secs,
            r.max_gap_secs
        );
    }

    if !a.quantiles.is_empty() {
        println!("\nspan durations (seconds; log-bucket estimates):");
        println!(
            "  {:<16} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "span", "count", "p50", "p90", "p99", "max"
        );
        for (name, q) in &a.quantiles {
            println!(
                "  {:<16} {:>7} {:>10.6} {:>10.6} {:>10.6} {:>10.6}",
                name, q.count, q.p50, q.p90, q.p99, q.max
            );
        }
    }

    if !a.instants.is_empty() {
        println!("\ninstants (all ranks):");
        for (name, n) in &a.instants {
            println!("  {name:<16} {n:>7}");
        }
    }

    if !a.critical_path.is_empty() {
        println!("\ncritical path:");
        let n = a.critical_path.len();
        let row = |s: &pace::obs::trace::CriticalStep| {
            println!(
                "  t+{:>9.3}s  rank {:>3}  {:<16} {:>9.3}s",
                s.t0_secs, s.rank, s.name, s.dur_secs
            );
        };
        if n <= 12 {
            a.critical_path.iter().for_each(row);
        } else {
            a.critical_path.iter().take(6).for_each(row);
            println!("  ... {} more steps ...", n - 12);
            a.critical_path.iter().skip(n - 6).for_each(row);
        }
    }
}
