//! Every workload, untraced and traced, at a tiny size: it completes
//! with no failed operation and reports exactly the metrics that
//! BENCHMARK.json declares for its mode.

use pace_obs::json::{parse, Json};
use pace_perfbench::{run, Opts, Sizes, Workload};
use std::path::PathBuf;

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = doc
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

fn check(workload: Workload, trace: bool) {
    let opts = Opts {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        sizes: Sizes::tiny(),
        work_dir: PathBuf::from(".perfbench_work").join(format!(
            "test-{}-{}",
            workload.name(),
            u8::from(trace)
        )),
    };
    let out = run(&opts).expect("workload runs");
    assert_eq!(out.failed, 0, "failures: {:?}", out.failures);
    assert!(out.correct(), "non-finite metric in {:?}", out.metrics);
    assert!(out.attempted > 0);
    let mut names: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
    names.sort();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(
        names,
        declared(section),
        "{} trace={trace}",
        workload.name()
    );
    let line = out.result_json();
    let doc = parse(&line).expect("result line is JSON");
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
}

#[test]
fn library_seq_end_to_end() {
    check(Workload::LibrarySeq, false);
}

#[test]
fn library_seq_traced() {
    check(Workload::LibrarySeq, true);
}

#[test]
fn daemon_ingest_end_to_end() {
    check(Workload::DaemonIngest, false);
}

#[test]
fn daemon_ingest_traced() {
    check(Workload::DaemonIngest, true);
}
