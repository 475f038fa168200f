//! Integration tests for the `pace` command-line binary: the full
//! simulate → cluster → assess → splice round trip through real files
//! and process boundaries.

use std::path::PathBuf;
use std::process::Command;

fn pace_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pace"))
}

fn tmp(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("pace-cli-test-{}-{name}", std::process::id()));
    dir
}

#[test]
fn simulate_cluster_assess_roundtrip() {
    let reads = tmp("reads.fa");
    let truth = tmp("truth.tsv");
    let clusters = tmp("clusters.tsv");

    let out = pace_bin()
        .args(["simulate", "--ests", "200", "--seed", "9"])
        .arg("--out")
        .arg(&reads)
        .arg("--truth")
        .arg(&truth)
        .output()
        .expect("spawn pace simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(reads.exists() && truth.exists());

    let out = pace_bin()
        .args(["cluster", "--procs", "2"])
        .arg("--in")
        .arg(&reads)
        .arg("--out")
        .arg(&clusters)
        .arg("--truth")
        .arg(&truth)
        .output()
        .expect("spawn pace cluster");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("quality"), "no quality line: {stderr}");

    // The label file covers every EST exactly once, in order.
    let labels = std::fs::read_to_string(&clusters).unwrap();
    let lines: Vec<&str> = labels.lines().collect();
    assert_eq!(lines.len(), 200);
    assert!(lines[0].starts_with("est_0\t"));
    assert!(lines[199].starts_with("est_199\t"));

    let out = pace_bin()
        .arg("assess")
        .arg("--pred")
        .arg(&clusters)
        .arg("--truth")
        .arg(&truth)
        .output()
        .expect("spawn pace assess");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OQ"), "{stdout}");
    assert!(stdout.contains("TP"), "{stdout}");

    let out = pace_bin()
        .arg("splice")
        .arg("--in")
        .arg(&reads)
        .arg("--clusters")
        .arg(&clusters)
        .output()
        .expect("spawn pace splice");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("long_read\t"), "{stdout}");

    for f in [reads, truth, clusters] {
        let _ = std::fs::remove_file(f);
    }
}

/// The sequential run's stderr summary prints every phase of the
/// metrics report, `pair_generation` included, and each printed time is
/// that phase's `timers.<phase>.max` to the printed precision.
#[test]
fn sequential_summary_matches_the_metrics_report() {
    let reads = tmp("summary_reads.fa");
    let clusters = tmp("summary_clusters.tsv");
    let metrics = tmp("summary_metrics.json");
    let out = pace_bin()
        .args(["simulate", "--ests", "150", "--seed", "5"])
        .arg("--out")
        .arg(&reads)
        .output()
        .expect("spawn pace simulate");
    assert!(out.status.success());

    let out = pace_bin()
        .arg("cluster")
        .arg("--in")
        .arg(&reads)
        .arg("--out")
        .arg(&clusters)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("spawn pace cluster");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    // The phase table: a `phase max (s) samples` header, then one
    // `name max count` row per phase.
    let printed: Vec<(&str, f64)> = stderr
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("phase "))
        .skip(1)
        .map_while(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [phase, secs, count] if count.parse::<u64>().is_ok() => {
                Some((phase, secs.parse().expect("seconds")))
            }
            _ => None,
        })
        .collect();

    let doc = pace::obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let Some(pace::obs::Json::Obj(timers)) = doc.get("timers") else {
        panic!("metrics report has no timers object");
    };
    let reported: Vec<&str> = timers.iter().map(|(phase, _)| phase.as_str()).collect();
    let mut names: Vec<&str> = printed.iter().map(|&(phase, _)| phase).collect();
    assert!(names.contains(&"pair_generation"), "{stderr}");
    names.sort_unstable();
    assert_eq!(names, reported, "summary and report list different phases");
    for (phase, secs) in printed {
        let max = doc
            .get("timers")
            .and_then(|t| t.get(phase))
            .and_then(|t| t.get("max"))
            .and_then(pace::obs::Json::as_f64)
            .unwrap();
        assert!(
            (secs - max).abs() <= 0.0005 + 1e-9,
            "{phase}: summary prints {secs}, report max is {max}"
        );
    }
    for f in [reads, clusters, metrics] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = pace_bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn missing_required_flag_is_reported() {
    let out = pace_bin()
        .args(["cluster", "--procs", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--in"), "{stderr}");
}

/// Bad flags and bad worlds fail loudly with exit status 1 and an error
/// naming the culprit — never a silent default.
#[test]
fn cluster_rejects_bad_flags_and_too_small_worlds() {
    let reads = tmp("flags.fa");
    let clusters = tmp("flags.tsv");
    let ckpt = tmp("flags-ckpt");
    let out = pace_bin()
        .args(["simulate", "--ests", "40", "--seed", "3"])
        .arg("--out")
        .arg(&reads)
        .output()
        .expect("spawn pace simulate");
    assert!(out.status.success());

    let ckpt_arg = ckpt.to_str().unwrap();
    let cases: [(&[&str], &str); 4] = [
        (&["--bogus-flag", "7"], "--bogus-flag"),
        (&["--psi", "20", "--psi", "22"], "--psi"),
        (&["--procs", "1", "--shards", "2"], "shards"),
        (
            &[
                "--procs",
                "1",
                "--shards",
                "2",
                "--checkpoint-dir",
                ckpt_arg,
            ],
            "shards",
        ),
    ];
    for (extra, culprit) in cases {
        let out = pace_bin()
            .arg("cluster")
            .arg("--in")
            .arg(&reads)
            .arg("--out")
            .arg(&clusters)
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?} accepted: {stderr}");
        assert!(stderr.contains(culprit), "{extra:?}: {stderr}");
    }
    let _ = std::fs::remove_file(reads);
    let _ = std::fs::remove_file(clusters);
    let _ = std::fs::remove_dir_all(ckpt);
}

#[test]
fn cluster_rejects_missing_file() {
    let out = pace_bin()
        .args([
            "cluster",
            "--in",
            "/nonexistent/reads.fa",
            "--out",
            "/tmp/x",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn assess_rejects_mismatched_files() {
    let a = tmp("a.tsv");
    let b = tmp("b.tsv");
    std::fs::write(&a, "est_0\t1\nest_1\t1\n").unwrap();
    std::fs::write(&b, "est_0\t1\nest_2\t1\n").unwrap();
    let out = pace_bin()
        .arg("assess")
        .arg("--pred")
        .arg(&a)
        .arg("--truth")
        .arg(&b)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
}
