//! Load generator for the `paced` clustering daemon.
//!
//! Starts a daemon on a scratch Unix socket, then drives it the way the
//! paper's pipeline never was: **continuous ingest** (a writer thread
//! folding fixed-seed EST batches) under **thousands of concurrent
//! query clients**, each with its own connection, hammering
//! member/cluster/stats lookups the whole time. At the end it verifies
//! the daemon's partition is exactly what a one-shot batch run over the
//! same data produces (the serve-identity anchor), and appends a
//! trajectory entry to `BENCH_serve.json` with client-observed latency
//! quantiles, ingest throughput and its provenance (`git_sha`, `nproc`,
//! `rustc`).
//!
//! Knobs (environment):
//! - `PACE_LOADGEN_CLIENTS`  concurrent query clients (default 1000)
//! - `PACE_LOADGEN_QUERIES`  queries per client (default 40)
//! - `PACE_LOADGEN_ESTS`     total ESTs ingested (default 600)
//! - `PACE_LOADGEN_BATCHES`  ingest batches (default 12)
//! - `PACE_BENCH_TRAJECTORY` output path (default `BENCH_serve.json`)

use pace_obs::{Json, LogQuantile, Obs};
use pace_serve::{Client, Request, Response, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn env_usize(name: &str, default: usize, min: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= min)
        .unwrap_or(default)
}

fn cfg() -> pace_cluster::ClusterConfig {
    let mut c = pace_cluster::ClusterConfig::small();
    c.psi = 16;
    c.overlap.min_overlap_len = 40;
    c
}

fn main() {
    let clients = env_usize("PACE_LOADGEN_CLIENTS", 1000, 1);
    let queries_per_client = env_usize("PACE_LOADGEN_QUERIES", 40, 1);
    let num_ests = env_usize("PACE_LOADGEN_ESTS", 600, 50);
    let num_batches = env_usize("PACE_LOADGEN_BATCHES", 12, 1);

    println!("loadgen: {clients} clients x {queries_per_client} queries against continuous ingest");
    println!("         {num_ests} ESTs in {num_batches} batches, fixed seed");

    let ds = pace_simulate::generate(
        &pace_simulate::SimConfig {
            num_genes: (num_ests / 12).max(2),
            num_ests,
            est_len_mean: 220.0,
            est_len_sd: 25.0,
            est_len_min: 120,
            exon_len: (220, 400),
            exons_per_gene: (1, 2),
            seed: 9000,
            ..pace_simulate::SimConfig::default()
        }
        .error_free(),
    );

    let sock = std::env::temp_dir().join(format!("pace-loadgen-{}.sock", std::process::id()));
    let handle = Server::start(ServerConfig::new(&sock, cfg()), Obs::noop()).expect("start daemon");

    // --- Writer: fold batches continuously while clients query. -------
    let ingest_done = Arc::new(AtomicBool::new(false));
    let ests_folded = Arc::new(AtomicU64::new(0));
    let writer = {
        let sock = sock.clone();
        let done = ingest_done.clone();
        let folded = ests_folded.clone();
        let ests = ds.ests.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&sock, std::time::Duration::from_secs(5))
                .expect("writer connect");
            let per = ests.len().div_ceil(num_batches);
            let t0 = Instant::now();
            for (b, chunk) in ests.chunks(per).enumerate() {
                let base = b * per;
                let ids: Vec<String> = (base..base + chunk.len())
                    .map(|i| format!("est_{i}"))
                    .collect();
                client
                    .ingest(ids, chunk.to_vec())
                    .expect("ingest while serving");
                folded.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            }
            let secs = t0.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            secs
        })
    };

    // --- Readers: many concurrent clients, each its own connection. ---
    let t_query = Instant::now();
    let mut readers = Vec::with_capacity(clients);
    for c in 0..clients {
        let sock = sock.clone();
        let reader = std::thread::Builder::new()
            .stack_size(96 * 1024)
            .spawn(move || {
                let mut client =
                    Client::connect_with_retry(&sock, std::time::Duration::from_secs(30))
                        .expect("client connect");
                let mut lat_us: Vec<u64> = Vec::with_capacity(queries_per_client);
                let mut hits = 0u64;
                for q in 0..queries_per_client {
                    // Deterministic query mix: mostly membership lookups
                    // (some against ids not ingested yet — the daemon
                    // answers Err from the current snapshot), some
                    // cluster listings, some stats.
                    let pick = (c * 31 + q * 7) % 10;
                    let t0 = Instant::now();
                    let ok = match pick {
                        0 => matches!(client.call(&Request::Stats), Ok(Response::StatsReply(_))),
                        1 | 2 => {
                            let label = ((c + q * 13) % 50) as u64;
                            client.call(&Request::Cluster { label }).is_ok()
                        }
                        _ => {
                            let id = format!("est_{}", (c * 17 + q * 3) % 600);
                            client.call(&Request::Member { id }).is_ok()
                        }
                    };
                    lat_us.push(t0.elapsed().as_micros() as u64);
                    hits += ok as u64;
                }
                (lat_us, hits)
            })
            .expect("spawn client");
        readers.push(reader);
    }

    let mut all_lat = LogQuantile::new();
    let mut total_queries = 0u64;
    let mut total_ok = 0u64;
    for reader in readers {
        let (lat_us, hits) = reader.join().expect("client thread");
        total_queries += lat_us.len() as u64;
        total_ok += hits;
        for us in lat_us {
            all_lat.observe(us as f64);
        }
    }
    let query_wall = t_query.elapsed().as_secs_f64();
    let ingest_secs = writer.join().expect("writer thread");
    assert!(ingest_done.load(Ordering::SeqCst));

    // --- Identity anchor: daemon partition == one-shot batch run. -----
    let mut probe = Client::connect(&sock).expect("probe connect");
    let daemon_labels: Vec<u64> = (0..ds.ests.len())
        .map(|i| probe.member(&format!("est_{i}")).expect("member").1)
        .collect();
    let store = pace_seq::SequenceStore::from_ests(&ds.ests).expect("store");
    let batch = pace_cluster::cluster_sequential(&store, &cfg());
    let canon = |labels: &[u64]| -> Vec<u64> {
        let mut map = std::collections::HashMap::new();
        let mut next = 0u64;
        labels
            .iter()
            .map(|&l| {
                *map.entry(l).or_insert_with(|| {
                    let v = next;
                    next += 1;
                    v
                })
            })
            .collect()
    };
    let batch_labels: Vec<u64> = batch.labels.iter().map(|&l| l as u64).collect();
    assert_eq!(
        canon(&daemon_labels),
        canon(&batch_labels),
        "daemon partition diverged from the one-shot batch run"
    );
    println!(
        "identity: daemon partition == one-shot batch run ({} clusters)",
        batch.num_clusters
    );

    let stats = handle.stop().expect("stop daemon");
    let (p50, p90, p99) = all_lat.p50_p90_p99();
    let folded = ests_folded.load(Ordering::Relaxed);
    let ingest_rate = folded as f64 / ingest_secs.max(1e-9);
    let qps = total_queries as f64 / query_wall.max(1e-9);

    println!(
        "queries: {total_queries} total ({total_ok} ok) from {clients} clients in {query_wall:.2}s ({qps:.0}/s)"
    );
    println!("latency (client-observed): p50 {p50:.0}µs  p90 {p90:.0}µs  p99 {p99:.0}µs");
    println!(
        "server side: p50 {:.0}µs  p99 {:.0}µs over {} queries",
        stats.query_p50_us, stats.query_p99_us, stats.queries
    );
    println!("ingest: {folded} ESTs in {ingest_secs:.2}s while serving ({ingest_rate:.0} ESTs/s)");

    // --- Trajectory artifact. -----------------------------------------
    let out = std::env::var("PACE_BENCH_TRAJECTORY").unwrap_or_else(|_| "BENCH_serve.json".into());
    let fields = [
        ("bench", Json::Str("serve_loadgen".into())),
        ("clients", Json::Num(clients as f64)),
        ("queries", Json::Num(total_queries as f64)),
        ("queries_ok", Json::Num(total_ok as f64)),
        ("qps", Json::Num(qps)),
        ("query_p50_us", Json::Num(p50)),
        ("query_p90_us", Json::Num(p90)),
        ("query_p99_us", Json::Num(p99)),
        ("serve_query_p99_us", Json::Num(stats.query_p99_us)),
        ("ingest_ests", Json::Num(folded as f64)),
        ("ingest_secs", Json::Num(ingest_secs)),
        ("ingest_ests_per_sec", Json::Num(ingest_rate)),
        ("num_ests", Json::Num(stats.num_ests as f64)),
        ("num_clusters", Json::Num(stats.num_clusters as f64)),
        ("identity_ok", Json::Bool(true)),
    ];
    let entry = Json::obj(fields.into_iter().chain(pace_bench::provenance()));
    let mut history = std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| pace_obs::json::parse(&s).ok())
        .and_then(|j| j.as_arr().map(<[Json]>::to_vec))
        .unwrap_or_default();
    history.push(entry);
    std::fs::write(&out, Json::Arr(history).to_line()).expect("writing trajectory");
    println!("appended trajectory entry to {out}");

    let _ = std::fs::remove_file(&sock);
}
