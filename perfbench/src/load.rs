//! The daemon side shared by every workload: start an in-process
//! `pace-serve` daemon and drive a closed-loop reader with the query mix
//! 70% Member, 20% Cluster, 10% Stats.

use crate::{est_id, secs, Outcome};
use pace_cluster::ClusterConfig;
use pace_core::IncrementalClusterer;
use pace_serve::{Client, ReadView, Server, ServerConfig, ServerHandle};
use rand::rngs::SmallRng;
use rand::Rng;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A running daemon with its socket path.
pub struct Daemon {
    pub handle: ServerHandle,
    pub socket: PathBuf,
}

impl Daemon {
    /// Start a daemon on `<dir>/d.sock` that checkpoints every fold into
    /// `<dir>/ckpt` (and restores from there if a checkpoint exists).
    ///
    /// The calling thread is pinned to one CPU first, so the daemon's
    /// threads, which inherit its affinity, and the client run on that
    /// CPU. Each query hands off between a client and a daemon thread;
    /// left to the scheduler, the two land on one CPU or on two from
    /// connection to connection, and the query latency flips between
    /// about 9 and 17 µs. Folds and queries take turns, so one CPU is
    /// enough for both.
    pub fn start(dir: &Path, cfg: &ClusterConfig) -> io::Result<Daemon> {
        if let Err(e) = pin_to_current_cpu() {
            eprintln!("perfbench: cannot pin the daemon to one CPU: {e}");
        }
        std::fs::create_dir_all(dir)?;
        let socket = dir.join("d.sock");
        let mut sc = ServerConfig::new(&socket, cfg.clone());
        sc.checkpoint_dir = Some(dir.join("ckpt"));
        sc.checkpoint_every = 1;
        let handle = Server::start(sc, pace_obs::Obs::noop())?;
        Ok(Daemon { handle, socket })
    }

    pub fn connect(&self) -> io::Result<Client> {
        Client::connect_with_retry(&self.socket, Duration::from_secs(10))
    }

    pub fn stop(self) -> io::Result<()> {
        self.handle.stop().map(|_| ())
    }
}

/// Pin the calling thread, and every thread it starts afterwards, to the
/// CPU it is running on.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> io::Result<()> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A 1024-bit mask, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| io::Error::last_os_error())?;
    if cpu >= 64 * mask.len() {
        return Err(io::Error::other(format!("CPU {cpu} is beyond a cpu_set_t")));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; `mask` is a live buffer of
    // exactly `cpusetsize` bytes.
    let r = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if r == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> io::Result<()> {
    Err(io::Error::other(
        "CPU pinning is only implemented for Linux",
    ))
}

/// Client-observed query latencies, in µs, by request kind.
#[derive(Debug, Default)]
pub struct QueryLog {
    pub member_us: Vec<f64>,
    pub cluster_us: Vec<f64>,
    pub stats_us: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
}

impl QueryLog {
    pub fn count(&self) -> usize {
        self.member_us.len() + self.cluster_us.len() + self.stats_us.len()
    }

    pub fn all_us(&self) -> Vec<f64> {
        [&self.member_us, &self.cluster_us, &self.stats_us]
            .into_iter()
            .flatten()
            .copied()
            .collect()
    }

    /// Report the per-layer query metrics: latency over all kinds, the
    /// reader's throughput, and each kind's median latency.
    pub fn report(&self, out: &mut Outcome) {
        let mut all = self.all_us();
        out.metric("serve.query_p50_us", crate::quantile(&mut all, 0.50), "us");
        out.metric("serve.query_p99_us", crate::quantile(&mut all, 0.99), "us");
        out.metric(
            "serve.queries_per_s",
            crate::ratio(all.len() as f64, self.wall_s),
            "1/s",
        );
        out.info("queries", all.len());
        for (name, us) in [
            ("serve.member_p50_us", &self.member_us),
            ("serve.cluster_p50_us", &self.cluster_us),
            ("serve.stats_p50_us", &self.stats_us),
        ] {
            out.metric(name, crate::median(&mut us.clone()), "us");
        }
    }
}

/// Query in a closed loop until `stop()` says so, adding to `log`.
/// Member queries pick uniformly among the first `known` ESTs; a Cluster
/// query asks for the cluster of the last Member answer; Stats checks
/// pair-flow conservation in the snapshot. Every answer is checked.
pub fn query_loop(
    client: &mut Client,
    known: usize,
    rng: &mut SmallRng,
    log: &mut QueryLog,
    stop: impl Fn() -> bool,
) {
    // (EST index, its cluster label) from the last Member answer.
    let mut last: Option<(usize, u64)> = None;
    let t_start = Instant::now();
    while !stop() {
        match (rng.gen_range(0..10), last) {
            (7 | 8, Some((i, label))) => {
                let t0 = Instant::now();
                let r = client.cluster(label);
                log.cluster_us.push(secs(t0) * 1e6);
                let ok = match r {
                    Ok(ids) => ids.contains(&est_id(i)),
                    Err(_) => false,
                };
                if !ok {
                    log.failed += 1;
                }
            }
            (9, Some(_)) => {
                let t0 = Instant::now();
                let r = client.stats();
                log.stats_us.push(secs(t0) * 1e6);
                let ok = matches!(r, Ok(s) if s.num_ests == known as u64
                    && s.pairs_generated == s.pairs_processed + s.pairs_skipped);
                if !ok {
                    log.failed += 1;
                }
            }
            _ => {
                let i = rng.gen_range(0..known.max(1));
                let t0 = Instant::now();
                let r = client.member(&est_id(i));
                log.member_us.push(secs(t0) * 1e6);
                match r {
                    Ok((index, label, size))
                        if index == i as u64 && label <= index && size >= 1 =>
                    {
                        last = Some((i, label));
                    }
                    _ => log.failed += 1,
                }
            }
        }
    }
    log.wall_s += secs(t_start);
}

/// Each EST's canonical label as the daemon reports it, for `n` ESTs;
/// `None` if any Member query fails.
pub fn daemon_labels(client: &mut Client, n: usize) -> Option<Vec<usize>> {
    (0..n)
        .map(|i| {
            client
                .member(&est_id(i))
                .ok()
                .map(|(_, label, _)| label as usize)
        })
        .collect()
}

/// The daemon's view rebuild after a fold: labels, id and sequence
/// copies, then `ReadView::build`.
pub fn build_view(inc: &mut IncrementalClusterer, ingest_batches: u64) -> ReadView {
    let labels = inc.labels();
    ReadView::build(
        &labels,
        inc.ids().to_vec(),
        inc.ests().to_vec(),
        ingest_batches,
        inc.trace().len() as u64,
    )
}

/// Bytes in the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
