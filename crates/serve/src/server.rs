//! The daemon: accept loop, per-connection handlers, the single-writer
//! ingest path, and checkpoint plumbing.
//!
//! ## Concurrency model
//!
//! One writer, many readers:
//!
//! * **Ingest** is serialized through `Mutex<CoreState>`. A fold
//!   mutates the [`IncrementalClusterer`], optionally publishes a
//!   checkpoint, then builds a fresh [`ReadView`] and swaps it in. The
//!   `Ingested` reply is sent only after the swap, so a client that
//!   ingests and immediately queries (on any connection) sees its own
//!   batch.
//! * **Queries** clone the current `Arc<ReadView>` and answer entirely
//!   from that immutable snapshot — they never take the core lock and
//!   are never blocked by an in-flight fold.
//!
//! Each accepted connection gets its own handler thread (blocking
//! reads, small stack). Handler threads are detached: they exit on
//! client EOF, protocol error, or process exit. The accept loop is
//! non-blocking and polls the shutdown flag and [`pace_core::signals`]
//! so both a `Shutdown` request and a SIGTERM stop the daemon promptly
//! — in both cases it publishes a final checkpoint before returning.

use crate::checkpoint::{load_state, save_state};
use crate::proto::{Request, Response, ServeStats, PROTO_VERSION};
use crate::view::ReadView;
use pace_cluster::ClusterConfig;
use pace_core::{signals, IncrementalClusterer};
use pace_obs::{metric, LogQuantile, Obs};
use pace_wire::{read_frame, write_frame, Wire};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Recover the guard from a poisoned mutex.
///
/// A handler thread that panics while holding one of the daemon's locks
/// poisons it; `.lock().unwrap()` would then propagate the panic into
/// every other handler and the accept loop, turning one bad request
/// into a dead daemon. The data under the view/latency locks cannot be
/// torn (an `Arc` swap, a quantile sketch observation), so recovery is
/// unconditionally safe there. The *core* lock is different — a fold
/// may have died halfway through a mutation — so its callers also
/// consult [`Shared::core_tainted`] before trusting the state.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket to listen on (created; stale files replaced).
    pub socket_path: PathBuf,
    /// Clustering parameters — must match across restarts (enforced by
    /// the checkpoint fingerprint).
    pub cluster: ClusterConfig,
    /// Per-fold GST build memory budget in bytes (0 = unlimited).
    pub memory_budget: u64,
    /// When set, fold state is checkpointed here and restored on start.
    pub checkpoint_dir: Option<PathBuf>,
    /// Publish a checkpoint every K folds (min 1). The daemon also
    /// checkpoints once more on shutdown.
    pub checkpoint_every: u64,
}

impl ServerConfig {
    /// A daemon on `socket_path` with the given clustering config, no
    /// persistence, checkpoint-every-fold defaults.
    pub fn new(socket_path: impl Into<PathBuf>, cluster: ClusterConfig) -> Self {
        ServerConfig {
            socket_path: socket_path.into(),
            cluster,
            memory_budget: 0,
            checkpoint_dir: None,
            checkpoint_every: 1,
        }
    }
}

/// Final serving statistics, returned by [`ServerHandle::stop`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Connections accepted (the registry's `serve.connections`).
    pub connections: u64,
    /// Queries answered (`serve.queries`).
    pub queries: u64,
    /// Ingest batches folded this process lifetime
    /// (`serve.ingest.batches`).
    pub ingests: u64,
    /// ESTs in the index at shutdown.
    pub num_ests: u64,
    /// Clusters at shutdown.
    pub num_clusters: u64,
    /// Query latency quantiles (µs) from the log-bucket sketch.
    pub query_p50_us: f64,
    /// 90th percentile query latency (µs).
    pub query_p90_us: f64,
    /// 99th percentile query latency (µs).
    pub query_p99_us: f64,
    /// Median ingest fold latency (µs).
    pub ingest_p50_us: f64,
    /// 99th percentile ingest fold latency (µs).
    pub ingest_p99_us: f64,
}

/// The writer-side state, serialized by one mutex.
struct CoreState {
    clusterer: IncrementalClusterer,
    /// Cumulative ingest batches (survives restarts via the checkpoint's
    /// `progress` section).
    ingest_batches: u64,
    folds_since_checkpoint: u64,
}

/// State shared by the accept loop and every handler thread.
struct Shared {
    cfg: ServerConfig,
    core: Mutex<CoreState>,
    view: Mutex<Arc<ReadView>>,
    shutdown: AtomicBool,
    query_lat: Mutex<LogQuantile>,
    ingest_lat: Mutex<LogQuantile>,
    /// Set when the core lock is found poisoned: a fold panicked while
    /// mutating the clusterer, so the writer-side state may be torn.
    /// Queries keep serving the last published view; further ingests
    /// are rejected; the final checkpoint is suppressed so a good
    /// on-disk snapshot is never overwritten with a suspect one.
    core_tainted: AtomicBool,
    started: Instant,
    obs: Obs,
}

impl Shared {
    /// The current value of one of the registry's `serve.*` counters.
    fn count(&self, name: &str) -> u64 {
        self.obs.registry().counter(name).get()
    }

    fn current_view(&self) -> Arc<ReadView> {
        lock_recover(&self.view).clone()
    }

    fn publish_view(&self, view: ReadView) {
        *lock_recover(&self.view) = Arc::new(view);
    }

    /// Take the core lock, recovering (and recording the taint) if a
    /// previous holder panicked.
    fn lock_core(&self) -> MutexGuard<'_, CoreState> {
        match self.core.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                if !self.core_tainted.swap(true, Ordering::SeqCst) {
                    self.obs.registry().add(metric::SERVE_ERRORS, 1);
                    eprintln!(
                        "paced: core state poisoned by a panicked fold; \
                         serving last view read-only, rejecting further ingests"
                    );
                }
                poisoned.into_inner()
            }
        }
    }

    fn build_view(core: &mut CoreState) -> ReadView {
        let labels = core.clusterer.labels();
        let mut view = ReadView::build(
            &labels,
            core.clusterer.ids().to_vec(),
            core.clusterer.ests().to_vec(),
            core.ingest_batches,
            core.clusterer.trace().len() as u64,
        );
        view.pairs_generated = core.clusterer.stats.pairs_generated;
        view.pairs_processed = core.clusterer.stats.pairs_processed;
        view.pairs_skipped = core.clusterer.stats.pairs_skipped;
        view
    }
}

/// A running daemon.
pub struct Server;

/// Handle to a running daemon: stop it, inspect it, wait for it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl Server {
    /// Start serving: restore from the checkpoint directory if one is
    /// there, bind the socket (replacing a stale file), and spawn the
    /// accept loop. Returns once the daemon is accepting connections.
    pub fn start(cfg: ServerConfig, obs: Obs) -> io::Result<ServerHandle> {
        let restored = match &cfg.checkpoint_dir {
            Some(dir) => load_state(dir, &cfg.cluster, cfg.memory_budget)
                .map_err(|e| io::Error::other(format!("restoring checkpoint: {e}")))?,
            None => None,
        };
        let (mut clusterer, ingest_batches) = match restored {
            Some((c, batches)) => (c, batches),
            None => (
                IncrementalClusterer::with_budget(cfg.cluster.clone(), cfg.memory_budget),
                0,
            ),
        };
        // Folds report into the daemon's registry like a batch run.
        clusterer.set_obs(obs.clone());
        let mut core = CoreState {
            clusterer,
            ingest_batches,
            folds_since_checkpoint: 0,
        };
        let initial_view = Shared::build_view(&mut core);

        // A stale socket file from a dead daemon would make bind fail;
        // a *live* daemon would still hold the listener, and replacing
        // its file is what the operator asked for by reusing the path.
        let _ = std::fs::remove_file(&cfg.socket_path);
        if let Some(parent) = cfg.socket_path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let listener = UnixListener::bind(&cfg.socket_path)?;
        listener.set_nonblocking(true)?;
        signals::install();

        let shared = Arc::new(Shared {
            cfg,
            core: Mutex::new(core),
            view: Mutex::new(Arc::new(initial_view)),
            shutdown: AtomicBool::new(false),
            query_lat: Mutex::new(LogQuantile::new()),
            ingest_lat: Mutex::new(LogQuantile::new()),
            core_tainted: AtomicBool::new(false),
            started: Instant::now(),
            obs,
        });

        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("paced-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;

        Ok(ServerHandle {
            shared,
            accept_thread: Some(accept_thread),
        })
    }
}

impl ServerHandle {
    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &std::path::Path {
        &self.shared.cfg.socket_path
    }

    /// Whether the daemon has begun shutting down (via request, signal,
    /// or [`Self::stop`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Stop the daemon (idempotent): close the accept loop, publish a
    /// final checkpoint, record `serve.*` metrics, and return the
    /// serving statistics.
    pub fn stop(mut self) -> io::Result<ServerStats> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.join_and_finalize()
    }

    /// Block until the daemon stops on its own (a `Shutdown` request or
    /// a fatal signal), then finalize like [`Self::stop`].
    ///
    /// The final checkpoint is published even when the accept loop
    /// exited on a signal — the `Err` then reports the signal, with
    /// durability already secured.
    pub fn wait(mut self) -> io::Result<ServerStats> {
        self.join_and_finalize()
    }

    fn join_and_finalize(&mut self) -> io::Result<ServerStats> {
        let accept_result = match self.accept_thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| io::Error::other("accept loop panicked"))?,
            None => Ok(()),
        };
        let stats = finalize(&self.shared);
        accept_result.map(|()| stats)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Final checkpoint + metrics, once the accept loop has exited.
fn finalize(shared: &Shared) -> ServerStats {
    let mut core = shared.lock_core();
    if shared.core_tainted.load(Ordering::SeqCst) {
        // Never let a torn clusterer overwrite the last good snapshot;
        // the operator restarts from that checkpoint instead.
        eprintln!("paced: core tainted by a panicked fold; final checkpoint suppressed");
    } else if let Some(dir) = &shared.cfg.checkpoint_dir {
        if core.folds_since_checkpoint > 0
            && save_state(dir, &core.clusterer, core.ingest_batches).is_ok()
        {
            core.folds_since_checkpoint = 0;
            shared.obs.registry().add(metric::SERVE_CHECKPOINTS, 1);
        }
    }
    let _ = std::fs::remove_file(&shared.cfg.socket_path);

    let reg = shared.obs.registry();
    let (qp50, qp90, qp99) = lock_recover(&shared.query_lat).p50_p90_p99();
    let (ip50, _ip90, ip99) = lock_recover(&shared.ingest_lat).p50_p90_p99();
    reg.set_gauge(metric::SERVE_QUERY_P50_US, qp50);
    reg.set_gauge(metric::SERVE_QUERY_P90_US, qp90);
    reg.set_gauge(metric::SERVE_QUERY_P99_US, qp99);
    reg.set_gauge(metric::SERVE_INGEST_P50_US, ip50);
    reg.set_gauge(metric::SERVE_INGEST_P99_US, ip99);

    ServerStats {
        connections: shared.count(metric::SERVE_CONNECTIONS),
        queries: shared.count(metric::SERVE_QUERIES),
        ingests: shared.count(metric::SERVE_INGEST_BATCHES),
        num_ests: core.clusterer.len() as u64,
        num_clusters: core.clusterer.num_clusters() as u64,
        query_p50_us: qp50,
        query_p90_us: qp90,
        query_p99_us: qp99,
        ingest_p50_us: ip50,
        ingest_p99_us: ip99,
    }
}

fn accept_loop(listener: UnixListener, shared: Arc<Shared>) -> io::Result<()> {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        if let Some(signum) = signals::pending() {
            // SIGTERM/SIGINT: stop accepting; finalize() checkpoints.
            shared.shutdown.store(true, Ordering::SeqCst);
            return Err(io::Error::other(format!("terminated by signal {signum}")));
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                shared.obs.registry().add(metric::SERVE_CONNECTIONS, 1);
                let conn_shared = shared.clone();
                // Detached handler; small stack — thousands may coexist.
                let _ = std::thread::Builder::new()
                    .name("paced-conn".into())
                    .stack_size(128 * 1024)
                    .spawn(move || handle_connection(stream, conn_shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Serve one connection until EOF, an unrecoverable frame error, or
/// daemon shutdown.
fn handle_connection(mut stream: UnixStream, shared: Arc<Shared>) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF
            Err(_) => return,   // CRC/length violation or torn read
        };
        let response = match Request::from_bytes(&payload) {
            Ok(req) => dispatch(req, &shared),
            Err(e) => {
                shared.obs.registry().add(metric::SERVE_ERRORS, 1);
                Response::Err {
                    msg: format!("bad request: {e}"),
                }
            }
        };
        if write_frame(&mut stream, &response.to_bytes()).is_err() {
            return;
        }
    }
}

/// Execute one request against the shared state.
fn dispatch(req: Request, shared: &Shared) -> Response {
    match req {
        Request::Ping => {
            let view = shared.current_view();
            note_query(shared, 0.0);
            Response::Pong {
                version: PROTO_VERSION,
                num_ests: view.num_ests() as u64,
            }
        }
        Request::Ingest { ids, seqs } => do_ingest(shared, ids, seqs),
        Request::Member { id } => {
            let t0 = Instant::now();
            let view = shared.current_view();
            let resp = match view.by_id.get(&id) {
                Some(&index) => {
                    let label = view.labels[index];
                    Response::Membership {
                        est_index: index as u64,
                        cluster_label: label,
                        cluster_size: view.members[&label].len() as u64,
                    }
                }
                None => {
                    shared.obs.registry().add(metric::SERVE_ERRORS, 1);
                    Response::Err {
                        msg: format!("no EST with id {id:?}"),
                    }
                }
            };
            note_query(shared, t0.elapsed().as_secs_f64() * 1e6);
            resp
        }
        Request::Cluster { label } => {
            let t0 = Instant::now();
            let view = shared.current_view();
            let resp = match view.members.get(&label) {
                Some(member_indices) => Response::ClusterMembers {
                    label,
                    ids: member_indices
                        .iter()
                        .map(|&i| view.ids[i].clone())
                        .collect(),
                },
                None => {
                    shared.obs.registry().add(metric::SERVE_ERRORS, 1);
                    Response::Err {
                        msg: format!("no cluster labelled {label}"),
                    }
                }
            };
            note_query(shared, t0.elapsed().as_secs_f64() * 1e6);
            resp
        }
        Request::Rep { label } => {
            let t0 = Instant::now();
            let view = shared.current_view();
            // The representative is the smallest-index member — which
            // is the label itself, by canonical labelling.
            let resp = if view.members.contains_key(&label) {
                let rep = label as usize;
                Response::Representative {
                    label,
                    id: view.ids[rep].clone(),
                    seq: view.seqs[rep].clone(),
                }
            } else {
                shared.obs.registry().add(metric::SERVE_ERRORS, 1);
                Response::Err {
                    msg: format!("no cluster labelled {label}"),
                }
            };
            note_query(shared, t0.elapsed().as_secs_f64() * 1e6);
            resp
        }
        Request::Stats => {
            let t0 = Instant::now();
            let view = shared.current_view();
            let resp = Response::StatsReply(ServeStats {
                num_ests: view.num_ests() as u64,
                num_clusters: view.num_clusters() as u64,
                ingest_batches: view.ingest_batches,
                trace_len: view.trace_len,
                pairs_generated: view.pairs_generated,
                pairs_processed: view.pairs_processed,
                pairs_skipped: view.pairs_skipped,
                queries_served: shared.count(metric::SERVE_QUERIES),
                uptime_us: shared.started.elapsed().as_micros() as u64,
            });
            note_query(shared, t0.elapsed().as_secs_f64() * 1e6);
            resp
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::Ok
        }
    }
}

fn note_query(shared: &Shared, micros: f64) {
    shared.obs.registry().add(metric::SERVE_QUERIES, 1);
    lock_recover(&shared.query_lat).observe(micros);
}

/// The single-writer ingest path: fold, checkpoint (maybe), publish the
/// new view, then reply.
fn do_ingest(shared: &Shared, ids: Vec<String>, seqs: Vec<Vec<u8>>) -> Response {
    let t0 = Instant::now();
    let mut core = shared.lock_core();
    if shared.core_tainted.load(Ordering::SeqCst) {
        shared.obs.registry().add(metric::SERVE_ERRORS, 1);
        return Response::Err {
            msg: "ingest rejected: core state tainted by an earlier fold panic; \
                  restart the daemon from its checkpoint"
                .into(),
        };
    }
    let summary = match core.clusterer.fold_batch(&ids, &seqs) {
        Ok(s) => s,
        Err(e) => {
            shared.obs.registry().add(metric::SERVE_ERRORS, 1);
            return Response::Err {
                msg: format!("ingest rejected: {e}"),
            };
        }
    };
    core.ingest_batches += 1;
    core.folds_since_checkpoint += 1;

    if let Some(dir) = &shared.cfg.checkpoint_dir {
        if core.folds_since_checkpoint >= shared.cfg.checkpoint_every.max(1) {
            match save_state(dir, &core.clusterer, core.ingest_batches) {
                Ok(_) => {
                    core.folds_since_checkpoint = 0;
                    shared.obs.registry().add(metric::SERVE_CHECKPOINTS, 1);
                }
                Err(e) => {
                    // Serving continues; durability degrades until the
                    // next successful checkpoint. Surface loudly.
                    eprintln!("paced: checkpoint failed: {e}");
                }
            }
        }
    }

    let view = Shared::build_view(&mut core);
    drop(core);
    shared.publish_view(view);

    let reg = shared.obs.registry();
    reg.add(metric::SERVE_INGEST_BATCHES, 1);
    reg.add(metric::SERVE_INGEST_ESTS, summary.new_ests as u64);
    lock_recover(&shared.ingest_lat).observe(t0.elapsed().as_secs_f64() * 1e6);

    Response::Ingested {
        new_ests: summary.new_ests as u64,
        total_ests: summary.total_ests as u64,
        num_clusters: summary.num_clusters as u64,
        merges: summary.merges,
        aligned: summary.aligned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pace-serve-poison-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_cluster_cfg() -> ClusterConfig {
        let mut c = ClusterConfig::small();
        c.psi = 16;
        c.overlap.min_overlap_len = 40;
        c
    }

    /// Deterministic pseudorandom DNA (LCG).
    fn lcg_dna(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                [b'A', b'C', b'G', b'T'][(x >> 33) as usize % 4]
            })
            .collect()
    }

    /// A fold that panics while holding the core lock must not take
    /// down query serving: the daemon keeps answering from the last
    /// published view, rejects further ingests with a clean error, and
    /// still stops without panicking (suppressing the final checkpoint
    /// rather than overwriting a good one with torn state).
    #[test]
    fn poisoned_core_keeps_serving_queries() {
        let dir = scratch("core");
        let sock = dir.join("paced.sock");
        let ckpt = dir.join("ckpt");
        let mut sc = ServerConfig::new(&sock, small_cluster_cfg());
        sc.checkpoint_dir = Some(ckpt.clone());
        let handle = Server::start(sc, Obs::noop()).expect("start daemon");
        let mut client =
            Client::connect_with_retry(&sock, Duration::from_secs(5)).expect("connect");

        // One good batch, checkpointed and queryable.
        let template = lcg_dna(99, 140);
        client
            .ingest(
                vec!["e0".into(), "e1".into()],
                vec![template[..90].to_vec(), template[40..].to_vec()],
            )
            .expect("first ingest");
        let (_, label, _) = client.member("e0").expect("member before poison");
        let snapshot_before =
            std::fs::read(ckpt.join(crate::checkpoint::SNAPSHOT_FILE)).expect("checkpoint written");

        // Simulate a fold dying halfway: panic while holding the core
        // lock, exactly what a bug inside fold_batch would do.
        let poisoner = handle.shared.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.core.lock().unwrap();
            panic!("simulated fold panic");
        })
        .join();

        // Queries still serve the last view (on a fresh connection too).
        let (_, label_after, size_after) = client.member("e0").expect("member after poison");
        assert_eq!(label_after, label);
        assert!(size_after >= 1);
        let mut fresh =
            Client::connect_with_retry(&sock, Duration::from_secs(5)).expect("reconnect");
        assert!(fresh.ping().is_ok(), "ping after poison");

        // Ingest is refused loudly instead of folding into torn state.
        let resp = client
            .call(&Request::Ingest {
                ids: vec!["e2".into()],
                seqs: vec![lcg_dna(7, 120)],
            })
            .expect("transport must survive");
        match resp {
            Response::Err { msg } => assert!(msg.contains("tainted"), "unexpected error: {msg}"),
            other => panic!("tainted ingest must be refused, got {other:?}"),
        }

        // stop() neither panics nor overwrites the good checkpoint.
        let stats = handle.stop().expect("clean stop");
        assert!(stats.queries >= 2);
        let snapshot_after = std::fs::read(ckpt.join(crate::checkpoint::SNAPSHOT_FILE))
            .expect("checkpoint still present");
        assert_eq!(
            snapshot_before, snapshot_after,
            "tainted shutdown must not rewrite the checkpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint directory in the older layout fails the start
    /// instead of serving an empty index beside the old state.
    #[test]
    fn start_refuses_an_older_checkpoint_layout() {
        let dir = scratch("older");
        let ckpt = dir.join("ckpt");
        std::fs::create_dir_all(&ckpt).unwrap();
        std::fs::write(ckpt.join("serve.manifest.json"), r#"{"generation":0}"#).unwrap();
        let mut sc = ServerConfig::new(dir.join("paced.sock"), small_cluster_cfg());
        sc.checkpoint_dir = Some(ckpt);
        let Err(err) = Server::start(sc, Obs::noop()) else {
            panic!("a daemon started beside an older checkpoint layout");
        };
        assert!(err.to_string().contains("serve.manifest.json"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fold reports like a batch run: after three folds on a fresh
    /// daemon, the registry's pair counters equal the clusterer's
    /// cumulative statistics.
    #[test]
    fn folds_publish_pair_counters_to_the_registry() {
        let dir = scratch("folds");
        let sock = dir.join("paced.sock");
        let obs = Obs::noop();
        let handle = Server::start(ServerConfig::new(&sock, small_cluster_cfg()), obs.clone())
            .expect("start daemon");
        let mut client =
            Client::connect_with_retry(&sock, Duration::from_secs(5)).expect("connect");
        // Nine 120-base reads tiling one template at a 30-base stride.
        let template = lcg_dna(11, 400);
        for fold in 0..3 {
            let ids = (0..3).map(|k| format!("f{fold}_{k}")).collect();
            let seqs = (0..3)
                .map(|k| template[(3 * fold + k) * 30..][..120].to_vec())
                .collect();
            client.ingest(ids, seqs).expect("ingest");
        }
        let stats = handle.shared.lock_core().clusterer.stats;
        let snap = obs.registry().snapshot();
        assert!(stats.merges > 0, "tiled reads must merge");
        assert_eq!(
            snap.counters[metric::PAIRS_GENERATED],
            stats.pairs_generated
        );
        assert_eq!(
            snap.counters[metric::PAIRS_PROCESSED],
            stats.pairs_processed
        );
        assert_eq!(snap.counters[metric::PAIRS_SKIPPED], stats.pairs_skipped);
        assert_eq!(snap.counters[metric::MERGES], stats.merges);
        assert_eq!(
            snap.histograms[metric::PAIRS_MCS_LEN].count(),
            stats.pairs_generated
        );
        assert_eq!(snap.phases[metric::PHASE_ALIGNMENT].count, 3);
        // Each fold partitions once, then builds and sorts its one build
        // batch, like a batch run.
        for phase in [
            metric::PHASE_PARTITIONING,
            metric::PHASE_GST_CONSTRUCTION,
            metric::PHASE_NODE_SORTING,
        ] {
            assert_eq!(snap.phases[phase].count, 3, "{phase}");
        }
        // Each fold publishes the shape of the in-scope forest it built,
        // like a batch run's build phase: the ψ-groups holding a suffix
        // of its own three reads (strings from 2·3·fold on). After the
        // first fold that is less than the whole collection's forest.
        let cfg = small_cluster_cfg();
        let (mut nodes, mut subtrees, mut max_depth, mut whole_nodes) = (0, 0, 0, 0);
        let mut forest_bytes = 0;
        for fold in 0..3 {
            let folded = 3 * (fold + 1);
            let reads: Vec<&[u8]> = (0..folded).map(|i| &template[i * 30..][..120]).collect();
            let store = pace_seq::SequenceStore::from_ests(&reads).unwrap();
            let counts = pace_gst::count_buckets(&store, cfg.window_w);
            let partition = pace_gst::assign_buckets(&counts, 1);
            let buckets = partition.buckets_of(0);
            let fresh = 2 * 3 * fold as u32;
            let built =
                pace_gst::build_in_scope_batch(&store, &partition, &buckets, cfg.psi, fresh);
            let forest = pace_gst::LocalForest {
                rank: 0,
                w: cfg.window_w,
                psi: cfg.psi,
                subtrees: built,
            };
            let whole = pace_gst::build_in_scope_forest(&store, &partition, 0, cfg.psi);
            if fold > 0 {
                assert!(
                    forest.num_nodes() < whole.num_nodes(),
                    "fold {fold} built {} of the whole forest's {} nodes",
                    forest.num_nodes(),
                    whole.num_nodes()
                );
            }
            nodes += forest.num_nodes() as u64;
            subtrees += forest.subtrees.len() as u64;
            max_depth = max_depth.max(forest.max_depth(&store));
            forest_bytes = forest_bytes.max(forest.memory_bytes());
            whole_nodes += whole.num_nodes() as u64;
        }
        assert!(nodes > 0);
        assert!(snap.counters[metric::GST_NODES] < whole_nodes);
        assert_eq!(snap.counters[metric::GST_NODES], nodes);
        assert_eq!(snap.counters[metric::GST_SUBTREES], subtrees);
        assert_eq!(snap.gauges[metric::GST_MAX_DEPTH], max_depth as f64);
        assert_eq!(snap.gauges[metric::GST_MEMORY_BYTES], forest_bytes as f64);
        assert!(snap.gauges[metric::PAIRGEN_MEMORY_BYTES] > 0.0);
        handle.stop().expect("clean stop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Poison on the *view* / latency locks is recoverable without any
    /// taint: nothing under them can be torn.
    #[test]
    fn poisoned_view_lock_recovers_transparently() {
        let dir = scratch("view");
        let sock = dir.join("paced.sock");
        let handle = Server::start(ServerConfig::new(&sock, small_cluster_cfg()), Obs::noop())
            .expect("start daemon");
        let poisoner = handle.shared.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.view.lock().unwrap();
            panic!("simulated panic under the view lock");
        })
        .join();
        let latpoisoner = handle.shared.clone();
        let _ = std::thread::spawn(move || {
            let _guard = latpoisoner.query_lat.lock().unwrap();
            panic!("simulated panic under the latency lock");
        })
        .join();

        let mut client =
            Client::connect_with_retry(&sock, Duration::from_secs(5)).expect("connect");
        client.ping().expect("ping through poisoned view lock");
        let template = lcg_dna(3, 140);
        client
            .ingest(
                vec!["a".into(), "b".into()],
                vec![template[..90].to_vec(), template[40..].to_vec()],
            )
            .expect("ingest still works: core was never poisoned");
        assert!(client.member("a").is_ok());
        handle.stop().expect("clean stop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
