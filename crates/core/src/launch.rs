//! Multi-process launcher for the Unix-socket transport.
//!
//! [`cluster_store_uds`] runs the same master–slave protocol as
//! `Pace::cluster_store`, but with one OS process per rank instead of
//! one thread: the calling process becomes rank 0 (master + socket
//! hub), and `p − 1` worker processes are forked from `worker_exe`
//! with the hidden `__pace-worker` argv. Everything a worker needs
//! travels on its command line — the input FASTA (written to a scratch
//! dir), the exact [`ClusterConfig`] as a `k=v` string, and the
//! encoded fault plan — so a worker is fully described by its argv and
//! can be re-run by hand when debugging.
//!
//! Fault injection composes with real processes: the same seeded plan
//! is compiled per rank on both sides of the fork (the encoding is
//! canonical), and an injected crash makes the worker *process* exit
//! with [`INJECTED_CRASH_EXIT`], which the reaper whitelists when the
//! plan contains crashes and counts into
//! [`metric::FAULTS_INJECTED_CRASHES`]. Any other non-zero exit is a
//! launch failure and carries the worker's captured stderr.

use crate::pipeline::{PaceConfig, PaceError, PaceOutcome};
use pace_cluster::{cluster_master_transport, cluster_worker_transport, ClusterConfig, Msg};
use pace_mpisim::{FaultPlan, Rank, UdsEndpoint, UdsHub, INJECTED_CRASH_EXIT};
use pace_obs::{metric, Obs};
use pace_seq::{read_fasta_into_store, write_fasta_file, FastaRecord, SequenceStore};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How the launcher runs worker processes.
#[derive(Debug, Clone)]
pub struct UdsLaunchOpts {
    /// Binary to spawn for each worker rank. It must dispatch the
    /// hidden `__pace-worker` subcommand to [`worker_main`] — both the
    /// `pace` CLI and the bench smoke binary do.
    pub worker_exe: PathBuf,
    /// Rendezvous budget: every worker must connect and handshake
    /// within this window, and a straggling worker process is killed
    /// this long after the master finishes.
    pub connect_timeout: Duration,
    /// When set, worker `r` writes its (clock-aligned) Chrome trace to
    /// `{trace_out}.rank{r}.json`; merge them with `pace-trace`.
    pub trace_out: Option<PathBuf>,
}

impl UdsLaunchOpts {
    /// Options for spawning workers from `worker_exe`.
    pub fn new(worker_exe: impl Into<PathBuf>) -> Self {
        UdsLaunchOpts {
            worker_exe: worker_exe.into(),
            connect_timeout: Duration::from_secs(30),
            trace_out: None,
        }
    }
}

/// Monotonic scratch-dir discriminator, so concurrent launches from
/// one process (tests) never collide.
static LAUNCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Cluster `store` over the Unix-socket transport with
/// `config.num_processors` OS processes (this one + `p − 1` spawned
/// workers). Faults in `config.faults` are injected on every rank;
/// observability flows into `obs` exactly as in the in-process path,
/// plus [`metric::COMM_BYTES`] (real serialized bytes) and observed
/// worker crash exits.
pub fn cluster_store_uds(
    store: &SequenceStore,
    config: &PaceConfig,
    opts: &UdsLaunchOpts,
    obs: &Obs,
) -> Result<PaceOutcome, PaceError> {
    config.validate()?;
    if config.num_processors < 2 {
        return Err(PaceError::BadConfig(
            "the socket transport needs num_processors ≥ 2 (one master + workers)".into(),
        ));
    }

    // Scratch directory: the rendezvous socket plus the input FASTA
    // every worker re-reads. Cleaned up best-effort on every exit path.
    let scratch = std::env::temp_dir().join(format!(
        "pace-uds-{}-{}",
        std::process::id(),
        LAUNCH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| launch_err("creating scratch dir", &e))?;
    let result = launch_world(store, config, opts, obs, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn launch_world(
    store: &SequenceStore,
    config: &PaceConfig,
    opts: &UdsLaunchOpts,
    obs: &Obs,
    scratch: &Path,
) -> Result<PaceOutcome, PaceError> {
    let p = config.num_processors;
    let fasta_path = scratch.join("input.fasta");
    let sock_path = scratch.join("world.sock");
    write_store_fasta(store, &fasta_path)?;

    let kv = config.cluster.to_kv_string();
    let under_faults = !config.faults.is_empty();
    let plan_enc = under_faults.then(|| config.faults.encode());

    // A SIGTERM/SIGINT to this process must not leak worker processes:
    // the watchdog SIGKILLs every registered child and exits 128+signo.
    crate::signals::spawn_watchdog();

    let mut children: Vec<(usize, Child)> = Vec::with_capacity(p - 1);
    for rank in 1..p {
        let mut cmd = Command::new(&opts.worker_exe);
        cmd.arg("__pace-worker")
            .args(["--rank", &rank.to_string()])
            .args(["--procs", &p.to_string()])
            .arg("--socket")
            .arg(&sock_path)
            .arg("--in")
            .arg(&fasta_path)
            .args(["--config", &kv])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(enc) = &plan_enc {
            cmd.args(["--fault-plan", enc]);
        }
        if let Some(base) = &opts.trace_out {
            cmd.arg("--trace-out").arg(worker_trace_path(base, rank));
        }
        match crate::signals::spawn_registered(&mut cmd) {
            Ok(child) => children.push((rank, child)),
            Err(e) => {
                kill_all(&mut children);
                return Err(launch_err(
                    &format!(
                        "spawning worker rank {rank} from {}",
                        opts.worker_exe.display()
                    ),
                    &e,
                ));
            }
        }
    }

    // Rendezvous: workers connect-retry until the hub's listener is up,
    // so binding after the spawns is safe and keeps the window tight.
    let hub = match UdsHub::<Msg>::bind(&sock_path, p, opts.connect_timeout, &|| obs.now_us()) {
        Ok(hub) => hub,
        Err(e) => {
            kill_all(&mut children);
            let diagnosis = reap_stderr_excerpt(&mut children);
            return Err(PaceError::Launch(format!(
                "socket rendezvous failed: {e}{diagnosis}"
            )));
        }
    };
    let rank = Rank::over(Box::new(hub), &config.faults, obs.clone());
    let (result, trace) =
        cluster_master_transport(store, &config.cluster, &rank, under_faults, obs);
    // Dropping the master's rank drops the hub: any worker still blocked
    // on the socket sees EOF instead of hanging the reaper.
    drop(rank);

    reap_children(children, &config.faults, opts.connect_timeout, obs)?;

    Ok(PaceOutcome {
        num_ests: store.num_ests(),
        total_bases: store.total_input_chars(),
        num_processors: p,
        result,
        trace,
    })
}

/// Wait for every worker with a deadline, enforcing the exit-code
/// contract: 0 is success, [`INJECTED_CRASH_EXIT`] is legitimate only
/// under a crash-bearing fault plan (and is counted as an observed
/// injected crash), anything else propagates as a launch failure with
/// the worker's stderr attached.
fn reap_children(
    children: Vec<(usize, Child)>,
    plan: &FaultPlan,
    timeout: Duration,
    obs: &Obs,
) -> Result<(), PaceError> {
    let deadline = Instant::now() + timeout;
    let mut observed_crashes = 0u64;
    let mut failure: Option<String> = None;
    for (rank, mut child) in children {
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) => {
                    if Instant::now() >= deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        break None;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    failure.get_or_insert(format!("waiting for worker rank {rank}: {e}"));
                    break None;
                }
            }
        };
        let stderr = drain_stderr(&mut child);
        crate::signals::unregister_child(child.id());
        match status {
            Some(s) if s.success() => {}
            Some(s) if s.code() == Some(INJECTED_CRASH_EXIT) && plan.has_crashes() => {
                observed_crashes += 1;
            }
            Some(s) => {
                failure.get_or_insert(format!(
                    "worker rank {rank} exited with {s}{}",
                    stderr_excerpt(&stderr)
                ));
            }
            None => {
                failure.get_or_insert(format!(
                    "worker rank {rank} hung past the reap deadline and was killed{}",
                    stderr_excerpt(&stderr)
                ));
            }
        }
    }
    if observed_crashes > 0 {
        obs.registry()
            .add(metric::FAULTS_INJECTED_CRASHES, observed_crashes);
    }
    match failure {
        Some(msg) => Err(PaceError::Launch(msg)),
        None => Ok(()),
    }
}

/// Entry point for the hidden `__pace-worker` subcommand: parse the
/// launcher's argv, join the socket world as one slave rank, run the
/// protocol, and return the process exit code (0, or
/// [`INJECTED_CRASH_EXIT`] when this rank's fault plan crashed it).
/// `args` excludes the program name and the `__pace-worker` token.
pub fn worker_main(args: &[String]) -> Result<i32, String> {
    let mut rank: Option<usize> = None;
    let mut procs: Option<usize> = None;
    let mut socket: Option<PathBuf> = None;
    let mut input: Option<PathBuf> = None;
    let mut kv: Option<String> = None;
    let mut plan_enc: Option<String> = None;
    let mut trace_out: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut take = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--rank" => rank = Some(take()?.parse().map_err(|e| format!("--rank: {e}"))?),
            "--procs" => procs = Some(take()?.parse().map_err(|e| format!("--procs: {e}"))?),
            "--socket" => socket = Some(take()?.into()),
            "--in" => input = Some(take()?.into()),
            "--config" => kv = Some(take()?),
            "--fault-plan" => plan_enc = Some(take()?),
            "--trace-out" => trace_out = Some(take()?.into()),
            other => return Err(format!("unknown worker flag: {other}")),
        }
    }
    let rank = rank.ok_or("missing --rank")?;
    let procs = procs.ok_or("missing --procs")?;
    let socket = socket.ok_or("missing --socket")?;
    let input = input.ok_or("missing --in")?;
    let kv = kv.ok_or("missing --config")?;
    if rank == 0 || rank >= procs {
        return Err(format!("worker rank {rank} out of range for {procs} procs"));
    }

    let (store, _ids, _replaced) =
        read_fasta_into_store(&input).map_err(|e| format!("reading {}: {e}", input.display()))?;
    let cfg = ClusterConfig::from_kv_string(&kv).map_err(|e| format!("--config: {e}"))?;
    let plan = match &plan_enc {
        Some(enc) => FaultPlan::decode(enc).map_err(|e| format!("--fault-plan: {e}"))?,
        None => FaultPlan::none(),
    };
    let under_faults = !plan.is_empty();

    let obs = if trace_out.is_some() {
        Obs::with_tracer()
    } else {
        Obs::noop()
    };
    let ep = UdsEndpoint::<Msg>::connect(&socket, rank, Duration::from_secs(30), &|| obs.now_us())
        .map_err(|e| format!("connecting to {}: {e}", socket.display()))?;
    // The handshake's clock offset places this process's trace
    // timestamps on the hub's timeline when we export below.
    let clock_offset_us = ep.clock_offset_us();
    let world = Rank::over(Box::new(ep), &plan, obs.clone());
    let crashed = cluster_worker_transport(&store, &cfg, &world, under_faults, &obs);
    drop(world);

    if let (Some(path), Some(tracer)) = (&trace_out, obs.tracer()) {
        tracer
            .write_chrome_file_offset(path, clock_offset_us)
            .map_err(|e| format!("writing trace {}: {e}", path.display()))?;
    }
    Ok(if crashed { INJECTED_CRASH_EXIT } else { 0 })
}

/// Per-rank trace path the launcher assigns: `{base}.rank{r}.json`.
pub fn worker_trace_path(base: &Path, rank: usize) -> PathBuf {
    let mut s = base.as_os_str().to_os_string();
    s.push(format!(".rank{rank}.json"));
    PathBuf::from(s)
}

fn write_store_fasta(store: &SequenceStore, path: &Path) -> Result<(), PaceError> {
    let records: Vec<FastaRecord> = store
        .est_ids()
        .enumerate()
        .map(|(i, eid)| FastaRecord {
            id: format!("e{i}"),
            description: String::new(),
            sequence: store.est_seq(eid).to_vec(),
        })
        .collect();
    write_fasta_file(path, &records)
        .map_err(|e| PaceError::Launch(format!("writing {}: {e}", path.display())))
}

fn launch_err(what: &str, e: &dyn std::fmt::Display) -> PaceError {
    PaceError::Launch(format!("{what}: {e}"))
}

fn kill_all(children: &mut [(usize, Child)]) {
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
        crate::signals::unregister_child(child.id());
    }
}

/// After killing everything, salvage whichever worker stderr explains
/// the rendezvous failure (e.g. a bad `--config` rejected at startup).
fn reap_stderr_excerpt(children: &mut [(usize, Child)]) -> String {
    for (rank, child) in children.iter_mut() {
        let _ = child.wait();
        let s = drain_stderr(child);
        if !s.trim().is_empty() {
            return format!("; worker rank {rank} said{}", stderr_excerpt(&s));
        }
    }
    String::new()
}

fn drain_stderr(child: &mut Child) -> String {
    use std::io::Read;
    let mut buf = String::new();
    if let Some(mut err) = child.stderr.take() {
        let _ = err.read_to_string(&mut buf);
    }
    buf
}

fn stderr_excerpt(stderr: &str) -> String {
    let trimmed = stderr.trim();
    if trimmed.is_empty() {
        return String::new();
    }
    const CAP: usize = 2000;
    let shown: String = trimmed.chars().take(CAP).collect();
    let ellipsis = if trimmed.chars().count() > CAP {
        "…"
    } else {
        ""
    };
    format!(": {shown}{ellipsis}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_trace_paths_are_per_rank() {
        let base = Path::new("/tmp/run/trace.json");
        assert_eq!(
            worker_trace_path(base, 3),
            Path::new("/tmp/run/trace.json.rank3.json")
        );
    }

    #[test]
    fn worker_main_rejects_bad_argv() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(worker_main(&args(&["--rank", "1"])).is_err());
        assert!(worker_main(&args(&["--bogus", "1"])).is_err());
        // Rank 0 is the hub's seat, never a spawned worker.
        let err = worker_main(&args(&[
            "--rank", "0", "--procs", "2", "--socket", "s", "--in", "f", "--config", "",
        ]))
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn cluster_store_uds_rejects_sequential_world() {
        let store = SequenceStore::from_ests(&[b"ACGTACGTACGT".as_slice()]).unwrap();
        let cfg = PaceConfig::small_inputs(); // num_processors = 1
        let err = cluster_store_uds(
            &store,
            &cfg,
            &UdsLaunchOpts::new("/nonexistent"),
            &Obs::noop(),
        )
        .unwrap_err();
        assert!(matches!(err, PaceError::BadConfig(_)));
    }
}
