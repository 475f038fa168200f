//! Unix-domain-socket transport: one OS process per rank.
//!
//! Topology is a star routed through rank 0 (the *hub*, which also
//! hosts the clustering master): workers connect to the hub's socket,
//! perform a `Hello`/`Welcome` rendezvous handshake, and from then on
//! every frame travels worker → hub, where it is either delivered to
//! the hub's own inbox or forwarded to its destination worker without
//! being decoded. A star matches the paper's protocol exactly — all
//! clustering traffic is master↔slave — while still supporting
//! worker↔worker delivery by forwarding.
//!
//! Collectives are hub-mediated: each worker sends its contribution as
//! a [`Ctl`] frame and blocks for the result; the hub accumulates
//! contributions (its own included) and broadcasts the result once the
//! set is complete. Since every rank blocks on its own collective, at
//! most one contribution per rank is outstanding and a single
//! accumulator slot per collective kind suffices.
//!
//! Death is real here: a worker that crashes (injected or otherwise)
//! severs its socket, the hub's reader observes EOF, and the worker is
//! counted dead — the master recovers through the exact timeout/resend
//! machinery the in-process fault tests pin down. When the hub itself
//! goes away, every worker's pending receive errors out, mirroring the
//! channel backend's "all peers terminated" rule.

use crate::rank::RecvError;
use crate::stats::{CommStats, WorldStats};
use crate::transport::{poll_inbox, Transport};
use crate::wire::{read_frame, write_frame, Ctl, Wire, WireReader, WIRE_VERSION};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exit code a worker process uses to report an *injected* crash, so
/// the launcher can tell a scheduled death from a real failure.
pub const INJECTED_CRASH_EXIT: i32 = 86;

const ENV_P2P: u8 = 1;
const ENV_CTL: u8 = 0;

/// Encode a point-to-point envelope: `[1][from u32][to u32][payload]`.
fn encode_p2p<M: Wire>(from: usize, to: usize, msg: &M) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.push(ENV_P2P);
    (from as u32).encode(&mut out);
    (to as u32).encode(&mut out);
    msg.encode(&mut out);
    out
}

fn encode_ctl(ctl: &Ctl) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.push(ENV_CTL);
    ctl.encode(&mut out);
    out
}

/// One hub-side writer endpoint for a worker.
struct WriterSlot {
    stream: Mutex<UnixStream>,
    alive: AtomicBool,
}

impl WriterSlot {
    /// Write one frame; a failed write marks the peer dead (its reader
    /// will also observe the broken pipe) and the frame is discarded,
    /// matching buffered-send-at-shutdown semantics.
    fn write(&self, payload: &[u8], stats: &CommStats) {
        if !self.alive.load(Ordering::Acquire) {
            return;
        }
        let mut s = self.stream.lock().unwrap();
        if write_frame(&mut *s, payload).is_err() {
            self.alive.store(false, Ordering::Release);
        } else {
            stats.record_bytes(payload.len() as u64 + 8);
        }
    }
}

/// Hub-side collective accumulator. Counts contributions from the hub's
/// own thread plus worker `Ctl` frames; the contribution that completes
/// a set broadcasts the result and wakes the hub if it is waiting.
struct HubColl {
    st: Mutex<CollSt>,
    cv: Condvar,
}

struct CollSt {
    size: usize,
    dead: usize,
    barrier_n: usize,
    barrier_gen: u64,
    sum_buf: Vec<u64>,
    sum_n: usize,
    sum_slot: Option<Vec<u64>>,
}

impl HubColl {
    fn new(size: usize) -> Self {
        HubColl {
            st: Mutex::new(CollSt {
                size,
                dead: 0,
                barrier_n: 0,
                barrier_gen: 0,
                sum_buf: Vec::new(),
                sum_n: 0,
                sum_slot: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Complete any collective whose live contributions are all in. A
    /// dead worker's missing contribution is treated as absent, so a
    /// death mid-collective degrades instead of hanging (the clustering
    /// protocol only issues collectives during startup partitioning,
    /// before any fault window opens).
    fn maybe_complete(&self, st: &mut CollSt, writers: &[Arc<WriterSlot>], stats: &CommStats) {
        let quorum = st.size - st.dead;
        if st.barrier_n > 0 && st.barrier_n >= quorum {
            st.barrier_n = 0;
            st.barrier_gen += 1;
            let frame = encode_ctl(&Ctl::BarrierRelease);
            for w in writers {
                w.write(&frame, stats);
            }
            self.cv.notify_all();
        }
        if st.sum_n > 0 && st.sum_n >= quorum {
            let result = std::mem::take(&mut st.sum_buf);
            st.sum_n = 0;
            let frame = encode_ctl(&Ctl::SumResult {
                vals: result.clone(),
            });
            for w in writers {
                w.write(&frame, stats);
            }
            st.sum_slot = Some(result);
            self.cv.notify_all();
        }
    }

    fn note_dead(&self, writers: &[Arc<WriterSlot>], stats: &CommStats) {
        let mut st = self.st.lock().unwrap();
        st.dead += 1;
        self.maybe_complete(&mut st, writers, stats);
        self.cv.notify_all();
    }

    fn accumulate_sum(&self, st: &mut CollSt, vals: &[u64]) {
        if st.sum_buf.is_empty() {
            st.sum_buf.resize(vals.len(), 0);
        }
        assert_eq!(
            st.sum_buf.len(),
            vals.len(),
            "allreduce_sum called with mismatched lengths across ranks"
        );
        for (acc, &x) in st.sum_buf.iter_mut().zip(vals) {
            *acc = acc.checked_add(x).expect("allreduce_sum overflow");
        }
    }
}

/// The rank-0 transport of a socket world: accepts `size - 1` worker
/// connections, routes every frame, and mediates collectives.
pub struct UdsHub<M: Send> {
    size: usize,
    inbox: Receiver<(usize, M)>,
    self_tx: Sender<(usize, M)>,
    /// `writers[i]` reaches rank `i + 1`.
    writers: Vec<Arc<WriterSlot>>,
    coll: Arc<HubColl>,
    alive_workers: Arc<AtomicUsize>,
    stats: Arc<CommStats>,
    readers: Vec<JoinHandle<()>>,
}

impl<M: Wire + Send + 'static> UdsHub<M> {
    /// Bind `path`, accept `size - 1` workers, and complete the
    /// rendezvous handshake with each within `timeout`. `now_us` is
    /// sampled per accepted worker and shipped in its `Welcome`, giving
    /// every process a common clock reference for trace stitching.
    pub fn bind(
        path: &Path,
        size: usize,
        timeout: Duration,
        now_us: &dyn Fn() -> u64,
    ) -> io::Result<Self> {
        assert!(size >= 2, "a socket world needs at least 2 ranks");
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let deadline = Instant::now() + timeout;

        let mut streams: Vec<Option<UnixStream>> = (0..size - 1).map(|_| None).collect();
        let mut accepted = 0;
        while accepted < size - 1 {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nonblocking(false)?;
                    let left = deadline.saturating_duration_since(Instant::now());
                    stream.set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
                    let hello = read_frame(&mut stream)?.ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "worker closed during handshake",
                        )
                    })?;
                    let mut r = WireReader::new(&hello);
                    if r.u8().map_err(io::Error::from)? != ENV_CTL {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "first frame from worker was not a control frame",
                        ));
                    }
                    let ctl = Ctl::decode(&mut r).map_err(io::Error::from)?;
                    let Ctl::Hello { version, rank } = ctl else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("expected Hello, got {ctl:?}"),
                        ));
                    };
                    if version != WIRE_VERSION {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("wire version mismatch: hub {WIRE_VERSION}, worker {version}"),
                        ));
                    }
                    let rank = rank as usize;
                    if rank == 0 || rank >= size {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("worker announced rank {rank}, valid range is 1..{size}"),
                        ));
                    }
                    if streams[rank - 1].is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("two workers announced rank {rank}"),
                        ));
                    }
                    write_frame(
                        &mut stream,
                        &encode_ctl(&Ctl::Welcome {
                            size: size as u32,
                            epoch_us: now_us(),
                        }),
                    )?;
                    stream.set_read_timeout(None)?;
                    streams[rank - 1] = Some(stream);
                    accepted += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "rendezvous timeout: {accepted} of {} workers connected",
                                size - 1
                            ),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
        // The socket file has served its purpose; readers hold the fds.
        let _ = std::fs::remove_file(path);

        let (self_tx, inbox) = unbounded();
        let stats = Arc::new(CommStats::new());
        let coll = Arc::new(HubColl::new(size));
        let alive_workers = Arc::new(AtomicUsize::new(size - 1));

        let writers: Vec<Arc<WriterSlot>> = streams
            .iter()
            .map(|s| {
                Arc::new(WriterSlot {
                    stream: Mutex::new(
                        s.as_ref()
                            .unwrap()
                            .try_clone()
                            .expect("clone worker stream"),
                    ),
                    alive: AtomicBool::new(true),
                })
            })
            .collect();

        let mut readers = Vec::with_capacity(size - 1);
        for (i, slot) in streams.into_iter().enumerate() {
            let stream = slot.unwrap();
            let tx = self_tx.clone();
            let writers = writers.clone();
            let coll = Arc::clone(&coll);
            let stats = Arc::clone(&stats);
            let alive_workers = Arc::clone(&alive_workers);
            readers.push(std::thread::spawn(move || {
                hub_reader(i + 1, stream, tx, writers, coll, stats, alive_workers);
            }));
        }

        Ok(UdsHub {
            size,
            inbox,
            self_tx,
            writers,
            coll,
            alive_workers,
            stats,
            readers,
        })
    }
}

/// Hub-side reader loop for one worker connection. Forwards frames that
/// are not addressed to rank 0 without decoding the payload.
fn hub_reader<M: Wire + Send>(
    rank: usize,
    mut stream: UnixStream,
    tx: Sender<(usize, M)>,
    writers: Vec<Arc<WriterSlot>>,
    coll: Arc<HubColl>,
    stats: Arc<CommStats>,
    alive_workers: Arc<AtomicUsize>,
) {
    // Loop ends on clean EOF or a transport error: either way the
    // worker is unreachable now — count it dead and let timeouts
    // recover.
    while let Ok(Some(payload)) = read_frame(&mut stream) {
        stats.record_bytes(payload.len() as u64 + 8);
        let mut r = WireReader::new(&payload);
        let Ok(tag) = r.u8() else { break };
        match tag {
            ENV_P2P => {
                let (Ok(from), Ok(to)) = (r.u32(), r.u32()) else {
                    break;
                };
                let (from, to) = (from as usize, to as usize);
                if to == 0 {
                    let Ok(msg) = M::decode(&mut r) else { break };
                    stats.record_message();
                    let _ = tx.send((from, msg));
                } else if to - 1 < writers.len() {
                    stats.record_message();
                    writers[to - 1].write(&payload, &stats);
                }
            }
            ENV_CTL => {
                let Ok(ctl) = Ctl::decode(&mut r) else { break };
                let mut st = coll.st.lock().unwrap();
                match ctl {
                    Ctl::Barrier => st.barrier_n += 1,
                    Ctl::Sum { vals } => {
                        coll.accumulate_sum(&mut st, &vals);
                        st.sum_n += 1;
                    }
                    other => {
                        debug_assert!(false, "unexpected ctl from worker {rank}: {other:?}");
                    }
                }
                coll.maybe_complete(&mut st, &writers, &stats);
            }
            _ => break,
        }
    }
    alive_workers.fetch_sub(1, Ordering::SeqCst);
    coll.note_dead(&writers, &stats);
}

impl<M: Wire + Send + 'static> Transport<M> for UdsHub<M> {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, msg: M) {
        self.stats.record_message();
        if to == 0 {
            let _ = self.self_tx.send((0, msg));
        } else {
            self.writers[to - 1].write(&encode_p2p(0, to, &msg), &self.stats);
        }
    }

    fn recv(&self, deadline: Option<Instant>) -> Result<Option<(usize, M)>, RecvError> {
        poll_inbox(&self.inbox, deadline, || {
            self.alive_workers.load(Ordering::SeqCst) == 0
        })
    }

    fn barrier(&self) {
        self.stats.record_barrier();
        let mut st = self.coll.st.lock().unwrap();
        let my_gen = st.barrier_gen;
        st.barrier_n += 1;
        self.coll
            .maybe_complete(&mut st, &self.writers, &self.stats);
        while st.barrier_gen == my_gen {
            st = self
                .coll
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }

    fn allreduce_sum(&self, local: &[u64]) -> Vec<u64> {
        self.stats.record_reduction();
        let mut st = self.coll.st.lock().unwrap();
        self.coll.accumulate_sum(&mut st, local);
        st.sum_n += 1;
        self.coll
            .maybe_complete(&mut st, &self.writers, &self.stats);
        loop {
            if let Some(result) = st.sum_slot.take() {
                return result;
            }
            st = self
                .coll
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }

    fn stats(&self) -> WorldStats {
        self.stats.snapshot()
    }
}

impl<M: Send> Drop for UdsHub<M> {
    fn drop(&mut self) {
        // Sever every connection so worker readers observe EOF, then
        // join our readers (they exit on the same shutdown).
        for w in &self.writers {
            let _ = w.stream.lock().unwrap().shutdown(std::net::Shutdown::Both);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker-side collective result slots. The worker blocks on its own
/// collective, so one slot per kind can never be overwritten.
struct EpColl {
    st: Mutex<EpSlots>,
    cv: Condvar,
}

#[derive(Default)]
struct EpSlots {
    barrier_releases: u32,
    sum: Option<Vec<u64>>,
    hub_dead: bool,
}

/// A worker rank's transport: one stream to the hub.
pub struct UdsEndpoint<M: Send> {
    rank: usize,
    size: usize,
    writer: Mutex<UnixStream>,
    inbox: Receiver<(usize, M)>,
    self_tx: Sender<(usize, M)>,
    hub_alive: Arc<AtomicBool>,
    coll: Arc<EpColl>,
    stats: Arc<CommStats>,
    clock_offset_us: i64,
    reader: Option<JoinHandle<()>>,
}

impl<M: Wire + Send + 'static> UdsEndpoint<M> {
    /// Connect to the hub at `path` as `rank`, handshake, and compute
    /// this process's clock offset (`hub_now - local_now`, µs) from the
    /// `Welcome`. `now_us` must read the same clock the process's trace
    /// timestamps use.
    pub fn connect(
        path: &Path,
        rank: usize,
        timeout: Duration,
        now_us: &dyn Fn() -> u64,
    ) -> io::Result<Self> {
        assert!(rank > 0, "rank 0 is the hub; workers are 1..size");
        let deadline = Instant::now() + timeout;
        let mut stream = loop {
            match UnixStream::connect(path) {
                Ok(s) => break s,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        };
        write_frame(
            &mut stream,
            &encode_ctl(&Ctl::Hello {
                version: WIRE_VERSION,
                rank: rank as u32,
            }),
        )?;
        stream.set_read_timeout(Some(
            deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1)),
        ))?;
        let welcome = read_frame(&mut stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "hub closed during handshake")
        })?;
        let mut r = WireReader::new(&welcome);
        if r.u8().map_err(io::Error::from)? != ENV_CTL {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "handshake reply was not a control frame",
            ));
        }
        let ctl = Ctl::decode(&mut r).map_err(io::Error::from)?;
        let Ctl::Welcome { size, epoch_us } = ctl else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Welcome, got {ctl:?}"),
            ));
        };
        let clock_offset_us = epoch_us as i64 - now_us() as i64;
        let size = size as usize;
        if rank >= size {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("hub world size {size} does not include rank {rank}"),
            ));
        }
        stream.set_read_timeout(None)?;

        let (self_tx, inbox) = unbounded();
        let hub_alive = Arc::new(AtomicBool::new(true));
        let coll = Arc::new(EpColl {
            st: Mutex::new(EpSlots::default()),
            cv: Condvar::new(),
        });
        let reader_stream = stream.try_clone()?;
        let reader = {
            let tx = self_tx.clone();
            let hub_alive = Arc::clone(&hub_alive);
            let coll = Arc::clone(&coll);
            std::thread::spawn(move || endpoint_reader(reader_stream, tx, hub_alive, coll))
        };

        Ok(UdsEndpoint {
            rank,
            size,
            writer: Mutex::new(stream),
            inbox,
            self_tx,
            hub_alive,
            coll,
            stats: Arc::new(CommStats::new()),
            clock_offset_us,
            reader: Some(reader),
        })
    }

    /// `hub_clock - local_clock` in microseconds, from the handshake.
    /// Adding this to local trace timestamps places them on the hub's
    /// timeline (up to one connect round-trip of skew).
    pub fn clock_offset_us(&self) -> i64 {
        self.clock_offset_us
    }

    fn write(&self, payload: &[u8]) {
        if !self.hub_alive.load(Ordering::Acquire) {
            return;
        }
        let mut s = self.writer.lock().unwrap();
        if write_frame(&mut *s, payload).is_ok() {
            self.stats.record_bytes(payload.len() as u64 + 8);
        }
    }
}

fn endpoint_reader<M: Wire + Send>(
    mut stream: UnixStream,
    tx: Sender<(usize, M)>,
    hub_alive: Arc<AtomicBool>,
    coll: Arc<EpColl>,
) {
    while let Ok(Some(payload)) = read_frame(&mut stream) {
        let mut r = WireReader::new(&payload);
        let Ok(tag) = r.u8() else { break };
        match tag {
            ENV_P2P => {
                let (Ok(from), Ok(_to)) = (r.u32(), r.u32()) else {
                    break;
                };
                let Ok(msg) = M::decode(&mut r) else { break };
                let _ = tx.send((from as usize, msg));
            }
            ENV_CTL => {
                let Ok(ctl) = Ctl::decode(&mut r) else { break };
                let mut st = coll.st.lock().unwrap();
                match ctl {
                    Ctl::BarrierRelease => st.barrier_releases += 1,
                    Ctl::SumResult { vals } => st.sum = Some(vals),
                    other => {
                        debug_assert!(false, "unexpected ctl from hub: {other:?}");
                    }
                }
                coll.cv.notify_all();
            }
            _ => break,
        }
    }
    hub_alive.store(false, Ordering::Release);
    coll.st.lock().unwrap().hub_dead = true;
    coll.cv.notify_all();
}

impl<M: Wire + Send + 'static> Transport<M> for UdsEndpoint<M> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, msg: M) {
        self.stats.record_message();
        if to == self.rank {
            let _ = self.self_tx.send((self.rank, msg));
        } else {
            self.write(&encode_p2p(self.rank, to, &msg));
        }
    }

    fn recv(&self, deadline: Option<Instant>) -> Result<Option<(usize, M)>, RecvError> {
        // Hub gone: the world is over for this worker.
        poll_inbox(&self.inbox, deadline, || {
            !self.hub_alive.load(Ordering::Acquire)
        })
    }

    fn barrier(&self) {
        self.write(&encode_ctl(&Ctl::Barrier));
        let mut st = self.coll.st.lock().unwrap();
        while st.barrier_releases == 0 && !st.hub_dead {
            st = self
                .coll
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap()
                .0;
        }
        st.barrier_releases = st.barrier_releases.saturating_sub(1);
    }

    fn allreduce_sum(&self, local: &[u64]) -> Vec<u64> {
        self.write(&encode_ctl(&Ctl::Sum {
            vals: local.to_vec(),
        }));
        let mut st = self.coll.st.lock().unwrap();
        loop {
            if let Some(result) = st.sum.take() {
                return result;
            }
            if st.hub_dead {
                // Degenerate result; the caller's world is about to
                // error out of its next receive anyway.
                return local.to_vec();
            }
            st = self
                .coll
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }

    fn stats(&self) -> WorldStats {
        self.stats.snapshot()
    }

    /// A real transport-level death: sever the connection so the hub's
    /// reader observes EOF immediately, instead of the peer merely
    /// going silent.
    fn on_crash(&self) {
        let _ = self
            .writer
            .lock()
            .unwrap()
            .shutdown(std::net::Shutdown::Both);
    }
}

impl<M: Send> Drop for UdsEndpoint<M> {
    fn drop(&mut self) {
        let _ = self
            .writer
            .lock()
            .unwrap()
            .shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, Rank};
    use pace_obs::Obs;

    fn sock_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pace-uds-test-{tag}-{}.sock", std::process::id()))
    }

    /// Run a socket world in-process: the hub on the calling thread's
    /// spawned thread, each worker on its own thread. Exercises the
    /// exact code multi-process runs use, minus fork/exec.
    fn run_uds_world<R: Send + 'static>(
        tag: &str,
        size: usize,
        plan: FaultPlan,
        f: impl Fn(Rank<u64>) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let path = sock_path(tag);
        let f = Arc::new(f);
        let plan = Arc::new(plan);
        let timeout = Duration::from_secs(10);

        let mut workers = Vec::new();
        for rank in 1..size {
            let path = path.clone();
            let f = Arc::clone(&f);
            let plan = Arc::clone(&plan);
            workers.push(std::thread::spawn(move || {
                let ep: UdsEndpoint<u64> =
                    UdsEndpoint::connect(&path, rank, timeout, &|| 0).expect("connect");
                let rank = Rank::over(Box::new(ep), &plan, Obs::noop());
                f(rank)
            }));
        }

        let hub: UdsHub<u64> = UdsHub::bind(&path, size, timeout, &|| 0).expect("bind");
        let rank0 = Rank::over(Box::new(hub), &plan, Obs::noop());
        let mut out = vec![f(rank0)];
        for w in workers {
            out.push(w.join().expect("worker thread"));
        }
        out
    }

    #[test]
    fn roundtrip_and_collectives_over_sockets() {
        let out = run_uds_world("basic", 3, FaultPlan::none(), |rank| {
            let sums = rank.allreduce_sum(&[rank.rank() as u64, 1]);
            assert_eq!(sums, vec![3, 3]);
            rank.barrier();
            if rank.rank() == 0 {
                rank.send(1, 100);
                rank.send(2, 200);
                let mut got = vec![rank.recv().unwrap().1, rank.recv().unwrap().1];
                got.sort_unstable();
                got
            } else {
                let (from, v) = rank.recv().unwrap();
                assert_eq!(from, 0);
                rank.send(0, v + 1);
                vec![v]
            }
        });
        assert_eq!(out[0], vec![101, 201]);
        assert_eq!(out[1], vec![100]);
        assert_eq!(out[2], vec![200]);
    }

    #[test]
    fn ordering_is_preserved_per_channel() {
        let out = run_uds_world("order", 2, FaultPlan::none(), |rank| {
            if rank.rank() == 0 {
                for i in 0..200 {
                    rank.send(1, i);
                }
                Vec::new()
            } else {
                (0..200).map(|_| rank.recv().unwrap().1).collect::<Vec<_>>()
            }
        });
        assert_eq!(out[1], (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_to_worker_messages_are_forwarded() {
        let out = run_uds_world("fwd", 3, FaultPlan::none(), |rank| {
            rank.barrier();
            match rank.rank() {
                // Rank 0 owns the relay, so it must stay alive until the
                // forwarded message has landed at rank 2 — wait for an ack.
                0 => rank.recv().unwrap().1,
                1 => {
                    rank.send(2, 77);
                    0
                }
                2 => {
                    let v = rank.recv().unwrap().1;
                    rank.send(0, v);
                    v
                }
                _ => 0,
            }
        });
        assert_eq!(out[2], 77);
        assert_eq!(out[0], 77);
    }

    #[test]
    fn worker_recv_errors_after_hub_is_gone() {
        let path = sock_path("hubgone");
        let worker = {
            let path = path.clone();
            std::thread::spawn(move || {
                let ep: UdsEndpoint<u64> =
                    UdsEndpoint::connect(&path, 1, Duration::from_secs(10), &|| 0)
                        .expect("connect");
                let rank = Rank::over(Box::new(ep), &FaultPlan::none(), Obs::noop());
                let first = rank.recv();
                let second = rank.recv();
                (first, second)
            })
        };
        let hub: UdsHub<u64> =
            UdsHub::bind(&path, 2, Duration::from_secs(10), &|| 0).expect("bind");
        let rank0 = Rank::over(Box::new(hub), &FaultPlan::none(), Obs::noop());
        rank0.send(1, 5);
        drop(rank0); // hub closes the connection
        let (first, second) = worker.join().unwrap();
        assert_eq!(first.unwrap(), (0, 5));
        assert!(second.is_err(), "recv after hub death must error");
    }

    #[test]
    fn injected_crash_severs_the_connection() {
        // Worker 1 crashes after 1 completed send; the hub must see a
        // transport-level death and terminate its blocking recv once
        // every worker is gone — without any timeout machinery.
        let plan = FaultPlan::none().crash(1, 1);
        let out = run_uds_world("crash", 2, plan, |rank| {
            if rank.rank() == 0 {
                let got = rank.recv().unwrap().1;
                assert!(rank.recv().is_err(), "worker died; no second message");
                got
            } else {
                rank.send(0, 1); // delivered
                rank.send(0, 2); // crash point: discarded, socket severed
                assert!(rank.recv().is_err(), "crashed rank must not receive");
                assert!(rank.crashed());
                0
            }
        });
        assert_eq!(out[0], 1);
    }

    #[test]
    fn seeded_drop_plan_injects_identically_across_processes() {
        // Each side compiles the same seeded plan independently (as real
        // worker processes do) and the per-channel sequence numbering
        // must line up with the channel backend's.
        let plan = FaultPlan::none().drop_msg(0, 1, 0).drop_msg(1, 0, 1);
        let out = run_uds_world("seeded", 2, plan, |rank| {
            if rank.rank() == 0 {
                rank.send(1, 11); // seq 0: dropped
                rank.send(1, 22); // seq 1: delivered
                let mut got = Vec::new();
                while let Ok((_, v)) = rank.recv() {
                    got.push(v);
                }
                got
            } else {
                rank.send(0, 33); // seq 0: delivered
                rank.send(0, 44); // seq 1: dropped
                rank.send(0, 55); // seq 2: delivered
                                  // Exactly one of rank 0's two sends survives its plan, so
                                  // receive exactly one and return: the endpoint drop severs
                                  // the socket, which is what lets the hub's drain loop below
                                  // observe `alive_workers == 0` and terminate. (If both
                                  // sides drained open-endedly neither recv would ever error.)
                let (_, v) = rank.recv().unwrap();
                vec![v]
            }
        });
        assert_eq!(out[0], vec![33, 55]);
        assert_eq!(out[1], vec![22]);
    }

    #[test]
    fn hub_counts_messages_and_bytes() {
        let out = run_uds_world("stats", 2, FaultPlan::none(), |rank| {
            if rank.rank() == 0 {
                rank.send(1, 9);
                let _ = rank.recv().unwrap();
                rank.barrier();
                rank.stats()
            } else {
                let _ = rank.recv().unwrap();
                rank.send(0, 10);
                rank.barrier();
                rank.stats()
            }
        });
        assert_eq!(out[0].messages, 2, "hub sees both directions");
        assert!(out[0].bytes > 0, "frame bytes must be counted");
        assert_eq!(out[0].barriers, 1);
    }

    #[test]
    fn handshake_rejects_version_mismatch() {
        let path = sock_path("vers");
        let bad = {
            let path = path.clone();
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(10);
                let mut stream = loop {
                    match UnixStream::connect(&path) {
                        Ok(s) => break s,
                        Err(_) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(2))
                        }
                        Err(e) => panic!("connect: {e}"),
                    }
                };
                write_frame(
                    &mut stream,
                    &encode_ctl(&Ctl::Hello {
                        version: WIRE_VERSION + 1,
                        rank: 1,
                    }),
                )
                .unwrap();
                // Hold the stream open until the hub gives up.
                let _ = read_frame(&mut stream);
            })
        };
        let hub = UdsHub::<u64>::bind(&path, 2, Duration::from_secs(10), &|| 0);
        assert!(hub.is_err(), "version mismatch must refuse the world");
        bad.join().unwrap();
    }
}
