//! The slave processor loop.
//!
//! Each slave owns a portion of the suffix-tree forest (its buckets). It
//! interleaves three activities, overlapping communication with
//! computation exactly as the paper describes:
//!
//! 1. aligning the current `NEXTWORK` batch;
//! 2. generating promising pairs into `PAIRBUF` *while waiting* for the
//!    master's next message;
//! 3. on each `Work { W, E }` message: topping `PAIRBUF` up to `E`,
//!    sending the held results `R` plus `P = min(E, |PAIRBUF|)` pairs,
//!    and adopting `W` as the next batch.
//!
//! Startup: three `batchsize` portions are generated; portion 1 is
//! aligned and sent with portion 3 as the unsolicited first report,
//! portion 2 becomes the first `NEXTWORK`.
//!
//! A slave speaks one protocol session per master of its
//! [`Topology`]: one with the single master, `K` under sharding.
//! Everything above holds *per session*: sequence numbers, duplicate
//! `Work` answered from a cached report, the exhausted promise (once a
//! session is told `exhausted`, that session never sees another pair).
//! Every generated pair and every alignment outcome is routed to the
//! session owning the pair's smaller EST id
//! ([`ShardSpec::owner_of_pair`]), so each master sees exactly the pairs
//! whose union it can decide (or log as a cross edge). `PAIRBUF` is one
//! queue per session; alignment results park in a per-session pending
//! list until that session's next `Work` flushes them. With one session
//! every pair is owned by it, and the loop is the paper's.
//!
//! Termination: a `Shutdown` from a master closes that session; the
//! slave exits when every session is closed. A `Shutdown` from the
//! reconciler is the global abort — the release valve when a sub-master
//! died and can never close its own session.

use crate::align_task::{AlignContext, PairOutcome};
use crate::config::{ClusterConfig, Role, Topology};
use crate::messages::{Msg, WorkerSummary};
use pace_dsu::ShardSpec;
use pace_gst::LocalForest;
use pace_mpisim::Rank;
use pace_obs::trace::T_REPORT_SEND;
use pace_obs::{metric, Obs, Timer, TraceKind};
use pace_pairgen::{CandidatePair, PairGenerator};
use pace_seq::{PackedText, SequenceStore};
use std::collections::VecDeque;

/// How many pairs to generate per idle poll while waiting for the master
/// (small, so the slave stays responsive).
const IDLE_GEN_CHUNK: usize = 16;

/// Per-session state: the last sequence number answered, its cached
/// report, and whether the session's master has closed it.
struct Session {
    last_seq: u64,
    last_report: Msg,
    done: bool,
}

/// Run the slave protocol of a single-master world (whose master sits
/// at rank `master`, always 0) to completion with no instrumentation.
pub fn run_slave(
    rank: &Rank<Msg>,
    master: usize,
    store: &SequenceStore,
    forest: &LocalForest,
    cfg: &ClusterConfig,
) -> WorkerSummary {
    let topo = Topology::new(rank.size(), 0).expect("a slave needs a master");
    assert_eq!(
        master,
        topo.master_rank(0),
        "the single master sits at rank 0"
    );
    run_slave_obs(rank, topo, store, None, forest, cfg, &Obs::noop())
}

/// Run the slave protocol to completion, instrumented. `topo` fixes who
/// the masters are and how many sessions run; it must match what the
/// masters were built with. `packed` is the shared 2-bit view the
/// alignment kernel reads when `cfg.packed_alignment` built one. The
/// rank's `node_sorting`, `pair_generation` and `alignment` totals land
/// in `obs`'s registry and the generator's MCS-length distribution in
/// the [`metric::PAIRS_MCS_LEN`] histogram. The returned summary carries
/// the same totals, for a master in another process; its `partitioning`
/// and `gst_construction` are left to the caller, who ran those phases.
pub fn run_slave_obs(
    rank: &Rank<Msg>,
    topo: Topology,
    store: &SequenceStore,
    packed: Option<&PackedText>,
    forest: &LocalForest,
    cfg: &ClusterConfig,
    obs: &Obs,
) -> WorkerSummary {
    let k = topo.sessions();
    let spec = ShardSpec::new(store.num_ests(), k);
    let Role::Slave(slave_idx) = topo.role_of(rank.rank()) else {
        unreachable!("rank {} is not a slave", rank.rank())
    };
    let mut sort_timer = Timer::new();
    let mut generator = sort_timer.time(|| PairGenerator::new(store, forest, cfg.pair_gen()));
    let mut pairgen = Timer::new();
    let mut alignment = 0.0;

    // One alignment context for the whole rank: DP scratch is allocated
    // once here and only grows to the largest pair this slave ever sees.
    let mut ctx = AlignContext::new(store, packed);

    // One PAIRBUF per session; generated pairs route to their owner.
    let mut pairbufs: Vec<VecDeque<CandidatePair>> = (0..k).map(|_| VecDeque::new()).collect();
    // Every pair the generator emits, tallied by owner at the moment of
    // generation — one side of the per-session flow conservation law
    // (`generated == processed + skipped + unconsumed`, per shard).
    let mut gen_by_owner: Vec<u64> = vec![0; k];
    // Alignment outcomes owed to each session, flushed by its next Work.
    let mut pending: Vec<Vec<PairOutcome>> = (0..k).map(|_| Vec::new()).collect();

    // Startup: three equal portions of batchsize pairs. Portion 1 is
    // aligned and its results routed; portion 3 is buffered by owner and
    // ships whole in each session's startup report (sequence 0); portion
    // 2 is aligned right after the reports go out — its results are
    // flushed by each master's first Work. The cached copy of each
    // report answers duplicate `Work` messages (the master re-sends a
    // batch when our report goes missing) without re-aligning anything.
    let portion1 = pairgen.time(|| generator.next_batch(cfg.batchsize));
    let portion2 = pairgen.time(|| generator.next_batch(cfg.batchsize));
    let portion3 = pairgen.time(|| generator.next_batch(cfg.batchsize));
    for p in portion1.iter().chain(&portion2) {
        let (i, j) = p.est_indices();
        gen_by_owner[spec.owner_of_pair(i, j)] += 1;
    }
    buffer_by_owner(&spec, portion3, &mut pairbufs, &mut gen_by_owner);

    let route_results = |results: Vec<PairOutcome>, pending: &mut Vec<Vec<PairOutcome>>| {
        for r in results {
            let (i, j) = r.pair.est_indices();
            pending[spec.owner_of_pair(i, j)].push(r);
        }
    };
    let first_results = align_batch(&mut ctx, &portion1, cfg, &mut alignment, obs, rank.rank());
    route_results(first_results, &mut pending);

    let mut sessions: Vec<Session> = Vec::with_capacity(k);
    for m in 0..k {
        let report = Msg::Report {
            seq: 0,
            results: std::mem::take(&mut pending[m]),
            pairs: pairbufs[m].drain(..).collect(),
            exhausted: generator.is_exhausted(),
        };
        send_report(rank, topo, m, slave_idx, obs, &report);
        sessions.push(Session {
            last_seq: 0,
            last_report: report,
            done: false,
        });
    }
    let results2 = align_batch(&mut ctx, &portion2, cfg, &mut alignment, obs, rank.rank());
    route_results(results2, &mut pending);

    // Every exit, the abnormal world-teardown ones included, breaks out
    // of 'run to the one summary below.
    let mut done_count = 0usize;
    'run: while done_count < k {
        // Wait for any master, generating pairs in the meantime.
        let (from, msg) = loop {
            match rank.try_recv() {
                Ok(Some(fm)) => break fm,
                // World torn down without a Shutdown (should not happen
                // in normal operation).
                Err(_) => break 'run,
                Ok(None) => {
                    let buffered: usize = pairbufs.iter().map(|b| b.len()).sum();
                    if !generator.is_exhausted() && buffered < cfg.pairbuf_cap {
                        let room = cfg.pairbuf_cap - buffered;
                        let chunk = pairgen.time(|| generator.next_batch(IDLE_GEN_CHUNK.min(room)));
                        buffer_by_owner(&spec, chunk, &mut pairbufs, &mut gen_by_owner);
                    } else {
                        // Nothing useful to do: block.
                        match rank.recv() {
                            Ok(fm) => break fm,
                            Err(_) => break 'run,
                        }
                    }
                }
            }
        };

        let m = match topo.role_of(from) {
            Role::Master(m) => m,
            // Reconciler abort: a sub-master died; every session that
            // cannot be closed by its owner is closed here.
            Role::Reconciler => break 'run,
            Role::Slave(_) => unreachable!("slaves never message slaves"),
        };
        match msg {
            Msg::Shutdown => {
                if !sessions[m].done {
                    sessions[m].done = true;
                    done_count += 1;
                }
            }
            // A duplicate `Work` (a sequence this session already
            // answered) means the master lost our report: answer with
            // the cached copy — the pairs it carries were aligned
            // exactly once.
            Msg::Work { seq, .. } if seq <= sessions[m].last_seq => {
                let cached = sessions[m].last_report.clone();
                send_report(rank, topo, m, slave_idx, obs, &cached);
            }
            Msg::Work {
                seq,
                pairs,
                request,
            } => {
                debug_assert_eq!(
                    seq,
                    sessions[m].last_seq + 1,
                    "master {m} skipped a sequence number"
                );
                // Top this session's PAIRBUF up to the requested E. The
                // generator feeds every session, so satisfying one
                // session's demand can buffer pairs for the others — they
                // are not lost, just waiting for their owner's next
                // request.
                while pairbufs[m].len() < request && !generator.is_exhausted() {
                    let want = (request - pairbufs[m].len()).max(IDLE_GEN_CHUNK);
                    let batch = pairgen.time(|| generator.next_batch(want));
                    buffer_by_owner(&spec, batch, &mut pairbufs, &mut gen_by_owner);
                }
                let take = request.min(pairbufs[m].len());
                let outgoing: Vec<CandidatePair> = pairbufs[m].drain(..take).collect();
                let report = Msg::Report {
                    seq,
                    results: std::mem::take(&mut pending[m]),
                    pairs: outgoing,
                    exhausted: generator.is_exhausted() && pairbufs[m].is_empty(),
                };
                send_report(rank, topo, m, slave_idx, obs, &report);
                sessions[m].last_report = report;
                sessions[m].last_seq = seq;
                // Align the received batch now, while the master's reply
                // travels. Every outcome belongs to the dispatching
                // session (a master only dispatches pairs it owns), so
                // the routing is a no-op in disguise — kept explicit so
                // the invariant is checked, not assumed.
                let results = align_batch(&mut ctx, &pairs, cfg, &mut alignment, obs, rank.rank());
                route_results(results, &mut pending);
            }
            Msg::Report { .. }
            | Msg::Summary(_)
            | Msg::CrossMerge { .. }
            | Msg::ShardDone { .. } => {
                unreachable!("slaves never receive {}", msg.kind())
            }
        }
    }

    let reg = obs.registry();
    for (&len, &n) in generator.emitted_by_mcs_len() {
        reg.observe_n(metric::PAIRS_MCS_LEN, len as u64, n);
    }
    let (node_sorting, pair_generation) = (sort_timer.secs(), pairgen.secs());
    reg.record_phase(metric::PHASE_NODE_SORTING, rank.rank(), node_sorting);
    reg.record_phase(metric::PHASE_PAIR_GENERATION, rank.rank(), pair_generation);
    reg.record_phase(metric::PHASE_ALIGNMENT, rank.rank(), alignment);
    let gen = generator.stats();
    WorkerSummary {
        gen_nodes_processed: gen.nodes_processed,
        gen_raw_pairs: gen.raw_pairs,
        gen_discarded_self: gen.discarded_self,
        gen_discarded_mirror: gen.discarded_mirror,
        gen_emitted: gen.emitted,
        node_sorting,
        pair_generation,
        alignment,
        unconsumed: pairbufs.iter().map(|b| b.len() as u64).sum(),
        prefiltered: ctx.pairs_prefiltered(),
        ws_reuses: ctx.pairs_handled(),
        gen_by_owner,
        unconsumed_by_owner: pairbufs.iter().map(|b| b.len() as u64).collect(),
        ..WorkerSummary::default()
    }
}

/// Buffer freshly generated pairs in their owners' `PAIRBUF`s, tallying
/// each by owner at the moment of generation.
fn buffer_by_owner(
    spec: &ShardSpec,
    pairs: Vec<CandidatePair>,
    pairbufs: &mut [VecDeque<CandidatePair>],
    gen_by_owner: &mut [u64],
) {
    for p in pairs {
        let (i, j) = p.est_indices();
        let owner = spec.owner_of_pair(i, j);
        gen_by_owner[owner] += 1;
        pairbufs[owner].push_back(p);
    }
}

/// Send one report to the master of `session`, recording its trace
/// footprint when a tracer is attached: a `report_send` span on this
/// rank plus the flow point that ties the report to its batch's dispatch
/// arrow. The unsolicited startup report (sequence 0) *opens* its flow —
/// there is no master dispatch for it — while every later report
/// (including duplicate resends of the cached copy) is a step on the
/// flow the master opened.
fn send_report(
    rank: &Rank<Msg>,
    topo: Topology,
    session: usize,
    slave_idx: usize,
    obs: &Obs,
    report: &Msg,
) {
    let t0_us = obs.trace_enabled().then(|| obs.now_us());
    rank.send(topo.master_rank(session), report.clone());
    if let (Some(t0), Msg::Report { seq, pairs, .. }) = (t0_us, report) {
        obs.trace_with(|tracer| {
            let end = obs.now_us();
            let r = rank.rank();
            let id = topo.flow_id(session, slave_idx, *seq);
            tracer.span(
                r,
                T_REPORT_SEND,
                t0,
                end.saturating_sub(t0),
                id,
                pairs.len() as u64,
            );
            let kind = if *seq == 0 {
                TraceKind::FlowStart
            } else {
                TraceKind::FlowStep
            };
            tracer.flow(kind, r, t0, id);
        });
    }
}

/// Align one work batch through the rank's shared context. Each
/// non-empty batch is its own [`metric::PHASE_ALIGN_BATCH`] span (the
/// per-batch series behind batch-size tuning); the elapsed time also
/// accumulates into the rank's `alignment` total.
fn align_batch(
    ctx: &mut AlignContext,
    batch: &[CandidatePair],
    cfg: &ClusterConfig,
    alignment: &mut f64,
    obs: &Obs,
    rank_id: usize,
) -> Vec<PairOutcome> {
    if batch.is_empty() {
        return Vec::new();
    }
    let span = obs.span_on(metric::PHASE_ALIGN_BATCH, rank_id);
    let out = batch.iter().map(|p| ctx.align(p, cfg)).collect();
    *alignment += span.finish();
    out
}
