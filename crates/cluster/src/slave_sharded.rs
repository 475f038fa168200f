//! The slave loop of the sharded driver: one slave, `K` masters.
//!
//! Under sharding a slave talks to `K` sub-masters at once, one
//! independent protocol session per shard. Everything the single-master
//! loop guarantees holds *per session*: sequence numbers, duplicate
//! `Work` answered from a cached report, the exhausted promise (once a
//! session is told `exhausted`, that session never sees another pair).
//!
//! Owner-aware reporting is the one new idea: every generated pair and
//! every alignment outcome is routed to the shard owning the pair's
//! smaller EST id ([`ShardSpec::owner_of_pair`]), so each sub-master
//! sees exactly the pairs whose union it can decide (or log as a cross
//! edge). `PAIRBUF` becomes one queue per shard; alignment results park
//! in a per-shard pending list until that shard's next `Work` flushes
//! them.
//!
//! Termination: a `Shutdown` from a sub-master closes that session; the
//! slave exits when all `K` sessions are closed. A `Shutdown` from rank
//! 0 (the reconciler) is the global abort — the release valve when a
//! sub-master died and can never close its own session.

use crate::align_task::{AlignContext, PairOutcome};
use crate::config::{ClusterConfig, ShardTopology};
use crate::messages::{Msg, WorkerSummary};
use crate::slave::{align_batch, summarize, IDLE_GEN_CHUNK};
use pace_dsu::ShardSpec;
use pace_gst::LocalForest;
use pace_mpisim::Rank;
use pace_obs::trace::{flow_id, T_REPORT_SEND};
use pace_obs::{Obs, Timer, TraceKind};
use pace_pairgen::{CandidatePair, PairGenerator};
use pace_seq::{PackedText, SequenceStore};
use std::collections::VecDeque;

/// Per-sub-master session state (mirrors the single-master slave's
/// `last_seq`/`last_report` pair, one copy per shard).
struct Session {
    last_seq: u64,
    last_report: Msg,
    done: bool,
}

/// Run the sharded slave protocol to completion. `topo` fixes the rank
/// layout (who the sub-masters are) and `spec` the pair-ownership rule;
/// both must match what the sub-masters were built with.
#[allow(clippy::too_many_arguments)]
pub fn run_slave_sharded_obs(
    rank: &Rank<Msg>,
    topo: ShardTopology,
    spec: ShardSpec,
    store: &SequenceStore,
    packed: Option<&PackedText>,
    forest: &LocalForest,
    cfg: &ClusterConfig,
    obs: &Obs,
) -> WorkerSummary {
    let k = topo.shards;
    let num_slaves = topo.num_slaves();
    let slave_idx = rank.rank() - topo.shards - 1;
    let mut sort_timer = Timer::new();
    let mut generator = sort_timer.time(|| PairGenerator::new(store, forest, cfg.pair_gen()));
    let mut pairgen = Timer::new();
    let mut alignment = 0.0;

    let mut ctx = AlignContext::new(store, packed);

    // One PAIRBUF per shard; generated pairs route to their owner.
    let mut pairbufs: Vec<VecDeque<CandidatePair>> = (0..k).map(|_| VecDeque::new()).collect();
    // Every pair the generator emits, tallied by owner at the moment of
    // generation — one side of the per-shard flow conservation law the
    // identity harness checks (`generated == processed + skipped +
    // unconsumed`, per shard).
    let mut gen_by_owner: Vec<u64> = vec![0; k];
    // Alignment outcomes owed to each shard, flushed by its next Work.
    let mut pending: Vec<Vec<PairOutcome>> = (0..k).map(|_| Vec::new()).collect();

    // Startup: the same three portions as the single-master loop, split
    // by owner. Portion 1 is aligned and its results routed; portion 3
    // ships as pairs in the per-shard startup reports; portion 2 is
    // aligned right after the reports go out — its results are flushed
    // by each sub-master's first Work (they start owing us a flush).
    let portion1 = pairgen.time(|| generator.next_batch(cfg.batchsize));
    let portion2 = pairgen.time(|| generator.next_batch(cfg.batchsize));
    let portion3 = pairgen.time(|| generator.next_batch(cfg.batchsize));
    let exhausted_now = generator.is_exhausted();
    for p in portion1.iter().chain(&portion2) {
        let (i, j) = p.est_indices();
        gen_by_owner[spec.owner_of_pair(i, j)] += 1;
    }

    let route_results = |results: Vec<PairOutcome>, pending: &mut Vec<Vec<PairOutcome>>| {
        for r in results {
            let (i, j) = r.pair.est_indices();
            pending[spec.owner_of_pair(i, j)].push(r);
        }
    };
    let first_results = align_batch(&mut ctx, &portion1, cfg, &mut alignment, obs, rank.rank());
    route_results(first_results, &mut pending);
    let mut portion3_by_owner: Vec<Vec<CandidatePair>> = (0..k).map(|_| Vec::new()).collect();
    for p in portion3 {
        let (i, j) = p.est_indices();
        let owner = spec.owner_of_pair(i, j);
        gen_by_owner[owner] += 1;
        portion3_by_owner[owner].push(p);
    }

    let mut sessions: Vec<Session> = Vec::with_capacity(k);
    for (m, pairs) in portion3_by_owner.into_iter().enumerate() {
        let report = Msg::Report {
            seq: 0,
            results: std::mem::take(&mut pending[m]),
            pairs,
            exhausted: exhausted_now && pairbufs[m].is_empty(),
        };
        send_report(rank, topo, m, slave_idx, num_slaves, obs, &report);
        sessions.push(Session {
            last_seq: 0,
            last_report: report,
            done: false,
        });
    }
    let results2 = align_batch(&mut ctx, &portion2, cfg, &mut alignment, obs, rank.rank());
    route_results(results2, &mut pending);

    // Every exit, the abnormal world-teardown ones included, breaks out
    // of 'run to the one shutdown report below.
    let mut done_count = 0usize;
    'run: while done_count < k {
        // Wait for any sub-master, generating pairs in the meantime.
        // Duplicate Work (a session's sequence we already answered) is
        // served from that session's cached report.
        let (from, msg) = 'wait: loop {
            let incoming = match rank.try_recv() {
                Ok(Some(fm)) => Some(fm),
                Err(_) => break 'run,
                Ok(None) => {
                    let buffered: usize = pairbufs.iter().map(|b| b.len()).sum();
                    if !generator.is_exhausted() && buffered < cfg.pairbuf_cap {
                        let room = cfg.pairbuf_cap - buffered;
                        let chunk = pairgen.time(|| generator.next_batch(IDLE_GEN_CHUNK.min(room)));
                        for p in chunk {
                            let (i, j) = p.est_indices();
                            let owner = spec.owner_of_pair(i, j);
                            gen_by_owner[owner] += 1;
                            pairbufs[owner].push_back(p);
                        }
                        None
                    } else {
                        match rank.recv() {
                            Ok(fm) => Some(fm),
                            Err(_) => break 'run,
                        }
                    }
                }
            };
            match incoming {
                Some((from, Msg::Work { seq, .. }))
                    if from >= 1 && from <= k && seq <= sessions[from - 1].last_seq =>
                {
                    let m = from - 1;
                    // Clone out of the session to satisfy the borrow on
                    // `sessions`; duplicate answers are rare.
                    let cached = sessions[m].last_report.clone();
                    send_report(rank, topo, m, slave_idx, num_slaves, obs, &cached);
                }
                Some(fm) => break 'wait fm,
                None => {}
            }
        };

        match msg {
            // Reconciler abort: a sub-master died; every session that
            // cannot be closed by its owner is closed here.
            Msg::Shutdown if from == 0 => break 'run,
            Msg::Shutdown => {
                debug_assert!(
                    from >= 1 && from <= k,
                    "shutdown from non-master rank {from}"
                );
                let m = from - 1;
                if !sessions[m].done {
                    sessions[m].done = true;
                    done_count += 1;
                }
            }
            Msg::Work {
                seq,
                pairs,
                request,
            } => {
                debug_assert!(from >= 1 && from <= k, "work from non-master rank {from}");
                let m = from - 1;
                debug_assert_eq!(
                    seq,
                    sessions[m].last_seq + 1,
                    "sub-master {m} skipped a sequence number"
                );
                // Top this shard's PAIRBUF up to the requested E. The
                // generator feeds every shard, so satisfying one shard's
                // demand can buffer pairs for the others — they are not
                // lost, just waiting for their owner's next request.
                while pairbufs[m].len() < request && !generator.is_exhausted() {
                    let want = (request - pairbufs[m].len()).max(IDLE_GEN_CHUNK);
                    for p in pairgen.time(|| generator.next_batch(want)) {
                        let (i, j) = p.est_indices();
                        let owner = spec.owner_of_pair(i, j);
                        gen_by_owner[owner] += 1;
                        pairbufs[owner].push_back(p);
                    }
                }
                let take = request.min(pairbufs[m].len());
                let outgoing: Vec<CandidatePair> = pairbufs[m].drain(..take).collect();
                let report = Msg::Report {
                    seq,
                    results: std::mem::take(&mut pending[m]),
                    pairs: outgoing,
                    exhausted: generator.is_exhausted() && pairbufs[m].is_empty(),
                };
                send_report(rank, topo, m, slave_idx, num_slaves, obs, &report);
                sessions[m].last_report = report;
                sessions[m].last_seq = seq;
                // Align the received batch now; every outcome belongs to
                // the dispatching shard (it only dispatches pairs it
                // owns), so the routing is a no-op in disguise — kept
                // explicit so the invariant is checked, not assumed.
                let results = align_batch(&mut ctx, &pairs, cfg, &mut alignment, obs, rank.rank());
                route_results(results, &mut pending);
            }
            Msg::Report { .. }
            | Msg::Summary(_)
            | Msg::CrossMerge { .. }
            | Msg::ShardDone { .. } => {
                unreachable!("sharded slaves never receive {}", msg.kind())
            }
        }
    }
    WorkerSummary {
        unconsumed: pairbufs.iter().map(|b| b.len() as u64).sum(),
        gen_by_owner,
        unconsumed_by_owner: pairbufs.iter().map(|b| b.len() as u64).collect(),
        ..summarize(
            obs,
            rank.rank(),
            &generator,
            &ctx,
            sort_timer.secs(),
            pairgen.secs(),
            alignment,
        )
    }
}

/// Send one report to sub-master `m`, with the same trace footprint as
/// the single-master slave — except the flow id lives in the sharded
/// namespace `flow_id(m * num_slaves + slave_idx, seq)` so the K
/// concurrent per-session sequence spaces never collide in the trace.
fn send_report(
    rank: &Rank<Msg>,
    topo: ShardTopology,
    m: usize,
    slave_idx: usize,
    num_slaves: usize,
    obs: &Obs,
    report: &Msg,
) {
    let t0_us = obs.trace_enabled().then(|| obs.now_us());
    rank.send(topo.submaster_rank(m), report.clone());
    if let (Some(t0), Msg::Report { seq, pairs, .. }) = (t0_us, report) {
        obs.trace_with(|tracer| {
            let end = obs.now_us();
            let r = rank.rank();
            let id = flow_id(m * num_slaves + slave_idx, *seq);
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
