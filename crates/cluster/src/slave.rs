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

use crate::align_task::{AlignContext, PairOutcome};
use crate::config::ClusterConfig;
use crate::messages::{Msg, WorkerSummary};
use pace_gst::LocalForest;
use pace_mpisim::Rank;
use pace_obs::trace::{flow_id, T_REPORT_SEND};
use pace_obs::{metric, Obs, Timer, TraceKind};
use pace_pairgen::{CandidatePair, PairGenerator};
use pace_seq::{PackedText, SequenceStore};
use std::collections::VecDeque;

/// How many pairs to generate per idle poll while waiting for the master
/// (small, so the slave stays responsive).
pub(crate) const IDLE_GEN_CHUNK: usize = 16;

/// Run the slave protocol to completion with no instrumentation.
pub fn run_slave(
    rank: &Rank<Msg>,
    master: usize,
    store: &SequenceStore,
    forest: &LocalForest,
    cfg: &ClusterConfig,
) -> WorkerSummary {
    run_slave_obs(rank, master, store, None, forest, cfg, &Obs::noop())
}

/// Run the slave protocol to completion, instrumented. `master` is the
/// master's rank id; `packed` is the shared 2-bit view the alignment
/// kernel reads when `cfg.packed_alignment` built one. The rank's
/// `node_sorting`, `pair_generation` and `alignment` totals land in
/// `obs`'s registry and the generator's MCS-length distribution in the
/// [`metric::PAIRS_MCS_LEN`] histogram. The returned summary carries the
/// same totals, for a master in another process; its `partitioning` and
/// `gst_construction` are left to the caller, who ran those phases.
pub fn run_slave_obs(
    rank: &Rank<Msg>,
    master: usize,
    store: &SequenceStore,
    packed: Option<&PackedText>,
    forest: &LocalForest,
    cfg: &ClusterConfig,
    obs: &Obs,
) -> WorkerSummary {
    let mut sort_timer = Timer::new();
    let mut generator = sort_timer.time(|| PairGenerator::new(store, forest, cfg.pair_gen()));
    let mut pairgen = Timer::new();
    let mut alignment = 0.0;

    // One alignment context for the whole rank: DP scratch is allocated
    // once here and only grows to the largest pair this slave ever sees.
    let mut ctx = AlignContext::new(store, packed);

    let mut pairbuf: VecDeque<CandidatePair> = VecDeque::new();

    // Startup: three equal portions of batchsize pairs. The unsolicited
    // startup report is sequence 0; the cached copy answers duplicate
    // `Work` messages (the master re-sends a batch when our report goes
    // missing) without ever re-aligning anything.
    let portion1 = pairgen.time(|| generator.next_batch(cfg.batchsize));
    let portion2 = pairgen.time(|| generator.next_batch(cfg.batchsize));
    let portion3 = pairgen.time(|| generator.next_batch(cfg.batchsize));
    let first_results = align_batch(&mut ctx, &portion1, cfg, &mut alignment, obs, rank.rank());
    let startup = Msg::Report {
        seq: 0,
        results: first_results,
        pairs: portion3,
        exhausted: generator.is_exhausted() && pairbuf.is_empty(),
    };
    send_report(rank, master, obs, &startup);
    let mut last_report = startup;
    let mut last_seq: u64 = 0;
    let mut nextwork = portion2;

    // Every exit, the abnormal world-teardown ones included, breaks out
    // of 'run to the one shutdown report below.
    'run: loop {
        // Compute alignments on NEXTWORK; the master's reply to our last
        // report travels concurrently.
        let results = align_batch(&mut ctx, &nextwork, cfg, &mut alignment, obs, rank.rank());

        // Wait for the master, generating pairs in the meantime. A
        // duplicate `Work` (sequence we already handled) means the
        // master lost our report: answer with the cached copy and keep
        // waiting — the pairs it carries were aligned exactly once.
        let msg = 'wait: loop {
            let incoming = match rank.try_recv() {
                Ok(Some((_, msg))) => Some(msg),
                // World torn down without a Shutdown (should not happen
                // in normal operation).
                Err(_) => break 'run,
                Ok(None) => {
                    if !generator.is_exhausted() && pairbuf.len() < cfg.pairbuf_cap {
                        let room = cfg.pairbuf_cap - pairbuf.len();
                        pairbuf.extend(
                            pairgen.time(|| generator.next_batch(IDLE_GEN_CHUNK.min(room))),
                        );
                        None
                    } else {
                        // Nothing useful to do: block.
                        match rank.recv() {
                            Ok((_, msg)) => Some(msg),
                            Err(_) => break 'run,
                        }
                    }
                }
            };
            match incoming {
                Some(Msg::Work { seq, .. }) if seq <= last_seq => {
                    send_report(rank, master, obs, &last_report);
                }
                Some(msg) => break 'wait msg,
                None => {}
            }
        };

        match msg {
            Msg::Shutdown => break 'run,
            Msg::Work {
                seq,
                pairs,
                request,
            } => {
                debug_assert_eq!(seq, last_seq + 1, "master skipped a sequence number");
                // Top PAIRBUF up to the requested E.
                while pairbuf.len() < request && !generator.is_exhausted() {
                    let want = (request - pairbuf.len()).max(IDLE_GEN_CHUNK);
                    pairbuf.extend(pairgen.time(|| generator.next_batch(want)));
                }
                let take = request.min(pairbuf.len());
                let outgoing: Vec<CandidatePair> = pairbuf.drain(..take).collect();
                let report = Msg::Report {
                    seq,
                    results,
                    pairs: outgoing,
                    exhausted: generator.is_exhausted() && pairbuf.is_empty(),
                };
                send_report(rank, master, obs, &report);
                last_report = report;
                last_seq = seq;
                nextwork = pairs;
            }
            Msg::Report { .. }
            | Msg::Summary(_)
            | Msg::CrossMerge { .. }
            | Msg::ShardDone { .. } => {
                unreachable!("slaves never receive {}", msg.kind())
            }
        }
    }
    WorkerSummary {
        unconsumed: pairbuf.len() as u64,
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

/// Send one report to the master, recording its trace footprint when a
/// tracer is attached: a `report_send` span on this rank plus the flow
/// point that ties the report to its batch's dispatch arrow. The
/// unsolicited startup report (sequence 0) *opens* its flow — there is
/// no master dispatch for it — while every later report (including
/// duplicate resends of the cached copy) is a step on the flow the
/// master opened.
fn send_report(rank: &Rank<Msg>, master: usize, obs: &Obs, report: &Msg) {
    let t0_us = obs.trace_enabled().then(|| obs.now_us());
    rank.send(master, report.clone());
    if let (Some(t0), Msg::Report { seq, pairs, .. }) = (t0_us, report) {
        obs.trace_with(|tracer| {
            let end = obs.now_us();
            let r = rank.rank();
            let id = flow_id(rank.rank().saturating_sub(1), *seq);
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
pub(crate) fn align_batch(
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

/// A finished slave's report, shared by both slave loops: record the
/// generator's MCS-length histogram and the rank's `node_sorting`,
/// `pair_generation` and `alignment` totals into `obs`, and return them
/// in a summary with the generator and workspace counters. The caller
/// adds what is still buffered.
pub(crate) fn summarize(
    obs: &Obs,
    rank_id: usize,
    generator: &PairGenerator,
    ctx: &AlignContext,
    node_sorting: f64,
    pair_generation: f64,
    alignment: f64,
) -> WorkerSummary {
    let reg = obs.registry();
    for (&len, &n) in generator.emitted_by_mcs_len() {
        reg.observe_n(metric::PAIRS_MCS_LEN, len as u64, n);
    }
    reg.record_phase(metric::PHASE_NODE_SORTING, rank_id, node_sorting);
    reg.record_phase(metric::PHASE_PAIR_GENERATION, rank_id, pair_generation);
    reg.record_phase(metric::PHASE_ALIGNMENT, rank_id, alignment);
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
        prefiltered: ctx.pairs_prefiltered(),
        ws_reuses: ctx.pairs_handled(),
        ..WorkerSummary::default()
    }
}

// Integration coverage for this loop lives in `driver_par` tests, which
// run full master+slave worlds; unit-testing the loop alone would need a
// mock master speaking the whole protocol.
