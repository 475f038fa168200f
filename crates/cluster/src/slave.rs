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
//! The master sits at rank 0 and slave `i` at rank `i + 1`. A duplicate
//! `Work` (a sequence already answered) is answered from the cached
//! report, and once the slave reports `exhausted` the master never sees
//! another pair from it. A `Shutdown` ends the loop.

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

/// How many pairs to take per idle poll while waiting for the master.
/// The generator fills its buffer a whole band of its schedule at a
/// time, so a poll that finds the buffer short runs to the end of a
/// band: a band, not this chunk, bounds the slave's longest step and
/// the pairs buffered inside the generator.
const IDLE_GEN_CHUNK: usize = 16;

/// Capacity of `PAIRBUF`, the pairs generated ahead of the master's
/// requests while the slave waits.
const PAIRBUF_CAP: usize = 1 << 12;

/// Run the slave protocol to completion with no instrumentation, against
/// the master at rank 0.
pub fn run_slave(
    rank: &Rank<Msg>,
    store: &SequenceStore,
    forest: &LocalForest,
    cfg: &ClusterConfig,
) -> WorkerSummary {
    run_slave_obs(rank, store, None, forest, cfg, &Obs::noop())
}

/// Run the slave protocol to completion, instrumented. `packed` is the
/// 2-bit view the alignment kernel reads when `cfg.packed_alignment`
/// built one. Each alignment batch is an `align_batch` span in `obs`;
/// the returned summary carries the rank's `node_sorting`,
/// `pair_generation` and per-batch alignment seconds, the generator's
/// MCS-length distribution and peak buffer, and the pair counters, for
/// the master to record. Its partitioning and forest fields are left to
/// the caller, who ran those phases.
pub fn run_slave_obs(
    rank: &Rank<Msg>,
    store: &SequenceStore,
    packed: Option<&PackedText>,
    forest: &LocalForest,
    cfg: &ClusterConfig,
    obs: &Obs,
) -> WorkerSummary {
    let me = rank.rank();
    assert!(me >= 1, "rank 0 is the master");
    let slave_idx = me - 1;
    let mut sort_timer = Timer::new();
    let mut generator = sort_timer.time(|| PairGenerator::new(store, forest, cfg.pair_gen()));
    let mut pairgen = Timer::new();
    let mut batches = Vec::new();

    // One alignment context for the whole rank: DP scratch is allocated
    // once here and only grows to the largest pair this slave ever sees.
    let mut ctx = AlignContext::new(store, packed);

    // Startup: three equal portions of batchsize pairs. Portion 1 is
    // aligned and ships with portion 3 in the startup report (sequence
    // 0); portion 2 is aligned right after the report goes out, and its
    // results ride on the answer to the master's first Work. The cached
    // copy of each report answers duplicate `Work` messages (the master
    // re-sends a batch when our report goes missing) without re-aligning
    // anything.
    let portion1 = pairgen.time(|| generator.next_batch(cfg.batchsize));
    let portion2 = pairgen.time(|| generator.next_batch(cfg.batchsize));
    let portion3 = pairgen.time(|| generator.next_batch(cfg.batchsize));
    // Pairs taken out of the generator; the rest of what it emitted is
    // still buffered inside it.
    let mut taken = (portion1.len() + portion2.len() + portion3.len()) as u64;
    let mut last_report = Msg::Report {
        seq: 0,
        results: align_batch(&mut ctx, &portion1, cfg, &mut batches, obs, me),
        pairs: portion3,
        exhausted: generator.is_exhausted(),
    };
    send_report(rank, slave_idx, obs, &last_report);
    let mut last_seq = 0;
    // Alignment outcomes owed to the master, sent with the next report.
    let mut pending = align_batch(&mut ctx, &portion2, cfg, &mut batches, obs, me);
    let mut pairbuf: VecDeque<CandidatePair> = VecDeque::new();

    // Every exit, the abnormal world-teardown ones included, breaks out
    // of 'run to the one summary below.
    'run: loop {
        // Wait for the master, generating pairs in the meantime.
        let msg = loop {
            match rank.try_recv() {
                Ok(Some((_, msg))) => break msg,
                // World torn down without a Shutdown (should not happen
                // in normal operation).
                Err(_) => break 'run,
                Ok(None) => {
                    if !generator.is_exhausted() && pairbuf.len() < PAIRBUF_CAP {
                        let room = PAIRBUF_CAP - pairbuf.len();
                        let chunk = pairgen.time(|| generator.next_batch(IDLE_GEN_CHUNK.min(room)));
                        taken += chunk.len() as u64;
                        pairbuf.extend(chunk);
                    } else {
                        // Nothing useful to do: block.
                        match rank.recv() {
                            Ok((_, msg)) => break msg,
                            Err(_) => break 'run,
                        }
                    }
                }
            }
        };

        match msg {
            Msg::Shutdown => break 'run,
            // A duplicate `Work` (a sequence already answered) means the
            // master lost our report: answer with the cached copy — the
            // pairs it carries were aligned exactly once.
            Msg::Work { seq, .. } if seq <= last_seq => {
                send_report(rank, slave_idx, obs, &last_report);
            }
            Msg::Work {
                seq,
                pairs,
                request,
            } => {
                debug_assert_eq!(seq, last_seq + 1, "master skipped a sequence number");
                // Top PAIRBUF up to the requested E.
                while pairbuf.len() < request && !generator.is_exhausted() {
                    let want = (request - pairbuf.len()).max(IDLE_GEN_CHUNK);
                    let batch = pairgen.time(|| generator.next_batch(want));
                    taken += batch.len() as u64;
                    pairbuf.extend(batch);
                }
                let take = request.min(pairbuf.len());
                last_report = Msg::Report {
                    seq,
                    results: std::mem::take(&mut pending),
                    pairs: pairbuf.drain(..take).collect(),
                    exhausted: generator.is_exhausted() && pairbuf.is_empty(),
                };
                send_report(rank, slave_idx, obs, &last_report);
                last_seq = seq;
                // Align the received batch now, while the master's reply
                // travels.
                pending = align_batch(&mut ctx, &pairs, cfg, &mut batches, obs, me);
            }
            Msg::Report { .. } | Msg::Summary(_) => {
                unreachable!("slaves never receive {}", msg.kind())
            }
        }
    }

    let gen_emitted = generator.stats().emitted;
    WorkerSummary {
        gen_emitted,
        unconsumed: pairbuf.len() as u64 + (gen_emitted - taken),
        prefiltered: ctx.pairs_prefiltered(),
        ws_reuses: ctx.pairs_handled(),
        node_sorting: sort_timer.secs(),
        pair_generation: pairgen.secs(),
        align_batches: batches,
        mcs_len: generator
            .emitted_by_mcs_len()
            .iter()
            .map(|(&len, &n)| (len, n))
            .collect(),
        peak_buffered: generator.peak_buffered() as u64,
        pairgen_memory_bytes: generator.memory_bytes() as u64,
        ..WorkerSummary::default()
    }
}

/// Send one report to the master, recording its trace footprint when a
/// tracer is attached: a `report_send` span on this rank plus the flow
/// point that ties the report to its batch's dispatch arrow. The
/// unsolicited startup report (sequence 0) *opens* its flow — there is
/// no master dispatch for it — while every later report (including
/// duplicate resends of the cached copy) is a step on the flow the
/// master opened.
fn send_report(rank: &Rank<Msg>, slave_idx: usize, obs: &Obs, report: &Msg) {
    let t0_us = obs.trace_enabled().then(|| obs.now_us());
    rank.send(0, report.clone());
    if let (Some(t0), Msg::Report { seq, pairs, .. }) = (t0_us, report) {
        obs.trace_with(|tracer| {
            let end = obs.now_us();
            let r = rank.rank();
            let id = flow_id(slave_idx, *seq);
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
/// per-batch series behind batch-size tuning), and its seconds join the
/// rank's `batches`.
fn align_batch(
    ctx: &mut AlignContext,
    batch: &[CandidatePair],
    cfg: &ClusterConfig,
    batches: &mut Vec<f64>,
    obs: &Obs,
    rank_id: usize,
) -> Vec<PairOutcome> {
    if batch.is_empty() {
        return Vec::new();
    }
    let span = obs.span_on(metric::PHASE_ALIGN_BATCH, rank_id);
    let out = batch.iter().map(|p| ctx.align(p, cfg)).collect();
    batches.push(span.finish());
    out
}
