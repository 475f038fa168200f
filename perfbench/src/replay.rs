//! The traced replay: the skip→align→union loop rebuilt from the
//! crates' public calls, with a timer around every call into a layer.
//!
//! The loop is the one the sequential driver and the incremental fold
//! run: partition the suffixes into buckets, build the rank's forest,
//! generate pairs in decreasing-MCS order, skip pairs already in one
//! cluster, align the rest, union on acceptance. The replay must arrive
//! at the driver's partition; the callers check that.

use crate::{ratio, secs, timed, Outcome};
use pace_align::Scoring;
use pace_cluster::{AlignContext, ClusterConfig, PairOutcome};
use pace_dsu::DisjointSets;
use pace_pairgen::{CandidatePair, PairGenConfig, PairGenerator};
use pace_seq::{PackedText, SequenceStore};
use std::time::Instant;

/// Seconds spent inside each layer's public calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    /// `SequenceStore::from_ests` (the fold rebuilds the store).
    pub store_s: f64,
    /// `count_buckets` + `assign_buckets`.
    pub partition_s: f64,
    /// `build_forest_for_rank`.
    pub build_s: f64,
    /// `PairGenerator::new`.
    pub pairgen_setup_s: f64,
    /// `PairGenerator::next_batch_into`.
    pub pairgen_s: f64,
    /// `DisjointSets::same`.
    pub same_s: f64,
    /// `DisjointSets::union`.
    pub union_s: f64,
    /// `AlignContext::align`.
    pub align_s: f64,
}

impl LayerTimes {
    pub fn sum(&self) -> f64 {
        self.store_s
            + self.partition_s
            + self.build_s
            + self.pairgen_setup_s
            + self.pairgen_s
            + self.same_s
            + self.union_s
            + self.align_s
    }
}

/// Layer times and counts accumulated over one or more passes.
#[derive(Debug, Default)]
pub struct Replay {
    pub times: LayerTimes,
    /// Wall time of the passes, timers included.
    pub wall_s: f64,
    pub nodes: u64,
    pub emitted: u64,
    pub processed: u64,
    pub accepted: u64,
    pub skipped: u64,
    pub prefiltered: u64,
    /// Largest pair-generator footprint seen.
    pub pairgen_bytes: u64,
    /// The first aligned pairs, kept for the kernel ratios.
    pub aligned: Vec<CandidatePair>,
}

impl Replay {
    /// One skip→align→union pass over `store`, updating `clusters`.
    ///
    /// Pairs whose ESTs both lie below `first_new` were judged in an
    /// earlier fold and are skipped, as the incremental fold does; a
    /// batch run passes 0. Up to `keep` aligned pairs are remembered.
    pub fn pass(
        &mut self,
        store: &SequenceStore,
        cfg: &ClusterConfig,
        clusters: &mut DisjointSets,
        first_new: usize,
        keep: usize,
    ) {
        let t0 = Instant::now();
        let t = &mut self.times;
        let partition = timed(&mut t.partition_s, || {
            let counts = pace_gst::count_buckets(store, cfg.window_w);
            pace_gst::assign_buckets(&counts, 1)
        });
        let forest = timed(&mut t.build_s, || {
            pace_gst::build_forest_for_rank(store, &partition, 0)
        });
        let mut generator = timed(&mut t.pairgen_setup_s, || {
            PairGenerator::new(
                store,
                &forest,
                PairGenConfig {
                    psi: cfg.psi,
                    order: cfg.order,
                },
            )
        });
        let packed = cfg.packed_alignment.then(|| PackedText::from_store(store));
        let mut ctx = AlignContext::new(store, packed.as_ref());
        let mut batch: Vec<CandidatePair> = Vec::new();
        loop {
            timed(&mut t.pairgen_s, || {
                generator.next_batch_into(cfg.batchsize, &mut batch)
            });
            if batch.is_empty() {
                break;
            }
            for &pair in &batch {
                let (i, j) = pair.est_indices();
                if i < first_new && j < first_new {
                    self.skipped += 1;
                    continue;
                }
                if cfg.skip_clustered_pairs && timed(&mut t.same_s, || clusters.same(i, j)) {
                    self.skipped += 1;
                    continue;
                }
                let outcome = timed(&mut t.align_s, || ctx.align(&pair, cfg));
                self.processed += 1;
                if self.aligned.len() < keep {
                    self.aligned.push(pair);
                }
                if outcome.accepted {
                    self.accepted += 1;
                    timed(&mut t.union_s, || clusters.union(i, j));
                }
            }
        }
        self.nodes += forest.num_nodes() as u64;
        self.emitted += generator.stats().emitted;
        self.prefiltered += ctx.pairs_prefiltered();
        self.pairgen_bytes = self.pairgen_bytes.max(generator.memory_bytes() as u64);
        self.wall_s += secs(t0);
    }
}

/// Paired kernel timings on identical pairs: each ratio is the
/// candidate's median pass time over its base's.
#[derive(Debug, Clone, Copy)]
pub struct KernelRatios {
    /// Myers over scalar, both under `Scoring::edit_linear`.
    pub myers_ratio: f64,
    /// Median scalar pass time under `Scoring::edit_linear`.
    pub scalar_s: f64,
    /// Packed over ASCII, under the workload's own scoring.
    pub packed_ratio: f64,
    /// Median ASCII pass time.
    pub ascii_s: f64,
    /// Whether each pair of kernels decided every pair identically.
    pub identical: bool,
}

/// Align `pairs` through fresh [`AlignContext`]s, `rounds` times per
/// kernel, alternating which kernel of a pair goes first.
pub fn kernel_ratios(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    pairs: &[CandidatePair],
    rounds: usize,
) -> KernelRatios {
    let mut scalar_cfg = cfg.clone();
    scalar_cfg.scoring = Scoring::edit_linear();
    scalar_cfg.myers_alignment = false;
    let mut myers_cfg = scalar_cfg.clone();
    myers_cfg.myers_alignment = true;
    let mut ascii_cfg = cfg.clone();
    ascii_cfg.myers_alignment = false;
    let packed = PackedText::from_store(store);

    let pass = |cfg: &ClusterConfig, text: Option<&PackedText>, outs: &mut Vec<PairOutcome>| {
        outs.clear();
        let mut ctx = AlignContext::new(store, text);
        let t0 = Instant::now();
        outs.extend(pairs.iter().map(|p| ctx.align(p, cfg)));
        secs(t0)
    };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut identical = true;
    let mut paired = |base: (&ClusterConfig, Option<&PackedText>),
                      cand: (&ClusterConfig, Option<&PackedText>)| {
        let (mut base_t, mut cand_t) = (Vec::new(), Vec::new());
        for round in 0..rounds.max(1) {
            if round % 2 == 0 {
                base_t.push(pass(base.0, base.1, &mut a));
                cand_t.push(pass(cand.0, cand.1, &mut b));
            } else {
                cand_t.push(pass(cand.0, cand.1, &mut b));
                base_t.push(pass(base.0, base.1, &mut a));
            }
            identical &= a == b;
        }
        let base_s = crate::median(&mut base_t);
        (ratio(crate::median(&mut cand_t), base_s), base_s)
    };
    let (myers_ratio, scalar_s) = paired((&scalar_cfg, None), (&myers_cfg, None));
    let (packed_ratio, ascii_s) = paired((&ascii_cfg, None), (&ascii_cfg, Some(&packed)));
    KernelRatios {
        myers_ratio,
        scalar_s,
        packed_ratio,
        ascii_s,
        identical,
    }
}

/// The per-layer metrics of a replay. `store_s` is the time spent
/// building the sequence store.
pub fn report_layers(out: &mut Outcome, r: &Replay, store_s: f64) {
    let t = &r.times;
    out.metric("seq.store_s", store_s, "s");
    out.metric("gst.partition_s", t.partition_s, "s");
    out.metric("gst.build_s", t.build_s, "s");
    out.metric("gst.nodes", r.nodes as f64, "count");
    out.metric("pairgen.setup_s", t.pairgen_setup_s, "s");
    out.metric("pairgen.generate_s", t.pairgen_s, "s");
    out.metric("pairgen.pairs", r.emitted as f64, "count");
    out.metric(
        "pairgen.useful_frac",
        ratio(r.processed as f64, r.emitted as f64),
        "frac",
    );
    out.metric("pairgen.memory_bytes", r.pairgen_bytes as f64, "bytes");
    out.metric("align.s", t.align_s, "s");
    out.metric("align.pairs", r.processed as f64, "count");
    out.metric("align.prefiltered", r.prefiltered as f64, "count");
    out.metric(
        "align.accept_frac",
        ratio(r.accepted as f64, r.processed as f64),
        "frac",
    );
    out.metric("dsu.same_s", t.same_s, "s");
    out.metric("dsu.union_s", t.union_s, "s");
}

/// Largest share of a replay's wall time the layer timers may leave
/// uncovered.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// The time ledger: a replay's wall time, the part no layer timer
/// covers, and the replay's cost over the untraced base. A ledger that
/// leaves more than [`MAX_UNATTRIBUTED`] of the wall uncovered counts as
/// a failed operation.
pub fn report_ledger(out: &mut Outcome, wall_s: f64, attributed_s: f64, base_s: f64) {
    let unattributed = wall_s - attributed_s;
    out.check(unattributed <= MAX_UNATTRIBUTED * wall_s, || {
        format!("the layer timers leave {unattributed:.4} s of {wall_s:.4} s unattributed")
    });
    out.metric("replay.wall_s", wall_s, "s");
    out.metric("replay.unattributed_s", unattributed, "s");
    out.metric("replay.overhead_frac", ratio(wall_s, base_s) - 1.0, "frac");
}

/// Paired kernel ratios on the pairs the replay aligned.
pub fn report_kernels(
    out: &mut Outcome,
    store: &SequenceStore,
    cfg: &ClusterConfig,
    r: &Replay,
    rounds: usize,
) {
    let k = kernel_ratios(store, cfg, &r.aligned, rounds);
    out.check(k.identical, || "kernels decided a pair differently".into());
    out.info("kernel_pairs", r.aligned.len());
    out.metric("align.myers_ratio", k.myers_ratio, "ratio");
    out.metric("align.scalar_base_s", k.scalar_s, "s");
    out.metric("align.packed_ratio", k.packed_ratio, "ratio");
    out.metric("align.ascii_base_s", k.ascii_s, "s");
}
