//! The single-master clustering core: the paper's work-saving rule,
//! written once.
//!
//! Every clusterer that owns `CLUSTERS` runs the same bookkeeping: a
//! promising pair whose ESTs already share a cluster is skipped, an
//! accepted alignment merges two clusters, and each effective merge is
//! logged in the [`MergeTrace`]. [`ClusterCore`] owns that state — the
//! union–find, the trace and the [`ClusterStats`] pair counters — and
//! exposes it as three operations:
//!
//! * [`ClusterCore::skip`] — the skip test;
//! * [`ClusterCore::accept`] — fold one alignment outcome (count it,
//!   union on acceptance, trace an effective merge);
//! * [`ClusterCore::drain`] — run one pair generator to exhaustion
//!   through a structural pair filter, the skip test, the caller's
//!   [`AlignContext`] and `accept`, then report to `Obs` (its registry
//!   and, if attached, its trace) once.
//!
//! The sequential, persistent and incremental drivers are `drain` loops
//! over a core. The parallel master ([`crate::master`]) uses `skip` and
//! `accept` only: its slaves align, and it stays a pure state machine
//! with no `Obs` and no clock.

use crate::align_task::{AlignContext, PairOutcome};
use crate::config::ClusterConfig;
use crate::stats::{ClusterResult, ClusterStats};
use crate::trace::{MergeRecord, MergeTrace};
use pace_dsu::DisjointSets;
use pace_obs::trace::T_MERGE;
use pace_obs::{metric, Obs, Timer};
use pace_pairgen::{CandidatePair, PairGenerator};

/// `CLUSTERS`, the merge trace and the pair counters of one master.
#[derive(Debug)]
pub struct ClusterCore {
    /// The cluster structure.
    pub sets: DisjointSets,
    /// Every effective merge, in the order performed.
    pub trace: MergeTrace,
    /// Pair counters.
    pub stats: ClusterStats,
    /// `ClusterConfig::skip_clustered_pairs`.
    skip_clustered: bool,
}

impl ClusterCore {
    /// A core over `sets` with an empty trace and zero counters.
    pub fn new(sets: DisjointSets, cfg: &ClusterConfig) -> Self {
        Self::resume(sets, MergeTrace::new(), ClusterStats::default(), cfg)
    }

    /// A core continuing from saved state: a checkpoint, or the
    /// partition an earlier fold left behind.
    pub fn resume(
        sets: DisjointSets,
        trace: MergeTrace,
        stats: ClusterStats,
        cfg: &ClusterConfig,
    ) -> Self {
        ClusterCore {
            sets,
            trace,
            stats,
            skip_clustered: cfg.skip_clustered_pairs,
        }
    }

    /// The skip test: whether `pair`'s ESTs already share a cluster
    /// (with skipping enabled). A skipped pair is booked in
    /// `pairs_skipped`.
    pub fn skip(&mut self, pair: &CandidatePair) -> bool {
        let (i, j) = pair.est_indices();
        let skip = self.skip_clustered && self.sets.same(i, j);
        self.stats.pairs_skipped += u64::from(skip);
        skip
    }

    /// Fold one alignment outcome: count it as processed and, when it
    /// was accepted, union its ESTs and trace the merge if the union
    /// joined two clusters. Returns whether it did.
    pub fn accept(&mut self, outcome: &PairOutcome) -> bool {
        self.stats.pairs_processed += 1;
        if !outcome.accepted {
            return false;
        }
        self.stats.pairs_accepted += 1;
        let (i, j) = outcome.pair.est_indices();
        let merged = self.sets.union(i, j);
        if merged {
            self.stats.merges += 1;
            self.trace.record(outcome);
        }
        merged
    }

    /// Run `generator` to exhaustion: a pair failing the structural
    /// filter `keep(est_i, est_j)` is booked as skipped, the rest go
    /// through [`skip`](Self::skip), alignment in `ctx`, and
    /// [`accept`](Self::accept). Every pair the generator emits is
    /// counted in `pairs_generated` and either skipped or processed, so
    /// the drain conserves pairs exactly.
    ///
    /// Reports to `obs` once, at the end: the drain's `merge` trace
    /// instants, the generator's MCS-length histogram, its peak buffer
    /// and its footprint (raising the `pairgen.peak_buffered` and
    /// `pairgen.memory_bytes` gauges), one
    /// `pair_generation` and one `alignment` phase sample, and the pairs
    /// served by `ctx` as workspace reuses. The pair counters are left to
    /// the caller, who knows what a run is.
    pub fn drain(
        &mut self,
        mut generator: PairGenerator<'_>,
        mut keep: impl FnMut(usize, usize) -> bool,
        ctx: &mut AlignContext<'_>,
        cfg: &ClusterConfig,
        obs: &Obs,
    ) {
        let merges_before = self.trace.len();
        let handled_before = ctx.pairs_handled();
        let prefiltered_before = ctx.pairs_prefiltered();
        let processed_before = self.stats.pairs_processed;
        let mut align = Timer::new();
        let mut pairgen = Timer::new();
        let mut batch: Vec<CandidatePair> = Vec::with_capacity(cfg.batchsize);
        loop {
            pairgen.time(|| generator.next_batch_into(cfg.batchsize, &mut batch));
            if batch.is_empty() {
                break;
            }
            for pair in &batch {
                let (i, j) = pair.est_indices();
                if !keep(i, j) {
                    self.stats.pairs_skipped += 1;
                } else if !self.skip(pair) {
                    let outcome = align.time(|| ctx.align(pair, cfg));
                    self.accept(&outcome);
                }
            }
        }
        let handled = ctx.pairs_handled() - handled_before;
        debug_assert_eq!(handled, self.stats.pairs_processed - processed_before);
        self.stats.pairs_generated += generator.stats().emitted;
        self.stats.pairs_prefiltered += ctx.pairs_prefiltered() - prefiltered_before;

        emit_merges(obs, &self.trace.records()[merges_before..]);
        let reg = obs.registry();
        for (&len, &n) in generator.emitted_by_mcs_len() {
            reg.observe_n(metric::PAIRS_MCS_LEN, len as u64, n);
        }
        reg.set_gauge_max(
            metric::PAIRGEN_PEAK_BUFFERED,
            generator.peak_buffered() as f64,
        );
        reg.set_gauge_max(
            metric::PAIRGEN_MEMORY_BYTES,
            generator.memory_bytes() as f64,
        );
        reg.record_phase(metric::PHASE_PAIR_GENERATION, 0, pairgen.secs());
        reg.record_phase(metric::PHASE_ALIGNMENT, 0, align.secs());
        reg.add(metric::ALIGN_WS_REUSES, handled);
    }

    /// The final partition and counters, plus the merge trace.
    pub fn into_result(mut self) -> (ClusterResult, MergeTrace) {
        let labels = self.sets.labels();
        let result = ClusterResult {
            num_clusters: self.sets.num_sets(),
            labels,
            stats: self.stats,
        };
        (result, self.trace)
    }
}

/// Record one `merge` trace instant per record, in merge order, on the
/// master's rank 0 (`id` = `est_a`, `arg` = `est_b`). Free when no
/// tracer is attached.
pub(crate) fn emit_merges(obs: &Obs, records: &[MergeRecord]) {
    obs.trace_with(|tracer| {
        let t = obs.now_us();
        for r in records {
            tracer.instant(0, T_MERGE, t, r.est_a as u64, r.est_b as u64);
        }
    });
}
