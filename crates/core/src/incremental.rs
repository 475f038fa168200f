//! Incremental clustering of EST batches — the daemon's fold primitive.
//!
//! The paper closes with an open problem: "Is there a way to
//! incrementally adjust the EST clusters when a new batch of ESTs is
//! sequenced, instead of the current method of clustering all the ESTs
//! from scratch?" This module implements the natural PaCE-shaped answer:
//!
//! * a fold builds only the ψ-groups its batch touches. By Lemma 1 a
//!   pair with a new EST is emitted only at a node whose ψ-prefix group
//!   holds a suffix of that EST, so the fold hands
//!   [`pace_gst::build_in_scope_batch`] a new-string floor (the first
//!   new EST's forward strand): one pass over the new strings marks the
//!   buckets they fall in, and only the groups holding a new suffix are
//!   built, scheduled and walked. This is ERA's vertical partitioning by
//!   prefix, applied only to the partitions a batch changes. The bucket
//!   counts, the partition and the plan of memory-budgeted bucket
//!   batches ([`pace_store::plan_batches`]) still cover the whole
//!   collection, so a fold's build batches and the pair order within
//!   them are a full rebuild's with the untouched groups left out, and
//!   its peak subtree footprint is bounded no matter how large the
//!   collection grows. A fold onto an empty clusterer has no old strings,
//!   so it builds the whole in-scope forest like a batch run;
//! * each build batch is built and its pairs drained through a
//!   [`ClusterCore`] by [`cluster_bucket_batch`] — the batch drivers'
//!   per-batch step — **seeded with the existing partition**, so every
//!   pair already co-clustered is skipped by the standard rule;
//! * the core's structural filter skips pairs between two *old* ESTs
//!   outright — their promising pairs were already enumerated and judged
//!   in earlier rounds, and re-aligning them cannot change the partition
//!   (alignment acceptance is deterministic). Old–old pairs still arise
//!   in the groups a batch touches; the untouched groups, which hold
//!   nothing else, are never generated;
//! * only old–new and new–new pairs reach the aligner;
//! * every accepted merge is recorded into a rolling [`MergeTrace`], so
//!   the accumulated state can be checkpointed and cross-checked by
//!   replay exactly like a batch run's;
//! * a fold reports like a batch run: it records `partitioning`,
//!   `gst_construction` and `node_sorting` spans, the drains publish
//!   `merge` trace instants, the MCS histogram, `pair_generation` and `alignment`
//!   phase samples and workspace reuses to the clusterer's [`Obs`]
//!   handle, and the fold adds its share of the `pairs.*` and `merges`
//!   counters.
//!
//! The result is identical to what from-scratch clustering would produce
//! on the union (for deterministic acceptance), at a fraction of the
//! alignment work — the property `tests/serve_identity.rs` pins down
//! against the serving daemon, interleavings and restarts included.
//!
//! The pairs the `keep` rule lets through are the same, in the same order,
//! as over a rebuild of the whole collection: a pair with a new side is
//! emitted at a node whose range survives, a node's products depend only
//! on its own subtree, and both pair orders keep the surviving nodes'
//! relative order. So the partition, the merge trace, `pairs_processed`,
//! `pairs_accepted` and `merges` are a full rebuild's; `pairs_generated`
//! and `pairs_skipped` are lower by the old–old pairs of the untouched
//! groups.
//!
//! Pair-flow conservation holds per fold and cumulatively:
//! `generated == processed + skipped + unconsumed` with `unconsumed = 0`
//! (the fold consumes its own generator); structurally skipped old–old
//! pairs are booked into `pairs.skipped` alongside the already-clustered
//! rule's skips.

use pace_cluster::{
    cluster_bucket_batch, record_pair_counters, AlignContext, ClusterConfig, ClusterCore,
    ClusterStats, MergeTrace,
};
use pace_dsu::DisjointSets;
use pace_gst::{assign_buckets, count_buckets};
use pace_obs::{metric, Obs};
use pace_seq::{PackedText, SeqError, SequenceStore};
use pace_store::{plan_batches, DEFAULT_BYTES_PER_SUFFIX};

/// What one [`IncrementalClusterer::fold_batch`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldSummary {
    /// ESTs added by this fold.
    pub new_ests: usize,
    /// Total ESTs incorporated after this fold.
    pub total_ests: usize,
    /// Alignments performed this fold (old–old pairs never count).
    pub aligned: u64,
    /// Cluster merges this fold contributed.
    pub merges: u64,
    /// Clusters after this fold.
    pub num_clusters: usize,
    /// Memory-budgeted GST build batches this fold walked through.
    pub build_batches: u64,
}

/// Clusters an EST collection that grows in batches.
#[derive(Debug, Clone)]
pub struct IncrementalClusterer {
    cfg: ClusterConfig,
    /// Estimated peak subtree bytes allowed in memory per fold;
    /// 0 = unlimited (one build batch).
    memory_budget: u64,
    ests: Vec<Vec<u8>>,
    ids: Vec<String>,
    clusters: DisjointSets,
    trace: MergeTrace,
    /// Cumulative statistics over all rounds.
    pub stats: ClusterStats,
    /// Where folds report; a private [`Obs::noop`] handle unless set.
    obs: Obs,
}

impl IncrementalClusterer {
    /// Empty clusterer.
    pub fn new(cfg: ClusterConfig) -> Self {
        cfg.validate().expect("invalid cluster config");
        IncrementalClusterer {
            cfg,
            memory_budget: 0,
            ests: Vec::new(),
            ids: Vec::new(),
            clusters: DisjointSets::new(0),
            trace: MergeTrace::new(),
            stats: ClusterStats::default(),
            obs: Obs::noop(),
        }
    }

    /// Empty clusterer whose per-fold GST builds are batched under an
    /// estimated `memory_budget` bytes (0 = unlimited).
    pub fn with_budget(cfg: ClusterConfig, memory_budget: u64) -> Self {
        let mut c = Self::new(cfg);
        c.memory_budget = memory_budget;
        c
    }

    /// Reassemble a clusterer from checkpointed state: everything
    /// persisted has been folded.
    pub fn from_parts(
        cfg: ClusterConfig,
        memory_budget: u64,
        ests: Vec<Vec<u8>>,
        ids: Vec<String>,
        clusters: DisjointSets,
        trace: MergeTrace,
        stats: ClusterStats,
    ) -> Result<Self, String> {
        cfg.validate()?;
        if ests.len() != ids.len() {
            return Err(format!(
                "{} sequences but {} ids in checkpointed state",
                ests.len(),
                ids.len()
            ));
        }
        if clusters.len() != ests.len() {
            return Err(format!(
                "union–find covers {} ESTs, state holds {}",
                clusters.len(),
                ests.len()
            ));
        }
        Ok(IncrementalClusterer {
            cfg,
            memory_budget,
            ests,
            ids,
            clusters,
            trace,
            stats,
            obs: Obs::noop(),
        })
    }

    /// Report every later fold to `obs` (the daemon passes its own).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The clustering configuration this state was built under.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The per-fold memory budget (0 = unlimited).
    pub fn memory_budget(&self) -> u64 {
        self.memory_budget
    }

    /// Number of ESTs incorporated so far.
    pub fn len(&self) -> usize {
        self.ests.len()
    }

    /// Whether no ESTs have been added yet.
    pub fn is_empty(&self) -> bool {
        self.ests.is_empty()
    }

    /// Current cluster label per EST.
    pub fn labels(&mut self) -> Vec<usize> {
        self.clusters.labels()
    }

    /// Current number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.num_sets()
    }

    /// The rolling merge trace: every accepted merge since the first
    /// fold (or since the checkpoint this state was restored from).
    pub fn trace(&self) -> &MergeTrace {
        &self.trace
    }

    /// Per-EST identifiers, aligned with [`Self::labels`].
    pub fn ids(&self) -> &[String] {
        &self.ids
    }

    /// The sequences incorporated so far.
    pub fn ests(&self) -> &[Vec<u8>] {
        &self.ests
    }

    /// The current union–find (for checkpoint encoding).
    pub fn clusters_dsu(&self) -> &DisjointSets {
        &self.clusters
    }

    /// Incorporate a new batch of ESTs, updating the clustering.
    ///
    /// Returns the number of alignments performed this round. Ids are
    /// synthesized as `est_{i}`; use [`Self::fold_batch`] to supply
    /// real ones.
    pub fn add_batch<S: AsRef<[u8]>>(&mut self, batch: &[S]) -> Result<u64, SeqError> {
        let base = self.ests.len();
        let ids: Vec<String> = (base..base + batch.len())
            .map(|i| format!("est_{i}"))
            .collect();
        Ok(self.fold_batch(&ids, batch)?.aligned)
    }

    /// Fold one ingest batch into the live clustering: validate, grow
    /// the store and union–find, build the in-scope forest's ψ-groups
    /// that hold a new suffix in memory-budgeted bucket batches, and
    /// drain each batch's old–new and new–new pairs through a core seeded
    /// with the grown partition, recording accepted merges into the
    /// trace. The new-string floor passed to
    /// [`pace_gst::build_in_scope_batch`] is the first new EST's forward
    /// strand, so both strands of every new EST count as new; onto an
    /// empty clusterer it is 0 and the whole in-scope forest is built.
    ///
    /// A bad batch (length mismatch, empty or non-DNA sequence) leaves
    /// the clusterer untouched.
    pub fn fold_batch<S: AsRef<[u8]>>(
        &mut self,
        ids: &[String],
        batch: &[S],
    ) -> Result<FoldSummary, SeqError> {
        if ids.len() != batch.len() {
            return Err(SeqError::BatchShape {
                ids: ids.len(),
                seqs: batch.len(),
            });
        }
        if batch.is_empty() {
            return Ok(FoldSummary {
                total_ests: self.ests.len(),
                num_clusters: self.num_clusters(),
                ..FoldSummary::default()
            });
        }
        // Validate before mutating state, so a bad batch leaves the
        // clusterer untouched.
        for (index, est) in batch.iter().enumerate() {
            let est = est.as_ref();
            if est.is_empty() {
                return Err(SeqError::EmptySequence { index });
            }
            pace_seq::alphabet::validate_dna(est)?;
        }
        let first_new = self.ests.len();
        for (id, est) in ids.iter().zip(batch) {
            self.ests.push(est.as_ref().to_vec());
            self.ids.push(id.clone());
        }
        let store = SequenceStore::from_ests(&self.ests)?;

        // Grow the union–find in place: the new ESTs join as singletons.
        let mut sets = std::mem::replace(&mut self.clusters, DisjointSets::new(0));
        sets.grow(self.ests.len());
        let before = self.stats;
        let trace = std::mem::take(&mut self.trace);
        let mut core = ClusterCore::resume(sets, trace, before, &self.cfg);

        // Plan build batches over every bucket, sized to the memory
        // budget; each batch builds only its groups holding a new suffix
        // and drains their pairs.
        let span = self.obs.span(metric::PHASE_PARTITIONING);
        let counts = count_buckets(&store, self.cfg.window_w);
        let partition = assign_buckets(&counts, 1);
        span.finish();
        let plan = plan_batches(&partition, 0, self.memory_budget, DEFAULT_BYTES_PER_SUFFIX);

        let packed = self
            .cfg
            .packed_alignment
            .then(|| PackedText::from_store(&store));
        let mut ctx = AlignContext::new(&store, packed.as_ref());
        for buckets in &plan.batches {
            // Old–old pairs were judged in a previous round; the core
            // books them as skipped so flow conservation stays exact.
            cluster_bucket_batch(
                &mut core, &partition, buckets, first_new, &mut ctx, &self.cfg, &self.obs,
            );
        }
        record_pair_counters(&self.obs, &core.stats, &before);
        (self.clusters, self.trace, self.stats) = (core.sets, core.trace, core.stats);
        Ok(FoldSummary {
            new_ests: batch.len(),
            total_ests: self.ests.len(),
            aligned: self.stats.pairs_processed - before.pairs_processed,
            merges: self.stats.merges - before.merges,
            num_clusters: self.num_clusters(),
            build_batches: plan.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_cluster::{cluster_sequential, cluster_sequential_traced};
    use pace_gst::{build_in_scope_batch, LocalForest};
    use pace_pairgen::{CandidatePair, PairGenerator, PairOrder};
    use pace_simulate::{generate, SimConfig};

    fn cfg() -> ClusterConfig {
        let mut c = ClusterConfig::small();
        c.psi = 16;
        c.overlap.min_overlap_len = 40;
        c
    }

    fn dataset(n: usize, seed: u64) -> pace_simulate::EstDataset {
        generate(
            &SimConfig {
                num_genes: (n / 12).max(2),
                num_ests: n,
                est_len_mean: 220.0,
                est_len_sd: 25.0,
                est_len_min: 120,
                exon_len: (220, 400),
                exons_per_gene: (1, 2),
                seed,
                ..SimConfig::default()
            }
            .error_free(),
        )
    }

    fn canonical(labels: &[usize]) -> Vec<usize> {
        let mut map = std::collections::HashMap::new();
        let mut next = 0usize;
        labels
            .iter()
            .map(|&l| {
                *map.entry(l).or_insert_with(|| {
                    let v = next;
                    next += 1;
                    v
                })
            })
            .collect()
    }

    #[test]
    fn incremental_matches_from_scratch_exactly() {
        let ds = dataset(90, 61);
        // From scratch on everything.
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let scratch = cluster_sequential(&store, &cfg());

        // Incrementally in three batches.
        let mut inc = IncrementalClusterer::new(cfg());
        inc.add_batch(&ds.ests[..30]).unwrap();
        inc.add_batch(&ds.ests[30..60]).unwrap();
        inc.add_batch(&ds.ests[60..]).unwrap();

        assert_eq!(
            canonical(&inc.labels()),
            canonical(&scratch.labels),
            "incremental clustering diverged from the one-shot batch run"
        );
        assert_eq!(inc.len(), 90);
    }

    #[test]
    fn memory_budget_changes_batching_not_the_partition() {
        let ds = dataset(80, 65);
        let mut unbudgeted = IncrementalClusterer::new(cfg());
        unbudgeted.add_batch(&ds.ests[..40]).unwrap();
        unbudgeted.add_batch(&ds.ests[40..]).unwrap();

        let mut budgeted = IncrementalClusterer::with_budget(cfg(), 16 * 1024);
        let s1 = budgeted
            .fold_batch(
                &(0..40).map(|i| format!("est_{i}")).collect::<Vec<_>>(),
                &ds.ests[..40],
            )
            .unwrap();
        let s2 = budgeted
            .fold_batch(
                &(40..80).map(|i| format!("est_{i}")).collect::<Vec<_>>(),
                &ds.ests[40..],
            )
            .unwrap();
        assert!(
            s1.build_batches > 1 || s2.build_batches > 1,
            "a 16K budget must force multiple build batches"
        );
        assert_eq!(
            canonical(&budgeted.labels()),
            canonical(&unbudgeted.labels())
        );
    }

    #[test]
    fn trace_replay_reproduces_partition_across_folds() {
        let ds = dataset(80, 66);
        let mut inc = IncrementalClusterer::new(cfg());
        inc.add_batch(&ds.ests[..25]).unwrap();
        inc.add_batch(&ds.ests[25..55]).unwrap();
        inc.add_batch(&ds.ests[55..]).unwrap();
        let replayed = inc.trace().replay(inc.len());
        assert_eq!(canonical(&replayed), canonical(&inc.labels()));
    }

    #[test]
    fn flow_conservation_holds_cumulatively() {
        let ds = dataset(70, 67);
        let mut inc = IncrementalClusterer::new(cfg());
        inc.add_batch(&ds.ests[..35]).unwrap();
        inc.add_batch(&ds.ests[35..]).unwrap();
        let s = &inc.stats;
        assert_eq!(
            s.pairs_generated,
            s.pairs_processed + s.pairs_skipped + s.pairs_unconsumed,
            "generated == processed + skipped + unconsumed must hold"
        );
        assert_eq!(s.pairs_unconsumed, 0);
    }

    #[test]
    fn later_batches_do_less_alignment_work() {
        let ds = dataset(80, 62);
        // All at once.
        let mut all_at_once = IncrementalClusterer::new(cfg());
        let full_work = all_at_once.add_batch(&ds.ests).unwrap();

        // Same data, second half added incrementally: the second round
        // must align fewer pairs than a full from-scratch round would.
        let mut inc = IncrementalClusterer::new(cfg());
        inc.add_batch(&ds.ests[..40]).unwrap();
        let second_round = inc.add_batch(&ds.ests[40..]).unwrap();
        assert!(
            second_round < full_work,
            "incremental round did {second_round} alignments, full does {full_work}"
        );
    }

    #[test]
    fn from_parts_roundtrip_continues_identically() {
        let ds = dataset(90, 68);
        let mut reference = IncrementalClusterer::new(cfg());
        reference.add_batch(&ds.ests[..45]).unwrap();
        reference.add_batch(&ds.ests[45..]).unwrap();

        let mut first = IncrementalClusterer::new(cfg());
        first.add_batch(&ds.ests[..45]).unwrap();
        let mut restored = IncrementalClusterer::from_parts(
            cfg(),
            0,
            first.ests().to_vec(),
            first.ids().to_vec(),
            first.clusters_dsu().clone(),
            first.trace().clone(),
            first.stats,
        )
        .unwrap();
        restored.add_batch(&ds.ests[45..]).unwrap();
        assert_eq!(
            canonical(&restored.labels()),
            canonical(&reference.labels())
        );
        assert_eq!(restored.trace(), reference.trace());
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut inc = IncrementalClusterer::new(cfg());
        assert_eq!(inc.add_batch::<&[u8]>(&[]).unwrap(), 0);
        assert!(inc.is_empty());
        assert_eq!(inc.num_clusters(), 0);
    }

    #[test]
    fn single_batch_equals_sequential_driver() {
        let ds = dataset(60, 63);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (seq, seq_trace) = cluster_sequential_traced(&store, &cfg());
        let mut inc = IncrementalClusterer::new(cfg());
        inc.add_batch(&ds.ests).unwrap();
        let agreement = pace_quality::assess(&inc.labels(), &seq.labels);
        assert_eq!(
            agreement.counts.fp + agreement.counts.fn_,
            0,
            "single-batch incremental differs from the sequential driver"
        );
        // Same core, same bookkeeping: merge for merge, pair for pair.
        assert_eq!(inc.trace(), &seq_trace);
        let counters = |s: &ClusterStats| {
            (
                s.pairs_generated,
                s.pairs_processed,
                s.pairs_skipped,
                s.pairs_accepted,
                s.pairs_prefiltered,
                s.merges,
            )
        };
        assert_eq!(counters(&inc.stats), counters(&seq.stats));
    }

    /// Per build batch, the pairs `keep` lets through from the whole
    /// in-scope forest and from the forest built with the fold's floor.
    type KeptStreams = Vec<(Vec<CandidatePair>, Vec<CandidatePair>)>;

    /// The fold without a new-string floor, from public calls: every
    /// build batch builds its whole in-scope forest and drains it with
    /// the fold's `keep`. Returns the core after the fold and the kept
    /// streams of both forests.
    fn reference_fold(
        before: &IncrementalClusterer,
        batch: &[Vec<u8>],
    ) -> (ClusterCore, KeptStreams) {
        let cfg = before.config();
        let first_new = before.len();
        let ests: Vec<&[u8]> = before
            .ests()
            .iter()
            .chain(batch)
            .map(Vec::as_slice)
            .collect();
        let store = SequenceStore::from_ests(&ests).unwrap();
        let mut old = before.clusters_dsu().clone();
        let mut grown = DisjointSets::new(ests.len());
        for i in 0..first_new {
            grown.union(i, old.find(i));
        }
        let mut core = ClusterCore::resume(grown, before.trace().clone(), before.stats, cfg);
        let partition = assign_buckets(&count_buckets(&store, cfg.window_w), 1);
        let plan = plan_batches(
            &partition,
            0,
            before.memory_budget(),
            DEFAULT_BYTES_PER_SUFFIX,
        );
        let mut ctx = AlignContext::new(&store, None);
        let keep = |i: usize, j: usize| i >= first_new || j >= first_new;
        let kept = |forest: &LocalForest| -> Vec<CandidatePair> {
            let mut generator = PairGenerator::new(&store, forest, cfg.pair_gen());
            let pairs = generator.generate_all();
            pairs
                .into_iter()
                .filter(|p| {
                    let (i, j) = p.est_indices();
                    keep(i, j)
                })
                .collect()
        };
        let forest = |buckets: &[u32], fresh: u32| LocalForest {
            rank: 0,
            w: cfg.window_w,
            psi: cfg.psi,
            subtrees: build_in_scope_batch(&store, &partition, buckets, cfg.psi, fresh),
        };
        let mut streams = Vec::new();
        for buckets in &plan.batches {
            let whole = forest(buckets, 0);
            let gated = forest(buckets, 2 * first_new as u32);
            streams.push((kept(&whole), kept(&gated)));
            let generator = PairGenerator::new(&store, &whole, cfg.pair_gen());
            core.drain(generator, keep, &mut ctx, cfg, &Obs::noop());
        }
        (core, streams)
    }

    /// A fold with the new-string floor keeps the same pairs in the same
    /// order as a fold over the whole collection's forest, so the merge
    /// trace and the processed, accepted and merge counters agree; it only
    /// generates (and skips) fewer old–old pairs.
    #[test]
    fn fresh_floor_keeps_the_whole_forests_kept_stream() {
        let n = 48;
        let mut saved = 0;
        let mut psi_above_tag = cfg();
        psi_above_tag.psi = 36;
        for (seed, base) in [(71, cfg()), (72, cfg()), (73, psi_above_tag)] {
            let ds = dataset(n, seed);
            for first_new in [1, n / 2, n - 1] {
                for budget in [0, 16 * 1024] {
                    for order in [PairOrder::DecreasingMcs, PairOrder::Arbitrary] {
                        let mut c = base.clone();
                        c.order = order;
                        let mut inc = IncrementalClusterer::with_budget(c, budget);
                        let case =
                            format!("seed {seed} first_new {first_new} budget {budget} {order:?}");
                        for batch in [&ds.ests[..first_new], &ds.ests[first_new..]] {
                            let before = inc.clone();
                            inc.add_batch(batch).unwrap();
                            let (reference, streams) = reference_fold(&before, batch);
                            for (whole, gated) in &streams {
                                assert_eq!(gated, whole, "{case}: kept stream differs");
                            }
                            let (got, want) = (&inc.stats, &reference.stats);
                            assert_eq!(inc.trace(), &reference.trace, "{case}");
                            assert_eq!(got.pairs_processed, want.pairs_processed, "{case}");
                            assert_eq!(got.pairs_accepted, want.pairs_accepted, "{case}");
                            assert_eq!(got.merges, want.merges, "{case}");
                            let fewer = want.pairs_generated - got.pairs_generated;
                            assert_eq!(want.pairs_skipped - got.pairs_skipped, fewer, "{case}");
                            assert_eq!(
                                got.pairs_generated,
                                got.pairs_processed + got.pairs_skipped + got.pairs_unconsumed,
                                "{case}: conservation"
                            );
                            saved += fewer;
                        }
                    }
                }
            }
        }
        assert!(saved > 0, "the floor never dropped an old–old pair");
    }

    #[test]
    fn invalid_sequences_are_rejected() {
        let mut inc = IncrementalClusterer::new(cfg());
        assert!(inc.add_batch(&[&b"ACGTN"[..]]).is_err());
        assert!(inc.is_empty(), "a rejected batch must leave no state");
    }

    #[test]
    fn mismatched_ids_are_rejected() {
        let mut inc = IncrementalClusterer::new(cfg());
        let err = inc.fold_batch(&["a".to_string()], &[&b"ACGT"[..], &b"ACGT"[..]]);
        assert!(err.is_err());
        assert!(inc.is_empty());
    }
}
