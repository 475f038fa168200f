//! Sequential reference driver.
//!
//! Runs the whole pipeline in one thread: partition the suffixes into
//! buckets, build the GST, set up the pair generator, then drain it
//! through one [`ClusterCore`] — skip pairs already clustered together,
//! align the rest, merge on acceptance. This is the semantic reference
//! the parallel driver is compared against, and the engine used when
//! `p = 1`.
//!
//! The build-then-drain step over a list of buckets,
//! [`cluster_bucket_batch`], is written once here: this driver runs it
//! over every bucket, the persistent driver and the incremental fold run
//! it once per memory-budgeted bucket batch.
//!
//! All phase timing goes through `pace-obs` spans, so the registry holds
//! the run's only record of where its time went.

use crate::align_task::AlignContext;
use crate::cluster_core::ClusterCore;
use crate::config::ClusterConfig;
use crate::stats::{ClusterResult, ClusterStats};
use crate::trace::MergeTrace;
use pace_dsu::DisjointSets;
use pace_gst::{BucketPartition, LocalForest};
use pace_obs::{metric, Obs};
use pace_pairgen::PairGenerator;
use pace_seq::{EstId, PackedText, SequenceStore, Strand};

/// Cluster `store`'s ESTs sequentially.
pub fn cluster_sequential(store: &SequenceStore, cfg: &ClusterConfig) -> ClusterResult {
    cluster_sequential_obs(store, cfg, &Obs::noop()).0
}

/// Like [`cluster_sequential`], additionally returning the [`MergeTrace`]
/// of every accepted merge in order — the audit log used by the analysis
/// tooling (replaying the trace reproduces the partition exactly).
pub fn cluster_sequential_traced(
    store: &SequenceStore,
    cfg: &ClusterConfig,
) -> (ClusterResult, MergeTrace) {
    cluster_sequential_obs(store, cfg, &Obs::noop())
}

/// Fully instrumented sequential run: phase timings, counters and the
/// MCS-length histogram land in `obs`'s registry, and each merge is a
/// `merge` trace instant when a tracer is attached.
pub fn cluster_sequential_obs(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    cfg.validate().expect("invalid cluster config");
    let total_span = obs.span(metric::PHASE_TOTAL);
    let mut core = ClusterCore::new(DisjointSets::new(store.num_ests()), cfg);

    // Phase 1: bucket partitioning (single rank).
    let span = obs.span(metric::PHASE_PARTITIONING);
    let counts = pace_gst::count_buckets(store, cfg.window_w);
    let partition = pace_gst::assign_buckets(&counts, 1);
    span.finish();
    let buckets = partition.buckets_of(0);
    obs.registry()
        .add(metric::GST_BUCKETS, buckets.len() as u64);

    // Phases 2–4 over every bucket at once. One context serves the whole
    // run, so DP scratch is allocated once, never per pair. Nothing is
    // buffered, so conservation is exact: generated == processed + skipped.
    let packed = cfg.packed_alignment.then(|| PackedText::from_store(store));
    let mut ctx = AlignContext::new(store, packed.as_ref());
    cluster_bucket_batch(&mut core, &partition, &buckets, 0, &mut ctx, cfg, obs);
    total_span.finish();
    record_cluster_counters(obs, &core.stats);
    core.into_result()
}

/// Cluster one batch of buckets of a one-rank `partition` of `ctx`'s
/// store: build their in-scope subtrees (a `gst_construction` span), add
/// the forest's shape to the registry, set up the pair generator (a
/// `node_sorting` span) and [`ClusterCore::drain`] it through `ctx`.
///
/// ESTs with index `≥ first_new` are new. Only the ψ-groups holding a
/// suffix of a new EST are built (the first new EST's forward strand is
/// the builder's new-string floor), and a pair between two old ESTs is
/// booked as skipped without a skip test or an alignment: it was judged
/// when its ESTs were folded. `first_new = 0` builds and keeps
/// everything.
///
/// The batch's subtrees are dropped on return, so a caller that walks a
/// memory-budgeted plan batch by batch holds one batch at a time.
pub fn cluster_bucket_batch(
    core: &mut ClusterCore,
    partition: &BucketPartition,
    buckets: &[u32],
    first_new: usize,
    ctx: &mut AlignContext<'_>,
    cfg: &ClusterConfig,
    obs: &Obs,
) {
    let store = ctx.store();
    let fresh = EstId(first_new as u32).str_id(Strand::Forward).0;
    let span = obs.span(metric::PHASE_GST_CONSTRUCTION);
    let forest = LocalForest {
        rank: 0,
        w: partition.w,
        psi: cfg.psi,
        subtrees: pace_gst::build_in_scope_batch(store, partition, buckets, cfg.psi, fresh),
    };
    span.finish();
    record_forest_shape(obs, store, &forest);

    let span = obs.span(metric::PHASE_NODE_SORTING);
    let generator = PairGenerator::new(store, &forest, cfg.pair_gen());
    span.finish();
    let keep = |i: usize, j: usize| i >= first_new || j >= first_new;
    core.drain(generator, keep, ctx, cfg, obs);
}

/// Add a built forest (or one build batch of it) to the registry's
/// `gst.subtrees`, `gst.nodes`, `gst.max_depth` and `gst.memory_bytes`.
pub fn record_forest_shape(obs: &Obs, store: &SequenceStore, forest: &pace_gst::LocalForest) {
    let reg = obs.registry();
    reg.add(metric::GST_SUBTREES, forest.subtrees.len() as u64);
    reg.add(metric::GST_NODES, forest.num_nodes() as u64);
    reg.set_gauge_max(metric::GST_MAX_DEPTH, forest.max_depth(store) as f64);
    reg.set_gauge_max(metric::GST_MEMORY_BYTES, forest.memory_bytes() as f64);
}

/// Fold the final [`ClusterStats`] into the registry, so every driver
/// reports through the same counter names.
pub fn record_cluster_counters(obs: &Obs, stats: &ClusterStats) {
    record_pair_counters(obs, stats, &ClusterStats::default());
    let reg = obs.registry();
    reg.add(metric::FAULTS_RETRIES, stats.faults.retries);
    reg.add(
        metric::FAULTS_DUPLICATE_REPORTS,
        stats.faults.duplicate_reports,
    );
    reg.add(metric::FAULTS_DEAD_SLAVES, stats.faults.dead_slaves);
    reg.add(
        metric::FAULTS_REASSIGNED_PAIRS,
        stats.faults.reassigned_pairs,
    );
    reg.add(metric::FAULTS_ABANDONED_PAIRS, stats.faults.abandoned_pairs);
    reg.add(metric::FAULTS_LOST_PAIRS, stats.faults.lost_pairs);
    reg.set_gauge(metric::MASTER_BUSY_FRAC, stats.master_busy_frac);
}

/// Add the pair counters and `merges` gained from `since` to `now` to
/// the registry (an incremental fold reports each fold's share).
pub fn record_pair_counters(obs: &Obs, now: &ClusterStats, since: &ClusterStats) {
    let reg = obs.registry();
    let gained = |field: fn(&ClusterStats) -> u64| field(now) - field(since);
    reg.add(metric::PAIRS_GENERATED, gained(|s| s.pairs_generated));
    reg.add(metric::PAIRS_PROCESSED, gained(|s| s.pairs_processed));
    reg.add(metric::PAIRS_ACCEPTED, gained(|s| s.pairs_accepted));
    reg.add(metric::PAIRS_SKIPPED, gained(|s| s.pairs_skipped));
    reg.add(metric::PAIRS_UNCONSUMED, gained(|s| s.pairs_unconsumed));
    reg.add(metric::PAIRS_PREFILTERED, gained(|s| s.pairs_prefiltered));
    reg.add(metric::MERGES, gained(|s| s.merges));
}

/// Convenience used by tests and examples: cluster raw EST byte vectors.
pub fn cluster_ests<S: AsRef<[u8]>>(ests: &[S], cfg: &ClusterConfig) -> ClusterResult {
    let store = SequenceStore::from_ests(ests).expect("invalid ESTs");
    cluster_sequential(&store, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_simulate::{generate, SimConfig};

    fn small_cfg() -> ClusterConfig {
        let mut c = ClusterConfig::small();
        c.psi = 16;
        c.overlap.min_overlap_len = 40;
        c
    }

    #[test]
    fn perfect_reads_recover_true_clusters() {
        let sim = SimConfig {
            num_genes: 12,
            num_ests: 150,
            est_len_mean: 220.0,
            est_len_sd: 30.0,
            est_len_min: 120,
            exon_len: (200, 400),
            exons_per_gene: (1, 3),
            seed: 11,
            ..SimConfig::default()
        }
        .error_free()
        .repeat_free();
        let ds = generate(&sim);
        let result = cluster_ests(&ds.ests, &small_cfg());
        let m = pace_quality::assess(&result.labels, &ds.truth);
        // Error-free overlapping reads from disjoint random genes must
        // show zero over-prediction; under-prediction stays (reads that
        // happen not to overlap cannot be joined — the paper observes the
        // same asymmetry, UN > OV, in Table 2).
        assert!(m.oq > 0.88, "OQ {} too low\n{m}", m.oq);
        assert!(m.ov < 0.005, "over-prediction {}\n{m}", m.ov);
        assert!(m.un < 0.12, "under-prediction {}\n{m}", m.un);
        assert!(m.cc > 0.92, "CC {} too low\n{m}", m.cc);
    }

    #[test]
    fn noisy_reads_still_cluster_well() {
        let sim = SimConfig {
            num_genes: 10,
            num_ests: 120,
            est_len_mean: 220.0,
            est_len_sd: 30.0,
            est_len_min: 120,
            exon_len: (200, 400),
            exons_per_gene: (1, 3),
            error_rate: 0.02,
            seed: 12,
            ..SimConfig::default()
        }
        .repeat_free(); // isolate the error-tolerance effect
        let ds = generate(&sim);
        let result = cluster_ests(&ds.ests, &small_cfg());
        let m = pace_quality::assess(&result.labels, &ds.truth);
        assert!(m.oq > 0.80, "OQ {} too low with 2% errors\n{m}", m.oq);
        assert!(m.cc > 0.85, "CC {} too low\n{m}", m.cc);
    }

    #[test]
    fn unrelated_singletons_stay_apart() {
        // Few ESTs per gene, one gene each: nothing should merge.
        let sim = SimConfig {
            num_genes: 30,
            num_ests: 30,
            expression: pace_simulate::Expression::Uniform,
            est_len_mean: 200.0,
            est_len_sd: 10.0,
            est_len_min: 150,
            seed: 13,
            ..SimConfig::default()
        }
        .error_free()
        .repeat_free();
        let ds = generate(&sim);
        let result = cluster_ests(&ds.ests, &small_cfg());
        let m = pace_quality::assess(&result.labels, &ds.truth);
        assert_eq!(m.counts.fp, 0, "random genes must not be merged\n{m}");
    }

    #[test]
    fn skipping_reduces_alignments_without_quality_loss() {
        let sim = SimConfig {
            num_genes: 8,
            num_ests: 120,
            est_len_mean: 220.0,
            est_len_sd: 20.0,
            est_len_min: 150,
            exon_len: (250, 400),
            exons_per_gene: (1, 2),
            seed: 14,
            ..SimConfig::default()
        }
        .error_free();
        let ds = generate(&sim);
        let with_skip = cluster_ests(&ds.ests, &small_cfg());
        let mut no_skip_cfg = small_cfg();
        no_skip_cfg.skip_clustered_pairs = false;
        let without_skip = cluster_ests(&ds.ests, &no_skip_cfg);

        assert!(
            with_skip.stats.pairs_processed < without_skip.stats.pairs_processed,
            "skip rule saved nothing: {} vs {}",
            with_skip.stats.pairs_processed,
            without_skip.stats.pairs_processed
        );
        // Both must produce the same partition on clean data.
        let a = pace_quality::assess(&with_skip.labels, &without_skip.labels);
        assert_eq!(a.counts.fp + a.counts.fn_, 0, "partitions differ");
    }

    #[test]
    fn stats_are_internally_consistent() {
        let sim = SimConfig {
            num_genes: 6,
            num_ests: 60,
            est_len_mean: 200.0,
            est_len_sd: 20.0,
            est_len_min: 120,
            seed: 15,
            ..SimConfig::default()
        };
        let ds = generate(&sim);
        let r = cluster_ests(&ds.ests, &small_cfg());
        let s = &r.stats;
        assert_eq!(s.pairs_unconsumed, 0, "sequential driver buffers nothing");
        assert_eq!(
            s.pairs_generated,
            s.pairs_processed + s.pairs_skipped + s.pairs_unconsumed
        );
        assert!(s.pairs_accepted <= s.pairs_processed);
        assert!(s.merges <= s.pairs_accepted);
        assert_eq!(r.labels.len(), 60);
        assert_eq!(r.num_clusters, r.clusters().len(), "cluster count mismatch");
        // n ESTs and m merges leave exactly n − m clusters.
        assert_eq!(r.num_clusters as u64, 60 - s.merges);
    }

    #[test]
    fn trace_replay_reproduces_partition() {
        let sim = SimConfig {
            num_genes: 8,
            num_ests: 80,
            est_len_mean: 200.0,
            est_len_sd: 20.0,
            est_len_min: 120,
            seed: 16,
            ..SimConfig::default()
        };
        let ds = generate(&sim);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (result, trace) = cluster_sequential_traced(&store, &small_cfg());
        assert_eq!(trace.len() as u64, result.stats.merges);
        let replayed = trace.replay(80);
        let agreement = pace_quality::assess(&replayed, &result.labels);
        assert_eq!(
            agreement.counts.fp + agreement.counts.fn_,
            0,
            "trace replay diverges from the actual partition"
        );
        // Every recorded merge was promoted by an MCS of at least ψ.
        for r in trace.records() {
            assert!(r.mcs_len >= small_cfg().psi);
            assert!(r.score_ratio >= small_cfg().overlap.min_score_ratio - 1e-9);
        }
    }

    #[test]
    fn registry_agrees_with_stats() {
        let sim = SimConfig {
            num_genes: 5,
            num_ests: 50,
            est_len_mean: 200.0,
            est_len_sd: 20.0,
            est_len_min: 120,
            seed: 17,
            ..SimConfig::default()
        };
        let ds = generate(&sim);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let obs = Obs::noop();
        let (result, _) = cluster_sequential_obs(&store, &small_cfg(), &obs);
        let snap = obs.registry().snapshot();
        let s = &result.stats;
        assert_eq!(snap.counters[metric::PAIRS_GENERATED], s.pairs_generated);
        assert_eq!(snap.counters[metric::PAIRS_PROCESSED], s.pairs_processed);
        assert_eq!(snap.counters[metric::MERGES], s.merges);
        // The MCS histogram covers every generated pair.
        assert_eq!(
            snap.histograms[metric::PAIRS_MCS_LEN].count(),
            s.pairs_generated
        );
        assert_eq!(snap.phases[metric::PHASE_TOTAL].count, 1);
        assert!(snap.counters[metric::GST_NODES] > 0);
        assert!(snap.counters[metric::GST_BUCKETS] > 0);
        assert!(snap.gauges[metric::GST_MAX_DEPTH] >= small_cfg().psi as f64);
    }

    #[test]
    fn named_phases_cover_the_run() {
        let ds = generate(&SimConfig::sized(400, 19));
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let obs = Obs::noop();
        cluster_sequential_obs(&store, &ClusterConfig::default(), &obs);
        let phases = obs.registry().snapshot().phases;
        assert_eq!(phases[metric::PHASE_PAIR_GENERATION].count, 1);
        let named: f64 = [
            metric::PHASE_PARTITIONING,
            metric::PHASE_GST_CONSTRUCTION,
            metric::PHASE_NODE_SORTING,
            metric::PHASE_PAIR_GENERATION,
            metric::PHASE_ALIGNMENT,
        ]
        .iter()
        .map(|p| phases[*p].sum)
        .sum();
        let total = phases[metric::PHASE_TOTAL].sum;
        // The loop's skip tests and unions are the only unnamed work; the
        // margin below 1 absorbs host noise.
        assert!(
            named >= 0.90 * total,
            "named phases cover {named:.4} s of {total:.4} s"
        );
    }

    #[test]
    fn merge_instants_match_merge_trace() {
        let sim = SimConfig {
            num_genes: 4,
            num_ests: 40,
            est_len_mean: 200.0,
            est_len_sd: 20.0,
            est_len_min: 120,
            seed: 18,
            ..SimConfig::default()
        };
        let ds = generate(&sim);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let obs = Obs::with_tracer();
        let (result, trace) = cluster_sequential_obs(&store, &small_cfg(), &obs);
        let doc = pace_obs::TraceDoc::from_tracer(obs.tracer().unwrap());
        let merges: Vec<_> = doc
            .instants
            .iter()
            .filter(|i| i.name == pace_obs::trace::T_MERGE)
            .map(|i| (i.id as usize, i.arg as usize))
            .collect();
        assert!(result.stats.merges > 0);
        assert_eq!(merges.len() as u64, result.stats.merges);
        let traced: Vec<_> = trace.records().iter().map(|r| (r.est_a, r.est_b)).collect();
        assert_eq!(merges, traced);
    }

    #[test]
    fn empty_input() {
        let r = cluster_ests::<&[u8]>(&[], &ClusterConfig::small());
        assert_eq!(r.num_clusters, 0);
        assert!(r.labels.is_empty());
    }

    #[test]
    fn single_est_is_one_cluster() {
        let r = cluster_ests(&[b"ACGTACGTACGTACGTACGT"], &ClusterConfig::small());
        assert_eq!(r.num_clusters, 1);
        assert_eq!(r.labels, vec![0]);
    }
}
