//! Criterion micro-benchmarks of the kernels behind each experiment.
//!
//! * `gst_build`    — Table 3's "construction of GST" column;
//! * `gst_subdivision` — the subdivision kernel alone: comparison-sort
//!   reference vs the counting-sort + multi-character-skip hot path;
//! * `gst_in_scope` — one rank's forest: the full builder vs the in-scope
//!   builder the drivers run at ψ 20;
//! * `node_sort`    — Table 3's "sorting nodes" column (generator setup);
//! * `pair_generation` — the engine behind Figure 7's generated curve;
//! * `alignment`    — Table 3's "pairwise alignment" column: anchored
//!   banded extension vs the full-width DP the baseline uses (Table 1);
//! * `align_batch`  — one slave work batch through the three alignment
//!   paths: fresh DP scratch per pair, reused workspace, reused + packed;
//! * `dsu`          — the master's CLUSTERS operations;
//! * `quality`      — the Table 2 metric computation;
//! * `end_to_end`   — one small full clustering run (Figures 6a/6b).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pace_align::{align_anchored, align_anchored_with, AlignWorkspace, Anchor, Scoring};
use pace_bench::{dataset, paper_cfg};
use pace_cluster::{align_pair, cluster_sequential, AlignContext};
use pace_dsu::DisjointSets;
use pace_gst::{
    assign_buckets, build_forest_for_rank, build_in_scope_forest, build_subtree_comparison_sort,
    build_subtree_with, count_buckets, scatter, BuildScratch, SuffixRef,
};
use pace_pairgen::{PairGenConfig, PairGenerator};
use pace_seq::{PackedText, SequenceStore};
use std::hint::black_box;

fn bench_gst_build(c: &mut Criterion) {
    let ds = dataset(400, 9101);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    let counts = count_buckets(&store, 8);
    let partition = assign_buckets(&counts, 1);
    c.bench_function("gst_build/400ests", |b| {
        b.iter(|| black_box(build_forest_for_rank(&store, &partition, 0)))
    });
}

fn bench_gst_subdivision(c: &mut Criterion) {
    // The node-subdivision kernel in isolation: the comparison-sort
    // reference (per-node `sort_by_key`, per-character recursion) against
    // the counting-sort + multi-character-skip path the builder ships
    // with. Same suffix lists, same output trees (pinned by proptest);
    // only the subdivision strategy differs.
    let w = 8;
    let ds = dataset(400, 9101);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    let counts = count_buckets(&store, w);
    let partition = assign_buckets(&counts, 1);
    let buckets = partition.buckets_of(0);
    let scattered = scatter(&store, w, &counts, &buckets, w);
    let work: Vec<(u32, Vec<SuffixRef>)> = buckets
        .iter()
        .zip(&scattered.ranges)
        .map(|(&b, r)| {
            (
                b,
                scattered.entries[r.clone()].iter().map(|e| e.suf).collect(),
            )
        })
        .collect();

    let mut group = c.benchmark_group("gst_subdivision");
    group.bench_function("comparison_sort", |b| {
        b.iter_batched(
            || work.clone(),
            |work| {
                let nodes: usize = work
                    .into_iter()
                    .map(|(bucket, sufs)| {
                        build_subtree_comparison_sort(&store, bucket, sufs, w).len()
                    })
                    .sum();
                black_box(nodes)
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("counting_sort_skip", |b| {
        let mut scratch = BuildScratch::new();
        b.iter(|| {
            let nodes: usize = work
                .iter()
                .map(|(bucket, sufs)| {
                    build_subtree_with(&store, *bucket, sufs, w, &mut scratch).len()
                })
                .sum();
            black_box(nodes)
        })
    });
    group.finish();
}

fn bench_gst_in_scope(c: &mut Criterion) {
    // One rank's forest from the store, scatter included: the full tree
    // against the part pair generation at ψ 20 reads. Both run the same
    // subdivision kernel; the in-scope builder drops the suffixes whose
    // ψ-prefix occurs once before subdividing.
    let ds = dataset(400, 9101);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    let partition = assign_buckets(&count_buckets(&store, 8), 1);
    let mut group = c.benchmark_group("gst_in_scope");
    group.bench_function("full", |b| {
        b.iter(|| black_box(build_forest_for_rank(&store, &partition, 0).num_nodes()))
    });
    group.bench_function("psi20", |b| {
        b.iter(|| black_box(build_in_scope_forest(&store, &partition, 0, 20).num_nodes()))
    });
    group.finish();
}

fn bench_node_sort_and_pairgen(c: &mut Criterion) {
    let ds = dataset(400, 9102);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    let counts = count_buckets(&store, 8);
    let partition = assign_buckets(&counts, 1);
    let forest = build_forest_for_rank(&store, &partition, 0);

    c.bench_function("node_sort/400ests", |b| {
        b.iter(|| black_box(PairGenerator::new(&store, &forest, PairGenConfig::new(20))))
    });

    c.bench_function("pair_generation/400ests_all", |b| {
        b.iter_batched(
            || PairGenerator::new(&store, &forest, PairGenConfig::new(20)),
            |mut g| black_box(g.generate_all().len()),
            BatchSize::SmallInput,
        )
    });
}

fn bench_alignment(c: &mut Criterion) {
    // One realistic promising pair: two 550-base reads overlapping by 300.
    let ds = dataset(200, 9103);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    let counts = count_buckets(&store, 8);
    let partition = assign_buckets(&counts, 1);
    let forest = build_forest_for_rank(&store, &partition, 0);
    let pairs = PairGenerator::new(&store, &forest, PairGenConfig::new(20)).generate_all();
    let pair = pairs
        .iter()
        .max_by_key(|p| p.mcs_len)
        .copied()
        .expect("workload produces at least one promising pair");
    let scoring = Scoring::default_est();
    let a = store.seq(pair.s1);
    let b = store.seq(pair.s2);
    let anchor = Anchor {
        a_pos: pair.off1 as usize,
        b_pos: pair.off2 as usize,
        len: pair.mcs_len as usize,
    };

    c.bench_function("alignment/anchored_banded_r8", |bch| {
        bch.iter(|| black_box(align_anchored(a, b, anchor, &scoring, 8)))
    });
    c.bench_function("alignment/anchored_banded_r8_reused_ws", |bch| {
        let mut ws = AlignWorkspace::new();
        bch.iter(|| black_box(align_anchored_with(a, b, anchor, &scoring, 8, &mut ws)))
    });
    c.bench_function("alignment/full_width_dp", |bch| {
        bch.iter(|| black_box(align_anchored(a, b, anchor, &scoring, a.len().max(b.len()))))
    });
}

fn bench_workspace_reuse(c: &mut Criterion) {
    // A full work batch — the slave's unit of dispatch — through the
    // three alignment paths: fresh DP scratch per pair (the pre-context
    // behaviour), one reused per-rank workspace (the hot path), and the
    // reused workspace over the 2-bit packed representation.
    let ds = dataset(200, 9106);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    let counts = count_buckets(&store, 8);
    let partition = assign_buckets(&counts, 1);
    let forest = build_forest_for_rank(&store, &partition, 0);
    let pairs = PairGenerator::new(&store, &forest, PairGenConfig::new(20)).generate_all();
    let cfg = paper_cfg();
    let batch: Vec<_> = pairs.iter().take(cfg.batchsize).copied().collect();
    assert!(!batch.is_empty(), "workload produces promising pairs");
    let packed = PackedText::from_store(&store);

    let mut group = c.benchmark_group("align_batch");
    group.bench_function("fresh_workspace_per_pair", |b| {
        b.iter(|| {
            let accepted: u32 = batch
                .iter()
                .map(|p| align_pair(&store, p, &cfg).accepted as u32)
                .sum();
            black_box(accepted)
        })
    });
    group.bench_function("reused_workspace", |b| {
        let mut ctx = AlignContext::new(&store, None);
        b.iter(|| {
            let accepted: u32 = batch
                .iter()
                .map(|p| ctx.align(p, &cfg).accepted as u32)
                .sum();
            black_box(accepted)
        })
    });
    group.bench_function("reused_workspace_packed", |b| {
        let mut ctx = AlignContext::new(&store, Some(&packed));
        b.iter(|| {
            let accepted: u32 = batch
                .iter()
                .map(|p| ctx.align(p, &cfg).accepted as u32)
                .sum();
            black_box(accepted)
        })
    });
    group.finish();
}

fn bench_dsu(c: &mut Criterion) {
    c.bench_function("dsu/union_find_100k_ops", |b| {
        b.iter_batched(
            || DisjointSets::new(10_000),
            |mut d| {
                let mut x = 1u64;
                for _ in 0..100_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let i = (x >> 33) as usize % 10_000;
                    let j = (x >> 13) as usize % 10_000;
                    if !d.union(i, j) {
                        black_box(d.find(i));
                    }
                }
                d.num_sets()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_quality(c: &mut Criterion) {
    let ds = dataset(2_000, 9104);
    let pred: Vec<usize> = ds.truth.iter().map(|&g| g / 2).collect();
    c.bench_function("quality/assess_2000", |b| {
        b.iter(|| black_box(pace_quality::assess(&pred, &ds.truth)))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let ds = dataset(300, 9105);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();
    let cfg = paper_cfg();
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("sequential_300ests", |b| {
        b.iter(|| black_box(cluster_sequential(&store, &cfg).num_clusters))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gst_build,
    bench_gst_subdivision,
    bench_gst_in_scope,
    bench_node_sort_and_pairgen,
    bench_alignment,
    bench_workspace_reuse,
    bench_dsu,
    bench_quality,
    bench_end_to_end
);
criterion_main!(benches);
