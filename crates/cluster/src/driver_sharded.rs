//! Sharded masters: `K` clustering sub-masters under one reconciler.
//!
//! The single master funnels every accepted pair and every union
//! through rank 0, so merge serialization and `comm.messages` cap
//! throughput no matter how many slaves are added. With `cfg.shards =
//! K` the parallel driver ([`driver_par`](crate::driver_par)) splits the
//! master by EST id-range into `K` sub-masters (ranks `1..=K`), each
//! owning a [`ShardDsu`] view of `CLUSTERS` and running the *unchanged*
//! master protocol loop over the slaves for the pairs it owns. A pair
//! belongs to the shard owning its smaller EST id, so every pair has
//! exactly one coordinator and the per-shard `WORKBUF`s partition the
//! single master's queue. This module holds only what sharding adds:
//! the reconciler's collection loop, the sub-master's cross-edge flushes
//! and `ShardDone` report, and the shard-replay fold.
//!
//! Unions whose endpoints straddle shard boundaries cannot be resolved
//! locally; they are logged as cross edges and flushed to the
//! reconciler (rank 0) as [`Msg::CrossMerge`] messages at epoch
//! barriers (every `shard_epoch` handled reports). The reconciler folds
//! them into a running global DSU for observability, but the *final*
//! partition is rebuilt by replaying each shard's authoritative merge
//! records ([`Msg::ShardDone`]) in shard order through a fresh DSU,
//! keeping only the records whose union still merged something. That
//! filtered replay is what makes the output deterministic (independent
//! of `CrossMerge` arrival timing) and is why a lost `CrossMerge` is
//! harmless: the records subsume every edge.
//!
//! Correctness rests on the same argument as the single master: a
//! pair's accept decision is a pure function of the pair, and a pair is
//! only ever *skipped* when some DSU view proves its ESTs already
//! connected by performed merges. `ShardDsu::same` answers `false` for
//! any cross-shard pair — a sound under-approximation — so no pair is
//! skipped wrongly, and the final partition equals the connected
//! components of the accepted-pair graph regardless of sharding. The
//! differential harness (`tests/sharded_identity.rs`) pins this down
//! against the single-master driver seed by seed.

use crate::cluster_core::emit_merges;
use crate::config::{ClusterConfig, Topology};
use crate::driver_par::{copies, fold_summaries, run_master, REDUNDANCY};
use crate::master::Master;
use crate::messages::{Msg, ShardReport, WorkerSummary};
use crate::stats::{ClusterResult, ClusterStats};
use crate::trace::{MergeRecord, MergeTrace};
use pace_dsu::{DisjointSets, ShardDsu, ShardSpec};
use pace_mpisim::{FaultSnapshot, Rank, WorldStats};
use pace_obs::{metric, Event, Obs, Timer};
use std::time::{Duration, Instant};

/// What the reconciler hands to the fold.
pub(crate) struct ReconcilerOut {
    /// Final report per shard (`None` = the shard never delivered one:
    /// crashed, or written off at the progress deadline).
    shard_reports: Vec<Option<ShardReport>>,
    /// Cross edges received via incremental `CrossMerge` flushes.
    cross_received: u64,
    /// `CrossMerge` flushes received.
    cross_flushes: u64,
    /// Seconds rank 0 spent folding cross edges.
    reconcile_secs: f64,
}

/// Rank 0 of a sharded world, after the partitioning collective: collect
/// `CrossMerge` flushes (folding them into a running global DSU) and the
/// shards' final `ShardDone` reports. Under faults a progress deadline —
/// reset by every received message — writes silent shards off and
/// releases the slaves with a global abort `Shutdown`, so a crashed
/// sub-master can never hang the world. Also returns the worker
/// summaries that arrived meanwhile (socket backend), by sender rank.
pub(crate) fn reconciler_rank(
    rank: &Rank<Msg>,
    num_ests: usize,
    cfg: &ClusterConfig,
    topo: Topology,
    under_faults: bool,
    obs: &Obs,
) -> (ReconcilerOut, Vec<(usize, WorkerSummary)>) {
    let k = topo.sessions();
    let mut incremental = DisjointSets::new(num_ests);
    let mut shard_reports: Vec<Option<ShardReport>> = vec![None; k];
    let mut failed = vec![false; k];
    let mut early_summaries = Vec::new();
    let mut cross_received = 0u64;
    let mut cross_flushes = 0u64;
    let mut reconcile = Timer::new();
    let poll = Duration::from_secs_f64((cfg.slave_timeout / 4.0).clamp(0.001, 0.05));
    // Progress window: generous enough that a live sub-master always
    // gets a flush or a ShardDone out before it expires (sub-masters
    // send epoch flushes as heartbeats), tight enough that a crashed
    // one is written off in bounded time.
    let window = Duration::from_secs_f64(
        (cfg.slave_timeout * (f64::from(cfg.max_retries) + 2.0) * 2.0).clamp(1.0, 60.0),
    );
    let mut quiet_since = Instant::now();

    let outstanding = |reports: &[Option<ShardReport>], failed: &[bool]| -> usize {
        reports
            .iter()
            .zip(failed)
            .filter(|(r, f)| r.is_none() && !**f)
            .count()
    };

    while outstanding(&shard_reports, &failed) > 0 {
        match rank.recv_timeout(poll) {
            Ok(Some((from, msg))) => {
                quiet_since = Instant::now();
                match msg {
                    Msg::CrossMerge {
                        shard,
                        epoch: _,
                        edges,
                    } => {
                        reconcile.start();
                        cross_flushes += 1;
                        cross_received += edges.len() as u64;
                        for (a, b) in edges {
                            incremental.union(a as usize, b as usize);
                        }
                        reconcile.stop();
                        debug_assert!((shard as usize) < k);
                    }
                    Msg::ShardDone { shard, report } => {
                        let s = shard as usize;
                        if s < k && shard_reports[s].is_none() && !failed[s] {
                            shard_reports[s] = Some(report);
                        }
                    }
                    Msg::Summary(s) => early_summaries.push((from, s)),
                    // Nothing else is addressed to rank 0.
                    _ => {}
                }
            }
            Ok(None) => {
                if under_faults && quiet_since.elapsed() >= window {
                    write_off_silent_shards(rank, topo, &shard_reports, &mut failed, obs);
                }
            }
            Err(_) => {
                // World torn down: whatever has not arrived never will.
                for (s, rep) in shard_reports.iter().enumerate() {
                    if rep.is_none() {
                        failed[s] = true;
                    }
                }
            }
        }
    }

    (
        ReconcilerOut {
            shard_reports,
            cross_received,
            cross_flushes,
            reconcile_secs: reconcile.secs(),
        },
        early_summaries,
    )
}

/// Declare every shard that has not delivered its report failed, emit a
/// fault event per shard, and release the slaves: a `Shutdown` from
/// rank 0 is the global abort that closes every session a dead
/// sub-master can no longer close itself.
fn write_off_silent_shards(
    rank: &Rank<Msg>,
    topo: Topology,
    shard_reports: &[Option<ShardReport>],
    failed: &mut [bool],
    obs: &Obs,
) {
    let mut newly_failed = false;
    for (s, rep) in shard_reports.iter().enumerate() {
        if rep.is_none() && !failed[s] {
            failed[s] = true;
            newly_failed = true;
            obs.emit_with(|| Event::Fault {
                t: obs.now(),
                rank: 0,
                kind: "shard_failed".into(),
                seq: None,
                detail: format!(
                    "shard {s} (rank {}) silent past the progress window",
                    topo.master_rank(s)
                ),
            });
        }
    }
    if newly_failed {
        for idx in 0..topo.num_slaves() {
            for _ in 0..REDUNDANCY {
                rank.send(topo.slave_rank(idx), Msg::Shutdown);
            }
        }
    }
}

/// Rank `1 + shard`, after the partitioning collective: the master
/// protocol loop over a [`ShardDsu`] id-range view, flushing cross edges
/// to the reconciler at every epoch barrier, then the final `ShardDone`
/// report.
pub(crate) fn submaster_rank(
    rank: &Rank<Msg>,
    num_ests: usize,
    cfg: &ClusterConfig,
    topo: Topology,
    shard: usize,
    under_faults: bool,
    obs: &Obs,
) {
    let spec = ShardSpec::new(num_ests, topo.sessions());
    let mut master = Master::with_sets(ShardDsu::new(spec, shard), topo.num_slaves(), cfg.clone());
    // Epoch barrier: flush pending cross edges every `shard_epoch`
    // handled reports. Sent even when empty — under faults the flush
    // doubles as a liveness signal for the reconciler's progress window.
    let mut epochs = 0u64;
    let mut flush = |m: &mut Master<ShardDsu>| {
        epochs += 1;
        let edges = m.core.sets.drain_cross_edges();
        rank.send(
            0,
            Msg::CrossMerge {
                shard: shard as u32,
                epoch: epochs,
                edges,
            },
        );
    };
    let (busy_frac, _) = run_master(rank, topo, &mut master, cfg, under_faults, obs, |m, n| {
        if n.is_multiple_of(cfg.shard_epoch as u64) {
            flush(m);
        }
    });

    // Final flush + the authoritative shard report.
    flush(&mut master);
    let stats = master.core.stats;
    let injected = rank.fault_stats();
    let report = ShardReport {
        records: master.core.trace.records().to_vec(),
        pairs_received: stats.pairs_generated,
        pairs_processed: stats.pairs_processed,
        pairs_accepted: stats.pairs_accepted,
        pairs_skipped: stats.pairs_skipped,
        merges: stats.merges,
        cross_edges: master.core.sets.cross_edges().total_unique() as u64,
        epochs,
        retries: stats.faults.retries,
        duplicate_reports: stats.faults.duplicate_reports,
        dead_slaves: stats.faults.dead_slaves,
        reassigned_pairs: stats.faults.reassigned_pairs,
        abandoned_pairs: stats.faults.abandoned_pairs,
        injected_drops: injected.dropped,
        injected_delays: injected.delayed,
        injected_stalls: injected.stalls,
        busy_frac,
    };
    for _ in 0..copies(under_faults) {
        rank.send(
            0,
            Msg::ShardDone {
                shard: shard as u32,
                report: report.clone(),
            },
        );
    }
}

/// Fold the reconciler's collected state and the slave summaries into
/// the final result: replay each shard's merge records in shard order
/// through a fresh DSU, keeping only effective merges, so
/// `trace.len() == stats.merges` and `trace.replay(n)` reproduces the
/// labels exactly — the same invariants the single-master fold holds.
pub(crate) fn fold_sharded(
    num_ests: usize,
    topo: Topology,
    recon: ReconcilerOut,
    summaries: &[WorkerSummary],
    comm: WorldStats,
    mut injected: FaultSnapshot,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    let reg = obs.registry();
    let mut replay_timer = Timer::new();
    replay_timer.start();
    let mut dsu = DisjointSets::new(num_ests);
    let mut kept: Vec<MergeRecord> = Vec::new();
    for rep in recon.shard_reports.iter().flatten() {
        for r in &rep.records {
            if dsu.union(r.est_a, r.est_b) {
                kept.push(*r);
            }
        }
    }
    emit_merges(obs, &kept);
    let reconcile_secs = recon.reconcile_secs + replay_timer.stop();

    let mut stats = ClusterStats::default();
    let mut failed_shards = 0u64;
    for (s, rep) in recon.shard_reports.iter().enumerate() {
        match rep {
            Some(rep) => {
                injected.dropped += rep.injected_drops;
                injected.delayed += rep.injected_delays;
                injected.stalls += rep.injected_stalls;
                stats.pairs_processed += rep.pairs_processed;
                stats.pairs_accepted += rep.pairs_accepted;
                stats.pairs_skipped += rep.pairs_skipped;
                stats.faults.retries += rep.retries;
                stats.faults.duplicate_reports += rep.duplicate_reports;
                stats.faults.dead_slaves += rep.dead_slaves;
                stats.faults.reassigned_pairs += rep.reassigned_pairs;
                stats.faults.abandoned_pairs += rep.abandoned_pairs;
                stats.master_busy_frac = stats.master_busy_frac.max(rep.busy_frac);
                for (name, v) in [
                    ("received", rep.pairs_received),
                    ("processed", rep.pairs_processed),
                    ("skipped", rep.pairs_skipped),
                    ("merges", rep.merges),
                    ("cross_edges", rep.cross_edges),
                ] {
                    reg.set_gauge(&metric::shard_gauge_name(s, name), v as f64);
                }
            }
            None => failed_shards += 1,
        }
    }
    stats.merges = kept.len() as u64;

    reg.set_gauge(metric::SHARD_COUNT, topo.sessions() as f64);
    reg.set_gauge(metric::SHARD_RECONCILE_SECS, reconcile_secs);
    reg.add(metric::SHARD_CROSS_EDGES, recon.cross_received);
    reg.add(metric::SHARD_EPOCHS, recon.cross_flushes);
    reg.add(metric::SHARD_FAILED, failed_shards);

    // The per-shard side of the conservation law: what the generators
    // emitted for each owner, and what was still buffered for it.
    for m in 0..topo.sessions() {
        let total = |by_owner: fn(&WorkerSummary) -> &Vec<u64>| {
            summaries
                .iter()
                .filter_map(|s| by_owner(s).get(m))
                .sum::<u64>() as f64
        };
        let gauge = |name| metric::shard_gauge_name(m, name);
        reg.set_gauge(&gauge("generated"), total(|s| &s.gen_by_owner));
        reg.set_gauge(&gauge("unconsumed"), total(|s| &s.unconsumed_by_owner));
    }
    fold_summaries(&mut stats, summaries, comm, injected, obs);

    let labels = dsu.labels();
    (
        ClusterResult {
            num_clusters: dsu.num_sets(),
            labels,
            stats,
        },
        MergeTrace::from_records(kept),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver_par::{
        cluster_parallel_faults, cluster_parallel_obs, cluster_parallel_traced,
    };
    use pace_mpisim::FaultPlan;
    use pace_seq::SequenceStore;
    use pace_simulate::{generate, SimConfig};

    fn small_cfg(shards: usize) -> ClusterConfig {
        let mut c = ClusterConfig::small();
        c.psi = 16;
        c.overlap.min_overlap_len = 40;
        c.batchsize = 8;
        c.shards = shards;
        c.shard_epoch = 4;
        c
    }

    fn dataset(n: usize, seed: u64) -> pace_simulate::EstDataset {
        generate(&SimConfig {
            num_genes: (n / 12).max(2),
            num_ests: n,
            est_len_mean: 220.0,
            est_len_sd: 25.0,
            est_len_min: 120,
            exon_len: (220, 400),
            exons_per_gene: (1, 2),
            seed,
            ..SimConfig::default()
        })
    }

    /// Canonical partition: each EST labelled by the smallest EST id in
    /// its cluster, so two runs agree iff their partitions are equal.
    fn canon(labels: &[usize]) -> Vec<usize> {
        let mut rep = std::collections::HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            rep.entry(l).or_insert(i);
        }
        labels.iter().map(|l| rep[l]).collect()
    }

    #[test]
    fn sharded_matches_single_master_partition() {
        let ds = dataset(80, 41);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (single, _) = cluster_parallel_traced(&store, &small_cfg(0), 4);
        for k in [1usize, 2, 3] {
            let (sharded, trace) = cluster_parallel_obs(&store, &small_cfg(k), 4 + k, &Obs::noop());
            assert_eq!(
                canon(&sharded.labels),
                canon(&single.labels),
                "K={k} diverged from the single master"
            );
            assert_eq!(trace.len() as u64, sharded.stats.merges);
            assert_eq!(canon(&trace.replay(80)), canon(&sharded.labels));
        }
    }

    #[test]
    fn sharded_stats_conserve_flow() {
        let ds = dataset(80, 42);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (r, _) = cluster_parallel_obs(&store, &small_cfg(2), 6, &Obs::noop());
        let s = &r.stats;
        assert_eq!(
            s.pairs_generated,
            s.pairs_processed + s.pairs_skipped + s.pairs_unconsumed
        );
        assert_eq!(s.faults.lost_pairs, 0);
        assert!(s.pairs_accepted <= s.pairs_processed);
        assert!(s.merges <= s.pairs_accepted);
    }

    #[test]
    fn sharded_registry_reports_per_shard_conservation() {
        let ds = dataset(80, 43);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let obs = Obs::noop();
        let (r, _) = cluster_parallel_obs(&store, &small_cfg(2), 6, &obs);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.gauges[metric::SHARD_COUNT], 2.0);
        let mut gen_total = 0.0;
        for s in 0..2 {
            let gen = snap.gauges[&metric::shard_gauge_name(s, "generated")];
            let proc = snap.gauges[&metric::shard_gauge_name(s, "processed")];
            let skip = snap.gauges[&metric::shard_gauge_name(s, "skipped")];
            let uncons = snap.gauges[&metric::shard_gauge_name(s, "unconsumed")];
            let rec = snap.gauges[&metric::shard_gauge_name(s, "received")];
            assert_eq!(gen, proc + skip + uncons, "shard {s} leaked pairs");
            assert!(rec <= proc + skip, "shard {s}: received pairs unresolved");
            gen_total += gen;
        }
        assert_eq!(gen_total as u64, r.stats.pairs_generated);
    }

    #[test]
    fn sharded_p1_falls_back_to_sequential() {
        let ds = dataset(30, 44);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (a, _) = cluster_parallel_obs(&store, &small_cfg(2), 1, &Obs::noop());
        let b = crate::driver_seq::cluster_sequential(&store, &small_cfg(2));
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn crashed_submaster_fails_loudly() {
        let ds = dataset(60, 45);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let mut cfg = small_cfg(2);
        cfg.slave_timeout = 0.2;
        cfg.max_retries = 2;
        // Rank 1 (shard 0) dies after a handful of sends.
        let plan = FaultPlan::none().crash(1, 5);
        let (r, _) = cluster_parallel_faults(&store, &cfg, 6, &plan, &Obs::noop());
        assert_eq!(
            r.stats.pairs_generated,
            r.stats.pairs_processed + r.stats.pairs_skipped + r.stats.pairs_unconsumed,
            "conservation must hold even with a dead shard"
        );
        assert!(
            r.stats.faults.lost_pairs > 0,
            "a crashed sub-master must surface as lost pairs"
        );
    }
}
