//! The persistent (out-of-core, checkpointed) sequential driver.
//!
//! Same clustering semantics as `pace_cluster::cluster_sequential_obs`,
//! restructured around durable state so a run can (a) bound its peak
//! subtree memory with `--memory-budget` and (b) survive being killed
//! at any instant and continue with `--resume`:
//!
//! * **Ingest** streams the FASTA into the sequence store and publishes
//!   `ingest.snap` (store + ids).
//! * **Cluster** counts w-mer buckets, splits the buckets into batches
//!   whose estimated footprint fits the budget
//!   ([`pace_store::plan_batches`]) and runs
//!   [`pace_cluster::cluster_bucket_batch`] on each: build the batch's
//!   subtrees, drain its pairs through one [`ClusterCore`] — the same
//!   skip→align→union loop as the in-memory driver — and drop them, so
//!   only one batch of subtrees is ever resident. The core's union–find,
//!   merge trace and counters are checkpointed to `cluster.snap` every
//!   `checkpoint_every` batches and after the last one.
//!
//! A checkpoint holds only what a resume cannot recompute. The
//! partition, the batch plan and the batches are pure functions of the
//! store and the fingerprinted configuration, so every start, resumed or
//! not, recomputes the partition and the plan, and a resume rebuilds only
//! the batches after its cluster checkpoint.
//!
//! Each snapshot is its own progress record: a `progress` section holds
//! the run's fingerprint and what the snapshot covers (the EST count in
//! `ingest.snap`, the batches clustered in `cluster.snap`). A snapshot is
//! published atomically, so the directory always describes a consistent
//! state, and no second record can disagree with it. Resume seeds the
//! core from `cluster.snap` (fresh singletons if the run crashed before
//! the first one), replays the merge trace as a cross-check on the
//! decoded union–find, and re-runs the batches after the count it
//! covers. The pair sequence and union order are deterministic, so the
//! restored core is the uninterrupted run's core at that batch: the
//! resumed run's partition, merge trace and every counter equal the
//! uninterrupted run's, and nothing is booked as lost.

use crate::pipeline::{Pace, PaceConfig, PaceError, PaceOutcome};
use pace_cluster::{
    cluster_bucket_batch, record_cluster_counters, AlignContext, ClusterConfig, ClusterCore,
};
use pace_dsu::DisjointSets;
use pace_gst::{assign_buckets, count_buckets, BucketPartition};
use pace_obs::{metric, Obs};
use pace_seq::{read_fasta_into_store, PackedText, SequenceStore};
use pace_store::codec;
use pace_store::{
    fingerprint, plan_batches, BatchPlan, Snapshot, SnapshotError, SnapshotWriter,
    DEFAULT_BYTES_PER_SUFFIX,
};
use std::path::{Path, PathBuf};

impl From<SnapshotError> for PaceError {
    fn from(e: SnapshotError) -> Self {
        PaceError::Persist(e.to_string())
    }
}

/// On-disk names inside the checkpoint directory.
const INGEST_FILE: &str = "ingest.snap";
const CLUSTER_FILE: &str = "cluster.snap";
/// The JSON progress record of the older layout, whose snapshots carry
/// no `progress` section: a resume refuses a directory holding one.
const OLDER_LAYOUT_FILE: &str = "manifest.json";

/// Section names inside the snapshots.
const SEC_STORE: &str = "seq_store";
const SEC_IDS: &str = "est_ids";

/// Deterministic crash points for testing checkpoint/resume: the driver
/// returns [`PaceError::InjectedCrash`] immediately *after* the named
/// point, leaving exactly the state a real `kill -9` at that instant
/// would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After `ingest.snap` is published.
    AfterIngest,
    /// After the k-th batch (1-based) is drained and, if one was due,
    /// its `cluster.snap` published. A resume re-runs the batches after
    /// the last snapshot.
    AfterClusterBatch(u64),
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashPoint::AfterIngest => write!(f, "after-ingest"),
            CrashPoint::AfterClusterBatch(k) => write!(f, "after-cluster-batch-{k}"),
        }
    }
}

/// Configuration of the persistence layer (the directory and budgets).
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory for the phase snapshots.
    pub checkpoint_dir: PathBuf,
    /// Estimated peak subtree bytes allowed in memory; 0 = unlimited
    /// (a single batch — pure checkpointing, no out-of-core batching).
    pub memory_budget: u64,
    /// Write `cluster.snap` every K clustered batches (and after the
    /// last one).
    pub checkpoint_every: u64,
    /// Resume from the checkpoint directory instead of starting fresh.
    pub resume: bool,
    /// Test-only deterministic crash injection.
    pub crash_after: Option<CrashPoint>,
}

impl PersistConfig {
    /// Persistence into `checkpoint_dir` with defaults: unlimited
    /// budget, a cluster checkpoint every batch, fresh start.
    pub fn new(checkpoint_dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            checkpoint_dir: checkpoint_dir.into(),
            memory_budget: 0,
            checkpoint_every: 1,
            resume: false,
            crash_after: None,
        }
    }
}

/// What to cluster: a FASTA file (streamed — never fully in memory) or
/// a pre-built store (ids are synthesized as `est_{i}`).
#[derive(Debug)]
pub enum PersistInput<'a> {
    /// Stream this FASTA file through the sequence-store builder.
    Fasta(&'a Path),
    /// Use a store built elsewhere (tests, simulations).
    Store(&'a SequenceStore),
}

/// A persistent run's product: the standard outcome plus the EST ids
/// (which on resume come from `ingest.snap`, not the caller).
#[derive(Debug, Clone)]
pub struct PersistentOutcome {
    /// The clustering outcome, as from the in-memory pipeline.
    pub outcome: PaceOutcome,
    /// Per-EST identifiers, aligned with `outcome.labels()`.
    pub ids: Vec<String>,
    /// Whether any phase was restored from checkpoints.
    pub resumed: bool,
}

impl Pace {
    /// Cluster a FASTA file through the persistent driver.
    pub fn cluster_fasta_persistent(
        &self,
        fasta: &Path,
        persist: &PersistConfig,
        obs: &Obs,
    ) -> Result<PersistentOutcome, PaceError> {
        run_persistent(self.config(), persist, PersistInput::Fasta(fasta), obs)
    }

    /// Cluster a pre-built store through the persistent driver.
    pub fn cluster_store_persistent(
        &self,
        store: &SequenceStore,
        persist: &PersistConfig,
        obs: &Obs,
    ) -> Result<PersistentOutcome, PaceError> {
        run_persistent(self.config(), persist, PersistInput::Store(store), obs)
    }
}

/// Canonical description whose CRC fingerprints the run. Everything that
/// changes the *result or the on-disk layout* is included (the input, the
/// budget that shapes the batch plan, and the clustering knobs as
/// [`ClusterConfig::to_kv_string`] spells them, the same text the
/// daemon's checkpoint hashes); things that only change *when*
/// durability happens (`checkpoint_every`, `crash_after`, `resume`
/// itself) are deliberately excluded so a crashed run can be resumed
/// with different durability settings.
fn canonical_description(
    config: &PaceConfig,
    persist: &PersistConfig,
    input: &PersistInput<'_>,
) -> String {
    let input_tag = match input {
        PersistInput::Fasta(p) => format!("fasta:{}", p.display()),
        PersistInput::Store(s) => format!("store:{}:{}", s.num_ests(), s.total_input_chars()),
    };
    format!(
        "input={input_tag} budget={} bytes_per_suffix={} cluster={}",
        persist.memory_budget,
        DEFAULT_BYTES_PER_SUFFIX,
        config.cluster.to_kv_string()
    )
}

/// Run the pipeline with out-of-core batching and checkpoint/resume.
pub fn run_persistent(
    config: &PaceConfig,
    persist: &PersistConfig,
    input: PersistInput<'_>,
    obs: &Obs,
) -> Result<PersistentOutcome, PaceError> {
    config.validate()?;
    if config.num_processors > 1 {
        return Err(PaceError::BadConfig(
            "the persistent driver is sequential; run with num_processors = 1".into(),
        ));
    }
    if persist.checkpoint_every == 0 {
        return Err(PaceError::BadConfig("checkpoint_every must be ≥ 1".into()));
    }
    let fp = fingerprint(&canonical_description(config, persist, &input));
    let mut runner = Runner::new(config, persist, obs, fp)?;
    runner.run(input)
}

/// Mutable state threaded through the phases.
struct Runner<'a> {
    cfg: &'a ClusterConfig,
    persist: &'a PersistConfig,
    obs: &'a Obs,
    /// The run's fingerprint, written into and checked against every
    /// snapshot's `progress` section.
    fp: u32,
    ingest_path: PathBuf,
    cluster_path: PathBuf,
    /// Snapshots written / bytes written (the `ckpt.*` family).
    ckpt_writes: u64,
    ckpt_bytes: u64,
    phases_resumed: u64,
    replayed_merges: u64,
}

impl<'a> Runner<'a> {
    fn new(
        config: &'a PaceConfig,
        persist: &'a PersistConfig,
        obs: &'a Obs,
        fp: u32,
    ) -> Result<Self, PaceError> {
        std::fs::create_dir_all(&persist.checkpoint_dir)
            .map_err(|e| PaceError::Persist(format!("creating checkpoint dir: {e}")))?;
        let dir = &persist.checkpoint_dir;
        Ok(Runner {
            cfg: &config.cluster,
            persist,
            obs,
            fp,
            ingest_path: dir.join(INGEST_FILE),
            cluster_path: dir.join(CLUSTER_FILE),
            ckpt_writes: 0,
            ckpt_bytes: 0,
            phases_resumed: 0,
            replayed_merges: 0,
        })
    }

    /// Fire a test crash point (state on disk is already durable).
    fn crash_if(&self, point: CrashPoint) -> Result<(), PaceError> {
        if self.persist.crash_after == Some(point) {
            return Err(PaceError::InjectedCrash(point.to_string()));
        }
        Ok(())
    }

    /// Refuse to resume a directory the older layout wrote: its progress
    /// lives in a JSON manifest this build neither reads nor writes.
    fn refuse_older_layout(&self) -> Result<(), PaceError> {
        let older = self.persist.checkpoint_dir.join(OLDER_LAYOUT_FILE);
        if older.exists() {
            let e = SnapshotError::OlderLayout(older.display().to_string());
            return Err(PaceError::Persist(format!(
                "--resume: {e}; rerun without --resume to start over"
            )));
        }
        Ok(())
    }

    /// Fresh start: drop any state a previous run left behind so a crash
    /// partway through *this* run can't resurrect stale files — a crash
    /// during ingest must not leave the previous run's `ingest.snap` for
    /// a resume to read. That includes what older layouts kept and
    /// nothing reads any more: `manifest.json`, `partition.snap` and the
    /// `batch-*.spill` files under `spill/` (the directory itself goes
    /// only once empty).
    fn clear_stale(&self) -> Result<(), PaceError> {
        let dir = &self.persist.checkpoint_dir;
        let v1_spill = dir.join("spill");
        let mut stale = vec![
            self.ingest_path.clone(),
            self.cluster_path.clone(),
            dir.join(OLDER_LAYOUT_FILE),
            dir.join("partition.snap"),
        ];
        if let Ok(entries) = std::fs::read_dir(&v1_spill) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("batch-") && name.ends_with(".spill") {
                    stale.push(entry.path());
                }
            }
        }
        for path in &stale {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(PaceError::Persist(format!("clearing stale state: {e}"))),
            }
        }
        std::fs::remove_dir(&v1_spill).ok();
        Ok(())
    }

    fn run(&mut self, input: PersistInput<'_>) -> Result<PersistentOutcome, PaceError> {
        let total_span = self.obs.span(metric::PHASE_TOTAL);
        if self.persist.resume {
            self.refuse_older_layout()?;
        } else {
            self.clear_stale()?;
        }

        // ---------------- Phase 1: ingest ----------------
        let (store, ids) = self.phase_ingest(input)?;

        // ---------------- Phase 2: cluster ----------------
        // The partition and the plan are recomputed on every start: both
        // are pure functions of the store and the fingerprinted config.
        let span = self.obs.span(metric::PHASE_PARTITIONING);
        let partition = assign_buckets(&count_buckets(&store, self.cfg.window_w), 1);
        span.finish();
        let plan = plan_batches(
            &partition,
            0,
            self.persist.memory_budget,
            DEFAULT_BYTES_PER_SUFFIX,
        );
        let core = self.phase_cluster(&store, &partition, &plan)?;

        // ---------------- Done: publish metrics + outcome ----------------
        total_span.finish();
        record_cluster_counters(self.obs, &core.stats);
        let reg = self.obs.registry();
        reg.add(
            metric::GST_BUCKETS,
            plan.batches.iter().map(Vec::len).sum::<usize>() as u64,
        );
        reg.add(metric::IO_SPILL_BATCHES, plan.len() as u64);
        reg.add(metric::IO_OVERSIZED_BUCKETS, plan.oversized_buckets as u64);
        reg.set_gauge(metric::IO_PEAK_BATCH_BYTES, plan.peak_est_bytes() as f64);
        reg.add(metric::CKPT_WRITES, self.ckpt_writes);
        reg.add(metric::CKPT_BYTES, self.ckpt_bytes);
        reg.add(metric::CKPT_PHASES_RESUMED, self.phases_resumed);
        reg.add(metric::CKPT_REPLAYED_MERGES, self.replayed_merges);

        let (result, trace) = core.into_result();
        Ok(PersistentOutcome {
            outcome: PaceOutcome {
                num_ests: store.num_ests(),
                total_bases: store.total_input_chars(),
                num_processors: 1,
                result,
                trace,
            },
            ids,
            resumed: self.phases_resumed > 0,
        })
    }

    /// Publish a snapshot, counting it as checkpoint I/O.
    fn publish(&mut self, w: SnapshotWriter) -> Result<(), PaceError> {
        self.ckpt_bytes += w.finish()?;
        self.ckpt_writes += 1;
        Ok(())
    }

    fn phase_ingest(
        &mut self,
        input: PersistInput<'_>,
    ) -> Result<(SequenceStore, Vec<String>), PaceError> {
        if self.persist.resume {
            let snap = Snapshot::read_file(&self.ingest_path).map_err(|e| {
                PaceError::Persist(format!(
                    "--resume: no usable {}: {e}",
                    self.ingest_path.display()
                ))
            })?;
            let store = codec::decode_sequence_store(snap.section(SEC_STORE)?)?;
            let ids = codec::decode_string_list(snap.section(SEC_IDS)?)?;
            let ingested = codec::read_progress(&snap, self.fp)?;
            if ids.len() != store.num_ests() || ingested != store.num_ests() as u64 {
                return Err(PaceError::Persist(format!(
                    "{INGEST_FILE} holds {} ids and records {ingested} ESTs for {} ESTs",
                    ids.len(),
                    store.num_ests()
                )));
            }
            self.phases_resumed += 1;
            return Ok((store, ids));
        }

        let span = self.obs.span(metric::PHASE_INGEST);
        let (store, ids) = match input {
            PersistInput::Fasta(path) => {
                let (store, ids, _replaced) =
                    read_fasta_into_store(path).map_err(PaceError::BadInput)?;
                (store, ids)
            }
            PersistInput::Store(s) => {
                let ids = (0..s.num_ests()).map(|i| format!("est_{i}")).collect();
                (s.clone(), ids)
            }
        };
        span.finish();

        let mut w = SnapshotWriter::create(&self.ingest_path)?;
        w.add_section(SEC_STORE, &codec::encode_sequence_store(&store))?;
        w.add_section(SEC_IDS, &codec::encode_string_list(&ids))?;
        codec::write_progress(&mut w, self.fp, store.num_ests() as u64)?;
        self.publish(w)?;
        self.crash_if(CrashPoint::AfterIngest)?;
        Ok((store, ids))
    }

    /// Checkpoint the core's union–find, merge trace and counters, with
    /// the number of batches they cover.
    fn write_cluster(&mut self, core: &ClusterCore, batches: u64) -> Result<(), PaceError> {
        let span = self.obs.span(metric::PHASE_CHECKPOINT);
        let mut w = SnapshotWriter::create(&self.cluster_path)?;
        codec::write_cluster_state(&mut w, &core.sets, &core.trace, &core.stats)?;
        codec::write_progress(&mut w, self.fp, batches)?;
        self.publish(w)?;
        span.finish();
        Ok(())
    }

    /// Seed a core from `cluster.snap`, cross-checked by
    /// [`codec::read_cluster_state`] (replaying the merge trace from
    /// scratch must reproduce the decoded union–find's partition), and
    /// return it with the number of batches it covers.
    fn read_cluster(&mut self, num_ests: usize) -> Result<(ClusterCore, u64), PaceError> {
        let snap = Snapshot::read_file(&self.cluster_path)?;
        let (sets, trace, stats) = codec::read_cluster_state(&snap, num_ests)?;
        let batches = codec::read_progress(&snap, self.fp)?;
        self.replayed_merges += trace.len() as u64;
        self.phases_resumed += 1;
        Ok((ClusterCore::resume(sets, trace, stats, self.cfg), batches))
    }

    /// Build and drain every batch through one core, checkpointing as
    /// configured.
    fn phase_cluster(
        &mut self,
        store: &SequenceStore,
        partition: &BucketPartition,
        plan: &BatchPlan,
    ) -> Result<ClusterCore, PaceError> {
        let total = plan.len() as u64;
        let n = store.num_ests();
        // Without `cluster.snap` a resumed run crashed before its first
        // cluster checkpoint: cluster from scratch (the store is on disk,
        // the rest is recomputed).
        let (mut core, start) = if self.persist.resume && self.cluster_path.exists() {
            self.read_cluster(n)?
        } else {
            (ClusterCore::new(DisjointSets::new(n), self.cfg), 0)
        };

        let packed = self
            .cfg
            .packed_alignment
            .then(|| PackedText::from_store(store));
        let mut ctx = AlignContext::new(store, packed.as_ref());
        for k in start..total {
            let buckets = &plan.batches[k as usize];
            cluster_bucket_batch(
                &mut core, partition, buckets, 0, &mut ctx, self.cfg, self.obs,
            );
            let done = k + 1;
            if done % self.persist.checkpoint_every == 0 || done == total {
                self.write_cluster(&core, done)?;
            }
            self.crash_if(CrashPoint::AfterClusterBatch(done))?;
        }
        // An empty plan (tiny inputs) still leaves its final state on disk.
        if total == 0 {
            self.write_cluster(&core, 0)?;
        }
        Ok(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IncrementalClusterer;
    use pace_cluster::{cluster_sequential_traced, ClusterStats};
    use pace_simulate::{generate, SimConfig};

    fn test_config() -> PaceConfig {
        let mut c = PaceConfig::small_inputs();
        c.cluster.psi = 16;
        c.cluster.overlap.min_overlap_len = 40;
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

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pace-persist-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn same_partition(a: &[usize], b: &[usize]) -> bool {
        let m = pace_quality::assess(a, b);
        m.counts.fp + m.counts.fn_ == 0
    }

    fn counters(s: &ClusterStats) -> [u64; 6] {
        [
            s.pairs_generated,
            s.pairs_processed,
            s.pairs_skipped,
            s.pairs_accepted,
            s.pairs_prefiltered,
            s.merges,
        ]
    }

    /// A finished run leaves only what a resume cannot recompute.
    fn assert_only_checkpoint_files(dir: &Path) {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, [CLUSTER_FILE, INGEST_FILE]);
    }

    #[test]
    fn persistent_matches_in_memory_unbudgeted() {
        let ds = dataset(90, 71);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let pace = Pace::new(test_config());
        let (reference, reference_trace) =
            cluster_sequential_traced(&store, &test_config().cluster);

        let dir = tmpdir("plain");
        let outcome = pace
            .cluster_store_persistent(&store, &PersistConfig::new(&dir), &Obs::noop())
            .unwrap();
        assert!(!outcome.resumed);
        assert_eq!(outcome.ids.len(), 90);
        assert!(same_partition(outcome.outcome.labels(), &reference.labels));
        // Same core, same bookkeeping: merge for merge, pair for pair.
        assert_eq!(outcome.outcome.trace, reference_trace);
        assert_eq!(
            counters(&outcome.outcome.result.stats),
            counters(&reference.stats)
        );
        // Flow conservation holds without any faults.
        let s = &outcome.outcome.result.stats;
        assert_eq!(
            s.pairs_generated,
            s.pairs_processed + s.pairs_skipped + s.pairs_unconsumed
        );
        assert_eq!(s.faults.lost_pairs, 0);
        assert_only_checkpoint_files(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A budgeted run walks the same plan, batch by batch, as one fold of
    /// the whole input under the same budget: same merges, same pairs.
    #[test]
    fn tiny_budget_matches_a_budgeted_fold() {
        let ds = dataset(90, 72);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let pace = Pace::new(test_config());
        let reference = pace.cluster_store(&store).unwrap();

        let dir = tmpdir("budget");
        let mut persist = PersistConfig::new(&dir);
        persist.memory_budget = 16 * 1024; // forces many batches
        let obs = Obs::noop();
        let outcome = pace
            .cluster_store_persistent(&store, &persist, &obs)
            .unwrap();
        assert!(same_partition(outcome.outcome.labels(), reference.labels()));

        let mut fold = IncrementalClusterer::with_budget(test_config().cluster, 16 * 1024);
        fold.add_batch(&ds.ests).unwrap();
        assert_eq!(&outcome.outcome.trace, fold.trace());
        assert_eq!(
            counters(&outcome.outcome.result.stats),
            counters(&fold.stats)
        );

        let snap = obs.registry().snapshot();
        let batches = snap.counters[metric::IO_SPILL_BATCHES];
        assert!(batches > 1, "no batching");
        // The ingest snapshot and one cluster snapshot per batch.
        assert_eq!(snap.counters[metric::CKPT_WRITES], batches + 1);
        assert_only_checkpoint_files(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_and_resume_preserves_partition_and_conservation() {
        let ds = dataset(90, 73);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let pace = Pace::new(test_config());

        let dir = tmpdir("crash");
        let mut persist = PersistConfig::new(&dir);
        persist.memory_budget = 16 * 1024;
        let uninterrupted = pace
            .cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap();
        // Cluster checkpoints far apart, so a mid-cluster crash leaves
        // drained batches that no snapshot covers.
        persist.checkpoint_every = 1000;
        persist.crash_after = Some(CrashPoint::AfterClusterBatch(2));
        let err = pace
            .cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap_err();
        assert!(matches!(err, PaceError::InjectedCrash(_)), "{err}");

        persist.crash_after = None;
        persist.resume = true;
        let obs = Obs::noop();
        let outcome = pace
            .cluster_store_persistent(&store, &persist, &obs)
            .unwrap();
        assert!(outcome.resumed);
        // The resume re-runs the uncovered batches on the state before
        // them: the same labels, merges and counters, nothing lost.
        assert_eq!(outcome.outcome.labels(), uninterrupted.outcome.labels());
        assert_eq!(outcome.outcome.trace, uninterrupted.outcome.trace);
        let s = &outcome.outcome.result.stats;
        assert_eq!(s, &uninterrupted.outcome.result.stats);
        assert_eq!(s.faults.lost_pairs, 0);
        assert_eq!(
            s.pairs_generated,
            s.pairs_processed + s.pairs_skipped + s.pairs_unconsumed
        );
        let snap = obs.registry().snapshot();
        assert!(snap.counters[metric::CKPT_PHASES_RESUMED] > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_different_parameters_is_rejected() {
        let ds = dataset(60, 74);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let dir = tmpdir("fingerprint");
        let pace = Pace::new(test_config());
        pace.cluster_store_persistent(&store, &PersistConfig::new(&dir), &Obs::noop())
            .unwrap();

        let mut other = test_config();
        other.cluster.psi = 20;
        let mut persist = PersistConfig::new(&dir);
        persist.resume = true;
        let err = Pace::new(other)
            .cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap_err();
        assert!(matches!(err, PaceError::Persist(_)), "{err}");

        // Resume with no checkpoint directory at all is a clear error too.
        let mut persist = PersistConfig::new(tmpdir("missing"));
        persist.resume = true;
        let err = Pace::new(test_config())
            .cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap_err();
        assert!(matches!(err, PaceError::Persist(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A directory in an older layout — a JSON `manifest.json` beside
    /// snapshots without a `progress` section, plus the v1 leftovers
    /// `partition.snap` and spilled batches — is refused on resume with a
    /// message that names the manifest, and a fresh run into it leaves
    /// only this layout.
    #[test]
    fn older_layout_is_refused_on_resume_and_cleared_on_a_fresh_start() {
        let ds = dataset(60, 75);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let pace = Pace::new(test_config());
        let dir = tmpdir("older");
        let mut persist = PersistConfig::new(&dir);
        persist.memory_budget = 16 * 1024;
        pace.cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap();
        let manifest = r#"{"version":2,"fingerprint":"0badf00d","phase":"done","num_ests":60}"#;
        std::fs::write(dir.join(OLDER_LAYOUT_FILE), manifest).unwrap();
        std::fs::write(dir.join("partition.snap"), b"old partition").unwrap();
        std::fs::create_dir(dir.join("spill")).unwrap();
        for k in 0..3 {
            let name = format!("batch-{k:05}.spill");
            std::fs::write(dir.join("spill").join(name), b"old batch").unwrap();
        }

        persist.resume = true;
        let err = pace
            .cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap_err();
        assert!(
            matches!(&err, PaceError::Persist(m) if m.contains("manifest.json")
                && m.contains("older build") && m.contains("without --resume")),
            "{err}"
        );

        persist.resume = false;
        pace.cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap();
        assert_only_checkpoint_files(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fresh start clears the previous run's snapshots before it
    /// ingests, so a run that fails during ingest leaves nothing for a
    /// resume to read: the resume is refused instead of clustering the
    /// previous run's store.
    #[test]
    fn a_fresh_start_that_fails_during_ingest_leaves_nothing_to_resume() {
        let ds = dataset(40, 77);
        let dir = tmpdir("stale");
        std::fs::create_dir_all(&dir).unwrap();
        let fasta = dir.join("reads.fa");
        let text: String = ds
            .ests
            .iter()
            .enumerate()
            .map(|(i, est)| format!(">est_{i}\n{}\n", std::str::from_utf8(est).unwrap()))
            .collect();
        std::fs::write(&fasta, text).unwrap();
        let mut persist = PersistConfig::new(dir.join("ckpt"));
        let pace = Pace::new(test_config());
        pace.cluster_fasta_persistent(&fasta, &persist, &Obs::noop())
            .unwrap();

        std::fs::remove_file(&fasta).unwrap();
        let err = pace
            .cluster_fasta_persistent(&fasta, &persist, &Obs::noop())
            .unwrap_err();
        assert!(matches!(err, PaceError::BadInput(_)), "{err}");
        persist.resume = true;
        let err = pace
            .cluster_fasta_persistent(&fasta, &persist, &Obs::noop())
            .unwrap_err();
        assert!(
            matches!(&err, PaceError::Persist(m) if m.contains(INGEST_FILE)),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A heavy checkpoint with valid CRCs whose merge trace disagrees
    /// with its union–find is refused on resume, not clustered on.
    #[test]
    fn resume_refuses_a_trace_that_disagrees_with_the_union_find() {
        let ds = dataset(60, 76);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let pace = Pace::new(test_config());
        let dir = tmpdir("disagree");
        let mut persist = PersistConfig::new(&dir);
        let done = pace
            .cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap();
        let (trace, stats) = (&done.outcome.trace, &done.outcome.result.stats);
        assert!(!trace.is_empty(), "need a merge to contradict");
        let mut w = SnapshotWriter::create(dir.join(CLUSTER_FILE)).unwrap();
        let singletons = DisjointSets::new(store.num_ests());
        codec::write_cluster_state(&mut w, &singletons, trace, stats).unwrap();
        w.finish().unwrap();

        persist.resume = true;
        let err = pace
            .cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap_err();
        assert!(
            matches!(&err, PaceError::Persist(m) if m.contains("does not reproduce")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_and_tiny_inputs_survive_persistence() {
        let dir = tmpdir("tiny");
        let store = SequenceStore::from_ests(&[b"ACGTACGTACGTACGTACGT".as_slice()]).unwrap();
        let outcome = Pace::new(PaceConfig::small_inputs())
            .cluster_store_persistent(&store, &PersistConfig::new(&dir), &Obs::noop())
            .unwrap();
        assert_eq!(outcome.outcome.num_clusters(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
