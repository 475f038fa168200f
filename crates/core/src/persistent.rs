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
//!   `checkpoint_every` batches; the manifest records per-batch progress.
//!
//! A checkpoint holds only what a resume cannot recompute. The
//! partition, the batch plan and the batches are pure functions of the
//! store and the fingerprinted configuration, so every start, resumed or
//! not, recomputes the partition and the plan, and a resume rebuilds only
//! the batches after its heavy checkpoint.
//!
//! After ingest and after every clustered batch the manifest is
//! rewritten atomically, so the checkpoint directory always describes a
//! consistent state. Resume seeds the core from the last heavy
//! checkpoint, replays the merge trace as a cross-check on the decoded
//! union–find, and re-processes any batches clustered after it. Because
//! the pair sequence and union order are deterministic, the restored
//! union–find is bit-identical to the uninterrupted run's state at that
//! batch — so the final partition is too. Pairs generated after the
//! last heavy checkpoint but before the crash were work the crash
//! destroyed; the resuming driver books them into `faults.lost_pairs`
//! (and `pairs.unconsumed`) instead of silently re-counting, keeping the
//! conservation invariant `generated == processed + skipped + unconsumed`
//! exact across the crash-and-resume cycle.

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
    fingerprint, plan_batches, BatchPlan, Manifest, Phase, Snapshot, SnapshotError, SnapshotWriter,
    DEFAULT_BYTES_PER_SUFFIX, MANIFEST_VERSION,
};
use std::path::{Path, PathBuf};

impl From<SnapshotError> for PaceError {
    fn from(e: SnapshotError) -> Self {
        PaceError::Persist(e.to_string())
    }
}

/// On-disk names inside the checkpoint directory.
const MANIFEST_FILE: &str = "manifest.json";
const INGEST_FILE: &str = "ingest.snap";
const CLUSTER_FILE: &str = "cluster.snap";

/// Section names inside the snapshots.
const SEC_STORE: &str = "seq_store";
const SEC_IDS: &str = "est_ids";

/// Deterministic crash points for testing checkpoint/resume: the driver
/// returns [`PaceError::InjectedCrash`] immediately *after* the named
/// progress record is durably on disk, leaving exactly the state a real
/// `kill -9` at that instant would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After `ingest.snap` and its manifest are published.
    AfterIngest,
    /// After the k-th clustered batch's manifest update (1-based). The
    /// heavy checkpoint may or may not cover the batch depending on
    /// `checkpoint_every` — that gap is the lost-pairs scenario.
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
    /// Directory for the manifest and phase snapshots.
    pub checkpoint_dir: PathBuf,
    /// Estimated peak subtree bytes allowed in memory; 0 = unlimited
    /// (a single batch — pure checkpointing, no out-of-core batching).
    pub memory_budget: u64,
    /// Write the heavy (union–find + trace) checkpoint every K clustered
    /// batches. The manifest is still updated after *every* batch.
    pub checkpoint_every: u64,
    /// Resume from the checkpoint directory instead of starting fresh.
    pub resume: bool,
    /// Test-only deterministic crash injection.
    pub crash_after: Option<CrashPoint>,
}

impl PersistConfig {
    /// Persistence into `checkpoint_dir` with defaults: unlimited
    /// budget, heavy checkpoint every batch, fresh start.
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
/// changes the *result or the on-disk layout* is included (clustering
/// knobs, the input, the budget that shapes the batch plan); things that
/// only change *when* durability happens (`checkpoint_every`,
/// `crash_after`, `resume` itself) are deliberately excluded so a
/// crashed run can be resumed with different durability settings.
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
        "v1 input={input_tag} cluster={:?} budget={} bytes_per_suffix={}",
        config.cluster, persist.memory_budget, DEFAULT_BYTES_PER_SUFFIX
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
    let mut runner = Runner::new(config, persist, obs)?;
    runner.run(input)
}

/// Mutable state threaded through the phases.
struct Runner<'a> {
    cfg: &'a ClusterConfig,
    config: &'a PaceConfig,
    persist: &'a PersistConfig,
    obs: &'a Obs,
    manifest_path: PathBuf,
    ingest_path: PathBuf,
    cluster_path: PathBuf,
    /// Checkpoint artifacts written / bytes written (the `ckpt.*` family).
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
    ) -> Result<Self, PaceError> {
        std::fs::create_dir_all(&persist.checkpoint_dir)
            .map_err(|e| PaceError::Persist(format!("creating checkpoint dir: {e}")))?;
        let dir = &persist.checkpoint_dir;
        Ok(Runner {
            cfg: &config.cluster,
            config,
            persist,
            obs,
            manifest_path: dir.join(MANIFEST_FILE),
            ingest_path: dir.join(INGEST_FILE),
            cluster_path: dir.join(CLUSTER_FILE),
            ckpt_writes: 0,
            ckpt_bytes: 0,
            phases_resumed: 0,
            replayed_merges: 0,
        })
    }

    /// Atomically publish the manifest, counting it as checkpoint I/O.
    fn save_manifest(&mut self, manifest: &Manifest) -> Result<(), PaceError> {
        manifest.store(&self.manifest_path)?;
        self.ckpt_writes += 1;
        self.ckpt_bytes += manifest.to_json().to_string().len() as u64 + 1;
        Ok(())
    }

    fn wrote_snapshot(&mut self, bytes: u64) {
        self.ckpt_writes += 1;
        self.ckpt_bytes += bytes;
    }

    /// Fire a test crash point (state on disk is already durable).
    fn crash_if(&self, point: CrashPoint) -> Result<(), PaceError> {
        if self.persist.crash_after == Some(point) {
            return Err(PaceError::InjectedCrash(point.to_string()));
        }
        Ok(())
    }

    /// Fresh start: drop any state a previous run left behind so a crash
    /// partway through *this* run can't resurrect stale files. That
    /// includes what the v1 layout kept and nothing reads any more:
    /// `partition.snap` and the `batch-*.spill` files under `spill/`
    /// (the directory itself goes only once empty).
    fn clear_stale(&self) -> Result<(), PaceError> {
        let v1_spill = self.persist.checkpoint_dir.join("spill");
        let mut stale = vec![
            self.manifest_path.clone(),
            self.cluster_path.clone(),
            self.persist.checkpoint_dir.join("partition.snap"),
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
        let fp = fingerprint(&canonical_description(self.config, self.persist, &input));
        let total_span = self.obs.span(metric::PHASE_TOTAL);

        let mut manifest = if self.persist.resume {
            let m = Manifest::load(&self.manifest_path).map_err(|e| {
                let why = match e {
                    SnapshotError::UnsupportedVersion(v) => format!(
                        "manifest version {v} is not supported (this build reads version \
                         {MANIFEST_VERSION}); rerun without --resume to start over"
                    ),
                    e => e.to_string(),
                };
                PaceError::Persist(format!(
                    "--resume: no usable manifest in {}: {why}",
                    self.persist.checkpoint_dir.display()
                ))
            })?;
            if m.fingerprint != fp {
                return Err(PaceError::Persist(format!(
                    "--resume: checkpoint fingerprint {} does not match this run's {fp} \
                     (different input or parameters); refusing to mix state",
                    m.fingerprint
                )));
            }
            Some(m)
        } else {
            self.clear_stale()?;
            None
        };

        // ---------------- Phase 1: ingest ----------------
        let (store, ids) = self.phase_ingest(input, &fp, &mut manifest)?;
        let mut manifest = manifest.expect("ingest always leaves a manifest");
        if manifest.num_ests != store.num_ests() as u64 {
            return Err(PaceError::Persist(format!(
                "manifest says {} ESTs but ingest snapshot holds {}",
                manifest.num_ests,
                store.num_ests()
            )));
        }

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
        if manifest.batches_total != 0 && manifest.batches_total != plan.len() as u64 {
            return Err(PaceError::Persist(format!(
                "checkpoint was built with {} batches, this run plans {}",
                manifest.batches_total,
                plan.len()
            )));
        }
        manifest.batches_total = plan.len() as u64;
        let core = self.phase_cluster(&store, &partition, &plan, &mut manifest)?;

        // ---------------- Done: publish metrics + outcome ----------------
        total_span.finish();
        manifest.phase = Phase::Done;
        self.save_manifest(&manifest)?;
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

    fn phase_ingest(
        &mut self,
        input: PersistInput<'_>,
        fp: &str,
        manifest: &mut Option<Manifest>,
    ) -> Result<(SequenceStore, Vec<String>), PaceError> {
        if manifest.is_some() {
            // A manifest only ever exists after ingest completed.
            let snap = Snapshot::read_file(&self.ingest_path)?;
            let store = codec::decode_sequence_store(snap.section(SEC_STORE)?)?;
            let ids = codec::decode_string_list(snap.section(SEC_IDS)?)?;
            if ids.len() != store.num_ests() {
                return Err(PaceError::Persist(format!(
                    "ingest snapshot holds {} ids for {} ESTs",
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
        let bytes = w.finish()?;
        self.wrote_snapshot(bytes);

        let mut m = Manifest::new(fp.to_string());
        m.phase = Phase::Ingest;
        m.num_ests = store.num_ests() as u64;
        m.total_bases = store.total_input_chars() as u64;
        self.save_manifest(&m)?;
        *manifest = Some(m);
        self.crash_if(CrashPoint::AfterIngest)?;
        Ok((store, ids))
    }

    /// Write the heavy checkpoint: the core's union–find, merge trace
    /// and counters.
    fn write_heavy(&mut self, core: &ClusterCore) -> Result<(), PaceError> {
        let span = self.obs.span(metric::PHASE_CHECKPOINT);
        let mut w = SnapshotWriter::create(&self.cluster_path)?;
        codec::write_cluster_state(&mut w, &core.sets, &core.trace, &core.stats)?;
        let bytes = w.finish()?;
        self.wrote_snapshot(bytes);
        span.finish();
        Ok(())
    }

    /// Seed a core from the heavy checkpoint, cross-checked by
    /// [`codec::read_cluster_state`]: replaying the merge trace from
    /// scratch must reproduce the decoded union–find's partition.
    fn read_heavy(&mut self, num_ests: usize) -> Result<ClusterCore, PaceError> {
        let snap = Snapshot::read_file(&self.cluster_path)?;
        let (sets, trace, stats) = codec::read_cluster_state(&snap, num_ests)?;
        self.replayed_merges += trace.len() as u64;
        Ok(ClusterCore::resume(sets, trace, stats, self.cfg))
    }

    /// Build and drain every batch through one core, checkpointing as
    /// configured.
    fn phase_cluster(
        &mut self,
        store: &SequenceStore,
        partition: &BucketPartition,
        plan: &BatchPlan,
        manifest: &mut Manifest,
    ) -> Result<ClusterCore, PaceError> {
        let total = plan.len() as u64;
        let n = store.num_ests();

        // Clustering already finished in a previous run: the final heavy
        // checkpoint *is* the result.
        if self.persist.resume && manifest.phase >= Phase::Cluster {
            self.phases_resumed += 1;
            return self.read_heavy(n);
        }

        let mut core = ClusterCore::new(DisjointSets::new(n), self.cfg);
        let mut start = 0;
        if self.persist.resume {
            // Without a heavy checkpoint the run crashed before the first
            // one: cluster from scratch (the store is on disk, the rest is
            // recomputed).
            if let Some(c) = manifest.heavy_ckpt {
                core = self.read_heavy(n)?;
                start = c;
            }
            // Reconcile the crash gap: pairs generated after the heavy
            // checkpoint (per the light manifest counter) had their
            // outcomes destroyed. Book them as lost + unconsumed — never
            // silently re-count them — then re-process those batches.
            let stats = &mut core.stats;
            let lost = manifest
                .pairs_generated
                .saturating_sub(stats.pairs_generated);
            if lost > 0 {
                stats.pairs_generated += lost;
                stats.pairs_unconsumed += lost;
                stats.faults.lost_pairs += lost;
            }
            // Roll the light counters back to the restart point so the
            // per-batch updates below stay monotonically consistent.
            manifest.batches_clustered = start;
            manifest.pairs_generated = stats.pairs_generated;
            self.phases_resumed += 1;
        }

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

            // Heavy checkpoint first, then the manifest that refers to
            // it — the manifest on disk never points past real state.
            let done = k + 1;
            if done % self.persist.checkpoint_every == 0 || done == total {
                self.write_heavy(&core)?;
                manifest.heavy_ckpt = Some(done);
            }
            manifest.batches_clustered = done;
            manifest.pairs_generated = core.stats.pairs_generated;
            self.save_manifest(manifest)?;
            self.crash_if(CrashPoint::AfterClusterBatch(done))?;
        }

        // Empty plans (tiny inputs) still need the final heavy state on
        // disk for the Cluster phase to be restorable.
        if manifest.heavy_ckpt != Some(total) {
            self.write_heavy(&core)?;
            manifest.heavy_ckpt = Some(total);
        }

        manifest.phase = Phase::Cluster;
        self.save_manifest(manifest)?;
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
        assert_eq!(names, [CLUSTER_FILE, INGEST_FILE, MANIFEST_FILE]);
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
        let m = Manifest::load(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(m.phase, Phase::Done);
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
        // An ingest snapshot, a heavy checkpoint and a manifest per batch,
        // and the ingest, cluster and done manifests.
        assert_eq!(snap.counters[metric::CKPT_WRITES], 2 * batches + 4);
        assert_only_checkpoint_files(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_and_resume_preserves_partition_and_conservation() {
        let ds = dataset(90, 73);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let pace = Pace::new(test_config());
        let reference = pace.cluster_store(&store).unwrap();

        let dir = tmpdir("crash");
        let mut persist = PersistConfig::new(&dir);
        persist.memory_budget = 16 * 1024;
        // Heavy checkpoints far apart, so a mid-cluster crash strands
        // generated pairs between the last heavy checkpoint and the
        // per-batch manifest — the lost-pairs scenario.
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
        assert!(same_partition(outcome.outcome.labels(), reference.labels()));

        let s = &outcome.outcome.result.stats;
        assert!(s.faults.lost_pairs > 0, "crash gap must be booked as lost");
        assert_eq!(s.pairs_unconsumed, s.faults.lost_pairs);
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

    /// A directory in the v1 layout (manifest v1, `partition.snap`,
    /// spilled batches) is refused on resume with a message that names
    /// the manifest, and a fresh run into it leaves only this layout.
    #[test]
    fn v1_directory_is_refused_on_resume_and_cleared_on_a_fresh_start() {
        let ds = dataset(60, 75);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let pace = Pace::new(test_config());
        let dir = tmpdir("v1");
        let mut persist = PersistConfig::new(&dir);
        persist.memory_budget = 16 * 1024;
        pace.cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap();
        let mut manifest = Manifest::load(dir.join(MANIFEST_FILE)).unwrap();
        manifest.version = 1;
        manifest.store(dir.join(MANIFEST_FILE)).unwrap();
        std::fs::write(dir.join("partition.snap"), b"old partition").unwrap();
        std::fs::create_dir(dir.join("spill")).unwrap();
        for k in 0..3 {
            let name = format!("batch-{k:05}.spill");
            std::fs::write(dir.join("spill").join(name), b"old batch").unwrap();
        }

        persist.resume = true;
        let err = pace
            .cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("manifest version 1 is not supported") && err.contains("without --resume"),
            "{err}"
        );

        persist.resume = false;
        pace.cluster_store_persistent(&store, &persist, &Obs::noop())
            .unwrap();
        assert_only_checkpoint_files(&dir);
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
