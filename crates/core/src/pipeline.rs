//! The one-call clustering pipeline.

use pace_cluster::{cluster_parallel_faults, ClusterConfig, ClusterResult, MergeTrace, Topology};
use pace_mpisim::FaultPlan;
use pace_obs::Obs;
use pace_quality::QualityMetrics;
use pace_seq::{SeqError, SequenceStore};

/// Top-level configuration: the engine's knobs plus the degree of
/// parallelism.
#[derive(Debug, Clone, PartialEq)]
pub struct PaceConfig {
    /// Clustering engine configuration (window, ψ, batchsize, scoring…).
    pub cluster: ClusterConfig,
    /// Ranks to run: 1 = sequential; `p ≥ 2` = the parallel driver on
    /// the thread-backed message-passing runtime, in the rank layout
    /// `cluster.shards` selects (one master + `p − 1` slaves by default).
    pub num_processors: usize,
    /// Deterministic fault-injection plan for the message-passing
    /// runtime (drops, delays, crashes, stalls). The default empty plan
    /// keeps the runtime on its zero-overhead path; a non-empty plan
    /// only affects parallel runs (`num_processors ≥ 2`) and exercises
    /// the master's timeout/retry/reassignment recovery machinery.
    pub faults: FaultPlan,
}

impl Default for PaceConfig {
    fn default() -> Self {
        PaceConfig {
            cluster: ClusterConfig::default(),
            num_processors: 1,
            faults: FaultPlan::none(),
        }
    }
}

impl PaceConfig {
    /// Paper-style defaults (window 8, ψ 20, batchsize 60) — appropriate
    /// for realistic EST lengths (hundreds of bases).
    pub fn paper() -> Self {
        PaceConfig::default()
    }

    /// Settings for short test sequences (window 4, ψ 8, relaxed
    /// overlap thresholds).
    pub fn small_inputs() -> Self {
        PaceConfig {
            cluster: ClusterConfig::small(),
            num_processors: 1,
            faults: FaultPlan::none(),
        }
    }

    /// Check the engine settings and the world: at least one rank, and
    /// a sharded world large enough for its layout ([`Topology::new`]
    /// holds the rule). A single-master run with one rank is the
    /// sequential driver.
    pub fn validate(&self) -> Result<(), PaceError> {
        self.cluster.validate().map_err(PaceError::BadConfig)?;
        if self.num_processors == 0 {
            return Err(PaceError::BadConfig("num_processors must be ≥ 1".into()));
        }
        if self.cluster.shards > 0 {
            Topology::new(self.num_processors, self.cluster.shards)
                .map_err(PaceError::BadConfig)?;
        }
        Ok(())
    }
}

/// Pipeline errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaceError {
    /// Input sequences failed validation.
    BadInput(SeqError),
    /// Configuration failed validation.
    BadConfig(String),
    /// A persistence operation (snapshot, spill, manifest) failed —
    /// I/O trouble, corruption, or an invalid resume request.
    Persist(String),
    /// A deterministic test-only crash point fired (see
    /// [`CrashPoint`](crate::persistent::CrashPoint)); on-disk state is
    /// exactly what a real crash at that instant would leave.
    InjectedCrash(String),
    /// The multi-process launcher failed: a worker could not be
    /// spawned, missed the socket rendezvous, or exited abnormally
    /// (the message carries its captured stderr).
    Launch(String),
}

impl std::fmt::Display for PaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PaceError::BadInput(e) => write!(f, "invalid input: {e}"),
            PaceError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PaceError::Persist(msg) => write!(f, "persistence failure: {msg}"),
            PaceError::InjectedCrash(point) => write!(f, "injected crash at {point}"),
            PaceError::Launch(msg) => write!(f, "launch failure: {msg}"),
        }
    }
}

impl std::error::Error for PaceError {}

/// The configured pipeline.
#[derive(Debug, Clone)]
pub struct Pace {
    config: PaceConfig,
}

/// Everything a clustering run produces.
#[derive(Debug, Clone)]
pub struct PaceOutcome {
    /// The clustering itself plus statistics.
    pub result: ClusterResult,
    /// Number of input ESTs.
    pub num_ests: usize,
    /// Total input bases (the paper's `N`).
    pub total_bases: usize,
    /// Ranks used.
    pub num_processors: usize,
    /// Ordered log of every accepted merge (replayable).
    pub trace: MergeTrace,
}

impl Pace {
    /// Create a pipeline with the given configuration.
    pub fn new(config: PaceConfig) -> Self {
        Pace { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PaceConfig {
        &self.config
    }

    /// Cluster a set of ESTs given as byte sequences.
    pub fn cluster<S: AsRef<[u8]>>(&self, ests: &[S]) -> Result<PaceOutcome, PaceError> {
        let store = SequenceStore::from_ests(ests).map_err(PaceError::BadInput)?;
        self.cluster_store(&store)
    }

    /// Cluster a pre-built sequence store.
    pub fn cluster_store(&self, store: &SequenceStore) -> Result<PaceOutcome, PaceError> {
        self.cluster_store_obs(store, &Obs::noop())
    }

    /// Cluster a pre-built sequence store with instrumentation: phase
    /// timings, counters and histograms accumulate in `obs`'s registry
    /// (ready for a `pace_obs::report` document), and structured events
    /// stream to its sink. The merge trace is kept on the outcome.
    pub fn cluster_store_obs(
        &self,
        store: &SequenceStore,
        obs: &Obs,
    ) -> Result<PaceOutcome, PaceError> {
        self.config.validate()?;
        let (result, trace) = cluster_parallel_faults(
            store,
            &self.config.cluster,
            self.config.num_processors,
            &self.config.faults,
            obs,
        );
        Ok(PaceOutcome {
            num_ests: store.num_ests(),
            total_bases: store.total_input_chars(),
            num_processors: self.config.num_processors,
            result,
            trace,
        })
    }
}

impl PaceOutcome {
    /// Cluster label per EST.
    pub fn labels(&self) -> &[usize] {
        &self.result.labels
    }

    /// Number of clusters produced.
    pub fn num_clusters(&self) -> usize {
        self.result.num_clusters
    }

    /// Assess against a known correct clustering (Table 2's metrics).
    pub fn quality(&self, truth: &[usize]) -> QualityMetrics {
        pace_quality::assess(&self.result.labels, truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn end_to_end_sequential() {
        let ds = dataset(100, 41);
        let outcome = Pace::new(test_config()).cluster(&ds.ests).unwrap();
        assert_eq!(outcome.num_ests, 100);
        assert!(outcome.num_clusters() <= 100);
        let q = outcome.quality(&ds.truth);
        assert!(q.cc > 0.8, "{q}");
    }

    #[test]
    fn end_to_end_parallel() {
        let ds = dataset(100, 42);
        let mut cfg = test_config();
        cfg.num_processors = 4;
        let outcome = Pace::new(cfg).cluster(&ds.ests).unwrap();
        let q = outcome.quality(&ds.truth);
        assert!(q.cc > 0.8, "{q}");
        assert_eq!(outcome.num_processors, 4);
    }

    #[test]
    fn outcome_trace_replays_to_labels() {
        let ds = dataset(80, 43);
        for p in [1, 3] {
            let mut cfg = test_config();
            cfg.num_processors = p;
            let outcome = Pace::new(cfg).cluster(&ds.ests).unwrap();
            assert_eq!(outcome.trace.len() as u64, outcome.result.stats.merges);
            let replayed = outcome.trace.replay(outcome.num_ests);
            let agreement = pace_quality::assess(&replayed, outcome.labels());
            assert_eq!(agreement.counts.fp + agreement.counts.fn_, 0, "p={p}");
        }
    }

    #[test]
    fn obs_registry_fills_through_the_pipeline() {
        let ds = dataset(60, 44);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let obs = Obs::noop();
        let outcome = Pace::new(test_config())
            .cluster_store_obs(&store, &obs)
            .unwrap();
        let snap = obs.registry().snapshot();
        assert_eq!(
            snap.counters["pairs.generated"],
            outcome.result.stats.pairs_generated
        );
        assert!(snap.phases.contains_key("total"));
    }

    #[test]
    fn bad_input_is_reported() {
        let err = Pace::new(test_config())
            .cluster(&[&b"ACGT"[..], b"ACNT"])
            .unwrap_err();
        assert!(matches!(err, PaceError::BadInput(_)));
    }

    #[test]
    fn bad_config_is_reported() {
        let mut cfg = test_config();
        cfg.cluster.psi = 1; // below window
        let err = Pace::new(cfg).cluster(&[&b"ACGTACGT"[..]]).unwrap_err();
        assert!(matches!(err, PaceError::BadConfig(_)));

        let mut cfg = test_config();
        cfg.num_processors = 0;
        let err = Pace::new(cfg).cluster(&[&b"ACGTACGT"[..]]).unwrap_err();
        assert!(matches!(err, PaceError::BadConfig(_)));
    }
}
