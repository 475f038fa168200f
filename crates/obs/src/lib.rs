//! `pace-obs` — the unified observability layer for the PaCE
//! reproduction.
//!
//! The paper's evaluation is an observability story: Table 3 is a
//! per-phase timing breakdown, Figure 7 tracks pairs
//! generated/processed/accepted over time, Figure 8 counts
//! communication volume, and the central efficiency claim is "the
//! master is busy < 2% of the time". This crate gives every layer of
//! the pipeline one substrate to record those numbers through:
//!
//! - [`Span`] / [`Timer`] — RAII phase timing that feeds the registry,
//!   the one record of every phase's duration.
//! - [`Registry`] — thread-safe named counters, gauges, log-bucketed
//!   histograms, and per-phase duration aggregates (count, sum, min,
//!   mean, max and quantiles).
//! - [`Tracer`] — the optional causal trace: per-rank spans, instants
//!   (injected faults, recovery actions, merges) and dispatch→report
//!   flow edges, exported as Chrome/Perfetto JSON ([`trace`]).
//! - [`report`] — a schema-versioned JSON run report assembled from a
//!   registry snapshot, shared by the CLI (`--metrics-out`) and the
//!   bench binaries.
//!
//! Everything is std-only (plus the workspace's vendored `parking_lot`
//! shim); the crate pulls in no external dependencies.
//!
//! # Metric naming conventions
//!
//! Dotted lowercase names, grouped by subsystem:
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `pairs.generated` … `pairs.unconsumed` | counter | pair life cycle |
//! | `merges` | counter | accepted union-find merges |
//! | `comm.messages` / `comm.barriers` / `comm.reductions` | counter | mpisim traffic |
//! | `gst.buckets` / `gst.nodes` / `gst.subtrees` | counter | GST build size (in-scope nodes and subtrees) |
//! | `gst.max_depth` | gauge | deepest GST node (string depth) |
//! | `gst.memory_bytes` / `pairgen.memory_bytes` | gauge | heap bytes of the largest forest (or build batch) and pair generator |
//! | `master.busy_frac` | gauge | fraction of wall time the master worked |
//! | `pairs.mcs_len` | histogram | generated pairs by maximal-common-substring length |
//! | `partitioning`, `gst_construction`, `node_sorting`, `pair_generation`, `alignment`, `total` | phase | per-rank phase timings |

pub mod json;
pub mod metric;
pub mod quantile;
pub mod registry;
pub mod report;
pub mod span;
pub mod trace;

pub use json::Json;
pub use quantile::LogQuantile;
pub use registry::{Counter, Histogram, PhaseAgg, Registry, RegistrySnapshot};
pub use report::SCHEMA_VERSION;
pub use span::{Span, Timer};
pub use trace::{TraceDoc, TraceEvent, TraceKind, Tracer, TRACE_SCHEMA_VERSION};

use std::sync::Arc;
use std::time::Instant;

struct Inner {
    registry: Registry,
    /// Present only when `--trace-out` (or a test) asked for a trace;
    /// hot paths gate on [`Obs::trace_enabled`] / [`Obs::trace_with`]
    /// so tracing off costs one branch and zero allocations. Shared by
    /// every handle [`Obs::with_own_registry`] derives.
    tracer: Option<Arc<Tracer>>,
    epoch: Instant,
}

/// Cheaply clonable handle to one run's observability state: a metric
/// registry plus an optional trace recorder. `Obs` is `Send + Sync`;
/// the ranks of the parallel driver share its tracer and clock.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<Inner>,
}

impl Obs {
    /// An `Obs` that aggregates metrics and records no trace. This is
    /// the default for library callers; the registry still fills so
    /// reports can always be produced.
    pub fn noop() -> Self {
        Obs::build(None)
    }

    /// An `Obs` with a trace recorder attached. Spans then also record
    /// [`trace::TraceEvent`]s.
    pub fn with_tracer() -> Self {
        Obs::build(Some(Tracer::new()))
    }

    fn build(tracer: Option<Tracer>) -> Self {
        Obs {
            inner: Arc::new(Inner {
                registry: Registry::new(),
                tracer: tracer.map(Arc::new),
                epoch: Instant::now(),
            }),
        }
    }

    /// A handle on this one's tracer and clock with a registry of its
    /// own. A worker rank records into one: its metrics stay its own,
    /// as in a worker process, and reach the run's registry only through
    /// the summary it sends rank 0, while its trace events land on the
    /// run's one timeline.
    pub fn with_own_registry(&self) -> Self {
        Obs {
            inner: Arc::new(Inner {
                registry: Registry::new(),
                tracer: self.inner.tracer.clone(),
                epoch: self.inner.epoch,
            }),
        }
    }

    /// The metric registry shared by all clones of this handle.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Seconds since this `Obs` was created (the run's time origin).
    pub fn now(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64()
    }

    /// Microseconds since this `Obs` was created — the trace clock. All
    /// ranks share one process, so one monotonic epoch gives globally
    /// comparable per-rank timelines.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// The trace recorder, if one is attached.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.inner.tracer.as_deref()
    }

    /// Whether a trace recorder is attached. Hot paths gate on this (or
    /// use [`Obs::trace_with`]) so tracing off costs one branch.
    pub fn trace_enabled(&self) -> bool {
        self.inner.tracer.is_some()
    }

    /// Record trace events lazily: the closure runs only when a tracer
    /// is attached.
    pub fn trace_with(&self, record: impl FnOnce(&Tracer)) {
        if let Some(tracer) = self.tracer() {
            record(tracer);
        }
    }

    /// Open an RAII span for `phase` on rank 0.
    pub fn span<'a>(&'a self, phase: &'a str) -> Span<'a> {
        self.span_on(phase, 0)
    }

    /// Open an RAII span for `phase` on the given rank. At
    /// [`Span::finish`] (or drop) it records the duration into the
    /// registry's phase aggregate and, with a tracer attached, one trace
    /// span.
    pub fn span_on<'a>(&'a self, phase: &'a str, rank: usize) -> Span<'a> {
        Span::begin(self, phase, rank)
    }

    /// Convenience: a counter handle (see [`Registry::counter`]).
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.registry.counter(name)
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("trace_enabled", &self.trace_enabled())
            .finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::noop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_is_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
        let obs = Obs::noop();
        let clones: Vec<Obs> = (0..8).map(|_| obs.clone()).collect();
        std::thread::scope(|s| {
            for (i, o) in clones.iter().enumerate() {
                s.spawn(move || o.counter("shared").add(i as u64 + 1));
            }
        });
        assert_eq!(obs.registry().snapshot().counters["shared"], 36);
    }

    #[test]
    fn no_tracer_never_invokes_trace_closures() {
        let obs = Obs::noop();
        assert!(!obs.trace_enabled());
        let mut invoked = false;
        obs.trace_with(|_| invoked = true);
        assert!(!invoked, "trace_with must be free when tracing is off");
        // Spans record phases but produce no trace events.
        obs.span_on("alignment", 1).finish();
        assert!(obs.tracer().is_none());
    }

    #[test]
    fn own_registry_shares_the_tracer_and_clock() {
        let obs = Obs::with_tracer();
        let worker = obs.with_own_registry();
        worker.span_on("alignment", 1).finish();
        worker.counter("mine").inc();
        assert!(obs.registry().snapshot().phases.is_empty());
        assert!(!obs.registry().snapshot().counters.contains_key("mine"));
        assert_eq!(obs.tracer().unwrap().recorded(), 1);
        let (before, after) = (obs.now_us(), worker.now_us());
        assert!(after >= before && after - before < 1_000_000, "one clock");
    }

    #[test]
    fn tracer_records_span_close() {
        let obs = Obs::with_tracer();
        assert!(obs.trace_enabled());
        obs.span_on("alignment", 2).finish();
        let tracer = obs.tracer().unwrap();
        assert_eq!(tracer.recorded(), 1);
        let snap = tracer.snapshot();
        assert_eq!(snap[0].rank, 2);
        assert_eq!(snap[0].name, "alignment");
        assert!(matches!(snap[0].kind, TraceKind::Span));
    }
}
