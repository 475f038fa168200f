//! Thread-safe metric registry: named counters, gauges, log-bucketed
//! histograms, and per-phase duration aggregates.
//!
//! Counters are lock-free after first lookup (callers hold a
//! [`Counter`] handle wrapping an `Arc<AtomicU64>`); gauges, histograms
//! and phases take a short mutex. Each phase is one running
//! [`LogQuantile`], so a phase recorded on every daemon fold for the
//! life of the process stays a fixed-size aggregate. All maps are
//! `BTreeMap` so snapshots and reports iterate in stable, diff-friendly
//! order.

use crate::quantile::LogQuantile;

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A handle to one named counter; cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over power-of-two buckets: bucket `i` counts values `v`
/// with `floor(log2(v)) == i - 1` (bucket 0 holds `v == 0`). This keeps
/// e.g. "pairs per maximal-common-substring length" compact regardless
/// of range.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    counts: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    fn bucket_of(value: u64) -> u32 {
        u64::BITS - value.leading_zeros()
    }

    /// The inclusive lower bound of a bucket index.
    pub fn bucket_lo(bucket: u32) -> u64 {
        if bucket == 0 {
            0
        } else {
            1u64 << (bucket - 1)
        }
    }

    /// Record one observation of `value`.
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Record `n` observations of `value` at once (used when absorbing
    /// pre-aggregated stats like pairgen's per-MCS-length counts).
    pub fn observe_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(Self::bucket_of(value)).or_insert(0) += n;
        self.count += n;
        self.sum += value.saturating_mul(n);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Non-empty buckets as `(bucket_lower_bound, count)` in ascending
    /// order.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .map(|(&b, &c)| (Self::bucket_lo(b), c))
            .collect()
    }
}

/// Aggregate of one phase's recorded durations. Count, sum, min and
/// max are exact; the quantiles are log-bucket estimates.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseAgg {
    /// Number of recorded durations (usually = participating ranks).
    pub count: u64,
    pub min: f64,
    pub mean: f64,
    /// The slowest rank — the phase's critical path in a barrier-
    /// synchronized run, and what Table 3 reports.
    pub max: f64,
    pub sum: f64,
    /// Median duration — log-bucket estimate, within
    /// [`crate::quantile::relative_error_bound`] of exact.
    pub p50: f64,
    /// 90th-percentile duration (log-bucket estimate).
    pub p90: f64,
    /// 99th-percentile duration (log-bucket estimate). For fine-grained
    /// series like `align_batch` this is the tail the serving roadmap
    /// item gates on; for per-rank phase totals with few samples it
    /// degenerates toward `max`, which is the right answer there too.
    pub p99: f64,
}

/// A stable, lock-free copy of the registry for reporting and tests.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
    pub phases: BTreeMap<String, PhaseAgg>,
}

#[derive(Default)]
struct Tables {
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    phases: BTreeMap<String, LogQuantile>,
}

/// The thread-safe metric registry. One per [`crate::Obs`].
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    tables: Mutex<Tables>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get (or create) a counter handle. Hold the handle across a hot
    /// loop; lookup takes a lock but updates are atomic.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.counters.lock();
        match counters.get(name) {
            Some(cell) => Counter(Arc::clone(cell)),
            None => {
                let cell = Arc::new(AtomicU64::new(0));
                counters.insert(name.to_string(), Arc::clone(&cell));
                Counter(cell)
            }
        }
    }

    /// Add to a named counter without keeping a handle.
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Set a gauge to an instantaneous value (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.tables.lock().gauges.insert(name.to_string(), value);
    }

    /// Raise a gauge to `value` if it is higher than the current value
    /// (used for cross-rank maxima like the deepest GST node).
    pub fn set_gauge_max(&self, name: &str, value: f64) {
        let mut tables = self.tables.lock();
        let slot = tables.gauges.entry(name.to_string()).or_insert(value);
        if value > *slot {
            *slot = value;
        }
    }

    /// Record one observation into a named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        self.observe_n(name, value, 1);
    }

    /// Record `n` observations of `value` into a named histogram.
    pub fn observe_n(&self, name: &str, value: u64, n: u64) {
        self.tables
            .lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe_n(value, n);
    }

    /// Fold one duration into a phase's aggregate. `_rank` names the
    /// rank the duration belongs to, as a span's does; the aggregate
    /// keeps no per-rank state.
    pub fn record_phase(&self, phase: &str, _rank: usize, secs: f64) {
        self.tables
            .lock()
            .phases
            .entry(phase.to_string())
            .or_default()
            .observe(secs);
    }

    /// Take a consistent copy of everything for reporting.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let tables = self.tables.lock();
        let phases = tables
            .phases
            .iter()
            .map(|(k, lq)| (k.clone(), aggregate(lq)))
            .collect();
        RegistrySnapshot {
            counters,
            gauges: tables.gauges.clone(),
            histograms: tables.histograms.clone(),
            phases,
        }
    }
}

fn aggregate(lq: &LogQuantile) -> PhaseAgg {
    let (p50, p90, p99) = lq.p50_p90_p99();
    PhaseAgg {
        count: lq.count(),
        min: lq.min(),
        mean: lq.sum() / lq.count() as f64,
        max: lq.max(),
        sum: lq.sum(),
        p50,
        p90,
        p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_atomic_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("hits");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counters["hits"], 8000);
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe_n(16, 5);
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 86); // 0 + 1 + 2 + 3 + 5·16
                                 // buckets: [0,0]=1, [1,1]=1, [2,3]=2, [16,31]=5
        assert_eq!(h.buckets(), vec![(0, 1), (1, 1), (2, 2), (16, 5)]);
    }

    #[test]
    fn phase_aggregates_min_mean_max() {
        let reg = Registry::new();
        reg.record_phase("alignment", 1, 1.0);
        reg.record_phase("alignment", 2, 3.0);
        reg.record_phase("alignment", 3, 2.0);
        let agg = reg.snapshot().phases["alignment"];
        assert_eq!(agg.count, 3);
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 3.0);
        assert!((agg.mean - 2.0).abs() < 1e-12);
        assert!((agg.sum - 6.0).abs() < 1e-12);
        // Quantile estimates track the exact order statistics within
        // the log-bucket error bound.
        let bound = crate::quantile::relative_error_bound() * (1.0 + 1e-9);
        assert!(
            agg.p50 <= 2.0 * bound && agg.p50 >= 2.0 / bound,
            "{}",
            agg.p50
        );
        assert!(
            agg.p99 <= 3.0 * bound && agg.p99 >= 3.0 / bound,
            "{}",
            agg.p99
        );
    }

    #[test]
    fn phase_aggregates_stay_exact_over_many_samples() {
        // Dyadic durations keep every partial sum exact in f64, so the
        // expected sum is exact too.
        let reg = Registry::new();
        let mut sum = 0.0;
        for i in 0..100_000u64 {
            let secs = ((i * 7919) % 1000 + 1) as f64 / 1024.0;
            sum += secs;
            reg.record_phase("align_batch", (i % 4) as usize, secs);
        }
        let agg = reg.snapshot().phases["align_batch"];
        assert_eq!(agg.count, 100_000);
        assert_eq!(agg.sum, sum);
        assert_eq!(agg.min, 1.0 / 1024.0);
        assert_eq!(agg.max, 1000.0 / 1024.0);
    }

    #[test]
    fn gauge_max_keeps_the_peak() {
        let reg = Registry::new();
        reg.set_gauge_max("depth", 10.0);
        reg.set_gauge_max("depth", 4.0);
        reg.set_gauge_max("depth", 12.0);
        assert_eq!(reg.snapshot().gauges["depth"], 12.0);
    }

    #[test]
    fn snapshot_is_stable_ordered() {
        let reg = Registry::new();
        reg.add("b", 2);
        reg.add("a", 1);
        reg.set_gauge("z", 0.5);
        let snap = reg.snapshot();
        let keys: Vec<_> = snap.counters.keys().cloned().collect();
        assert_eq!(keys, vec!["a", "b"]);
        assert_eq!(snap.gauges["z"], 0.5);
    }
}
