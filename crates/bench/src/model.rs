//! Critical-path scaling model for single-CPU hosts.
//!
//! The paper's Figure 6a and Table 3 need a machine where every rank has
//! its own processor; this benchmark host has **one** hardware thread,
//! so wall-clock time cannot shrink with `p` no matter how faithful the
//! message-passing runtime is. Following the repository's substitution
//! policy (DESIGN.md §3), the scaling experiments therefore report a
//! *modeled critical path* built from measured quantities only:
//!
//! * the per-phase serial work is **measured** by running the sequential
//!   driver on the actual workload and reading its registry snapshot;
//! * the per-rank share of suffix-tree work is **computed exactly** from
//!   the real bucket partition (`max load / total load` over the LPT
//!   assignment for `p − 1` slaves) — this is where load imbalance, the
//!   dominant deviation from ideal speedup, enters;
//! * embarrassingly divisible phases (bucket counting, alignment, which
//!   the master spreads over slaves in batches) are divided by the slave
//!   count.
//!
//! The model is deliberately simple and fully reproducible; it contains
//! no fitted constants. On a multi-core host the harness prints measured
//! wall clock next to the model.

use crate::{timed_run, PhaseTimes};
use pace_cluster::{ClusterConfig, ClusterResult};
use pace_gst::{assign_buckets, count_buckets};
use pace_obs::metric;
use pace_seq::SequenceStore;

/// Serial phase measurements plus the data needed to re-partition.
pub struct ScalingModel {
    /// Measured sequential phase times, `total` included.
    pub serial: PhaseTimes,
    /// Global per-bucket suffix counts (for the per-p LPT partition).
    counts: Vec<u64>,
}

impl ScalingModel {
    /// Run the sequential driver once on `store` and capture everything
    /// the model needs. Returns the model and the sequential result (so
    /// callers don't pay for the run twice).
    pub fn fit(store: &SequenceStore, cfg: &ClusterConfig) -> (Self, ClusterResult) {
        let (result, serial) = timed_run(store, cfg, 1);
        let counts = count_buckets(store, cfg.window_w);
        (ScalingModel { serial, counts }, result)
    }

    /// The maximum-to-total load share of the busiest slave when the
    /// buckets are LPT-assigned to `slaves` ranks.
    pub fn load_share(&self, slaves: usize) -> f64 {
        let partition = assign_buckets(&self.counts, slaves);
        let loads = partition.load_per_rank();
        let max = *loads.iter().max().unwrap_or(&0) as f64;
        let total: u64 = loads.iter().sum();
        if total == 0 {
            0.0
        } else {
            max / total as f64
        }
    }

    /// Modeled critical-path phase times for `p` ranks (1 master +
    /// `p − 1` slaves). `p == 1` returns the measured serial times.
    pub fn predict(&self, p: usize) -> PhaseTimes {
        if p <= 1 {
            return self.serial.clone();
        }
        let per_slave = 1.0 / (p - 1) as f64;
        let share = self.load_share(p - 1);
        let t = |phase: &str| self.serial.get(phase).copied().unwrap_or(0.0);
        // Bucket counting and alignment divide over the slaves; the
        // suffix-tree phases follow the busiest slave's bucket share.
        let factors = [
            (metric::PHASE_PARTITIONING, per_slave),
            (metric::PHASE_GST_CONSTRUCTION, share),
            (metric::PHASE_NODE_SORTING, share),
            (metric::PHASE_PAIR_GENERATION, share),
            (metric::PHASE_ALIGNMENT, per_slave),
        ];
        let mut modeled: PhaseTimes = factors
            .iter()
            .map(|&(phase, factor)| (phase.to_string(), t(phase) * factor))
            .collect();
        // Whatever the sequential driver spent outside the named phases
        // (cluster bookkeeping) is suffix-tree-shaped work on the
        // slaves: scale it by the load share too.
        let accounted: f64 = factors.iter().map(|&(phase, _)| t(phase)).sum();
        let residue = (t(metric::PHASE_TOTAL) - accounted).max(0.0) * share;
        let total = modeled.values().sum::<f64>() + residue;
        modeled.insert(metric::PHASE_TOTAL.to_string(), total);
        modeled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset;

    fn model() -> ScalingModel {
        let ds = dataset(150, 9901);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (model, _) = ScalingModel::fit(&store, &crate::paper_cfg());
        assert!(model.serial[metric::PHASE_TOTAL] > 0.0);
        model
    }

    #[test]
    fn prediction_is_monotone_in_p() {
        let m = model();
        let mut last = f64::INFINITY;
        for p in [1usize, 2, 3, 5, 9, 17] {
            let t = m.predict(p)[metric::PHASE_TOTAL];
            assert!(t > 0.0);
            assert!(
                t <= last * 1.0001,
                "modeled time rose from {last} to {t} at p={p}"
            );
            last = t;
        }
    }

    #[test]
    fn p1_is_the_measurement() {
        let m = model();
        assert_eq!(m.predict(1), m.serial);
    }

    #[test]
    fn load_share_bounds() {
        let m = model();
        for slaves in [1usize, 2, 4, 8] {
            let s = m.load_share(slaves);
            assert!(s <= 1.0 + 1e-12);
            assert!(s >= 1.0 / slaves as f64 - 1e-12);
        }
        assert!((m.load_share(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phases_shrink_with_p() {
        let m = model();
        let t2 = m.predict(2);
        let t8 = m.predict(8);
        for phase in [metric::PHASE_ALIGNMENT, metric::PHASE_GST_CONSTRUCTION] {
            assert!(t8[phase] <= t2[phase] + 1e-12, "{phase}");
        }
    }
}
