//! Fixed-precision log-bucket quantile estimation.
//!
//! [`LogQuantile`] buckets positive values on a logarithmic grid with
//! [`SUBBUCKETS_PER_OCTAVE`] buckets per power of two, so any quantile
//! it reports is within a fixed *relative* error of the exact order
//! statistic regardless of the value range — the right trade for
//! latencies, which span microseconds to minutes in one run. Each of the
//! registry's phases is one running estimator (see
//! [`crate::registry::PhaseAgg`]), and `pace-trace` uses it for
//! per-span-name summaries.
//!
//! Memory is O(occupied buckets) — a `BTreeMap` keyed by bucket index —
//! and the full `f64` range down to ~2⁻⁶⁴ is representable, so there is
//! no configuration to get wrong.

use std::collections::BTreeMap;

/// Log-grid resolution: buckets per power of two. 16 sub-buckets give a
/// bucket width ratio of 2^(1/16) ≈ 1.0443, i.e. a worst-case relative
/// quantile error of 2^(1/32) − 1 ≈ 2.2% (the representative value is
/// the bucket's geometric midpoint).
pub const SUBBUCKETS_PER_OCTAVE: i32 = 16;

/// The guaranteed error bound: any reported quantile `est` satisfies
/// `exact / RELATIVE_ERROR_BOUND ≤ est ≤ exact * RELATIVE_ERROR_BOUND`
/// where `exact` is the order statistic at the same rank.
pub fn relative_error_bound() -> f64 {
    2f64.powf(0.5 / SUBBUCKETS_PER_OCTAVE as f64)
}

/// Bucket index reserved for values ≤ 0 (they carry no log-scale
/// information; they are reported as exactly 0).
const ZERO_BUCKET: i32 = i32::MIN;

/// A streaming quantile estimator over fixed-precision log buckets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LogQuantile {
    counts: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogQuantile {
    pub fn new() -> Self {
        LogQuantile::default()
    }

    fn bucket_of(value: f64) -> i32 {
        if value <= 0.0 || !value.is_finite() {
            return ZERO_BUCKET;
        }
        (value.log2() * SUBBUCKETS_PER_OCTAVE as f64).floor() as i32
    }

    /// The geometric midpoint of a bucket — the value reported for any
    /// quantile that lands in it.
    fn representative(bucket: i32) -> f64 {
        if bucket == ZERO_BUCKET {
            return 0.0;
        }
        2f64.powf((bucket as f64 + 0.5) / SUBBUCKETS_PER_OCTAVE as f64)
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        self.observe_n(value, 1);
    }

    /// Record `n` observations of `value` at once.
    pub fn observe_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        *self.counts.entry(Self::bucket_of(value)).or_insert(0) += n;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += n;
        self.sum += value * n as f64;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observed value (0 when nothing was observed).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observed value (0 when nothing was observed).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`). Returns the
    /// representative value of the bucket containing the order statistic
    /// at rank `⌈q·n⌉` (1-based; q = 0 means the minimum's bucket), so
    /// the estimate is within [`relative_error_bound`] of the exact
    /// quantile. Returns 0 when nothing was observed.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (&bucket, &n) in &self.counts {
            cum += n;
            if cum >= rank {
                // Clamp to the observed extremes so p0/p100 never report
                // a bucket midpoint outside the data.
                return Self::representative(bucket).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience: `(p50, p90, p99)`.
    pub fn p50_p90_p99(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    #[test]
    fn empty_reports_zero() {
        let lq = LogQuantile::new();
        assert_eq!(lq.quantile(0.5), 0.0);
        assert_eq!(lq.count(), 0);
    }

    #[test]
    fn single_value_is_its_own_quantile() {
        let mut lq = LogQuantile::new();
        lq.observe(3.7);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = lq.quantile(q);
            assert!(
                (est / 3.7 - 1.0).abs() < relative_error_bound() - 1.0 + 1e-9,
                "q={q}: {est}"
            );
        }
    }

    #[test]
    fn zeros_are_reported_exactly() {
        let mut lq = LogQuantile::new();
        lq.observe_n(0.0, 10);
        lq.observe(8.0);
        assert_eq!(lq.quantile(0.5), 0.0);
        assert!(lq.quantile(1.0) > 0.0);
        assert_eq!(lq.count(), 11);
    }

    #[test]
    fn wide_range_keeps_relative_error() {
        // Microseconds to minutes in one estimator.
        let values = [1e-6, 5e-6, 1e-3, 0.02, 0.5, 3.0, 60.0, 120.0];
        let mut lq = LogQuantile::new();
        let mut sorted: Vec<f64> = values.to_vec();
        for &v in &values {
            lq.observe(v);
        }
        sorted.sort_by(f64::total_cmp);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let est = lq.quantile(q);
            let exact = exact_quantile(&sorted, q);
            let bound = relative_error_bound() * (1.0 + 1e-9);
            assert!(
                est <= exact * bound && est >= exact / bound,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The acceptance-criteria property: against exact order
        /// statistics, every reported quantile is within the fixed
        /// bucket error bound, for arbitrary positive inputs.
        #[test]
        fn estimates_match_exact_quantiles_within_bucket_error(
            raw in proptest::collection::vec(1u64..1_000_000_000, 1..400),
            qs in proptest::collection::vec(0.0f64..1.0, 1..8),
        ) {
            // Spread the integer draws across ~9 decades.
            let values: Vec<f64> = raw.iter().map(|&v| v as f64 * 1e-6).collect();
            let mut lq = LogQuantile::new();
            for &v in &values {
                lq.observe(v);
            }
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let bound = relative_error_bound() * (1.0 + 1e-9);
            for &q in &qs {
                let est = lq.quantile(q);
                let exact = exact_quantile(&sorted, q);
                prop_assert!(
                    est <= exact * bound && est >= exact / bound,
                    "q={}: est {} vs exact {} (n={})", q, est, exact, sorted.len()
                );
            }
            prop_assert_eq!(lq.count(), values.len() as u64);
        }
    }
}
