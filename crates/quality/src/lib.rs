//! Clustering quality assessment (the paper's §4.1).
//!
//! Quality is measured on *pairs*: for every unordered pair of ESTs,
//! compare whether the produced clustering and the correct clustering put
//! them together.
//!
//! * `TP` — paired in both; `FP` — paired in output only;
//! * `FN` — paired in truth only; `TN` — paired in neither.
//!
//! From these, the paper reports (as percentages):
//!
//! * overlap quality `OQ = TP / (TP + FP + FN)`,
//! * over-prediction `OV = FP / (TP + FP)`,
//! * under-prediction `UN = FN / (TP + FN)`,
//! * correlation coefficient
//!   `CC = (TP·TN − FP·FN) / √((TP+FP)(TN+FN)(TP+FN)(TN+FP))`.
//!
//! The counts are computed from cluster-size contingency tables in
//! O(n + clusters) rather than by enumerating the Θ(n²) pairs, so the
//! 81k-EST assessment is instant.
//!
//! ```
//! // Truth: {0,1} {2,3}; prediction: {0,1,2} {3}. The prediction invents
//! // the pairs 0–2 and 1–2 (two FPs) and misses the pair 2–3 (one FN).
//! let truth = [0, 0, 1, 1];
//! let pred  = [9, 9, 9, 7];
//! let m = pace_quality::assess(&pred, &truth);
//! assert_eq!(m.counts.tp, 1);
//! assert_eq!(m.counts.fp, 2);
//! assert_eq!(m.counts.fn_, 1);
//! assert!(m.ov > 0.0 && m.un > 0.0 && m.cc < 1.0);
//! ```

pub mod percluster;

use std::collections::HashMap;

/// Raw pair-confusion counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairCounts {
    /// Pairs clustered together in both output and truth.
    pub tp: u128,
    /// Pairs clustered together in the output only.
    pub fp: u128,
    /// Pairs clustered together in the truth only.
    pub fn_: u128,
    /// Pairs separated in both.
    pub tn: u128,
}

/// The paper's quality metrics, each in `[0, 1]` (CC in `[−1, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityMetrics {
    /// Overlap quality (1.0 is perfect).
    pub oq: f64,
    /// Over-prediction rate (0.0 is perfect).
    pub ov: f64,
    /// Under-prediction rate (0.0 is perfect).
    pub un: f64,
    /// Correlation coefficient (1.0 is perfect).
    pub cc: f64,
    /// The underlying counts.
    pub counts: PairCounts,
}

fn choose2(k: u128) -> u128 {
    k * k.saturating_sub(1) / 2
}

/// Compute the pair-confusion counts between two labelings of the same
/// elements. Labels are arbitrary cluster identifiers.
pub fn pair_counts(predicted: &[usize], truth: &[usize]) -> PairCounts {
    assert_eq!(
        predicted.len(),
        truth.len(),
        "labelings must cover the same elements"
    );
    let n = predicted.len() as u128;

    // Contingency table: cells (pred cluster, true cluster) → size.
    let mut cells: HashMap<(usize, usize), u128> = HashMap::new();
    let mut pred_sizes: HashMap<usize, u128> = HashMap::new();
    let mut true_sizes: HashMap<usize, u128> = HashMap::new();
    for (&p, &t) in predicted.iter().zip(truth) {
        *cells.entry((p, t)).or_insert(0) += 1;
        *pred_sizes.entry(p).or_insert(0) += 1;
        *true_sizes.entry(t).or_insert(0) += 1;
    }

    let tp: u128 = cells.values().map(|&c| choose2(c)).sum();
    let pred_pairs: u128 = pred_sizes.values().map(|&c| choose2(c)).sum();
    let true_pairs: u128 = true_sizes.values().map(|&c| choose2(c)).sum();
    let total_pairs = choose2(n);

    let fp = pred_pairs - tp;
    let fn_ = true_pairs - tp;
    let tn = total_pairs - tp - fp - fn_;
    PairCounts { tp, fp, fn_, tn }
}

/// Compute the paper's quality metrics from two labelings.
pub fn assess(predicted: &[usize], truth: &[usize]) -> QualityMetrics {
    let c = pair_counts(predicted, truth);
    QualityMetrics::from_counts(c)
}

impl QualityMetrics {
    /// Derive the metric values from raw counts.
    pub fn from_counts(c: PairCounts) -> Self {
        let (tp, fp, fn_, tn) = (c.tp as f64, c.fp as f64, c.fn_ as f64, c.tn as f64);
        let oq_den = tp + fp + fn_;
        let oq = if oq_den == 0.0 { 1.0 } else { tp / oq_den };
        let ov = if tp + fp == 0.0 { 0.0 } else { fp / (tp + fp) };
        let un = if tp + fn_ == 0.0 {
            0.0
        } else {
            fn_ / (tp + fn_)
        };
        let cc_den = ((tp + fp) * (tn + fn_) * (tp + fn_) * (tn + fp)).sqrt();
        let cc = if cc_den == 0.0 {
            // Degenerate table (e.g. everything in one cluster in both
            // labelings): perfect agreement ⇔ no disagreeing pairs.
            if fp == 0.0 && fn_ == 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            (tp * tn - fp * fn_) / cc_den
        };
        QualityMetrics {
            oq,
            ov,
            un,
            cc,
            counts: c,
        }
    }

    /// Render as the paper's percentage table row (OQ, OV, UN, CC).
    pub fn as_percentages(&self) -> (f64, f64, f64, f64) {
        (
            self.oq * 100.0,
            self.ov * 100.0,
            self.un * 100.0,
            self.cc * 100.0,
        )
    }
}

impl std::fmt::Display for QualityMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (oq, ov, un, cc) = self.as_percentages();
        write!(f, "OQ {oq:6.2}%  OV {ov:5.2}%  UN {un:5.2}%  CC {cc:6.2}%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_clustering() {
        let truth = vec![0, 0, 1, 1, 2, 2, 2];
        let m = assess(&truth, &truth);
        assert_eq!(m.oq, 1.0);
        assert_eq!(m.ov, 0.0);
        assert_eq!(m.un, 0.0);
        assert_eq!(m.cc, 1.0);
        assert_eq!(m.counts.fp, 0);
        assert_eq!(m.counts.fn_, 0);
        assert_eq!(m.counts.tp, 1 + 1 + 3);
    }

    #[test]
    fn labels_need_not_match_textually() {
        let truth = vec![0, 0, 1, 1];
        let pred = vec![7, 7, 3, 3]; // same partition, different names
        let m = assess(&pred, &truth);
        assert_eq!(m.oq, 1.0);
        assert_eq!(m.cc, 1.0);
    }

    #[test]
    fn everything_merged_overpredicts() {
        let truth = vec![0, 0, 1, 1];
        let pred = vec![5, 5, 5, 5];
        let m = assess(&pred, &truth);
        // TP = 2 (the two true pairs), FP = 4 (cross pairs), FN = 0.
        assert_eq!(m.counts.tp, 2);
        assert_eq!(m.counts.fp, 4);
        assert_eq!(m.counts.fn_, 0);
        assert!(m.ov > 0.6);
        assert_eq!(m.un, 0.0);
        // TN = 0 → degenerate CC denominator handled as 0, not NaN.
        assert!(!m.cc.is_nan());
    }

    #[test]
    fn everything_singleton_underpredicts() {
        let truth = vec![0, 0, 0, 1];
        let pred = vec![0, 1, 2, 3];
        let m = assess(&pred, &truth);
        assert_eq!(m.counts.tp, 0);
        assert_eq!(m.counts.fp, 0);
        assert_eq!(m.counts.fn_, 3);
        assert_eq!(m.un, 1.0);
        assert_eq!(m.ov, 0.0);
        assert_eq!(m.oq, 0.0);
    }

    #[test]
    fn single_element_is_trivially_perfect() {
        let m = assess(&[0], &[9]);
        assert_eq!(m.oq, 1.0);
        assert_eq!(m.cc, 1.0);
    }

    #[test]
    fn counts_sum_to_all_pairs() {
        let truth = vec![0, 1, 0, 2, 1, 0, 2, 2, 1];
        let pred = vec![0, 0, 1, 2, 1, 0, 2, 1, 1];
        let c = pair_counts(&pred, &truth);
        let n = truth.len() as u128;
        assert_eq!(c.tp + c.fp + c.fn_ + c.tn, n * (n - 1) / 2);
    }

    #[test]
    fn display_formats_percentages() {
        let m = assess(&[0, 0, 1], &[0, 0, 1]);
        let s = m.to_string();
        assert!(s.contains("OQ 100.00%"), "{s}");
    }

    /// O(n²) reference implementation.
    fn brute_counts(pred: &[usize], truth: &[usize]) -> PairCounts {
        let mut c = PairCounts::default();
        for i in 0..pred.len() {
            for j in (i + 1)..pred.len() {
                let in_pred = pred[i] == pred[j];
                let in_true = truth[i] == truth[j];
                match (in_pred, in_true) {
                    (true, true) => c.tp += 1,
                    (true, false) => c.fp += 1,
                    (false, true) => c.fn_ += 1,
                    (false, false) => c.tn += 1,
                }
            }
        }
        c
    }

    proptest! {
        /// The contingency-table computation equals brute force.
        #[test]
        fn matches_brute_force(
            labels in proptest::collection::vec((0usize..5, 0usize..5), 0..60)
        ) {
            let pred: Vec<usize> = labels.iter().map(|&(p, _)| p).collect();
            let truth: Vec<usize> = labels.iter().map(|&(_, t)| t).collect();
            prop_assert_eq!(pair_counts(&pred, &truth), brute_counts(&pred, &truth));
        }

        /// Metrics are always finite and within range.
        #[test]
        fn metrics_in_range(
            labels in proptest::collection::vec((0usize..4, 0usize..4), 1..50)
        ) {
            let pred: Vec<usize> = labels.iter().map(|&(p, _)| p).collect();
            let truth: Vec<usize> = labels.iter().map(|&(_, t)| t).collect();
            let m = assess(&pred, &truth);
            for v in [m.oq, m.ov, m.un] {
                prop_assert!((0.0..=1.0).contains(&v), "metric {v} out of range");
            }
            prop_assert!((-1.0..=1.0).contains(&m.cc));
            prop_assert!(!m.cc.is_nan());
        }

        /// Swapping prediction and truth swaps OV and UN, keeps OQ.
        #[test]
        fn duality(labels in proptest::collection::vec((0usize..4, 0usize..4), 1..40)) {
            let pred: Vec<usize> = labels.iter().map(|&(p, _)| p).collect();
            let truth: Vec<usize> = labels.iter().map(|&(_, t)| t).collect();
            let a = assess(&pred, &truth);
            let b = assess(&truth, &pred);
            prop_assert_eq!(a.oq, b.oq);
            prop_assert_eq!(a.ov, b.un);
            prop_assert_eq!(a.un, b.ov);
            prop_assert_eq!(a.cc, b.cc);
        }
    }
}
