//! Merge tracing: an audit log of how the clustering was assembled.
//!
//! The master's decisions are normally summarized by counters; for
//! debugging, ablation analysis and the examples, a [`MergeTrace`]
//! records each accepted merge with its evidence (which pair, which
//! maximal-common-substring length, what score ratio). The trace can
//! replay itself onto a fresh union–find, which gives tests a strong
//! end-to-end invariant: replaying the trace reproduces the partition
//! exactly.

use crate::align_task::PairOutcome;
use pace_dsu::DisjointSets;

/// One accepted merge, in the order the master performed them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeRecord {
    /// Smaller EST index of the merging pair.
    pub est_a: usize,
    /// Larger EST index.
    pub est_b: usize,
    /// Maximal-common-substring length that promoted the pair.
    pub mcs_len: u32,
    /// Alignment score ratio (achieved / ideal).
    pub score_ratio: f64,
}

/// An ordered log of the merges of one clustering run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeTrace {
    records: Vec<MergeRecord>,
}

impl MergeTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassemble a trace from records in merge order (the persistence
    /// layer's decode path).
    pub fn from_records(records: Vec<MergeRecord>) -> Self {
        MergeTrace { records }
    }

    /// Record an accepted outcome that actually merged two clusters.
    pub fn record(&mut self, outcome: &PairOutcome) {
        let (a, b) = outcome.pair.est_indices();
        self.records.push(MergeRecord {
            est_a: a,
            est_b: b,
            mcs_len: outcome.pair.mcs_len,
            score_ratio: outcome.score_ratio,
        });
    }

    /// Number of merges recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no merges were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records in merge order.
    pub fn records(&self) -> &[MergeRecord] {
        &self.records
    }

    /// Replay the trace onto `n` fresh singletons, returning the
    /// resulting partition labels.
    pub fn replay(&self, n: usize) -> Vec<usize> {
        let mut dsu = DisjointSets::new(n);
        for r in &self.records {
            dsu.union(r.est_a, r.est_b);
        }
        dsu.labels()
    }

    /// Evidence-strength histogram: how many merges were promoted by an
    /// MCS in each length bucket of `bucket_width` bases. Useful for
    /// choosing ψ: the left tail shows how close to the threshold the
    /// productive pairs sit.
    pub fn mcs_histogram(&self, bucket_width: u32) -> Vec<(u32, usize)> {
        assert!(bucket_width > 0);
        let mut hist: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
        for r in &self.records {
            let bucket = r.mcs_len / bucket_width * bucket_width;
            *hist.entry(bucket).or_insert(0) += 1;
        }
        hist.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_pairgen::CandidatePair;
    use pace_seq::{EstId, Strand};

    fn outcome(a: u32, b: u32, mcs: u32, ratio: f64) -> PairOutcome {
        PairOutcome {
            pair: CandidatePair {
                s1: EstId(a).str_id(Strand::Forward),
                s2: EstId(b).str_id(Strand::Forward),
                off1: 0,
                off2: 0,
                mcs_len: mcs,
            },
            accepted: true,
            score_ratio: ratio,
        }
    }

    #[test]
    fn replay_reconstructs_partition() {
        let mut trace = MergeTrace::new();
        trace.record(&outcome(0, 1, 30, 0.95));
        trace.record(&outcome(2, 3, 25, 0.9));
        trace.record(&outcome(1, 2, 22, 0.85));
        let labels = trace.replay(6);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[4]);
        assert_ne!(labels[4], labels[5]);
        assert_eq!(trace.len(), 3);
    }

    #[test]
    fn histogram_buckets_by_width() {
        let mut trace = MergeTrace::new();
        for (mcs, _) in [(20u32, 0), (24, 0), (25, 0), (41, 0)] {
            trace.record(&outcome(0, 1, mcs, 0.9));
        }
        assert_eq!(trace.mcs_histogram(10), vec![(20, 3), (40, 1)]);
        assert_eq!(trace.mcs_histogram(5), vec![(20, 2), (25, 1), (40, 1)]);
    }

    #[test]
    fn empty_trace() {
        let trace = MergeTrace::new();
        assert!(trace.is_empty());
        assert_eq!(trace.replay(4), vec![0, 1, 2, 3]);
        assert!(trace.mcs_histogram(10).is_empty());
    }
}
