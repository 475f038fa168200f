//! Snapshot-consistent read views.
//!
//! The daemon serializes ingest (one fold at a time mutates the
//! [`pace_core::IncrementalClusterer`]) but serves queries from an
//! immutable [`ReadView`] built after each fold and swapped in behind an
//! `Arc`. A query thread clones the `Arc` once and answers entirely from
//! that snapshot: it sees the partition as of some completed fold —
//! never a half-applied batch — and concurrent ingest never blocks
//! reads. This is snapshot isolation with a single writer; "read your
//! own ingest" holds because the `Ingested` response is sent only after
//! the new view is published.

use std::collections::HashMap;

/// An immutable snapshot of the clustering, optimized for queries.
#[derive(Debug, Default)]
pub struct ReadView {
    /// Canonical cluster label per EST: the smallest EST index in its
    /// cluster. Stable across restarts and identical to what a one-shot
    /// batch run over the same data produces.
    pub labels: Vec<u64>,
    /// EST ids, index-aligned with `labels`.
    pub ids: Vec<String>,
    /// EST sequences, index-aligned (for `Rep`).
    pub seqs: Vec<Vec<u8>>,
    /// id → EST index (first occurrence wins on duplicate ids).
    pub by_id: HashMap<String, usize>,
    /// Canonical label → member EST indices, ascending.
    pub members: HashMap<u64, Vec<usize>>,
    /// Ingest batches folded so far (cumulative, checkpoint-restored).
    pub ingest_batches: u64,
    /// Accepted merges in the rolling trace.
    pub trace_len: u64,
    /// Pair-flow counters as of this snapshot.
    pub pairs_generated: u64,
    pub pairs_processed: u64,
    pub pairs_skipped: u64,
}

impl ReadView {
    /// Build a view from canonical partition labels (each EST labelled
    /// by its cluster's smallest EST index, as
    /// [`pace_dsu::DisjointSets::labels`] gives them) plus the
    /// id/sequence columns.
    pub fn build(
        labels: &[usize],
        ids: Vec<String>,
        seqs: Vec<Vec<u8>>,
        ingest_batches: u64,
        trace_len: u64,
    ) -> Self {
        let labels: Vec<u64> = labels.iter().map(|&label| label as u64).collect();
        let mut members: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, &label) in labels.iter().enumerate() {
            members.entry(label).or_default().push(i);
        }
        let mut by_id = HashMap::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            by_id.entry(id.clone()).or_insert(i);
        }
        ReadView {
            labels,
            ids,
            seqs,
            by_id,
            members,
            ingest_batches,
            trace_len,
            pairs_generated: 0,
            pairs_processed: 0,
            pairs_skipped: 0,
        }
    }

    /// Number of ESTs in this snapshot.
    pub fn num_ests(&self) -> usize {
        self.labels.len()
    }

    /// Number of clusters in this snapshot.
    pub fn num_clusters(&self) -> usize {
        self.members.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_canonical_min_index() {
        // Components {0,2}, {1}, {3,4}, each labelled by its smallest
        // member.
        let labels = [0, 1, 0, 3, 3];
        let ids: Vec<String> = (0..5).map(|i| format!("e{i}")).collect();
        let seqs = vec![b"ACGT".to_vec(); 5];
        let v = ReadView::build(&labels, ids, seqs, 1, 0);
        assert_eq!(v.labels, vec![0, 1, 0, 3, 3]);
        assert_eq!(v.num_clusters(), 3);
        assert_eq!(v.members[&0], vec![0, 2]);
        assert_eq!(v.members[&3], vec![3, 4]);
        assert_eq!(v.by_id["e4"], 4);
    }

    #[test]
    fn duplicate_ids_resolve_to_first() {
        let raw = [0, 1];
        let ids = vec!["dup".to_string(), "dup".to_string()];
        let seqs = vec![b"AC".to_vec(), b"GT".to_vec()];
        let v = ReadView::build(&raw, ids, seqs, 1, 0);
        assert_eq!(v.by_id["dup"], 0);
    }
}
