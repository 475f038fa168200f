//! Typed codecs: the pipeline's data structures ⇄ snapshot section bytes.
//!
//! Every codec is a pure function pair over little-endian buffers. The
//! encodings are self-delimiting (lengths precede payloads) and every
//! decoder checks its input exhaustively — short buffers surface as
//! [`SnapshotError::Truncated`], structural inconsistencies as
//! [`SnapshotError::Corrupt`] — so feeding a codec arbitrary bytes can
//! produce an error but never a panic or an out-of-bounds access.
//!
//! Content integrity (bit flips) is the snapshot layer's CRC job; the
//! decoders here re-validate only the *structural* invariants whose
//! violation would make the reassembled value unsafe to use (see the
//! `from_raw_parts` constructors in the owning crates).

use crate::error::SnapshotError;
use pace_cluster::stats::{ClusterStats, FaultStats};
use pace_cluster::trace::{MergeRecord, MergeTrace};
use pace_dsu::DisjointSets;
use pace_seq::SequenceStore;

// ---------------------------------------------------------------------
// Little-endian buffer primitives.
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u64(out, v.len() as u64);
    out.extend_from_slice(v);
}

fn put_u32s(out: &mut Vec<u8>, v: &[u32]) {
    put_u64(out, v.len() as u64);
    for &x in v {
        put_u32(out, x);
    }
}

/// Sequential little-endian reader with typed exhaustion errors.
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Which codec is reading (names the `Truncated` context).
    context: &'static str,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8], context: &'static str) -> Self {
        Dec {
            bytes,
            pos: 0,
            context,
        }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapshotError::Truncated {
                context: self.context,
            })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A declared element count, sanity-bounded so a corrupt length
    /// cannot trigger an enormous allocation: `count * elem_size` must
    /// fit in what's left of the buffer.
    fn count(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if elem_size > 0 && n > remaining / elem_size as u64 {
            return Err(SnapshotError::Truncated {
                context: self.context,
            });
        }
        Ok(n as usize)
    }

    fn byte_vec(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.bytes.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{}: {} trailing bytes after decode",
                self.context,
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn corrupt(context: &str, msg: String) -> SnapshotError {
    SnapshotError::Corrupt(format!("{context}: {msg}"))
}

// ---------------------------------------------------------------------
// String lists (FASTA ids)
// ---------------------------------------------------------------------

/// Encode a list of strings (the per-EST FASTA identifiers).
pub fn encode_string_list(items: &[String]) -> Vec<u8> {
    let cap: usize = items.iter().map(|s| s.len() + 8).sum();
    let mut out = Vec::with_capacity(cap + 8);
    put_u64(&mut out, items.len() as u64);
    for s in items {
        put_bytes(&mut out, s.as_bytes());
    }
    out
}

/// Decode a list of strings; non-UTF-8 content is [`SnapshotError::Corrupt`].
pub fn decode_string_list(bytes: &[u8]) -> Result<Vec<String>, SnapshotError> {
    const CTX: &str = "string list";
    let mut d = Dec::new(bytes, CTX);
    let n = d.count(8)?;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let raw = d.byte_vec()?;
        out.push(
            String::from_utf8(raw).map_err(|_| corrupt(CTX, format!("item {i} is not UTF-8")))?,
        );
    }
    d.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------
// SequenceStore
// ---------------------------------------------------------------------

/// Encode a [`SequenceStore`] (text + offset table).
pub fn encode_sequence_store(store: &SequenceStore) -> Vec<u8> {
    let (text, offsets) = store.as_raw_parts();
    let mut out = Vec::with_capacity(text.len() + offsets.len() * 4 + 16);
    put_bytes(&mut out, text);
    put_u32s(&mut out, offsets);
    out
}

/// Decode a [`SequenceStore`], re-validating its structural invariants
/// and that the text is pure uppercase DNA.
pub fn decode_sequence_store(bytes: &[u8]) -> Result<SequenceStore, SnapshotError> {
    let mut d = Dec::new(bytes, "sequence store");
    let text = d.byte_vec()?;
    let offsets = d.u32_vec()?;
    d.finish()?;
    SequenceStore::from_raw_parts(text, offsets)
        .map_err(|e| corrupt("sequence store", e.to_string()))
}

// ---------------------------------------------------------------------
// DisjointSets
// ---------------------------------------------------------------------

/// Encode the union–find state.
pub fn encode_dsu(dsu: &DisjointSets) -> Vec<u8> {
    let (parent, rank, size, num_sets) = dsu.as_raw_parts();
    let mut out = Vec::with_capacity(parent.len() * 9 + 32);
    put_u32s(&mut out, parent);
    put_bytes(&mut out, rank);
    put_u32s(&mut out, size);
    put_u64(&mut out, num_sets as u64);
    out
}

/// Decode the union–find state, re-validating pointer sanity (range,
/// acyclicity, root count) via [`DisjointSets::from_raw_parts`].
pub fn decode_dsu(bytes: &[u8]) -> Result<DisjointSets, SnapshotError> {
    let mut d = Dec::new(bytes, "union-find");
    let parent = d.u32_vec()?;
    let rank = d.byte_vec()?;
    let size = d.u32_vec()?;
    let num_sets = d.u64()? as usize;
    d.finish()?;
    DisjointSets::from_raw_parts(parent, rank, size, num_sets).map_err(|e| corrupt("union-find", e))
}

// ---------------------------------------------------------------------
// ClusterStats
// ---------------------------------------------------------------------

/// Encode the full counter block of a run.
pub fn encode_cluster_stats(stats: &ClusterStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(120);
    for v in [
        stats.pairs_generated,
        stats.pairs_processed,
        stats.pairs_accepted,
        stats.merges,
        stats.pairs_skipped,
        stats.pairs_prefiltered,
        stats.pairs_unconsumed,
        stats.messages,
    ] {
        put_u64(&mut out, v);
    }
    put_f64(&mut out, stats.master_busy_frac);
    for v in [
        stats.faults.retries,
        stats.faults.duplicate_reports,
        stats.faults.dead_slaves,
        stats.faults.reassigned_pairs,
        stats.faults.abandoned_pairs,
        stats.faults.lost_pairs,
    ] {
        put_u64(&mut out, v);
    }
    out
}

/// Decode a [`ClusterStats`] block.
pub fn decode_cluster_stats(bytes: &[u8]) -> Result<ClusterStats, SnapshotError> {
    let mut d = Dec::new(bytes, "cluster stats");
    let stats = ClusterStats {
        pairs_generated: d.u64()?,
        pairs_processed: d.u64()?,
        pairs_accepted: d.u64()?,
        merges: d.u64()?,
        pairs_skipped: d.u64()?,
        pairs_prefiltered: d.u64()?,
        pairs_unconsumed: d.u64()?,
        messages: d.u64()?,
        master_busy_frac: d.f64()?,
        faults: FaultStats {
            retries: d.u64()?,
            duplicate_reports: d.u64()?,
            dead_slaves: d.u64()?,
            reassigned_pairs: d.u64()?,
            abandoned_pairs: d.u64()?,
            lost_pairs: d.u64()?,
        },
    };
    d.finish()?;
    Ok(stats)
}

// ---------------------------------------------------------------------
// MergeTrace
// ---------------------------------------------------------------------

/// Encode the merge audit log.
pub fn encode_merge_trace(trace: &MergeTrace) -> Vec<u8> {
    let mut out = Vec::with_capacity(trace.len() * 28 + 8);
    put_u64(&mut out, trace.len() as u64);
    for r in trace.records() {
        put_u64(&mut out, r.est_a as u64);
        put_u64(&mut out, r.est_b as u64);
        put_u32(&mut out, r.mcs_len);
        put_f64(&mut out, r.score_ratio);
    }
    out
}

/// Decode the merge audit log.
pub fn decode_merge_trace(bytes: &[u8]) -> Result<MergeTrace, SnapshotError> {
    let mut d = Dec::new(bytes, "merge trace");
    let n = d.count(28)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        records.push(MergeRecord {
            est_a: d.u64()? as usize,
            est_b: d.u64()? as usize,
            mcs_len: d.u32()?,
            score_ratio: d.f64()?,
        });
    }
    d.finish()?;
    Ok(MergeTrace::from_records(records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_list_roundtrip() {
        let ids = vec!["est_0".to_string(), String::new(), "αβγ".to_string()];
        let bytes = encode_string_list(&ids);
        assert_eq!(decode_string_list(&bytes).unwrap(), ids);
        assert!(decode_string_list(&encode_string_list(&[]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn string_list_rejects_bad_utf8() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1);
        put_bytes(&mut bytes, &[0xff, 0xfe]);
        assert!(matches!(
            decode_string_list(&bytes).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn sequence_store_roundtrip() {
        let store = SequenceStore::from_ests(&[b"ACGGT".as_slice(), b"TTACG"]).unwrap();
        let bytes = encode_sequence_store(&store);
        assert_eq!(decode_sequence_store(&bytes).unwrap(), store);
    }

    #[test]
    fn short_buffers_are_truncated_errors() {
        let store = SequenceStore::from_ests(&[b"ACGGT".as_slice()]).unwrap();
        let bytes = encode_sequence_store(&store);
        for cut in 0..bytes.len() {
            let err = decode_sequence_store(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::Corrupt(_)
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt_errors() {
        let store = SequenceStore::from_ests(&[b"ACGT".as_slice()]).unwrap();
        let mut bytes = encode_sequence_store(&store);
        bytes.push(0);
        assert!(matches!(
            decode_sequence_store(&bytes).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn huge_declared_count_is_rejected_without_allocation() {
        // A corrupt length prefix claiming 2^60 elements must error out
        // instead of attempting the reservation.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1 << 60);
        assert!(decode_sequence_store(&bytes).is_err());
        assert!(decode_merge_trace(&bytes).is_err());
    }
}
