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
//! `from_raw_parts` constructors in the owning crates). Two pairs work
//! on whole snapshots: [`write_cluster_state`] and [`read_cluster_state`]
//! hold the clustering state every clustering checkpoint persists, and
//! the check that it restores; [`write_progress`] and [`read_progress`]
//! hold the `progress` section every checkpoint carries, which makes a
//! snapshot its own record of how far its run got.

use crate::error::SnapshotError;
use crate::snapshot::{Snapshot, SnapshotWriter};
use pace_cluster::stats::{ClusterStats, FaultStats};
use pace_cluster::trace::{MergeRecord, MergeTrace};
use pace_dsu::DisjointSets;
use pace_seq::SequenceStore;
use pace_wire::{Wire, WireError, WireReader};

// ---------------------------------------------------------------------
// Buffer primitives: the `pace-wire` cursor and encodings, with the
// store's u64 counts and lengths where the wire format has u32 ones.
// ---------------------------------------------------------------------

fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    (v.len() as u64).encode(out);
    out.extend_from_slice(v);
}

fn put_u32s(out: &mut Vec<u8>, v: &[u32]) {
    (v.len() as u64).encode(out);
    for x in v {
        x.encode(out);
    }
}

/// A u64 element count, bounded so a corrupt count cannot trigger an
/// enormous allocation: `count * elem_size` must fit in the bytes left.
fn count(r: &mut WireReader<'_>, elem_size: usize) -> Result<usize, WireError> {
    let n = r.u64()?;
    match usize::try_from(n) {
        Ok(n) if n <= r.remaining() / elem_size.max(1) => Ok(n),
        _ => Err(WireError(format!(
            "count {n} exceeds the {} bytes left",
            r.remaining()
        ))),
    }
}

fn byte_vec(r: &mut WireReader<'_>) -> Result<Vec<u8>, WireError> {
    let n = count(r, 1)?;
    Ok(r.bytes(n)?.to_vec())
}

fn u32_vec(r: &mut WireReader<'_>) -> Result<Vec<u32>, WireError> {
    let n = count(r, 4)?;
    (0..n).map(|_| r.u32()).collect()
}

/// Decode one section with `body`, which must consume every byte. A
/// short read is [`SnapshotError::Truncated`] naming `context`;
/// trailing bytes are [`SnapshotError::Corrupt`].
fn decode_section<T>(
    bytes: &[u8],
    context: &'static str,
    body: impl FnOnce(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<T, SnapshotError> {
    let mut r = WireReader::new(bytes);
    let value = body(&mut r).map_err(|_| SnapshotError::Truncated { context })?;
    r.finish().map_err(|e| corrupt(context, e.0))?;
    Ok(value)
}

fn corrupt(context: &str, msg: String) -> SnapshotError {
    SnapshotError::Corrupt(format!("{context}: {msg}"))
}

// ---------------------------------------------------------------------
// Byte and string lists (EST sequences, FASTA ids)
// ---------------------------------------------------------------------

/// Encode a list of byte strings (the daemon's EST sequences): a u64
/// count, then per item a u64 length and its bytes.
pub fn encode_byte_list<T: AsRef<[u8]>>(items: &[T]) -> Vec<u8> {
    let cap: usize = items.iter().map(|s| s.as_ref().len() + 8).sum();
    let mut out = Vec::with_capacity(cap + 8);
    (items.len() as u64).encode(&mut out);
    for s in items {
        put_bytes(&mut out, s.as_ref());
    }
    out
}

/// Decode an [`encode_byte_list`] section.
pub fn decode_byte_list(bytes: &[u8]) -> Result<Vec<Vec<u8>>, SnapshotError> {
    decode_section(bytes, "byte list", |r| {
        let n = count(r, 8)?;
        (0..n).map(|_| byte_vec(r)).collect()
    })
}

/// Encode a list of strings (the per-EST FASTA identifiers), in the
/// [`encode_byte_list`] layout.
pub fn encode_string_list(items: &[String]) -> Vec<u8> {
    encode_byte_list(items)
}

/// Decode a list of strings; non-UTF-8 content is [`SnapshotError::Corrupt`].
pub fn decode_string_list(bytes: &[u8]) -> Result<Vec<String>, SnapshotError> {
    decode_byte_list(bytes)?
        .into_iter()
        .enumerate()
        .map(|(i, raw)| {
            String::from_utf8(raw)
                .map_err(|_| corrupt("string list", format!("item {i} is not UTF-8")))
        })
        .collect()
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
    let (text, offsets) =
        decode_section(bytes, "sequence store", |r| Ok((byte_vec(r)?, u32_vec(r)?)))?;
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
    num_sets.encode(&mut out);
    out
}

/// Decode the union–find state, re-validating pointer sanity (range,
/// acyclicity, root count) via [`DisjointSets::from_raw_parts`].
pub fn decode_dsu(bytes: &[u8]) -> Result<DisjointSets, SnapshotError> {
    let (parent, rank, size, num_sets) = decode_section(bytes, "union-find", |r| {
        Ok((u32_vec(r)?, byte_vec(r)?, u32_vec(r)?, usize::decode(r)?))
    })?;
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
        v.encode(&mut out);
    }
    stats.master_busy_frac.encode(&mut out);
    for v in [
        stats.faults.retries,
        stats.faults.duplicate_reports,
        stats.faults.dead_slaves,
        stats.faults.reassigned_pairs,
        stats.faults.abandoned_pairs,
        stats.faults.lost_pairs,
    ] {
        v.encode(&mut out);
    }
    out
}

/// Decode a [`ClusterStats`] block.
pub fn decode_cluster_stats(bytes: &[u8]) -> Result<ClusterStats, SnapshotError> {
    decode_section(bytes, "cluster stats", |r| {
        Ok(ClusterStats {
            pairs_generated: r.u64()?,
            pairs_processed: r.u64()?,
            pairs_accepted: r.u64()?,
            merges: r.u64()?,
            pairs_skipped: r.u64()?,
            pairs_prefiltered: r.u64()?,
            pairs_unconsumed: r.u64()?,
            messages: r.u64()?,
            master_busy_frac: f64::decode(r)?,
            faults: FaultStats {
                retries: r.u64()?,
                duplicate_reports: r.u64()?,
                dead_slaves: r.u64()?,
                reassigned_pairs: r.u64()?,
                abandoned_pairs: r.u64()?,
                lost_pairs: r.u64()?,
            },
        })
    })
}

// ---------------------------------------------------------------------
// MergeTrace
// ---------------------------------------------------------------------

/// Encode the merge audit log.
pub fn encode_merge_trace(trace: &MergeTrace) -> Vec<u8> {
    let mut out = Vec::with_capacity(trace.len() * 28 + 8);
    trace.len().encode(&mut out);
    for r in trace.records() {
        r.est_a.encode(&mut out);
        r.est_b.encode(&mut out);
        r.mcs_len.encode(&mut out);
        r.score_ratio.encode(&mut out);
    }
    out
}

/// Decode the merge audit log.
pub fn decode_merge_trace(bytes: &[u8]) -> Result<MergeTrace, SnapshotError> {
    let records = decode_section(bytes, "merge trace", |r| {
        let n = count(r, 28)?;
        (0..n)
            .map(|_| {
                Ok(MergeRecord {
                    est_a: usize::decode(r)?,
                    est_b: usize::decode(r)?,
                    mcs_len: r.u32()?,
                    score_ratio: f64::decode(r)?,
                })
            })
            .collect()
    })?;
    Ok(MergeTrace::from_records(records))
}

// ---------------------------------------------------------------------
// Clustering state: the sections every checkpoint of a clustering holds
// ---------------------------------------------------------------------

const SEC_DSU: &str = "dsu";
const SEC_TRACE: &str = "merge_trace";
const SEC_STATS: &str = "cluster_stats";

/// Write a clustering state (union–find, merge trace, counters) as the
/// sections `dsu`, `merge_trace` and `cluster_stats`.
pub fn write_cluster_state(
    w: &mut SnapshotWriter,
    sets: &DisjointSets,
    trace: &MergeTrace,
    stats: &ClusterStats,
) -> Result<(), SnapshotError> {
    w.add_section(SEC_DSU, &encode_dsu(sets))?;
    w.add_section(SEC_TRACE, &encode_merge_trace(trace))?;
    w.add_section(SEC_STATS, &encode_cluster_stats(stats))
}

/// Read the state [`write_cluster_state`] wrote, and check that it
/// restores a clustering of `num_ests` ESTs: the union–find covers
/// exactly them, and replaying the merge trace onto fresh singletons
/// reproduces the union–find's partition. A state that fails either
/// check is [`SnapshotError::Corrupt`], even with valid CRCs.
pub fn read_cluster_state(
    snap: &Snapshot,
    num_ests: usize,
) -> Result<(DisjointSets, MergeTrace, ClusterStats), SnapshotError> {
    let sets = decode_dsu(snap.section(SEC_DSU)?)?;
    let trace = decode_merge_trace(snap.section(SEC_TRACE)?)?;
    let stats = decode_cluster_stats(snap.section(SEC_STATS)?)?;
    if sets.len() != num_ests {
        return Err(SnapshotError::Corrupt(format!(
            "union–find covers {} ESTs, the run has {num_ests}",
            sets.len()
        )));
    }
    let mut replayed = DisjointSets::new(num_ests);
    for r in trace.records() {
        if r.est_a.max(r.est_b) >= num_ests {
            return Err(corrupt("merge trace", format!("{r:?} is out of range")));
        }
        replayed.union(r.est_a, r.est_b);
    }
    if replayed.clusters() != sets.clone().clusters() {
        return Err(SnapshotError::Corrupt(
            "replaying the merge trace does not reproduce the union–find's partition".into(),
        ));
    }
    Ok((sets, trace, stats))
}

// ---------------------------------------------------------------------
// Progress: whose run a checkpoint belongs to, and how far it got
// ---------------------------------------------------------------------

const SEC_PROGRESS: &str = "progress";

/// Write the `progress` section: the run's configuration
/// [`fingerprint`](crate::fingerprint) (u32) and one count (u64) of what
/// the snapshot covers, in its owner's unit (ESTs ingested, batches
/// clustered, ingest batches folded). The snapshot is published
/// atomically, so the count always describes the state beside it.
pub fn write_progress(
    w: &mut SnapshotWriter,
    fingerprint: u32,
    count: u64,
) -> Result<(), SnapshotError> {
    let mut out = Vec::with_capacity(12);
    fingerprint.encode(&mut out);
    count.encode(&mut out);
    w.add_section(SEC_PROGRESS, &out)
}

/// Read the `progress` section [`write_progress`] wrote and return its
/// count. A snapshot written under another fingerprint is
/// [`SnapshotError::ForeignRun`].
pub fn read_progress(snap: &Snapshot, fingerprint: u32) -> Result<u64, SnapshotError> {
    let (found, count) = decode_section(snap.section(SEC_PROGRESS)?, "progress", |r| {
        Ok((r.u32()?, r.u64()?))
    })?;
    if found != fingerprint {
        return Err(SnapshotError::ForeignRun {
            found,
            expected: fingerprint,
        });
    }
    Ok(count)
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
        let mut bytes = 1u64.to_bytes();
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
        let bytes = (1u64 << 60).to_bytes();
        assert!(decode_sequence_store(&bytes).is_err());
        assert!(decode_merge_trace(&bytes).is_err());
    }
}
