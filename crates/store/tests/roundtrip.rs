//! Property tests for the persistence layer.
//!
//! Two families of guarantees, both load-bearing for checkpoint/resume:
//!
//! 1. **Round-trip fidelity** — every codec in [`pace_store::codec`]
//!    reconstructs exactly the value it encoded, over randomized inputs
//!    (random EST sets drive the real constructors, so the encoded
//!    values are shaped like production state, not hand-picked
//!    fixtures).
//! 2. **Corruption is an error, never a panic** — truncating a snapshot
//!    at *every* prefix and flipping *any* byte of a snapshot image must
//!    surface as a typed [`SnapshotError`] (or, for the rare flips that
//!    don't change meaning, decode to the identical value). Feeding raw
//!    garbage straight into the codecs must never panic or overallocate.

use pace_cluster::stats::{ClusterStats, FaultStats};
use pace_cluster::trace::{MergeRecord, MergeTrace};
use pace_dsu::DisjointSets;
use pace_seq::SequenceStore;
use pace_store::codec::{
    decode_cluster_stats, decode_dsu, decode_merge_trace, decode_sequence_store,
    decode_string_list, encode_cluster_stats, encode_dsu, encode_merge_trace,
    encode_sequence_store, encode_string_list, read_progress, write_progress,
};
use pace_store::{Snapshot, SnapshotError, SnapshotWriter};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies: random production-shaped state.
// ---------------------------------------------------------------------

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        min..max,
    )
}

/// A non-empty random EST set (the seed of every structure we persist).
fn ests() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(dna(1, 40), 1..8)
}

fn store_of(ests: &[Vec<u8>]) -> SequenceStore {
    SequenceStore::from_ests(ests).expect("ACGT-only ESTs always build")
}

/// Random FASTA-id-shaped strings (plus empties).
fn id_list() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(any::<u64>(), 0..12).prop_map(|vs| {
        vs.iter()
            .map(|v| {
                if v % 7 == 0 {
                    String::new()
                } else {
                    format!("EST_{v:016x}|gene={}", v % 97)
                }
            })
            .collect()
    })
}

/// A random but *valid* union–find: `n` elements with a random union
/// sequence applied through the real API, so rank/size/num_sets carry
/// the invariants `from_raw_parts` re-validates on decode.
fn dsu() -> impl Strategy<Value = DisjointSets> {
    (
        1usize..40,
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..60),
    )
        .prop_map(|(n, pairs)| {
            let mut d = DisjointSets::new(n);
            for (a, b) in pairs {
                d.union(a as usize % n, b as usize % n);
            }
            d
        })
}

fn merge_trace() -> impl Strategy<Value = MergeTrace> {
    proptest::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
        0..50,
    )
    .prop_map(|recs| {
        MergeTrace::from_records(
            recs.into_iter()
                .map(|(a, b, mcs, ratio)| MergeRecord {
                    est_a: (a % 10_000) as usize,
                    est_b: (b % 10_000) as usize,
                    mcs_len: mcs,
                    score_ratio: f64::from(ratio % 1_000) / 1_000.0,
                })
                .collect(),
        )
    })
}

/// Every counter field randomized (the busy fraction from an integer
/// source so the f64 round-trip comparison is exact by construction).
fn cluster_stats() -> impl Strategy<Value = ClusterStats> {
    proptest::collection::vec(any::<u64>(), 15..16).prop_map(|v| {
        let t = |x: u64| (x % 1_000_000_000) as f64 / 1024.0;
        ClusterStats {
            pairs_generated: v[0],
            pairs_processed: v[1],
            pairs_accepted: v[2],
            merges: v[3],
            pairs_skipped: v[4],
            pairs_prefiltered: v[5],
            pairs_unconsumed: v[6],
            messages: v[7],
            master_busy_frac: t(v[8]),
            faults: FaultStats {
                retries: v[9],
                duplicate_reports: v[10],
                dead_slaves: v[11],
                reassigned_pairs: v[12],
                abandoned_pairs: v[13],
                lost_pairs: v[14],
            },
        }
    })
}

// ---------------------------------------------------------------------
// Round trips: every codec, production-shaped random values.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn sequence_store_roundtrips(ests in ests()) {
        let store = store_of(&ests);
        prop_assert_eq!(
            decode_sequence_store(&encode_sequence_store(&store)).unwrap(),
            store
        );
    }

    #[test]
    fn string_list_roundtrips(ids in id_list()) {
        prop_assert_eq!(
            decode_string_list(&encode_string_list(&ids)).unwrap(),
            ids
        );
    }

    #[test]
    fn dsu_roundtrips(d in dsu()) {
        let decoded = decode_dsu(&encode_dsu(&d)).unwrap();
        prop_assert_eq!(decoded.as_raw_parts(), d.as_raw_parts());
    }

    #[test]
    fn cluster_stats_roundtrip(stats in cluster_stats()) {
        prop_assert_eq!(
            decode_cluster_stats(&encode_cluster_stats(&stats)).unwrap(),
            stats
        );
    }

    #[test]
    fn merge_trace_roundtrips(trace in merge_trace()) {
        prop_assert_eq!(
            decode_merge_trace(&encode_merge_trace(&trace)).unwrap(),
            trace
        );
    }
}

// ---------------------------------------------------------------------
// Layout pins: the literal bytes of each section. A checkpoint written
// by one build must restore in the next, so a codec rewrite leaves every
// pin here unedited. Integers are little-endian; counts and lengths u64.
// ---------------------------------------------------------------------

#[test]
fn string_list_layout_is_pinned() {
    let ids = vec!["ab".to_string(), String::new()];
    let pin: &[u8] = b"\x02\0\0\0\0\0\0\0\
                       \x02\0\0\0\0\0\0\0ab\
                       \0\0\0\0\0\0\0\0";
    assert_eq!(encode_string_list(&ids), pin);
    assert_eq!(decode_string_list(pin).unwrap(), ids);
}

#[test]
fn sequence_store_layout_is_pinned() {
    // Text: each EST then its reverse complement; then the offset table.
    let store = store_of(&[b"ACG".to_vec(), b"T".to_vec()]);
    let pin: &[u8] = b"\x08\0\0\0\0\0\0\0ACGCGTTA\
                       \x05\0\0\0\0\0\0\0\0\0\0\0\x03\0\0\0\x06\0\0\0\x07\0\0\0\x08\0\0\0";
    assert_eq!(encode_sequence_store(&store), pin);
    assert_eq!(decode_sequence_store(pin).unwrap(), store);
}

#[test]
fn dsu_layout_is_pinned() {
    let mut d = DisjointSets::new(3);
    d.union(0, 2);
    // parent (u32s), rank (bytes), size (u32s), then the set count.
    let pin: &[u8] = b"\x03\0\0\0\0\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\
                       \x03\0\0\0\0\0\0\0\x01\0\0\
                       \x03\0\0\0\0\0\0\0\x02\0\0\0\x01\0\0\0\x01\0\0\0\
                       \x02\0\0\0\0\0\0\0";
    assert_eq!(encode_dsu(&d), pin);
    assert_eq!(decode_dsu(pin).unwrap().as_raw_parts(), d.as_raw_parts());
}

#[test]
fn cluster_stats_layout_is_pinned() {
    let stats = ClusterStats {
        pairs_generated: 1,
        pairs_processed: 2,
        pairs_accepted: 3,
        merges: 4,
        pairs_skipped: 5,
        pairs_prefiltered: 6,
        pairs_unconsumed: 7,
        messages: 8,
        master_busy_frac: 0.5,
        faults: FaultStats {
            retries: 9,
            duplicate_reports: 10,
            dead_slaves: 11,
            reassigned_pairs: 12,
            abandoned_pairs: 13,
            lost_pairs: 14,
        },
    };
    // Eight counters, the busy fraction's f64 bits, six fault counters.
    let pin: &[u8] = b"\x01\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\x03\0\0\0\0\0\0\0\x04\0\0\0\0\0\0\0\
                       \x05\0\0\0\0\0\0\0\x06\0\0\0\0\0\0\0\x07\0\0\0\0\0\0\0\x08\0\0\0\0\0\0\0\
                       \0\0\0\0\0\0\xe0\x3f\
                       \x09\0\0\0\0\0\0\0\x0a\0\0\0\0\0\0\0\x0b\0\0\0\0\0\0\0\
                       \x0c\0\0\0\0\0\0\0\x0d\0\0\0\0\0\0\0\x0e\0\0\0\0\0\0\0";
    assert_eq!(encode_cluster_stats(&stats), pin);
    assert_eq!(decode_cluster_stats(pin).unwrap(), stats);
}

#[test]
fn merge_trace_layout_is_pinned() {
    let trace = MergeTrace::from_records(vec![MergeRecord {
        est_a: 1,
        est_b: 2,
        mcs_len: 20,
        score_ratio: 0.5,
    }]);
    // Count, then per record: u64 est_a, u64 est_b, u32 mcs_len, f64.
    let pin: &[u8] = b"\x01\0\0\0\0\0\0\0\
                       \x01\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\x14\0\0\0\0\0\0\0\0\0\xe0\x3f";
    assert_eq!(encode_merge_trace(&trace), pin);
    assert_eq!(decode_merge_trace(pin).unwrap(), trace);
}

/// The `progress` section: the u32 fingerprint, then the u64 count. A
/// reader under another fingerprint is refused.
#[test]
fn progress_layout_is_pinned() {
    let dir = std::env::temp_dir().join(format!("pace-store-progress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("progress.snap");
    let mut w = SnapshotWriter::create(&path).unwrap();
    write_progress(&mut w, 0x0102_0304, 5).unwrap();
    w.finish().unwrap();
    let snap = Snapshot::read_file(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let pin: &[u8] = b"\x04\x03\x02\x01\x05\0\0\0\0\0\0\0";
    assert_eq!(snap.section("progress").unwrap(), pin);
    assert_eq!(read_progress(&snap, 0x0102_0304), Ok(5));
    assert_eq!(
        read_progress(&snap, 7),
        Err(SnapshotError::ForeignRun {
            found: 0x0102_0304,
            expected: 7
        })
    );
}

// ---------------------------------------------------------------------
// Corruption: typed errors, never panics.
// ---------------------------------------------------------------------

/// The merge trace of the union–find [`snapshot_image`] writes: EST 0
/// absorbs every other EST in turn.
fn chain_trace(n: usize) -> MergeTrace {
    MergeTrace::from_records(
        (1..n)
            .map(|i| MergeRecord {
                est_a: 0,
                est_b: i,
                mcs_len: 20 + i as u32,
                score_ratio: 0.5,
            })
            .collect(),
    )
}

/// Write a real multi-section snapshot (through the production writer)
/// and hand back its on-disk image.
fn snapshot_image(tag: &str, ests: &[Vec<u8>]) -> Vec<u8> {
    let store = store_of(ests);
    let trace = chain_trace(store.num_ests());
    let mut d = DisjointSets::new(store.num_ests());
    for i in 1..store.num_ests() {
        d.union(0, i);
    }
    let dir = std::env::temp_dir().join(format!("pace-store-rt-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("probe.snap");
    let mut w = SnapshotWriter::create(&path).unwrap();
    w.add_section("seq_store", &encode_sequence_store(&store))
        .unwrap();
    w.add_section("merge_trace", &encode_merge_trace(&trace))
        .unwrap();
    w.add_section("dsu", &encode_dsu(&d)).unwrap();
    w.finish().unwrap();
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    image
}

/// Fully consume a snapshot image the way the resume path does: parse,
/// look up every expected section, run its codec.
fn consume(image: Vec<u8>) -> Result<(SequenceStore, MergeTrace, DisjointSets), SnapshotError> {
    let snap = Snapshot::parse(image)?;
    let store = decode_sequence_store(snap.section("seq_store")?)?;
    let trace = decode_merge_trace(snap.section("merge_trace")?)?;
    let d = decode_dsu(snap.section("dsu")?)?;
    Ok((store, trace, d))
}

#[test]
fn every_truncation_is_a_typed_error() {
    let image = snapshot_image("trunc", &[b"ACGTACGT".to_vec(), b"TTGGAACC".to_vec()]);
    // Sanity: the intact image decodes.
    assert!(consume(image.clone()).is_ok());
    // Every strict prefix must fail with a typed error — the parse is
    // eager (section table and CRCs up front), so a partially written
    // file can never masquerade as a complete checkpoint.
    for cut in 0..image.len() {
        match consume(image[..cut].to_vec()) {
            Err(_) => {}
            Ok(_) => panic!("truncation at {cut}/{} decoded successfully", image.len()),
        }
    }
}

#[test]
fn flipped_checksum_byte_is_checksum_mismatch() {
    let image = snapshot_image("crc", &[b"ACGTACGT".to_vec()]);
    // The trailing 4 bytes of the last section are its stored CRC:
    // flipping one must name the section in a ChecksumMismatch.
    let mut bad = image.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xff;
    match Snapshot::parse(bad) {
        Err(SnapshotError::ChecksumMismatch { section }) => assert_eq!(section, "dsu"),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

proptest! {
    /// Flip any single byte anywhere in the image. The consume pipeline
    /// must either return a typed error or — for the few flips that do
    /// not change meaning (e.g. a schema-version downgrade bit) —
    /// decode to exactly the original values. Silently decoding to
    /// *different* values would defeat the checkpoint's integrity story.
    #[test]
    fn any_single_byte_flip_errors_or_is_meaningless(
        ests in ests(),
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let image = snapshot_image("flip", &ests);
        let reference = consume(image.clone()).unwrap();
        let mut bad = image.clone();
        let pos = (pos % image.len() as u64) as usize;
        bad[pos] ^= 1 << bit;
        if let Ok((store, trace, d)) = consume(bad) {
            prop_assert_eq!(store, reference.0);
            prop_assert_eq!(trace, reference.1);
            prop_assert_eq!(d.as_raw_parts(), reference.2.as_raw_parts());
        }
    }

    /// Raw garbage straight into every codec: any outcome but a panic.
    /// (The `count()` guard also means no pathological allocations from
    /// corrupt length prefixes.)
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u32>().prop_map(|v| (v & 0xff) as u8), 0..256),
    ) {
        let _ = decode_sequence_store(&bytes);
        let _ = decode_string_list(&bytes);
        let _ = decode_dsu(&bytes);
        let _ = decode_cluster_stats(&bytes);
        let _ = decode_merge_trace(&bytes);
        let _ = Snapshot::parse(bytes);
    }
}
