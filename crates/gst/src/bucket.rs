//! Suffix bucketing by the first `w` characters.
//!
//! Every suffix (of every EST and reverse complement) of length at least
//! `w` is assigned to one of `4^w` buckets according to its first `w`
//! bases. Suffixes shorter than `w` are dropped: pair generation only
//! inspects tree nodes of string-depth `≥ ψ`, and the threshold `ψ` is
//! always chosen `≥ w`, so such suffixes can never participate in a
//! reported maximal common substring anyway.

use pace_seq::{Base, SequenceStore, StrId};
use std::ops::Range;

/// A reference to one suffix: string id and start offset within it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SuffixRef {
    /// The string the suffix belongs to.
    pub sid: u32,
    /// Start offset of the suffix within the string.
    pub off: u32,
}

impl SuffixRef {
    /// Construct from raw parts.
    pub fn new(sid: u32, off: u32) -> Self {
        SuffixRef { sid, off }
    }

    /// The bytes of this suffix in `store`.
    pub fn bytes<'s>(&self, store: &'s SequenceStore) -> &'s [u8] {
        store.suffix(StrId(self.sid), self.off as usize)
    }
}

/// Number of buckets for window size `w` (`4^w`).
///
/// Panics for `w > 12` — beyond that the bucket-count table itself would
/// dominate memory, defeating the purpose.
pub fn num_buckets(w: usize) -> usize {
    assert!(
        (1..=12).contains(&w),
        "window size w must be in 1..=12, got {w}"
    );
    1usize << (2 * w)
}

/// The bucket key of `seq`'s first `w` characters, or `None` when the
/// sequence is shorter than `w`. The key is the base-4 number formed by
/// the 2-bit base codes, most significant first — so keys sort in the
/// same order as the prefixes themselves.
pub fn bucket_key(seq: &[u8], w: usize) -> Option<u32> {
    if seq.len() < w {
        return None;
    }
    let mut key = 0u32;
    for &b in &seq[..w] {
        let code = Base::from_ascii(b)
            .expect("store contains only ACGT")
            .code();
        key = (key << 2) | code as u32;
    }
    Some(key)
}

/// Enumerate every in-scope suffix of every string in `store`, calling
/// `f(bucket, suffix)` for each: the counting pass.
pub fn for_each_suffix(store: &SequenceStore, w: usize, mut f: impl FnMut(u32, SuffixRef)) {
    let all = 0..store.num_strings() as u32;
    for_each_tagged_suffix(store, all, w, |tag, suf| f(tag as u32, suf));
}

/// Most bases a [`Tagged::tag`] holds: 32 two-bit codes fill a `u64`.
pub(crate) const TAG_BASES: usize = 32;

/// [`CODE`]'s entry for a byte [`Base::from_ascii`] rejects. Its bit lies
/// above the two code bits, so ORing a string's codes flags it.
const NOT_DNA: u8 = 4;

/// The 2-bit code of every byte [`Base::from_ascii`] accepts (`A/a` → 0,
/// `C/c` → 1, `G/g` → 2, `T/t` → 3), [`NOT_DNA`] for every other byte.
static CODE: [u8; 256] = {
    let mut table = [NOT_DNA; 256];
    let mut code = 0;
    while code < 4 {
        let upper = b"ACGT"[code];
        table[upper as usize] = code as u8;
        table[upper.to_ascii_lowercase() as usize] = code as u8;
        code += 1;
    }
    table
};

/// Enumerate every suffix at least `gate` bases long of the strings
/// `sids` of `store`, calling `f(tag, suffix)` with the 2-bit codes of its
/// first `min(gate, TAG_BASES)` bases, most significant first. This is
/// the single scan the counting pass, the scatter and a fold's bucket
/// marking share.
///
/// Bases are decoded through [`CODE`]; a string holding a byte outside
/// `ACGT` is rejected once, after its scan, by the `NOT_DNA` bit its
/// codes OR to.
fn for_each_tagged_suffix(
    store: &SequenceStore,
    sids: Range<u32>,
    gate: usize,
    mut f: impl FnMut(u64, SuffixRef),
) {
    let tag_len = gate.min(TAG_BASES);
    let mask = u64::MAX >> (64 - 2 * tag_len);
    for sid in sids {
        let seq = store.seq(StrId(sid));
        if seq.len() < gate {
            continue;
        }
        let mut seen = 0u8;
        let mut code = |b: u8| {
            let c = CODE[b as usize];
            seen |= c;
            u64::from(c & 3)
        };
        // Rolling tag: shift out the leading base, shift in the next. The
        // suffix at `off` gains the base at `off + tag_len - 1`.
        let mut tag = seq[..tag_len].iter().fold(0, |t, &b| (t << 2) | code(b));
        f(tag, SuffixRef::new(sid, 0));
        for (off, &b) in (1..).zip(&seq[tag_len..seq.len() - gate + tag_len]) {
            tag = ((tag << 2) | code(b)) & mask;
            f(tag, SuffixRef::new(sid, off));
        }
        assert!(seen & NOT_DNA == 0, "store contains only ACGT");
    }
}

/// Which of the `4^w` buckets hold a suffix at least `gate` bases long
/// of a string with id `≥ fresh`: the buckets a fold's new strings touch.
pub(crate) fn touched_buckets(
    store: &SequenceStore,
    w: usize,
    fresh: u32,
    gate: usize,
) -> Vec<bool> {
    let mut touched = vec![false; num_buckets(w)];
    let bucket_shift = 2 * (gate.min(TAG_BASES) - w);
    let new = fresh..store.num_strings() as u32;
    for_each_tagged_suffix(store, new, gate, |tag, _| {
        touched[(tag >> bucket_shift) as usize] = true;
    });
    touched
}

/// One scattered suffix: the 2-bit codes of its first bases, most
/// significant first, and where it starts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tagged {
    /// The suffix's first `min(gate, TAG_BASES)` bases as 2-bit codes.
    /// Its top `2w` bits are the bucket key.
    pub tag: u64,
    /// The suffix.
    pub suf: SuffixRef,
}

/// The suffixes of a list of buckets, scattered bucket by bucket into one
/// flat array.
#[derive(Debug)]
pub struct Scattered {
    /// Every kept suffix, bucket by bucket in the order the buckets were
    /// listed, each bucket's suffixes in `(sid, off)` order.
    pub entries: Vec<Tagged>,
    /// Each listed bucket's slice of `entries`.
    pub ranges: Vec<Range<usize>>,
}

/// Scatter every suffix at least `gate` bases long that falls in one of
/// `buckets` into one flat array, tagged with its first
/// `min(gate, TAG_BASES)` bases.
///
/// `counts[b]` must be bucket `b`'s suffix count at window `w` (see
/// [`crate::count_buckets`]); it sizes the array, so nothing grows or
/// moves during the pass. `gate = w` keeps every suffix the bucket holds;
/// a larger gate drops the suffixes too short to reach string depth
/// `gate`. In the paper this is the redistribution step after the
/// parallel summation; here every rank reads the shared store directly,
/// which preserves the work and the resulting data layout.
pub fn scatter(
    store: &SequenceStore,
    w: usize,
    counts: &[u64],
    buckets: &[u32],
    gate: usize,
) -> Scattered {
    assert_eq!(counts.len(), num_buckets(w), "counts table size mismatch");
    assert!(
        gate >= w,
        "gate ({gate}) must be at least the window w ({w})"
    );
    // Each bucket's range starts empty at its offset; `limits` is where
    // its count says it must end.
    let mut slot_of = vec![u32::MAX; counts.len()];
    let mut ranges = Vec::with_capacity(buckets.len());
    let mut limits = Vec::with_capacity(buckets.len());
    let mut total = 0usize;
    for (slot, &b) in buckets.iter().enumerate() {
        assert!(slot_of[b as usize] == u32::MAX, "bucket {b} listed twice");
        slot_of[b as usize] = slot as u32;
        ranges.push(total..total);
        total += counts[b as usize] as usize;
        limits.push(total);
    }
    let mut entries = vec![Tagged::default(); total];
    let overflow = "bucket counts do not match the store";
    let bucket_shift = 2 * (gate.min(TAG_BASES) - w);
    let all = 0..store.num_strings() as u32;
    for_each_tagged_suffix(store, all, gate, |tag, suf| {
        let slot = slot_of[(tag >> bucket_shift) as usize];
        if slot != u32::MAX {
            let range = &mut ranges[slot as usize];
            *entries.get_mut(range.end).expect(overflow) = Tagged { tag, suf };
            range.end += 1;
        }
    });
    for (range, &limit) in ranges.iter().zip(&limits) {
        assert!(range.end <= limit, "{overflow}");
    }
    Scattered { entries, ranges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_seq::SequenceStore;

    fn store(ests: &[&[u8]]) -> SequenceStore {
        SequenceStore::from_ests(ests).unwrap()
    }

    #[test]
    fn key_is_prefix_rank() {
        assert_eq!(bucket_key(b"AAAA", 2), Some(0));
        assert_eq!(bucket_key(b"ACGT", 2), Some(1)); // A=0,C=1 → 0b0001
        assert_eq!(bucket_key(b"TTTT", 2), Some(0b1111));
        assert_eq!(bucket_key(b"GATTACA", 3), Some((2 << 4) | 3));
    }

    #[test]
    fn short_sequences_have_no_key() {
        assert_eq!(bucket_key(b"AC", 3), None);
        assert_eq!(bucket_key(b"", 1), None);
    }

    #[test]
    fn num_buckets_powers() {
        assert_eq!(num_buckets(1), 4);
        assert_eq!(num_buckets(8), 65536);
    }

    #[test]
    #[should_panic(expected = "window size")]
    fn oversized_window_panics() {
        num_buckets(13);
    }

    #[test]
    fn rolling_key_matches_direct_computation() {
        let s = store(&[b"ACGTGGTACCA", b"TTACG"]);
        let w = 3;
        for_each_suffix(&s, w, |bucket, suf| {
            let direct = bucket_key(suf.bytes(&s), w).unwrap();
            assert_eq!(bucket, direct, "rolling key diverged at {suf:?}");
        });
    }

    #[test]
    fn code_table_accepts_the_bytes_base_accepts() {
        for b in 0..=u8::MAX {
            let want = Base::from_ascii(b).map_or(NOT_DNA, Base::code);
            assert_eq!(CODE[b as usize], want, "byte {b:#04x}");
        }
    }

    #[test]
    fn touched_buckets_are_the_buckets_of_new_long_suffixes() {
        let s = store(&[b"ACGTGGTACCA", b"TTACGGA", b"GATTACAGG"]);
        let (w, gate) = (2, 4);
        for fresh in 0..=s.num_strings() as u32 {
            let mut want = vec![false; num_buckets(w)];
            for sid in fresh..s.num_strings() as u32 {
                let seq = s.seq(StrId(sid));
                for off in 0..(seq.len() + 1).saturating_sub(gate) {
                    want[bucket_key(&seq[off..], w).unwrap() as usize] = true;
                }
            }
            assert_eq!(touched_buckets(&s, w, fresh, gate), want, "fresh {fresh}");
        }
    }

    #[test]
    fn enumerates_every_long_enough_suffix_once() {
        let s = store(&[b"ACGT", b"GG"]);
        let w = 2;
        let mut seen = Vec::new();
        for_each_suffix(&s, w, |_, suf| seen.push(suf));
        // Strings: ACGT, ACGT(rc), GG, CC — suffix counts: 3 + 3 + 1 + 1.
        assert_eq!(seen.len(), 8);
        let mut uniq = seen.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), seen.len(), "duplicate suffix enumerated");
    }

    #[test]
    fn collection_respects_ownership() {
        let s = store(&[b"ACGTACGT"]);
        let w = 2;
        let counts = crate::count_buckets(&s, w);
        // Own only the bucket of "AC" (key 0b0001 = 1).
        let got = scatter(&s, w, &counts, &[1], w);
        assert_eq!(got.ranges, vec![0..4]);
        for e in &got.entries {
            assert_eq!(&e.suf.bytes(&s)[..2], b"AC");
            assert_eq!(e.tag, 1);
        }
        // "AC" occurs at offsets 0 and 4 of the forward strand; the reverse
        // complement ACGTACGT is its own revcomp, so 2 + 2 occurrences.
        assert_eq!(got.entries.len(), 4);
    }

    #[test]
    fn scatter_tags_each_suffix_with_its_gate_prefix() {
        let long: Vec<u8> = (0..50).map(|i| b"ACGT"[(i * 7 + i / 3) % 4]).collect();
        let s = SequenceStore::from_ests(&[&b"ACGTGGTACCAGT"[..], b"TTACGGA", &long]).unwrap();
        let w = 2;
        let counts = crate::count_buckets(&s, w);
        let all: Vec<u32> = (0..num_buckets(w) as u32)
            .rev()
            .filter(|&b| counts[b as usize] > 0)
            .collect();
        // Gates past 32 tag only the first 32 bases.
        for gate in [2, 3, 5, 9, 40] {
            let got = scatter(&s, w, &counts, &all, gate);
            let mut kept = 0;
            for (&b, range) in all.iter().zip(&got.ranges) {
                let slice = &got.entries[range.clone()];
                assert!(slice.len() as u64 <= counts[b as usize]);
                assert!(slice.windows(2).all(|p| p[0].suf < p[1].suf));
                for e in slice {
                    let bytes = e.suf.bytes(&s);
                    assert!(bytes.len() >= gate, "{:?} shorter than {gate}", e.suf);
                    assert_eq!(bucket_key(bytes, w), Some(b));
                    let tag = bytes[..gate.min(TAG_BASES)].iter().fold(0u64, |t, &c| {
                        (t << 2) | Base::from_ascii(c).unwrap().code() as u64
                    });
                    assert_eq!(e.tag, tag, "{:?} at gate {gate}", e.suf);
                }
                kept += slice.len();
            }
            let expect: usize = s
                .str_ids()
                .map(|sid| (s.len_of(sid) + 1).saturating_sub(gate))
                .sum();
            assert_eq!(kept, expect, "gate {gate}");
        }
    }

    #[test]
    #[should_panic(expected = "bucket counts do not match the store")]
    fn scatter_rejects_counts_from_another_store() {
        let s = store(&[b"ACGTACGT"]);
        let counts = crate::count_buckets(&store(&[b"ACGA"]), 2);
        scatter(&s, 2, &counts, &[1], 2);
    }

    #[test]
    fn suffix_ref_bytes_roundtrip() {
        let s = store(&[b"GATTACA"]);
        let suf = SuffixRef::new(0, 3);
        assert_eq!(suf.bytes(&s), b"TACA");
    }
}
