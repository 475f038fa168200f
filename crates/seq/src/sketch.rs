//! MinHash bottom-sketches for cheap pairwise similarity estimates.
//!
//! A bottom-`s` sketch of a string is the `s` smallest distinct 64-bit
//! hashes of its `k`-mers. Two sketches support a Mash-style estimate of
//! the `k`-mer Jaccard similarity of the underlying strings in
//! `O(s)` — computed from the bottom-`s` of the *union* of the two
//! sketches, the standard one-permutation MinHash estimator — which the
//! clustering engine uses as a lossy prefilter in front of banded DP:
//! promising pairs whose estimated similarity falls below a threshold
//! are skipped without touching the alignment kernels. Sketches are
//! built **once per string** over the store (both strands are separate
//! strings, so no canonicalization is needed) and are a few hundred
//! bytes each, honouring the paper's space discipline.

use crate::ids::StrId;
use crate::store::SequenceStore;

/// Sketch construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchParams {
    /// `k`-mer length; must be in `1..=31` so a `k`-mer packs into a
    /// `u64` at 2 bits per base.
    pub k: usize,
    /// Sketch size `s`: how many bottom hashes each string keeps.
    pub s: usize,
}

impl Default for SketchParams {
    /// `k = 11, s = 32`: small enough to be negligible next to the
    /// suffix-tree index, selective enough for EST-length reads.
    fn default() -> Self {
        SketchParams { k: 11, s: 32 }
    }
}

impl SketchParams {
    /// Check the parameters are usable.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 || self.k > 31 {
            return Err(format!("sketch k {} out of range 1..=31", self.k));
        }
        if self.s == 0 {
            return Err("sketch size must be positive".into());
        }
        Ok(())
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash of a packed
/// `k`-mer value.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

#[inline]
fn base_code(b: u8) -> u64 {
    // The store's text is validated {A,C,G,T}.
    match b {
        b'A' => 0,
        b'C' => 1,
        b'G' => 2,
        _ => 3,
    }
}

/// Bottom-`s` sketch of one byte string: the `s` smallest distinct
/// hashes of its `k`-mers, sorted ascending. Strings shorter than `k`
/// yield an empty sketch.
pub fn sketch_of(seq: &[u8], params: SketchParams) -> Vec<u64> {
    let SketchParams { k, s } = params;
    debug_assert!(params.validate().is_ok());
    if seq.len() < k {
        return Vec::new();
    }
    let mask = if k == 32 {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    };
    let mut hashes = Vec::with_capacity(seq.len() - k + 1);
    let mut v = 0u64;
    for (i, &b) in seq.iter().enumerate() {
        v = ((v << 2) | base_code(b)) & mask;
        if i + 1 >= k {
            hashes.push(mix64(v));
        }
    }
    hashes.sort_unstable();
    hashes.dedup();
    hashes.truncate(s);
    hashes
}

/// Bottom-`s` sketches for every string of a [`SequenceStore`], indexed
/// by [`StrId`] like the store itself. Flat storage: one offset array
/// plus one hash pool, mirroring the store's layout discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchSet {
    params: SketchParams,
    /// `offsets[i]..offsets[i+1]` delimits string `i`'s sketch.
    offsets: Vec<u32>,
    /// Sorted bottom hashes, all strings concatenated.
    hashes: Vec<u64>,
}

impl SketchSet {
    /// Sketch every string of `store` (each EST and its reverse
    /// complement — pairs reference strand-specific strings, so each is
    /// sketched as written).
    pub fn from_store(store: &SequenceStore, params: SketchParams) -> SketchSet {
        let mut offsets = Vec::with_capacity(store.num_strings() + 1);
        offsets.push(0u32);
        let mut hashes = Vec::with_capacity(store.num_strings() * params.s);
        for sid in store.str_ids() {
            hashes.extend(sketch_of(store.seq(sid), params));
            offsets.push(hashes.len() as u32);
        }
        SketchSet {
            params,
            offsets,
            hashes,
        }
    }

    /// The parameters these sketches were built with.
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// Number of sketched strings.
    pub fn num_strings(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sorted bottom-hash sketch of string `sid` (empty when the
    /// string is shorter than `k`).
    pub fn sketch(&self, sid: StrId) -> &[u64] {
        let i = sid.index();
        &self.hashes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Bytes of backing storage used (for memory accounting).
    pub fn sketch_bytes(&self) -> usize {
        self.hashes.len() * std::mem::size_of::<u64>()
            + self.offsets.len() * std::mem::size_of::<u32>()
    }

    /// Mash-style Jaccard estimate between two sketched strings: the
    /// shared fraction of the bottom-`s` of the sketch union. `None`
    /// when either string was too short to sketch — callers should
    /// treat that as "no evidence", not dissimilarity.
    pub fn jaccard(&self, a: StrId, b: StrId) -> Option<f64> {
        jaccard_estimate(self.sketch(a), self.sketch(b), self.params.s)
    }
}

/// The estimator behind [`SketchSet::jaccard`], usable on free-standing
/// sketches: walk the two sorted sketches, take the bottom-`s` of their
/// union, and return the fraction present in both.
pub fn jaccard_estimate(sa: &[u64], sb: &[u64], s: usize) -> Option<f64> {
    if sa.is_empty() || sb.is_empty() {
        return None;
    }
    let (mut i, mut j) = (0usize, 0usize);
    let mut union = 0usize;
    let mut shared = 0usize;
    while union < s && (i < sa.len() || j < sb.len()) {
        match (sa.get(i), sb.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                shared += 1;
                i += 1;
                j += 1;
            }
            (Some(&x), Some(&y)) if x < y => i += 1,
            (Some(_), Some(_)) => j += 1,
            (Some(_), None) => i += 1,
            (None, Some(_)) => j += 1,
            (None, None) => unreachable!("loop condition"),
        }
        union += 1;
    }
    Some(shared as f64 / union as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params(k: usize, s: usize) -> SketchParams {
        SketchParams { k, s }
    }

    #[test]
    fn params_validation() {
        assert!(SketchParams::default().validate().is_ok());
        assert!(params(0, 8).validate().is_err());
        assert!(params(32, 8).validate().is_err());
        assert!(params(31, 8).validate().is_ok());
        assert!(params(11, 0).validate().is_err());
    }

    #[test]
    fn sketch_is_sorted_bounded_and_deterministic() {
        let seq = b"ACGTACGTACGTGGGGCCCCAAAATTTT";
        let sk = sketch_of(seq, params(5, 8));
        assert!(sk.len() <= 8);
        assert!(sk.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        assert_eq!(sk, sketch_of(seq, params(5, 8)));
    }

    #[test]
    fn short_strings_sketch_empty() {
        assert!(sketch_of(b"ACG", params(5, 8)).is_empty());
        assert!(sketch_of(b"", params(5, 8)).is_empty());
        // Exactly k bases: one k-mer.
        assert_eq!(sketch_of(b"ACGTA", params(5, 8)).len(), 1);
    }

    #[test]
    fn identical_strings_estimate_one() {
        let seq = b"ACGTACGTGGATCCGGAATTCCGGTTAACC";
        let sk = sketch_of(seq, params(7, 16));
        assert_eq!(jaccard_estimate(&sk, &sk, 16), Some(1.0));
    }

    #[test]
    fn unrelated_strings_estimate_low() {
        // Disjoint alphabets of k-mers: no shared hashes at all.
        let sa = sketch_of(&[b'A'; 60], params(9, 16));
        let sb = sketch_of(&[b'T'; 60], params(9, 16));
        assert_eq!(jaccard_estimate(&sa, &sb, 16), Some(0.0));
    }

    #[test]
    fn empty_sketch_gives_no_estimate() {
        let sk = sketch_of(b"ACGTACGTACGT", params(5, 8));
        assert_eq!(jaccard_estimate(&sk, &[], 8), None);
        assert_eq!(jaccard_estimate(&[], &sk, 8), None);
    }

    #[test]
    fn sketch_set_mirrors_store() {
        let store =
            SequenceStore::from_ests(&[&b"ACGTACGTACGTACGT"[..], b"TTTTCCCCGGGGAAAA", b"ACG"])
                .unwrap();
        let p = params(5, 8);
        let set = SketchSet::from_store(&store, p);
        assert_eq!(set.num_strings(), store.num_strings());
        assert_eq!(set.params(), p);
        for sid in store.str_ids() {
            assert_eq!(set.sketch(sid), sketch_of(store.seq(sid), p).as_slice());
        }
        assert!(set.sketch_bytes() > 0);
    }

    #[test]
    fn overlapping_reads_score_higher_than_unrelated() {
        // Two reads sharing a 40-base overlap vs two unrelated reads.
        let template: Vec<u8> = (0..100u32)
            .map(|i| [b'A', b'C', b'G', b'T'][(i.wrapping_mul(2654435761) >> 13) as usize % 4])
            .collect();
        let unrelated: Vec<u8> = (0..70u32)
            .map(|i| [b'A', b'C', b'G', b'T'][(i.wrapping_mul(40503) >> 7) as usize % 4])
            .collect();
        let p = params(11, 24);
        let a = sketch_of(&template[..70], p);
        let b = sketch_of(&template[30..], p);
        let c = sketch_of(&unrelated, p);
        let related = jaccard_estimate(&a, &b, 24).unwrap();
        let distant = jaccard_estimate(&a, &c, 24).unwrap();
        assert!(
            related > distant,
            "overlap estimate {related} not above unrelated {distant}"
        );
        assert!(related > 0.2, "40/100-base overlap estimate too low");
    }

    proptest! {
        /// Estimates are always fractions in [0, 1], and a string is
        /// always fully similar to itself.
        #[test]
        fn estimate_is_a_fraction(
            a in proptest::collection::vec(
                proptest::sample::select(vec![b'A', b'C', b'G', b'T']), 0..120),
            b in proptest::collection::vec(
                proptest::sample::select(vec![b'A', b'C', b'G', b'T']), 0..120),
            k in 3usize..12,
            s in 1usize..24,
        ) {
            let p = params(k, s);
            let sa = sketch_of(&a, p);
            let sb = sketch_of(&b, p);
            if let Some(j) = jaccard_estimate(&sa, &sb, s) {
                prop_assert!((0.0..=1.0).contains(&j), "estimate {j}");
            } else {
                prop_assert!(sa.is_empty() || sb.is_empty());
            }
            if !sa.is_empty() {
                prop_assert_eq!(jaccard_estimate(&sa, &sa, s), Some(1.0));
            }
        }

        /// The union walk is symmetric in its arguments.
        #[test]
        fn estimate_is_symmetric(
            a in proptest::collection::vec(
                proptest::sample::select(vec![b'A', b'C', b'G', b'T']), 12..100),
            b in proptest::collection::vec(
                proptest::sample::select(vec![b'A', b'C', b'G', b'T']), 12..100),
        ) {
            let p = params(7, 16);
            let sa = sketch_of(&a, p);
            let sb = sketch_of(&b, p);
            prop_assert_eq!(jaccard_estimate(&sa, &sb, 16), jaccard_estimate(&sb, &sa, 16));
        }
    }
}
