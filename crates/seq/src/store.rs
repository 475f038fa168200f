//! The shared sequence store.
//!
//! All `2n` strings (every EST followed by its reverse complement) live
//! concatenated in a single `Vec<u8>` with an offset table — one allocation
//! for the whole dataset, O(1) slicing, and no per-string overhead. Every
//! layer above (suffix tree, pair generation, alignment) refers to
//! sequences only through [`StrId`]/offset pairs into this store, which is
//! what keeps the total space linear in the input size `N`.

use crate::alphabet::validate_dna;
use crate::error::SeqError;
use crate::ids::{EstId, StrId, Strand};
use crate::revcomp::reverse_complement_into;

/// Longest EST the store accepts, in bases. The suffix tree packs a
/// suffix's offset into 29 bits of its 8-byte entry, beside the 3-bit
/// class of the base to its left.
pub const MAX_EST_LEN: usize = (1 << 29) - 1;

/// Most bases the store holds over both strands: its offsets are `u32`.
pub const MAX_STORED_CHARS: usize = u32::MAX as usize;

/// The store's length after appending an EST of `len` bases (both
/// strands, `2 · len`) to a store of `stored` bases, or the typed error
/// when the result could not be addressed: an EST longer than
/// [`MAX_EST_LEN`], or a store past [`MAX_STORED_CHARS`]. `index` names
/// the EST in the error. A pure length check, so a caller can vet a whole
/// batch before it mutates anything.
pub fn append_bound(index: usize, len: usize, stored: usize) -> Result<usize, SeqError> {
    if len > MAX_EST_LEN {
        return Err(SeqError::EstTooLong { index, len });
    }
    let grown = stored.saturating_add(2 * len);
    if grown > MAX_STORED_CHARS {
        return Err(SeqError::StoreTooLarge {
            index,
            stored: grown,
        });
    }
    Ok(grown)
}

/// Immutable container of all ESTs and their reverse complements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceStore {
    /// Concatenated bytes of `s_0, s_1, …, s_{2n-1}`.
    text: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` delimits string `i`; `2n + 1` entries.
    offsets: Vec<u32>,
}

/// Incremental [`SequenceStore`] construction, one EST at a time.
///
/// The batch constructor [`SequenceStore::from_ests`] needs the whole
/// input materialized as a slice of slices; this builder lets streaming
/// ingest (FASTA readers, generators) append ESTs as they arrive, so
/// peak memory stays at one store instead of input-copy + store.
#[derive(Debug, Clone, Default)]
pub struct SequenceStoreBuilder {
    text: Vec<u8>,
    offsets: Vec<u32>,
}

impl SequenceStoreBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        SequenceStoreBuilder {
            text: Vec::new(),
            offsets: vec![0u32],
        }
    }

    /// Builder pre-sized for `total_input_chars` bases across all ESTs.
    pub fn with_capacity(total_input_chars: usize, num_ests: usize) -> Self {
        let mut offsets = Vec::with_capacity(num_ests * 2 + 1);
        offsets.push(0u32);
        SequenceStoreBuilder {
            text: Vec::with_capacity(total_input_chars * 2),
            offsets,
        }
    }

    /// Append one EST: validated (strict `{A,C,G,T}`, case-insensitive,
    /// within [`append_bound`]), upper-cased, and stored with its reverse
    /// complement right after, exactly as [`SequenceStore::from_ests`]
    /// would.
    pub fn push_est(&mut self, est: &[u8]) -> Result<(), SeqError> {
        let index = self.num_ests();
        if est.is_empty() {
            return Err(SeqError::EmptySequence { index });
        }
        append_bound(index, est.len(), self.text.len())?;
        validate_dna(est)?;

        let start = self.text.len();
        self.text.extend(est.iter().map(|b| b.to_ascii_uppercase()));
        self.offsets.push(self.text.len() as u32);

        // Materialize the reverse complement right after the forward
        // strand so ē_i is an ordinary string, not a special case.
        self.text.resize(start + est.len() * 2, 0);
        let (fwd, rev) = self.text[start..].split_at_mut(est.len());
        reverse_complement_into(fwd, rev);
        self.offsets.push(self.text.len() as u32);
        Ok(())
    }

    /// ESTs appended so far.
    pub fn num_ests(&self) -> usize {
        (self.offsets.len() - 1) / 2
    }

    /// Total input characters appended so far.
    pub fn total_input_chars(&self) -> usize {
        self.text.len() / 2
    }

    /// Finish building; the result owns the accumulated text.
    pub fn finish(self) -> SequenceStore {
        SequenceStore {
            text: self.text,
            offsets: self.offsets,
        }
    }
}

impl SequenceStore {
    /// Build a store from ESTs given as byte slices.
    ///
    /// Each EST is validated (strict `{A,C,G,T}`, case-insensitive),
    /// upper-cased, and stored together with its reverse complement:
    /// EST `i` becomes strings `2i` (forward) and `2i+1` (reverse).
    pub fn from_ests<S: AsRef<[u8]>>(ests: &[S]) -> Result<Self, SeqError> {
        let total: usize = ests.iter().map(|e| e.as_ref().len()).sum();
        let mut builder = SequenceStoreBuilder::with_capacity(total, ests.len());
        for est in ests {
            builder.push_est(est.as_ref())?;
        }
        Ok(builder.finish())
    }

    /// Borrow the raw representation `(text, offsets)` for serialization.
    pub fn as_raw_parts(&self) -> (&[u8], &[u32]) {
        (&self.text, &self.offsets)
    }

    /// Rebuild a store from a previously serialized raw representation.
    ///
    /// Both the structural invariants (odd offset count,
    /// `offsets[0] == 0`, monotone non-decreasing, equal strand lengths,
    /// no empty strings, none longer than [`MAX_EST_LEN`], final offset
    /// equals the text length) and the content invariant (every byte is
    /// uppercase `{A,C,G,T}`) are checked. Content validation matters because everything above the
    /// store — in particular the suffix-tree builder's base classifier —
    /// relies on the store only ever holding DNA; a snapshot that smuggles
    /// in an `N` must surface here as a typed error, not as a panic deep
    /// inside GST construction.
    pub fn from_raw_parts(text: Vec<u8>, offsets: Vec<u32>) -> Result<Self, SeqError> {
        let corrupt = |detail: String| SeqError::CorruptStore { detail };
        if offsets.len() % 2 != 1 {
            return Err(corrupt(format!(
                "offset table has {} entries, expected 2n+1",
                offsets.len()
            )));
        }
        if offsets[0] != 0 {
            return Err(corrupt(format!("offsets[0] = {}, expected 0", offsets[0])));
        }
        for pair in offsets.windows(2) {
            if pair[0] >= pair[1] {
                return Err(corrupt(format!(
                    "offsets not strictly increasing: {} then {}",
                    pair[0], pair[1]
                )));
            }
        }
        for i in (0..offsets.len() - 1).step_by(2) {
            let fwd = offsets[i + 1] - offsets[i];
            let rev = offsets[i + 2] - offsets[i + 1];
            if fwd != rev {
                return Err(corrupt(format!(
                    "EST {}: forward length {fwd} != reverse length {rev}",
                    i / 2
                )));
            }
            append_bound(i / 2, fwd as usize, offsets[i] as usize)?;
        }
        if *offsets.last().unwrap() as usize != text.len() {
            return Err(corrupt(format!(
                "final offset {} != text length {}",
                offsets.last().unwrap(),
                text.len()
            )));
        }
        if let Some(offset) = text
            .iter()
            .position(|b| !matches!(b, b'A' | b'C' | b'G' | b'T'))
        {
            return Err(SeqError::InvalidBaseAt {
                byte: text[offset],
                offset,
            });
        }
        Ok(SequenceStore { text, offsets })
    }

    /// Number of ESTs `n`.
    #[inline]
    pub fn num_ests(&self) -> usize {
        (self.offsets.len() - 1) / 2
    }

    /// Number of stored strings `2n`.
    #[inline]
    pub fn num_strings(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total characters over the input ESTs (the paper's `N`).
    #[inline]
    pub fn total_input_chars(&self) -> usize {
        self.text.len() / 2
    }

    /// Total characters actually stored (`2N`: both strands).
    #[inline]
    pub fn total_stored_chars(&self) -> usize {
        self.text.len()
    }

    /// Average EST length (the paper's `l = N / n`).
    pub fn average_est_length(&self) -> f64 {
        if self.num_ests() == 0 {
            0.0
        } else {
            self.total_input_chars() as f64 / self.num_ests() as f64
        }
    }

    /// The bytes of string `sid`.
    #[inline]
    pub fn seq(&self, sid: StrId) -> &[u8] {
        let i = sid.index();
        debug_assert!(i < self.num_strings(), "string id {i} out of range");
        &self.text[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The forward-strand bytes of EST `eid`.
    #[inline]
    pub fn est_seq(&self, eid: EstId) -> &[u8] {
        self.seq(eid.str_id(Strand::Forward))
    }

    /// Length of string `sid`.
    #[inline]
    pub fn len_of(&self, sid: StrId) -> usize {
        let i = sid.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The suffix of string `sid` starting at `offset`.
    #[inline]
    pub fn suffix(&self, sid: StrId, offset: usize) -> &[u8] {
        &self.seq(sid)[offset..]
    }

    /// Iterate over all string ids `s_0 … s_{2n-1}`.
    pub fn str_ids(&self) -> impl Iterator<Item = StrId> {
        (0..self.num_strings() as u32).map(StrId)
    }

    /// Iterate over all EST ids `e_0 … e_{n-1}`.
    pub fn est_ids(&self) -> impl Iterator<Item = EstId> {
        (0..self.num_ests() as u32).map(EstId)
    }

    /// Approximate heap footprint in bytes, for the memory accounting used
    /// by the Table 1 reproduction.
    pub fn memory_bytes(&self) -> usize {
        self.text.capacity() + self.offsets.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::revcomp::reverse_complement;
    use proptest::prelude::*;

    fn store(ests: &[&[u8]]) -> SequenceStore {
        SequenceStore::from_ests(ests).unwrap()
    }

    #[test]
    fn forward_and_reverse_strands() {
        let s = store(&[b"ACGGT", b"TTA"]);
        assert_eq!(s.num_ests(), 2);
        assert_eq!(s.num_strings(), 4);
        assert_eq!(s.seq(StrId(0)), b"ACGGT");
        assert_eq!(s.seq(StrId(1)), reverse_complement(b"ACGGT").as_slice());
        assert_eq!(s.seq(StrId(2)), b"TTA");
        assert_eq!(s.seq(StrId(3)), b"TAA");
        assert_eq!(s.est_seq(EstId(1)), b"TTA");
    }

    #[test]
    fn totals_and_average() {
        let s = store(&[b"ACGT", b"AA"]);
        assert_eq!(s.total_input_chars(), 6);
        assert_eq!(s.total_stored_chars(), 12);
        assert!((s.average_est_length() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lowercase_is_normalized() {
        let s = store(&[b"acgt"]);
        assert_eq!(s.seq(StrId(0)), b"ACGT");
        assert_eq!(s.seq(StrId(1)), b"ACGT");
    }

    #[test]
    fn suffix_slices() {
        let s = store(&[b"ACGGT"]);
        assert_eq!(s.suffix(StrId(0), 0), b"ACGGT");
        assert_eq!(s.suffix(StrId(0), 3), b"GT");
        assert_eq!(s.suffix(StrId(0), 5), b"");
    }

    #[test]
    fn rejects_empty_est() {
        let err = SequenceStore::from_ests(&[&b"ACGT"[..], b""]).unwrap_err();
        assert_eq!(err, SeqError::EmptySequence { index: 1 });
    }

    #[test]
    fn rejects_invalid_base() {
        assert!(SequenceStore::from_ests(&[&b"ACNT"[..]]).is_err());
    }

    #[test]
    fn empty_store() {
        let s = SequenceStore::from_ests::<&[u8]>(&[]).unwrap();
        assert_eq!(s.num_ests(), 0);
        assert_eq!(s.num_strings(), 0);
        assert_eq!(s.average_est_length(), 0.0);
        assert_eq!(s.str_ids().count(), 0);
    }

    #[test]
    fn id_iterators() {
        let s = store(&[b"AC", b"GT", b"AA"]);
        assert_eq!(s.str_ids().count(), 6);
        assert_eq!(s.est_ids().count(), 3);
        for sid in s.str_ids() {
            assert_eq!(s.len_of(sid), 2);
        }
    }

    #[test]
    fn builder_matches_batch_constructor() {
        let ests: &[&[u8]] = &[b"ACGGT", b"ttacg", b"A"];
        let batch = SequenceStore::from_ests(ests).unwrap();
        let mut b = SequenceStoreBuilder::new();
        for est in ests {
            b.push_est(est).unwrap();
        }
        assert_eq!(b.num_ests(), 3);
        assert_eq!(b.total_input_chars(), 11);
        assert_eq!(b.finish(), batch);
    }

    #[test]
    fn builder_rejects_bad_input_with_index() {
        let mut b = SequenceStoreBuilder::new();
        b.push_est(b"ACGT").unwrap();
        assert_eq!(
            b.push_est(b"").unwrap_err(),
            SeqError::EmptySequence { index: 1 }
        );
        assert!(b.push_est(b"ACNT").is_err());
        // Failed pushes leave the builder usable.
        b.push_est(b"GG").unwrap();
        assert_eq!(b.finish(), store(&[b"ACGT", b"GG"]));
    }

    #[test]
    fn raw_parts_roundtrip_and_validation() {
        let s = store(&[b"ACGGT", b"TTA"]);
        let (text, offsets) = s.as_raw_parts();
        let back = SequenceStore::from_raw_parts(text.to_vec(), offsets.to_vec()).unwrap();
        assert_eq!(back, s);

        // Structural corruption is rejected.
        assert!(SequenceStore::from_raw_parts(b"AC".to_vec(), vec![0, 2]).is_err());
        assert!(SequenceStore::from_raw_parts(b"AC".to_vec(), vec![1, 2, 2]).is_err());
        assert!(SequenceStore::from_raw_parts(b"ACGT".to_vec(), vec![0, 2, 2]).is_err());
        assert!(SequenceStore::from_raw_parts(b"ACGT".to_vec(), vec![0, 1, 4]).is_err());
        assert!(SequenceStore::from_raw_parts(b"ACGT".to_vec(), vec![0, 2, 5]).is_err());

        // Content corruption is rejected with a typed, located error —
        // the GST builder must never see a non-DNA byte.
        assert_eq!(
            SequenceStore::from_raw_parts(b"ACNT".to_vec(), vec![0, 2, 4]).unwrap_err(),
            SeqError::InvalidBaseAt {
                byte: b'N',
                offset: 2
            }
        );
        // Lowercase bytes are invalid too: the store is normalized to
        // uppercase at insertion, so a serialized 'a' means corruption.
        assert!(matches!(
            SequenceStore::from_raw_parts(b"acgt".to_vec(), vec![0, 2, 4]).unwrap_err(),
            SeqError::InvalidBaseAt { byte: b'a', .. }
        ));
    }

    #[test]
    fn lengths_past_what_the_offsets_address_are_refused() {
        // Pure length checks: nothing of these sizes is allocated.
        assert_eq!(append_bound(0, MAX_EST_LEN, 0), Ok(2 * MAX_EST_LEN));
        assert_eq!(
            append_bound(3, MAX_EST_LEN + 1, 0),
            Err(SeqError::EstTooLong {
                index: 3,
                len: MAX_EST_LEN + 1
            })
        );
        let room = MAX_STORED_CHARS - 10;
        assert_eq!(append_bound(7, 5, room), Ok(MAX_STORED_CHARS));
        assert_eq!(
            append_bound(7, 6, room),
            Err(SeqError::StoreTooLarge {
                index: 7,
                stored: MAX_STORED_CHARS + 2
            })
        );
        assert!(append_bound(0, 1, usize::MAX).is_err(), "no overflow");
        // A restored store is held to the per-string bound before its text
        // is looked at, so a short text stands in for a 512 MiB string.
        let long = MAX_EST_LEN as u32 + 1;
        assert_eq!(
            SequenceStore::from_raw_parts(b"AC".to_vec(), vec![0, 1, 2, 2 + long, 2 + 2 * long])
                .unwrap_err(),
            SeqError::EstTooLong {
                index: 1,
                len: MAX_EST_LEN + 1
            }
        );
    }

    fn dna_vecs() -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(
            proptest::collection::vec(
                proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
                1..80,
            ),
            0..20,
        )
    }

    proptest! {
        /// Every stored reverse strand is exactly the revcomp of its mate,
        /// and slicing recovers the original inputs verbatim.
        #[test]
        fn store_invariants(ests in dna_vecs()) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            prop_assert_eq!(s.num_ests(), ests.len());
            for (i, est) in ests.iter().enumerate() {
                let eid = EstId(i as u32);
                let fwd = eid.str_id(Strand::Forward);
                let rev = eid.str_id(Strand::Reverse);
                prop_assert_eq!(s.seq(fwd), est.as_slice());
                let rc = reverse_complement(est);
                prop_assert_eq!(s.seq(rev), rc.as_slice());
                prop_assert_eq!(s.len_of(fwd), s.len_of(rev));
                prop_assert_eq!(fwd.mate(), rev);
            }
        }
    }
}
