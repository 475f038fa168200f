//! 2-bit packing of DNA sequences.
//!
//! Four bases per byte. [`PackedDna`] owns a single packed sequence;
//! [`PackedSlice`] is a borrowed, `Copy` view with O(1) base access that
//! the alignment kernels consume directly (no unpack-to-ASCII copies on
//! the hot path); [`PackedText`] packs an entire [`SequenceStore`] so a
//! clustering run can align over 2 bits/base instead of 8, honouring the
//! paper's space-efficiency goal.

use crate::alphabet::Base;
use crate::error::SeqError;
use crate::ids::StrId;
use crate::store::SequenceStore;

/// A DNA sequence packed at 2 bits per base.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedDna {
    words: Vec<u8>,
    len: usize,
}

impl PackedDna {
    /// Pack an ASCII DNA sequence. Fails on non-`{A,C,G,T}` bytes.
    pub fn from_ascii(seq: &[u8]) -> Result<Self, SeqError> {
        let mut words = vec![0u8; seq.len().div_ceil(4)];
        for (i, &b) in seq.iter().enumerate() {
            let code = Base::from_ascii(b)?.code();
            words[i / 4] |= code << ((i % 4) * 2);
        }
        Ok(PackedDna {
            words,
            len: seq.len(),
        })
    }

    /// Number of bases stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of backing storage used (for memory accounting).
    #[inline]
    pub fn packed_bytes(&self) -> usize {
        self.words.len()
    }

    /// The base at position `i`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Base {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        Base::from_code((self.words[i / 4] >> ((i % 4) * 2)) & 0b11)
    }

    /// Borrowed zero-copy view over the whole sequence.
    #[inline]
    pub fn as_slice(&self) -> PackedSlice<'_> {
        PackedSlice {
            words: &self.words,
            start: 0,
            len: self.len,
        }
    }

    /// Borrowed view over the half-open base range `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> Result<PackedSlice<'_>, SeqError> {
        check_range(start, end, self.len)?;
        Ok(PackedSlice {
            words: &self.words,
            start,
            len: end - start,
        })
    }

    /// Unpack back to upper-case ASCII.
    pub fn to_ascii(&self) -> Vec<u8> {
        (0..self.len).map(|i| self.get(i).to_ascii()).collect()
    }

    /// Unpack the half-open range `[start, end)` to ASCII.
    ///
    /// The range must satisfy `start <= end <= len()`; anything else is a
    /// typed [`SeqError::SliceOutOfBounds`], never a panic.
    pub fn slice_ascii(&self, start: usize, end: usize) -> Result<Vec<u8>, SeqError> {
        check_range(start, end, self.len)?;
        Ok((start..end).map(|i| self.get(i).to_ascii()).collect())
    }

    /// Iterate over the bases.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

#[inline]
fn check_range(start: usize, end: usize, len: usize) -> Result<(), SeqError> {
    if start <= end && end <= len {
        Ok(())
    } else {
        Err(SeqError::SliceOutOfBounds { start, end, len })
    }
}

/// A borrowed, `Copy` view into 2-bit packed DNA.
///
/// The view need not start on a byte boundary: `start` is a base offset
/// into the backing words, so sub-slicing is O(1) and allocation-free.
/// This is the representation the alignment kernels' `SeqView` runs over
/// when packed alignment is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedSlice<'a> {
    words: &'a [u8],
    /// Base offset of this view within `words`.
    start: usize,
    /// Number of bases visible through this view.
    len: usize,
}

impl<'a> PackedSlice<'a> {
    /// Number of bases in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 2-bit code of the base at position `i` (O(1), no unpacking).
    #[inline]
    pub fn code_at(&self, i: usize) -> u8 {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let j = self.start + i;
        (self.words[j / 4] >> ((j % 4) * 2)) & 0b11
    }

    /// The base at position `i`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Base {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        Base::from_code(self.code_at(i))
    }

    /// Sub-view over the half-open base range `[start, end)` of this view.
    /// Panics if the range is invalid — hot-path callers are expected to
    /// pass ranges derived from `len()`.
    #[inline]
    pub fn slice(self, start: usize, end: usize) -> PackedSlice<'a> {
        assert!(
            start <= end && end <= self.len,
            "bad range {start}..{end} (len {})",
            self.len
        );
        PackedSlice {
            words: self.words,
            start: self.start + start,
            len: end - start,
        }
    }

    /// Unpack the view to upper-case ASCII (allocates — test/debug use).
    pub fn to_ascii(&self) -> Vec<u8> {
        (0..self.len).map(|i| self.get(i).to_ascii()).collect()
    }

    /// Iterate over the bases.
    pub fn iter(&self) -> impl Iterator<Item = Base> + 'a {
        let v = *self;
        (0..v.len).map(move |i| v.get(i))
    }
}

/// All strings of a [`SequenceStore`] packed at 2 bits per base.
///
/// Mirrors the store's layout (same string ids, same offsets) so
/// [`PackedText::slice`] is the packed twin of [`SequenceStore::seq`].
/// Built once per clustering run when packed alignment is enabled;
/// strings start at arbitrary base offsets (not byte-aligned), which
/// [`PackedSlice`] handles transparently.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedText {
    words: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` delimits string `i`, in bases.
    offsets: Vec<u32>,
}

impl PackedText {
    /// Pack every string of `store`. Infallible: the store has already
    /// validated its text as strict `{A,C,G,T}`.
    pub fn from_store(store: &SequenceStore) -> Self {
        let total = store.total_stored_chars();
        let mut words = vec![0u8; total.div_ceil(4)];
        let mut offsets = Vec::with_capacity(store.num_strings() + 1);
        offsets.push(0u32);
        let mut pos = 0usize;
        for sid in store.str_ids() {
            for &b in store.seq(sid) {
                let code = Base::from_ascii(b)
                    .expect("SequenceStore text is validated DNA")
                    .code();
                words[pos / 4] |= code << ((pos % 4) * 2);
                pos += 1;
            }
            offsets.push(pos as u32);
        }
        PackedText { words, offsets }
    }

    /// Number of strings (the store's `2n`).
    #[inline]
    pub fn num_strings(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Packed view of string `sid` — the 2-bit twin of `store.seq(sid)`.
    #[inline]
    pub fn slice(&self, sid: StrId) -> PackedSlice<'_> {
        let i = sid.index();
        debug_assert!(i < self.num_strings(), "string id {i} out of range");
        let start = self.offsets[i] as usize;
        PackedSlice {
            words: &self.words,
            start,
            len: self.offsets[i + 1] as usize - start,
        }
    }

    /// Bytes of backing storage used (for memory accounting).
    pub fn packed_bytes(&self) -> usize {
        self.words.len() + self.offsets.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_small() {
        for s in [
            &b""[..],
            b"A",
            b"AC",
            b"ACG",
            b"ACGT",
            b"ACGTA",
            b"TTTTTTTTT",
        ] {
            let packed = PackedDna::from_ascii(s).unwrap();
            assert_eq!(packed.len(), s.len());
            assert_eq!(packed.to_ascii(), s);
        }
    }

    #[test]
    fn packs_four_per_byte() {
        let packed = PackedDna::from_ascii(&[b'A'; 17]).unwrap();
        assert_eq!(packed.packed_bytes(), 5); // ceil(17/4)
    }

    #[test]
    fn rejects_invalid() {
        assert!(PackedDna::from_ascii(b"ACNT").is_err());
    }

    #[test]
    fn slice_matches_full_unpack() {
        let packed = PackedDna::from_ascii(b"ACGTACGTGG").unwrap();
        assert_eq!(packed.slice_ascii(2, 7).unwrap(), b"GTACG");
        assert_eq!(packed.slice_ascii(0, 0).unwrap(), b"");
        assert_eq!(packed.slice_ascii(10, 10).unwrap(), b"");
    }

    #[test]
    fn slice_ascii_bounds_are_typed_errors() {
        let packed = PackedDna::from_ascii(b"ACGT").unwrap();
        // Full range and empty ranges at both boundaries are fine.
        assert_eq!(packed.slice_ascii(0, 4).unwrap(), b"ACGT");
        assert_eq!(packed.slice_ascii(4, 4).unwrap(), b"");
        // One past the end.
        assert_eq!(
            packed.slice_ascii(0, 5).unwrap_err(),
            SeqError::SliceOutOfBounds {
                start: 0,
                end: 5,
                len: 4
            }
        );
        // Inverted range.
        assert_eq!(
            packed.slice_ascii(3, 1).unwrap_err(),
            SeqError::SliceOutOfBounds {
                start: 3,
                end: 1,
                len: 4
            }
        );
        // Start beyond the end.
        assert!(packed.slice_ascii(5, 5).is_err());
        // Error message names the offending range.
        let msg = packed.slice_ascii(0, 5).unwrap_err().to_string();
        assert!(msg.contains("0..5"), "{msg}");
        assert!(msg.contains('4'), "{msg}");
    }

    #[test]
    fn packed_slice_view_bounds() {
        let packed = PackedDna::from_ascii(b"ACGTACGTGG").unwrap();
        assert!(packed.slice(0, 11).is_err());
        assert!(packed.slice(7, 3).is_err());
        let v = packed.slice(2, 7).unwrap();
        assert_eq!(v.len(), 5);
        assert_eq!(v.to_ascii(), b"GTACG");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        PackedDna::from_ascii(b"ACG").unwrap().get(3);
    }

    #[test]
    fn iter_yields_bases_in_order() {
        let packed = PackedDna::from_ascii(b"GATC").unwrap();
        let bases: Vec<Base> = packed.iter().collect();
        assert_eq!(bases, vec![Base::G, Base::A, Base::T, Base::C]);
    }

    #[test]
    fn packed_slice_subslice_is_unaligned_safe() {
        let packed = PackedDna::from_ascii(b"ACGTACGTGGAT").unwrap();
        let v = packed.as_slice();
        // Sub-slice starting off a byte boundary, then slice again.
        let w = v.slice(3, 11); // TACGTGGA
        assert_eq!(w.to_ascii(), b"TACGTGGA");
        let x = w.slice(2, 6); // CGTG
        assert_eq!(x.to_ascii(), b"CGTG");
        assert_eq!(x.code_at(0), Base::C.code());
        assert_eq!(x.get(3), Base::G);
        // Empty sub-slices at both ends.
        assert_eq!(w.slice(0, 0).len(), 0);
        assert!(w.slice(8, 8).is_empty());
    }

    #[test]
    fn packed_text_mirrors_store() {
        let store =
            crate::store::SequenceStore::from_ests(&[&b"ACGGT"[..], b"TTACG", b"GG"]).unwrap();
        let text = PackedText::from_store(&store);
        assert_eq!(text.num_strings(), store.num_strings());
        for sid in store.str_ids() {
            assert_eq!(text.slice(sid).to_ascii(), store.seq(sid));
            assert_eq!(text.slice(sid).len(), store.len_of(sid));
        }
        // 2 bits/base: packed words are a quarter of the stored text.
        assert_eq!(
            text.packed_bytes() - text.offsets.len() * 4,
            store.total_stored_chars().div_ceil(4)
        );
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(s in proptest::collection::vec(
            proptest::sample::select(vec![b'A', b'C', b'G', b'T']), 0..300)) {
            let packed = PackedDna::from_ascii(&s).unwrap();
            prop_assert_eq!(packed.to_ascii(), s.clone());
            // Every sub-slice unpacks to the matching ASCII range.
            let v = packed.as_slice();
            let third = s.len() / 3;
            let w = v.slice(third, s.len() - third);
            prop_assert_eq!(w.to_ascii(), s[third..s.len() - third].to_vec());
        }

        #[test]
        fn packed_text_random_store(ests in proptest::collection::vec(
            proptest::collection::vec(
                proptest::sample::select(vec![b'A', b'C', b'G', b'T']), 1..60), 1..12)) {
            let store = crate::store::SequenceStore::from_ests(&ests).unwrap();
            let text = PackedText::from_store(&store);
            for sid in store.str_ids() {
                prop_assert_eq!(text.slice(sid).to_ascii(), store.seq(sid).to_vec());
            }
        }
    }
}
