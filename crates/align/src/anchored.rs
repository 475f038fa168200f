//! Anchored alignment: extend a known maximal-common-substring match.
//!
//! This is the paper's Figure 5a. A promising pair arrives from the suffix
//! tree together with the coordinates of a shared substring (the anchor).
//! "Instead of aligning entire strings, we reduce work by merely extending
//! the already computed maximal substring match at both ends using gaps and
//! mismatches." Each side is extended with banded DP until one of the two
//! sequences is exhausted, so the result always spans to sequence ends and
//! classifies as one of the four accepted overlap patterns of Figure 5b.

use crate::banded::banded_extension_with;
use crate::overlap::{classify_overlap, decide, AcceptDecision, OverlapKind, OverlapParams};
use crate::scoring::Scoring;
use crate::view::SeqView;
use crate::workspace::AlignWorkspace;

/// A shared exact substring: `a[a_pos..a_pos+len] == b[b_pos..b_pos+len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// Start of the match in `a`.
    pub a_pos: usize,
    /// Start of the match in `b`.
    pub b_pos: usize,
    /// Length of the exact match.
    pub len: usize,
}

impl Anchor {
    /// Check the anchor against the actual sequences (debug aid).
    pub fn verify(&self, a: &[u8], b: &[u8]) -> bool {
        self.verify_on(a, b)
    }

    /// [`Anchor::verify`] over any [`SeqView`].
    pub fn verify_on<V: SeqView>(&self, a: V, b: V) -> bool {
        self.a_pos + self.len <= a.len()
            && self.b_pos + self.len <= b.len()
            && (0..self.len).all(|k| a.at(self.a_pos + k) == b.at(self.b_pos + k))
    }

    /// Upper bound on the overlap length reachable by extending this
    /// anchor with a band of half-width `radius`, measured on the longer
    /// side (the convention of [`AnchoredAlignment::overlap_len`]).
    ///
    /// Each extension can consume at most the remaining bases of one
    /// string, and the other string can run at most `radius` further
    /// (the band constraint). Since no alignment produced by
    /// [`align_anchored`] can exceed this bound, comparing it against
    /// the minimum-overlap accept threshold yields an *exactly lossless*
    /// prefilter: pairs rejected here could never have been accepted.
    pub fn max_overlap_reach(&self, a_len: usize, b_len: usize, radius: usize) -> usize {
        debug_assert!(self.a_pos + self.len <= a_len && self.b_pos + self.len <= b_len);
        // Left of the anchor: consumable prefix on each side.
        let left_a = self.a_pos.min(self.b_pos + radius);
        let left_b = self.b_pos.min(self.a_pos + radius);
        // Right of the anchor: consumable suffix on each side.
        let a_rem = a_len - self.a_pos - self.len;
        let b_rem = b_len - self.b_pos - self.len;
        let right_a = a_rem.min(b_rem + radius);
        let right_b = b_rem.min(a_rem + radius);
        self.len + left_a.max(left_b) + right_a.max(right_b)
    }
}

/// The outcome of extending an anchor across both sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchoredAlignment {
    /// Total score: left extension + anchor (all matches) + right extension.
    pub score: i32,
    /// Half-open overlap range in `a`.
    pub a_start: usize,
    /// End of the overlap range in `a`.
    pub a_end: usize,
    /// Half-open overlap range in `b`.
    pub b_start: usize,
    /// End of the overlap range in `b`.
    pub b_end: usize,
    /// Which of the four accepted patterns the overlap forms.
    pub kind: OverlapKind,
}

impl AnchoredAlignment {
    /// Length of the overlap region, measured on the longer side.
    pub fn overlap_len(&self) -> usize {
        (self.a_end - self.a_start).max(self.b_end - self.b_start)
    }
}

/// Extend `anchor` in both directions (Figure 5a).
///
/// `radius` is the DP band half-width: the number of insertions/deletions
/// tolerated between the two sequences on each side of the anchor.
///
/// Convenience wrapper that allocates a fresh workspace; hot paths use
/// [`align_anchored_with`].
pub fn align_anchored(
    a: &[u8],
    b: &[u8],
    anchor: Anchor,
    scoring: &Scoring,
    radius: usize,
) -> AnchoredAlignment {
    align_anchored_with(a, b, anchor, scoring, radius, &mut AlignWorkspace::new())
}

/// [`align_anchored`] over any [`SeqView`], reusing `ws` scratch.
///
/// The reversed anchor prefixes for the left extension are copied into
/// workspace-owned buffers so the DP scans contiguous forward slices
/// (a reversed-index adapter in the inner loop costs ~10% end to end) —
/// with a warm workspace the whole call still performs zero heap
/// allocations.
pub fn align_anchored_with<V: SeqView>(
    a: V,
    b: V,
    anchor: Anchor,
    scoring: &Scoring,
    radius: usize,
    ws: &mut AlignWorkspace,
) -> AnchoredAlignment {
    debug_assert!(anchor.verify_on(a, b), "anchor does not match sequences");

    // Left: align the reversed prefixes so the path is anchored at the
    // match start and runs toward the string starts. Taking the buffers
    // out of the workspace frees it for the extension call below.
    let (mut rev_a, mut rev_b) = ws.take_rev();
    rev_a.extend((0..anchor.a_pos).rev().map(|i| a.at(i)));
    rev_b.extend((0..anchor.b_pos).rev().map(|i| b.at(i)));
    let left = banded_extension_with(&rev_a[..], &rev_b[..], scoring, radius, ws);
    ws.put_rev(rev_a, rev_b);

    // Right: align the suffixes after the match.
    let a_right = a.slice(anchor.a_pos + anchor.len, a.len());
    let b_right = b.slice(anchor.b_pos + anchor.len, b.len());
    let right = banded_extension_with(a_right, b_right, scoring, radius, ws);

    let a_start = anchor.a_pos - left.a_consumed;
    let b_start = anchor.b_pos - left.b_consumed;
    let a_end = anchor.a_pos + anchor.len + right.a_consumed;
    let b_end = anchor.b_pos + anchor.len + right.b_consumed;
    let score = left.score + scoring.ideal(anchor.len) + right.score;

    let kind = classify_overlap(a.len(), b.len(), a_start..a_end, b_start..b_end);

    AnchoredAlignment {
        score,
        a_start,
        a_end,
        b_start,
        b_end,
        kind,
    }
}

/// Apply the accept criterion ([`crate::overlap::decide`]) to an anchored
/// alignment result.
pub fn decide_outcome(
    aln: &AnchoredAlignment,
    scoring: &Scoring,
    params: &OverlapParams,
) -> AcceptDecision {
    decide(aln.kind, aln.score, aln.overlap_len(), scoring, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn anchor_of(a: &[u8], b: &[u8]) -> Anchor {
        // Find some maximal exact match by brute force for test setup.
        let mut best = Anchor {
            a_pos: 0,
            b_pos: 0,
            len: 0,
        };
        for i in 0..a.len() {
            for j in 0..b.len() {
                let mut k = 0;
                while i + k < a.len() && j + k < b.len() && a[i + k] == b[j + k] {
                    k += 1;
                }
                if k > best.len {
                    best = Anchor {
                        a_pos: i,
                        b_pos: j,
                        len: k,
                    };
                }
            }
        }
        best
    }

    #[test]
    fn perfect_suffix_prefix_overlap() {
        //      AAAACCCCGGGG
        //          CCCCGGGGTTTT
        let a = b"AAAACCCCGGGG";
        let b = b"CCCCGGGGTTTT";
        let anchor = anchor_of(a, b);
        assert_eq!(anchor.len, 8);
        let s = Scoring::default_est();
        let aln = align_anchored(a, b, anchor, &s, 3);
        assert_eq!(aln.score, s.ideal(8));
        assert_eq!((aln.a_start, aln.a_end), (4, 12));
        assert_eq!((aln.b_start, aln.b_end), (0, 8));
        assert_eq!(aln.kind, OverlapKind::SuffixAPrefixB);
        assert_eq!(aln.overlap_len(), 8);
    }

    #[test]
    fn containment_is_detected() {
        let a = b"ACGTACGTACGTACGT";
        let b = b"TACGTACG"; // substring of a
        let anchor = anchor_of(a, b);
        assert_eq!(anchor.len, 8);
        let s = Scoring::default_est();
        let aln = align_anchored(a, b, anchor, &s, 2);
        assert_eq!(aln.kind, OverlapKind::ContainsB);
        assert_eq!(aln.score, s.ideal(8));
        assert_eq!(aln.b_start, 0);
        assert_eq!(aln.b_end, b.len());
    }

    #[test]
    fn extension_absorbs_errors() {
        // Same overlap as the perfect case but with a substitution and an
        // indel in the non-anchor part of the overlap.
        let a = b"AAATACCCCGGGG"; // 'T' substitution inside left flank
        let b = b"CCCCGGGGTTTT";
        let anchor = anchor_of(a, b); // CCCCGGGG
        let s = Scoring::default_est();
        let aln = align_anchored(a, b, anchor, &s, 3);
        // Anchor alone scores ideal(8); flanks contribute nothing here
        // because b starts exactly at the anchor.
        assert_eq!(aln.kind, OverlapKind::SuffixAPrefixB);
        assert!(aln.score >= s.ideal(8));
    }

    #[test]
    fn identical_strings_full_overlap() {
        let a = b"GATTACAGATTACA";
        let anchor = Anchor {
            a_pos: 0,
            b_pos: 0,
            len: a.len(),
        };
        let s = Scoring::default_est();
        let aln = align_anchored(a, a, anchor, &s, 2);
        assert_eq!(aln.score, s.ideal(a.len()));
        // Full mutual containment classifies as one of the containment kinds.
        assert!(matches!(
            aln.kind,
            OverlapKind::ContainsB | OverlapKind::ContainedInB
        ));
    }

    #[test]
    fn anchor_verify_rejects_bogus() {
        assert!(!Anchor {
            a_pos: 0,
            b_pos: 0,
            len: 3
        }
        .verify(b"AAA", b"TTT"));
        assert!(Anchor {
            a_pos: 1,
            b_pos: 0,
            len: 2
        }
        .verify(b"TAA", b"AA"));
    }

    #[test]
    fn max_reach_bounds_simple_cases() {
        // Dovetail: anchor at the junction, radius 0.
        let anchor = Anchor {
            a_pos: 4,
            b_pos: 0,
            len: 8,
        };
        // At radius 0 nothing can run past the partner string: b has no
        // prefix left of the anchor and a no suffix right of it.
        assert_eq!(anchor.max_overlap_reach(12, 12, 0), 8);
        // With a band, each side can run `radius` bases past the other.
        assert_eq!(anchor.max_overlap_reach(12, 12, 3), 8 + 3 + 3);
        // An anchor spanning both full strings reaches exactly their length.
        let full = Anchor {
            a_pos: 0,
            b_pos: 0,
            len: 12,
        };
        assert_eq!(full.max_overlap_reach(12, 12, 5), 12);
    }

    fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
            min..max,
        )
    }

    proptest! {
        /// Construct overlapping reads from a common template; the anchored
        /// alignment must recover an overlap spanning to the sequence ends
        /// and never exceed the ideal score of the longer overlap side.
        #[test]
        fn anchored_overlap_well_formed(
            template in dna(30, 60),
            cut in 5usize..25,
        ) {
            let a = &template[..template.len() - cut];
            let b = &template[cut.min(template.len())..];
            let anchor = anchor_of(a, b);
            prop_assume!(anchor.len >= 5);
            let s = Scoring::default_est();
            let aln = align_anchored(a, b, anchor, &s, 3);
            prop_assert!(aln.a_start <= aln.a_end && aln.a_end <= a.len());
            prop_assert!(aln.b_start <= aln.b_end && aln.b_end <= b.len());
            prop_assert!(aln.score <= s.ideal(aln.overlap_len()));
            // The anchor itself always contributes its ideal score; the
            // flank extensions can only add or subtract bounded amounts.
            prop_assert!(aln.a_start <= anchor.a_pos && anchor.a_pos + anchor.len <= aln.a_end);
            prop_assert!(aln.b_start <= anchor.b_pos && anchor.b_pos + anchor.len <= aln.b_end);
            // The overlap must touch one start and one end.
            prop_assert!(aln.a_start == 0 || aln.b_start == 0);
            prop_assert!(aln.a_end == a.len() || aln.b_end == b.len());
        }

        /// The geometric reach bound is never exceeded by the actual
        /// alignment — the losslessness guarantee of the prefilter.
        #[test]
        fn max_reach_dominates_actual_overlap(
            a in dna(10, 50),
            b in dna(10, 50),
            radius in 0usize..5,
        ) {
            let anchor = anchor_of(&a, &b);
            prop_assume!(anchor.len >= 1);
            let s = Scoring::default_est();
            let aln = align_anchored(&a, &b, anchor, &s, radius);
            let bound = anchor.max_overlap_reach(a.len(), b.len(), radius);
            prop_assert!(
                aln.overlap_len() <= bound,
                "overlap {} exceeds reach bound {}",
                aln.overlap_len(),
                bound
            );
        }
    }
}
