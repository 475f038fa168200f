//! Packed-vs-ASCII equivalence: every alignment kernel must produce
//! *identical* results whether it reads plain ASCII bytes or the 2-bit
//! packed codes of `pace-seq`, across random EST pairs, band radii and
//! anchors — and reusing one `AlignWorkspace` across many calls must
//! never change any answer. This is the correctness keel for running
//! the clustering hot path directly over packed sequences.

use pace_align::{
    align_anchored_with, banded_extension_with, banded_global_score_with, global_score_with,
    AlignWorkspace, Anchor, Scoring,
};
use pace_seq::PackedDna;
use proptest::prelude::*;

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        min..max,
    )
}

/// Longest exact common substring by brute force (test-side anchor).
fn anchor_of(a: &[u8], b: &[u8]) -> Anchor {
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

/// Overlapping read pair from a shared template with some noise, so the
/// generator exercises realistic EST geometry, not just random strings.
fn overlapping_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (dna(30, 80), 3usize..20, any::<u64>()).prop_map(|(template, cut, noise)| {
        let cut = cut.min(template.len() / 3);
        let mut a = template[..template.len() - cut].to_vec();
        let b = template[cut..].to_vec();
        // One deterministic substitution inside `a`.
        if !a.is_empty() {
            let pos = (noise as usize) % a.len();
            a[pos] = match a[pos] {
                b'A' => b'C',
                b'C' => b'G',
                b'G' => b'T',
                _ => b'A',
            };
        }
        (a, b)
    })
}

proptest! {
    /// Banded global + extension: packed equals ASCII cell for cell.
    #[test]
    fn banded_kernels_agree(a in dna(0, 60), b in dna(0, 60), radius in 0usize..9) {
        let s = Scoring::default_est();
        let pa = PackedDna::from_ascii(&a).unwrap();
        let pb = PackedDna::from_ascii(&b).unwrap();
        let mut ws_ascii = AlignWorkspace::new();
        let mut ws_packed = AlignWorkspace::new();

        prop_assert_eq!(
            banded_global_score_with(&a[..], &b[..], &s, radius, &mut ws_ascii),
            banded_global_score_with(pa.as_slice(), pb.as_slice(), &s, radius, &mut ws_packed)
        );
        prop_assert_eq!(
            banded_extension_with(&a[..], &b[..], &s, radius, &mut ws_ascii),
            banded_extension_with(pa.as_slice(), pb.as_slice(), &s, radius, &mut ws_packed)
        );
    }

    /// The full-matrix kernel agrees on both representations, sharing
    /// one workspace per representation.
    #[test]
    fn full_matrix_kernels_agree(a in dna(0, 50), b in dna(0, 50)) {
        let s = Scoring::default_est();
        let pa = PackedDna::from_ascii(&a).unwrap();
        let pb = PackedDna::from_ascii(&b).unwrap();
        let mut ws_ascii = AlignWorkspace::new();
        let mut ws_packed = AlignWorkspace::new();

        prop_assert_eq!(
            global_score_with(&a[..], &b[..], &s, &mut ws_ascii),
            global_score_with(pa.as_slice(), pb.as_slice(), &s, &mut ws_packed)
        );
    }

    /// The production kernel: anchored extension over realistic
    /// overlapping pairs, all band radii — identical scores, coordinates
    /// and overlap kinds on both representations.
    #[test]
    fn anchored_alignment_agrees(
        pair in overlapping_pair(),
        radius in 0usize..7,
    ) {
        let (a, b) = pair;
        let anchor = anchor_of(&a, &b);
        prop_assume!(anchor.len >= 3);
        let s = Scoring::default_est();
        let pa = PackedDna::from_ascii(&a).unwrap();
        let pb = PackedDna::from_ascii(&b).unwrap();
        let mut ws_ascii = AlignWorkspace::new();
        let mut ws_packed = AlignWorkspace::new();

        let aln_ascii = align_anchored_with(&a[..], &b[..], anchor, &s, radius, &mut ws_ascii);
        let aln_packed =
            align_anchored_with(pa.as_slice(), pb.as_slice(), anchor, &s, radius, &mut ws_packed);
        prop_assert_eq!(aln_ascii, aln_packed);
    }

    /// Workspace reuse never changes an answer: a single workspace
    /// serving a whole batch of pairs produces exactly what fresh
    /// workspaces produce pair by pair.
    #[test]
    fn workspace_reuse_is_stateless(
        pairs in proptest::collection::vec((dna(0, 40), dna(0, 40)), 1..12),
        radius in 0usize..6,
    ) {
        let s = Scoring::default_est();
        let mut shared = AlignWorkspace::new();
        for (a, b) in &pairs {
            let with_shared =
                banded_global_score_with(&a[..], &b[..], &s, radius, &mut shared);
            let with_fresh =
                banded_global_score_with(&a[..], &b[..], &s, radius, &mut AlignWorkspace::new());
            prop_assert_eq!(with_shared, with_fresh);

            let ext_shared = banded_extension_with(&a[..], &b[..], &s, radius, &mut shared);
            let ext_fresh =
                banded_extension_with(&a[..], &b[..], &s, radius, &mut AlignWorkspace::new());
            prop_assert_eq!(ext_shared, ext_fresh);

            let g_shared = global_score_with(&a[..], &b[..], &s, &mut shared);
            let g_fresh = global_score_with(&a[..], &b[..], &s, &mut AlignWorkspace::new());
            prop_assert_eq!(g_shared, g_fresh);
        }
        // The full-matrix kernel always resets the workspace; the banded
        // ones may bail out early (band too narrow, empty side), so one
        // reset per pair is guaranteed.
        prop_assert!(shared.uses() >= pairs.len() as u64);
    }
}
