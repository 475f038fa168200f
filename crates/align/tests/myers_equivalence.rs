//! Myers-vs-scalar equivalence: for every edit-convertible scoring
//! scheme, the bit-parallel banded kernel must be *score-identical* to
//! the scalar banded kernel — same extension scores, same consumed
//! lengths, same tie-breaks, same anchored alignments — across random
//! sequences, band radii, and both the ASCII and 2-bit packed
//! representations. This is the correctness keel that lets the
//! clustering engine swap kernels based on a config flag alone.

use pace_align::{
    align_anchored_myers_with, align_anchored_with, banded_extension_with,
    banded_global_score_with, myers_banded_distance_with, myers_banded_extension_with,
    AlignWorkspace, Anchor, Scoring, MYERS_MAX_RADIUS,
};
use pace_seq::PackedDna;
use proptest::prelude::*;

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        min..max,
    )
}

/// The edit-convertible schemes the engine may run the Myers kernel
/// under; every test property must hold for all of them.
fn convertible_scorings() -> impl Strategy<Value = Scoring> {
    proptest::sample::select(vec![
        Scoring::edit_linear(),      // c = 2
        Scoring::linear(4, -1, -3),  // c = 5
        Scoring::linear(6, -3, -6),  // c = 9
        Scoring::linear(10, -2, -7), // c = 12
    ])
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

/// Overlapping read pair from a shared template with one substitution,
/// mirroring the generator in `packed_equivalence.rs`.
fn overlapping_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (dna(30, 80), 3usize..20, any::<u64>()).prop_map(|(template, cut, noise)| {
        let cut = cut.min(template.len() / 3);
        let mut a = template[..template.len() - cut].to_vec();
        let b = template[cut..].to_vec();
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
    /// The core identity: the bit-parallel extension equals the scalar
    /// banded extension on every input — score, consumed lengths, and
    /// tie-breaking — for every convertible scoring scheme.
    #[test]
    fn extension_is_score_identical(
        a in dna(0, 60),
        b in dna(0, 60),
        radius in 0usize..9,
        s in convertible_scorings(),
    ) {
        let mut ws_fast = AlignWorkspace::new();
        let mut ws_slow = AlignWorkspace::new();
        let fast = myers_banded_extension_with(&a[..], &b[..], &s, radius, &mut ws_fast)
            .expect("convertible scoring within the radius cap must engage");
        let slow = banded_extension_with(&a[..], &b[..], &s, radius, &mut ws_slow);
        prop_assert_eq!(fast, slow);
    }

    /// Banded global score through the distance lens: converting the
    /// bit-parallel banded distance must reproduce the scalar banded
    /// global score cell (la, lb) exactly, including the None band gap.
    #[test]
    fn distance_converts_to_global_score(
        a in dna(0, 60),
        b in dna(0, 60),
        radius in 0usize..9,
        s in convertible_scorings(),
    ) {
        let c = s.edit_unit_cost().unwrap();
        let mut ws = AlignWorkspace::new();
        let dist = myers_banded_distance_with(&a[..], &b[..], radius, &mut ws);
        let score = banded_global_score_with(&a[..], &b[..], &s, radius, &mut ws);
        match (dist, score) {
            (Some(d), Some(v)) => {
                let total = (a.len() + b.len()) as i64;
                prop_assert_eq!(
                    v as i64,
                    (s.match_score as i64 * total - 2 * c as i64 * d as i64) / 2
                );
            }
            (None, None) => {}
            other => prop_assert!(false, "eligibility mismatch: {:?}", other),
        }
    }

    /// Packed and ASCII views agree bit for bit through the Myers kernel,
    /// and both agree with the scalar kernel.
    #[test]
    fn packed_and_ascii_views_agree(
        a in dna(0, 60),
        b in dna(0, 60),
        radius in 0usize..9,
        s in convertible_scorings(),
    ) {
        let pa = PackedDna::from_ascii(&a).unwrap();
        let pb = PackedDna::from_ascii(&b).unwrap();
        let mut ws_ascii = AlignWorkspace::new();
        let mut ws_packed = AlignWorkspace::new();

        let ext_ascii = myers_banded_extension_with(&a[..], &b[..], &s, radius, &mut ws_ascii);
        let ext_packed =
            myers_banded_extension_with(pa.as_slice(), pb.as_slice(), &s, radius, &mut ws_packed);
        prop_assert_eq!(ext_ascii, ext_packed);
        prop_assert_eq!(
            ext_ascii.unwrap(),
            banded_extension_with(&a[..], &b[..], &s, radius, &mut ws_ascii)
        );

        prop_assert_eq!(
            myers_banded_distance_with(&a[..], &b[..], radius, &mut ws_ascii),
            myers_banded_distance_with(pa.as_slice(), pb.as_slice(), radius, &mut ws_packed)
        );
    }

    /// The production path: anchored alignment over realistic
    /// overlapping pairs — the Myers twin reproduces the scalar result
    /// exactly (score, coordinates, overlap kind) on both views.
    #[test]
    fn anchored_myers_is_identical(
        pair in overlapping_pair(),
        radius in 0usize..7,
        s in convertible_scorings(),
    ) {
        let (a, b) = pair;
        let anchor = anchor_of(&a, &b);
        prop_assume!(anchor.len >= 3);
        let pa = PackedDna::from_ascii(&a).unwrap();
        let pb = PackedDna::from_ascii(&b).unwrap();
        let mut ws = AlignWorkspace::new();

        let scalar = align_anchored_with(&a[..], &b[..], anchor, &s, radius, &mut ws);
        let fast = align_anchored_myers_with(&a[..], &b[..], anchor, &s, radius, &mut ws)
            .expect("convertible scoring must engage");
        prop_assert_eq!(fast, scalar);

        let fast_packed =
            align_anchored_myers_with(pa.as_slice(), pb.as_slice(), anchor, &s, radius, &mut ws)
                .expect("packed view must engage identically");
        prop_assert_eq!(fast_packed, scalar);
    }

    /// Workspace reuse never changes an answer, and interleaving Myers
    /// calls with scalar banded calls on one workspace is harmless.
    #[test]
    fn workspace_reuse_is_stateless(
        pairs in proptest::collection::vec((dna(0, 40), dna(0, 40)), 1..10),
        radius in 0usize..6,
    ) {
        let s = Scoring::edit_linear();
        let mut shared = AlignWorkspace::new();
        for (a, b) in &pairs {
            let with_shared =
                myers_banded_extension_with(&a[..], &b[..], &s, radius, &mut shared);
            // Interleave a scalar call to dirty the band scratch.
            let _ = banded_extension_with(&a[..], &b[..], &s, radius, &mut shared);
            let with_fresh =
                myers_banded_extension_with(&a[..], &b[..], &s, radius, &mut AlignWorkspace::new());
            prop_assert_eq!(with_shared, with_fresh);
        }
    }

    /// Ineligible configurations always decline instead of guessing:
    /// non-convertible scorings and over-cap radii return None.
    #[test]
    fn ineligible_configs_decline(a in dna(1, 30), b in dna(1, 30)) {
        let mut ws = AlignWorkspace::new();
        prop_assert_eq!(
            myers_banded_extension_with(&a[..], &b[..], &Scoring::default_est(), 3, &mut ws),
            None
        );
        prop_assert_eq!(
            myers_banded_extension_with(
                &a[..], &b[..], &Scoring::edit_linear(), MYERS_MAX_RADIUS + 1, &mut ws),
            None
        );
    }
}
