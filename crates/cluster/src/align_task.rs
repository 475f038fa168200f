//! The per-pair alignment task slaves execute.
//!
//! The hot path is [`AlignContext`]: one per rank, owning the DP
//! workspace (so a slave allocates its band and row buffers once, not
//! once per pair) and the optional 2-bit packed view of the store. Its
//! one veto before any DP is the lossless anchor-geometry bound.
//! [`align_pair`] remains as the single-shot convenience used by tests
//! and tools.

use crate::config::ClusterConfig;
use pace_align::{
    align_anchored_myers_with, align_anchored_with, decide_outcome, AlignWorkspace, Anchor, SeqView,
};
use pace_pairgen::CandidatePair;
use pace_seq::{PackedText, SequenceStore};

/// Result of aligning one promising pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairOutcome {
    /// The pair that was aligned.
    pub pair: CandidatePair,
    /// Whether the alignment is merge evidence (pattern + score passed).
    pub accepted: bool,
    /// Achieved score / ideal score of the overlap region.
    pub score_ratio: f64,
}

/// Per-rank alignment state: sequences, reusable DP scratch, counters.
///
/// A context lives for a whole rank (or a whole sequential run) and is
/// threaded through every batch, so the banded/row buffers inside its
/// [`AlignWorkspace`] are allocated once and only ever *grow* to the
/// largest pair seen. [`AlignContext::pairs_handled`] therefore counts
/// exactly the pairs served without per-pair heap allocation — the
/// number the smoke benchmark checks against `pairs.processed`.
pub struct AlignContext<'s> {
    store: &'s SequenceStore,
    /// 2-bit packed mirror of the store; `Some` routes the kernels over
    /// packed codes instead of ASCII bytes (identical scores).
    packed: Option<&'s PackedText>,
    ws: AlignWorkspace,
    pairs_handled: u64,
    pairs_prefiltered: u64,
}

impl<'s> AlignContext<'s> {
    /// A context over `store`, optionally aligning on `packed` codes.
    pub fn new(store: &'s SequenceStore, packed: Option<&'s PackedText>) -> Self {
        AlignContext {
            store,
            packed,
            ws: AlignWorkspace::new(),
            pairs_handled: 0,
            pairs_prefiltered: 0,
        }
    }

    /// The store this context aligns against.
    pub fn store(&self) -> &'s SequenceStore {
        self.store
    }

    /// Pairs served by this context (every [`align`](Self::align) call).
    pub fn pairs_handled(&self) -> u64 {
        self.pairs_handled
    }

    /// Pairs rejected by the geometry bound without any DP.
    pub fn pairs_prefiltered(&self) -> u64 {
        self.pairs_prefiltered
    }

    /// Workspace resets performed so far (diagnostic; see
    /// [`AlignWorkspace::uses`]).
    pub fn workspace_uses(&self) -> u64 {
        self.ws.uses()
    }

    /// Align `pair` by extending its maximal-common-substring anchor in
    /// both directions with banded DP (Figure 5a) and applying the
    /// accept criterion against the four patterns of Figure 5b.
    ///
    /// Before any DP runs, the *lossless* geometry bound
    /// ([`Anchor::max_overlap_reach`]) gets a veto: if even a maximally
    /// gapped extension cannot reach `overlap.min_overlap_len`, the pair
    /// is rejected outright. The bound is an upper bound on the
    /// achievable overlap (property-tested in `pace-align`), so the veto
    /// never changes a decision.
    ///
    /// Prefiltered pairs still produce a (rejected) [`PairOutcome`], so
    /// flow conservation over processed pairs is unchanged.
    pub fn align(&mut self, pair: &CandidatePair, cfg: &ClusterConfig) -> PairOutcome {
        self.pairs_handled += 1;
        let anchor = Anchor {
            a_pos: pair.off1 as usize,
            b_pos: pair.off2 as usize,
            len: pair.mcs_len as usize,
        };
        let (a_len, b_len) = (self.store.len_of(pair.s1), self.store.len_of(pair.s2));
        if anchor.max_overlap_reach(a_len, b_len, cfg.band_radius) < cfg.overlap.min_overlap_len {
            self.pairs_prefiltered += 1;
            return PairOutcome {
                pair: *pair,
                accepted: false,
                score_ratio: 0.0,
            };
        }
        match self.packed {
            Some(text) => extend_and_decide(
                text.slice(pair.s1),
                text.slice(pair.s2),
                anchor,
                pair,
                cfg,
                &mut self.ws,
            ),
            None => extend_and_decide(
                self.store.seq(pair.s1),
                self.store.seq(pair.s2),
                anchor,
                pair,
                cfg,
                &mut self.ws,
            ),
        }
    }
}

/// Representation-generic tail of the task: anchored extension, then
/// the accept decision.
fn extend_and_decide<V: SeqView>(
    a: V,
    b: V,
    anchor: Anchor,
    pair: &CandidatePair,
    cfg: &ClusterConfig,
    ws: &mut AlignWorkspace,
) -> PairOutcome {
    let aln = if cfg.myers_alignment {
        // The bit-parallel kernel declines (returns None) when the
        // scoring is not edit-convertible or the radius exceeds its
        // one-word cap; fall back to the scalar band in that case.
        match align_anchored_myers_with(a, b, anchor, &cfg.scoring, cfg.band_radius, ws) {
            Some(aln) => aln,
            None => align_anchored_with(a, b, anchor, &cfg.scoring, cfg.band_radius, ws),
        }
    } else {
        align_anchored_with(a, b, anchor, &cfg.scoring, cfg.band_radius, ws)
    };
    let decision = decide_outcome(&aln, &cfg.scoring, &cfg.overlap);
    PairOutcome {
        pair: *pair,
        accepted: decision.accepted,
        score_ratio: decision.ratio,
    }
}

/// Align one pair with a throwaway context (tests, tools, baselines).
/// Hot paths keep an [`AlignContext`] alive across batches instead.
pub fn align_pair(store: &SequenceStore, pair: &CandidatePair, cfg: &ClusterConfig) -> PairOutcome {
    AlignContext::new(store, None).align(pair, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_seq::{EstId, Strand};

    fn pair_of(ests: &[&[u8]], psi: u32, w: usize) -> (SequenceStore, Vec<CandidatePair>) {
        let store = SequenceStore::from_ests(ests).unwrap();
        let forest = pace_gst::build_sequential(&store, w);
        let mut g = pace_pairgen::PairGenerator::new(
            &store,
            &forest,
            pace_pairgen::PairGenConfig::new(psi),
        );
        let pairs = g.generate_all();
        (store, pairs)
    }

    /// Deterministic pseudorandom DNA (LCG), aperiodic enough to give a
    /// unique anchor.
    fn lcg_dna(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                [b'A', b'C', b'G', b'T'][(x >> 33) as usize % 4]
            })
            .collect()
    }

    #[test]
    fn clean_overlap_is_accepted() {
        // 40-base overlap between the two reads, no errors.
        let template = lcg_dna(12345, 100);
        let a = &template[..70];
        let b = &template[30..];
        let (store, pairs) = pair_of(&[a, b], 12, 4);
        assert!(!pairs.is_empty());
        let mut cfg = ClusterConfig::small();
        cfg.overlap.min_overlap_len = 30;
        let accepted = pairs
            .iter()
            .map(|p| align_pair(&store, p, &cfg))
            .any(|o| o.accepted);
        assert!(accepted, "clean 40-base overlap must be accepted");
    }

    #[test]
    fn spurious_short_match_is_rejected() {
        // Two unrelated reads sharing only a short planted word; the
        // flanks are independent pseudorandom DNA (low-complexity flanks
        // such as poly-A would legitimately align across strands).
        let mut a = lcg_dna(71, 30);
        a.extend_from_slice(b"GGGGCCCCGGGG");
        a.extend(lcg_dna(72, 30));
        let mut b = lcg_dna(73, 30);
        b.extend_from_slice(b"GGGGCCCCGGGG");
        b.extend(lcg_dna(74, 30));
        let (store, pairs) = pair_of(&[&a, &b], 8, 4);
        let cfg = ClusterConfig::small();
        for p in &pairs {
            if p.est_indices() == (0, 1) {
                let o = align_pair(&store, p, &cfg);
                assert!(!o.accepted, "internal repeat must not be merge evidence");
            }
        }
    }

    #[test]
    fn outcome_carries_pair_identity() {
        let template = lcg_dna(999, 80);
        let (store, pairs) = pair_of(&[&template[..60], &template[20..]], 12, 4);
        let cfg = ClusterConfig::small();
        for p in &pairs {
            let o = align_pair(&store, p, &cfg);
            assert_eq!(o.pair, *p);
            assert_eq!(o.pair.s1.est().min(o.pair.s2.est()), EstId(0));
            assert_eq!(o.pair.s1.strand(), Strand::Forward);
            assert!((0.0..=1.0 + 1e-9).contains(&o.score_ratio));
        }
    }

    #[test]
    fn context_reuse_matches_single_shot() {
        // One context serving every pair must decide exactly like a
        // fresh context per pair, on both representations.
        let template = lcg_dna(4242, 150);
        let (store, pairs) = pair_of(
            &[&template[..90], &template[40..120], &template[70..]],
            12,
            4,
        );
        assert!(!pairs.is_empty());
        let cfg = ClusterConfig::small();
        let packed = PackedText::from_store(&store);

        let mut ascii_ctx = AlignContext::new(&store, None);
        let mut packed_ctx = AlignContext::new(&store, Some(&packed));
        for p in &pairs {
            let single = align_pair(&store, p, &cfg);
            assert_eq!(ascii_ctx.align(p, &cfg), single);
            assert_eq!(packed_ctx.align(p, &cfg), single);
        }
        assert_eq!(ascii_ctx.pairs_handled(), pairs.len() as u64);
        assert_eq!(packed_ctx.pairs_handled(), pairs.len() as u64);
    }

    #[test]
    fn geometry_prefilter_rejects_unreachable_overlaps() {
        // Tiny anchor at opposite extremes of two long reads: the
        // required overlap is unreachable, so no DP should run.
        let mut a = lcg_dna(7, 60);
        a.extend_from_slice(b"ACGTACGTACGT");
        let mut b = b"ACGTACGTACGT".to_vec();
        b.extend(lcg_dna(8, 60));
        let store = SequenceStore::from_ests(&[&a, &b]).unwrap();
        let pair = CandidatePair {
            s1: EstId(0).str_id(Strand::Forward),
            s2: EstId(1).str_id(Strand::Forward),
            off1: 60,
            off2: 0,
            mcs_len: 12,
        };
        let mut cfg = ClusterConfig::small();
        cfg.overlap.min_overlap_len = 60; // reach is 12 + radius slack only
        cfg.band_radius = 4;

        let mut ctx = AlignContext::new(&store, None);
        let o = ctx.align(&pair, &cfg);
        assert!(!o.accepted);
        assert_eq!(ctx.pairs_prefiltered(), 1);
        assert_eq!(ctx.workspace_uses(), 0, "prefiltered pair must skip DP");

        // The veto must be lossless: the full DP on the same anchor
        // reaches the same *decision* (the ratio may differ — a
        // prefiltered pair reports 0.0 without computing one).
        let anchor = Anchor {
            a_pos: 60,
            b_pos: 0,
            len: 12,
        };
        let aln = pace_align::align_anchored(&a, &b, anchor, &cfg.scoring, cfg.band_radius);
        assert!(!decide_outcome(&aln, &cfg.scoring, &cfg.overlap).accepted);
    }

    #[test]
    fn myers_path_decides_like_scalar_path() {
        // Same pairs, same (edit-convertible) scoring: the bit-parallel
        // kernel must reproduce the scalar outcomes exactly, on both the
        // ASCII and packed representations.
        let template = lcg_dna(2026, 160);
        let (store, pairs) = pair_of(
            &[&template[..95], &template[45..130], &template[80..]],
            12,
            4,
        );
        assert!(!pairs.is_empty());
        let mut scalar_cfg = ClusterConfig::small();
        scalar_cfg.scoring = pace_align::Scoring::edit_linear();
        let mut myers_cfg = scalar_cfg.clone();
        myers_cfg.myers_alignment = true;
        myers_cfg.validate().expect("edit_linear is convertible");
        let packed = PackedText::from_store(&store);

        let mut scalar_ctx = AlignContext::new(&store, None);
        let mut myers_ctx = AlignContext::new(&store, None);
        let mut myers_packed_ctx = AlignContext::new(&store, Some(&packed));
        for p in &pairs {
            let want = scalar_ctx.align(p, &scalar_cfg);
            assert_eq!(myers_ctx.align(p, &myers_cfg), want);
            assert_eq!(myers_packed_ctx.align(p, &myers_cfg), want);
        }
    }
}
