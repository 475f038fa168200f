//! Pairwise sequence alignment for EST overlap detection.
//!
//! The clustering engine never aligns whole strings blindly. As the paper
//! describes (Figure 5a), a promising pair arrives with an already-known
//! *maximal common substring* match; [`anchored`] merely **extends that
//! match at both ends** with gaps and mismatches, using **banded** dynamic
//! programming ([`banded`]) so the work is proportional to the overlap
//! length times the band width rather than the product of the string
//! lengths. The result is classified against the four accepted overlap
//! patterns of Figure 5b ([`overlap`]); only those, with score above a
//! threshold, count as evidence to merge clusters.
//!
//! A full-matrix global aligner, [`nw`] (Needleman–Wunsch with Gotoh
//! affine gaps), is also provided: the splice scan uses its traceback,
//! and the banded kernel is property-tested against its score. The
//! traditional baseline clusterer aligns with [`align_anchored`] like
//! the engine does.
//!
//! ```
//! use pace_align::{align_anchored, decide_outcome, Anchor, OverlapParams, Scoring};
//!
//! // Two reads overlapping dovetail-style on "CCCCGGGG".
//! let a = b"AAAACCCCGGGG";
//! let b = b"CCCCGGGGTTTT";
//! let anchor = Anchor { a_pos: 4, b_pos: 0, len: 8 };
//! let scoring = Scoring::default_est();
//!
//! let aln = align_anchored(a, b, anchor, &scoring, 4);
//! assert_eq!(aln.score, scoring.ideal(8));
//!
//! let params = OverlapParams { min_score_ratio: 0.8, min_overlap_len: 8 };
//! assert!(decide_outcome(&aln, &scoring, &params).accepted);
//! ```

pub mod anchored;
pub mod banded;
pub mod myers;
pub mod nw;
pub mod overlap;
pub mod scoring;
pub mod view;
pub mod workspace;

pub use anchored::{
    align_anchored, align_anchored_with, decide_outcome, Anchor, AnchoredAlignment,
};
pub use banded::{banded_extension, banded_extension_with, banded_global_score};
pub use banded::{banded_global_score_with, ExtensionResult};
pub use myers::{
    align_anchored_myers_with, myers_banded_distance, myers_banded_distance_with,
    myers_banded_extension, myers_banded_extension_with, MYERS_MAX_RADIUS,
};
pub use nw::{global_align, global_score, global_score_with, AlignOp, Alignment};
pub use overlap::{classify_overlap, AcceptDecision, OverlapKind, OverlapParams};
pub use scoring::Scoring;
pub use view::{Rev, SeqView};
pub use workspace::AlignWorkspace;
