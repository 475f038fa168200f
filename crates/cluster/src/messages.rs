//! The master–slave message protocol.

use crate::align_task::PairOutcome;
use pace_pairgen::CandidatePair;

/// A worker's end-of-run accounting, sent to the master as a
/// [`Msg::Summary`] after its `Shutdown`. Worker threads and worker
/// processes alike record into a registry of their own, so this message
/// is the only way what a worker measured reaches the run's registry:
/// the master records it on the worker's behalf.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerSummary {
    /// Promising pairs the worker's generator emitted.
    pub gen_emitted: u64,
    /// Pairs still buffered at shutdown, in `PAIRBUF` or inside the
    /// generator.
    pub unconsumed: u64,
    /// Pairs rejected by the lossless geometry bound without any DP.
    pub prefiltered: u64,
    /// Pairs served through the reused alignment workspace.
    pub ws_reuses: u64,
    /// Seconds in the partitioning phase.
    pub partitioning: f64,
    /// Seconds building this worker's subtrees.
    pub gst_construction: f64,
    /// Seconds in generator setup (node collection + sort).
    pub node_sorting: f64,
    /// Seconds inside the generator's `next_batch` calls.
    pub pair_generation: f64,
    /// Seconds of each non-empty alignment batch, in order: the worker's
    /// `align_batch` series. Their sum is its `alignment` total.
    pub align_batches: Vec<f64>,
    /// Emitted pairs by maximal-common-substring length, as
    /// `(length, pairs)` in ascending length.
    pub mcs_len: Vec<(u32, u64)>,
    /// Most pairs the worker's generator held buffered at once.
    pub peak_buffered: u64,
    /// Heap bytes of the worker's generator when it stopped.
    pub pairgen_memory_bytes: u64,
    /// Nodes of the worker's in-scope forest.
    pub gst_nodes: u64,
    /// Subtrees of that forest.
    pub gst_subtrees: u64,
    /// String depth of that forest's deepest node.
    pub gst_max_depth: u32,
    /// Heap bytes of that forest.
    pub gst_memory_bytes: u64,
    /// Messages this worker's rank dropped under the fault plan.
    pub injected_drops: u64,
    /// Messages this worker's rank delayed under the fault plan.
    pub injected_delays: u64,
    /// Stalls this worker's rank slept under the fault plan.
    pub injected_stalls: u64,
}

/// Messages flowing in either direction (the mpisim channel is typed with
/// this single enum).
///
/// `Work` and `Report` carry a per-slave batch sequence number so the
/// protocol survives loss and duplication: the master only sends a new
/// sequence once the previous one's report has arrived, re-sends an
/// unanswered `Work` under the *same* sequence number, and a slave
/// answers a duplicate `Work` by re-sending its cached report instead of
/// aligning anything twice. The slave's unsolicited startup report is
/// sequence 0; fresh master batches count from 1.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Slave → master: alignment results plus freshly generated pairs.
    Report {
        /// Sequence number of the `Work` this answers (0 = startup).
        seq: u64,
        /// Outcomes of the most recent batch of alignments (`R`).
        results: Vec<PairOutcome>,
        /// Promising pairs generated on demand (`P`).
        pairs: Vec<CandidatePair>,
        /// The slave's generator (and `PAIRBUF`) is empty — it cannot
        /// supply more pairs, ever.
        exhausted: bool,
    },
    /// Master → slave: work to align plus the next pair request size.
    Work {
        /// Per-slave batch sequence number (0 = probe for a lost
        /// startup report; re-sent batches reuse their original value).
        seq: u64,
        /// Pairs to align (`W ≤ batchsize`).
        pairs: Vec<CandidatePair>,
        /// How many pairs to include in the next report (`E`).
        request: usize,
    },
    /// Master → slave: everything is done, terminate.
    Shutdown,
    /// Slave → master, after `Shutdown`: the worker's final accounting.
    Summary(WorkerSummary),
}

impl Msg {
    /// Debug label for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Report { .. } => "Report",
            Msg::Work { .. } => "Work",
            Msg::Shutdown => "Shutdown",
            Msg::Summary(_) => "Summary",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds() {
        assert_eq!(
            Msg::Report {
                seq: 0,
                results: vec![],
                pairs: vec![],
                exhausted: false
            }
            .kind(),
            "Report"
        );
        assert_eq!(
            Msg::Work {
                seq: 1,
                pairs: vec![],
                request: 0
            }
            .kind(),
            "Work"
        );
        assert_eq!(Msg::Shutdown.kind(), "Shutdown");
        assert_eq!(Msg::Summary(WorkerSummary::default()).kind(), "Summary");
    }
}
