//! The master–slave message protocol.

use crate::align_task::PairOutcome;
use crate::trace::MergeRecord;
use pace_pairgen::CandidatePair;

/// A worker's end-of-run accounting, shipped to the master as a
/// [`Msg::Summary`] in multi-process runs. The channel backend returns
/// the same numbers through the thread join instead, so this message
/// only appears on the socket transport. Its phase seconds are what a
/// master in another process records into its registry on the
/// worker's behalf.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerSummary {
    /// Generator: forest nodes of depth ≥ ψ processed.
    pub gen_nodes_processed: u64,
    /// Generator: raw pairs before filtering.
    pub gen_raw_pairs: u64,
    /// Generator: same-EST pairs discarded.
    pub gen_discarded_self: u64,
    /// Generator: mirror-image pairs discarded.
    pub gen_discarded_mirror: u64,
    /// Generator: promising pairs emitted.
    pub gen_emitted: u64,
    /// Seconds in generator setup (node collection + sort).
    pub node_sorting: f64,
    /// Seconds inside the generator's `next_batch` calls.
    pub pair_generation: f64,
    /// Seconds inside the alignment kernel.
    pub alignment: f64,
    /// Seconds in the partitioning phase.
    pub partitioning: f64,
    /// Seconds building this worker's subtrees.
    pub gst_construction: f64,
    /// Pairs still buffered in `PAIRBUF` at shutdown.
    pub unconsumed: u64,
    /// Pairs rejected by the cheap pre-alignment filters.
    pub prefiltered: u64,
    /// Pairs served through the reused alignment workspace.
    pub ws_reuses: u64,
    /// Fault-injector counters observed by this worker's process
    /// (meaningful on the socket transport, where counters are
    /// per-process rather than world-shared).
    pub injected_drops: u64,
    /// See `injected_drops`.
    pub injected_delays: u64,
    /// See `injected_drops`.
    pub injected_stalls: u64,
    /// Pairs this worker's generator emitted, indexed by owning session
    /// (one entry, equal to `gen_emitted`, on single-master runs).
    /// Summed across workers this is each shard's `generated` side of
    /// the per-shard flow conservation law.
    pub gen_by_owner: Vec<u64>,
    /// Pairs still buffered for each session at shutdown (the
    /// per-session split of `unconsumed`; one entry on single-master
    /// runs).
    pub unconsumed_by_owner: Vec<u64>,
}

/// A sub-master's end-of-run accounting, shipped to the reconciler in a
/// [`Msg::ShardDone`] together with the shard's merge records. The
/// records are authoritative: the reconciler rebuilds the global
/// partition by replaying them, so a lost incremental
/// [`Msg::CrossMerge`] can never change the result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardReport {
    /// Every merge this shard performed (local and cross-shard), in
    /// order. Replayed by the reconciler to build the final partition.
    pub records: Vec<MergeRecord>,
    /// Pairs received in reports (this shard's `pairs_generated`).
    pub pairs_received: u64,
    /// Pairs aligned (result outcomes folded).
    pub pairs_processed: u64,
    /// Accepted alignments.
    pub pairs_accepted: u64,
    /// Pairs skipped as already-clustered (plus abandoned ones).
    pub pairs_skipped: u64,
    /// Merges counted by this shard (local unions + distinct cross edges).
    pub merges: u64,
    /// Distinct cross-shard edges logged.
    pub cross_edges: u64,
    /// Epoch barriers at which cross edges were flushed.
    pub epochs: u64,
    /// Fault counters, mirrored from this shard's `FaultStats`.
    pub retries: u64,
    /// See `retries`.
    pub duplicate_reports: u64,
    /// See `retries`.
    pub dead_slaves: u64,
    /// See `retries`.
    pub reassigned_pairs: u64,
    /// See `retries`.
    pub abandoned_pairs: u64,
    /// Messages this sub-master's own sends dropped under an injected
    /// fault plan (its rank is a sender too — without these the global
    /// `faults.injected.*` ledger undercounts).
    pub injected_drops: u64,
    /// See `injected_drops`.
    pub injected_delays: u64,
    /// See `injected_drops`.
    pub injected_stalls: u64,
    /// Fraction of wall time this sub-master spent handling reports.
    pub busy_frac: f64,
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
    /// Slave → master, after `Shutdown`: final accounting for the fold
    /// (multi-process runs only; thread worlds join instead).
    Summary(WorkerSummary),
    /// Sub-master → reconciler: cross-shard merge edges flushed at an
    /// epoch barrier. Incremental and advisory — the reconciler folds
    /// them into its running global DSU for observability, but the
    /// final partition comes from [`Msg::ShardDone`] records, so a
    /// dropped `CrossMerge` is harmless.
    CrossMerge {
        /// Originating shard index.
        shard: u32,
        /// This shard's epoch counter at the flush.
        epoch: u64,
        /// Normalized `(min, max)` EST-id edges, deduplicated per shard.
        edges: Vec<(u32, u32)>,
    },
    /// Sub-master → reconciler: this shard finished; its merge records
    /// and accounting (sent with redundancy under faults, deduplicated
    /// by shard index at the reconciler).
    ShardDone {
        /// Originating shard index.
        shard: u32,
        /// The shard's authoritative record of what happened.
        report: ShardReport,
    },
}

impl Msg {
    /// Debug label for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Report { .. } => "Report",
            Msg::Work { .. } => "Work",
            Msg::Shutdown => "Shutdown",
            Msg::Summary(_) => "Summary",
            Msg::CrossMerge { .. } => "CrossMerge",
            Msg::ShardDone { .. } => "ShardDone",
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
        assert_eq!(
            Msg::CrossMerge {
                shard: 0,
                epoch: 0,
                edges: vec![]
            }
            .kind(),
            "CrossMerge"
        );
        assert_eq!(
            Msg::ShardDone {
                shard: 0,
                report: ShardReport::default()
            }
            .kind(),
            "ShardDone"
        );
    }
}
