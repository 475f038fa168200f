//! Canonical metric and phase names.
//!
//! Every producer (both drivers, the GST builder, the pair generators,
//! the communication layer) records through these constants, so a
//! report's keys are stable across the sequential and parallel paths
//! and consumers never match on ad-hoc strings. See the crate-level
//! table for meanings.

/// Counter: promising pairs emitted by the generators.
pub const PAIRS_GENERATED: &str = "pairs.generated";
/// Counter: pairs the alignment kernel actually ran on.
pub const PAIRS_PROCESSED: &str = "pairs.processed";
/// Counter: alignments accepted as merge evidence.
pub const PAIRS_ACCEPTED: &str = "pairs.accepted";
/// Counter: pairs discarded because their ESTs already shared a cluster.
pub const PAIRS_SKIPPED: &str = "pairs.skipped";
/// Counter: pairs generated but still buffered at shutdown.
pub const PAIRS_UNCONSUMED: &str = "pairs.unconsumed";
/// Counter: accepted alignments that actually merged two clusters.
pub const MERGES: &str = "merges";
/// Counter: pairs rejected by the lossless anchor-geometry bound before
/// any DP cell was filled.
pub const PAIRS_PREFILTERED: &str = "pairs.prefiltered";

/// Counter: pairs served by a reused per-rank alignment workspace — the
/// allocation-free hot path. Equal to `pairs.processed` when every
/// alignment went through a long-lived `AlignContext`-style context
/// rather than allocating fresh DP scratch per pair.
pub const ALIGN_WS_REUSES: &str = "align.ws_reuses";

/// Counter: point-to-point messages delivered.
pub const COMM_MESSAGES: &str = "comm.messages";
/// Counter: serialized frame bytes moved by the transport (headers
/// included). Zero on the in-process channel backend, which moves owned
/// values instead of bytes.
pub const COMM_BYTES: &str = "comm.bytes";
/// Counter: barrier episodes completed.
pub const COMM_BARRIERS: &str = "comm.barriers";
/// Counter: reduction collectives completed.
pub const COMM_REDUCTIONS: &str = "comm.reductions";

/// Counter: distinct GST buckets built.
pub const GST_BUCKETS: &str = "gst.buckets";
/// Counter: total GST nodes across all subtrees. The drivers build the
/// in-scope forest, so these are the nodes pair generation can read; a
/// daemon fold adds only the ψ-groups its batch touches.
pub const GST_NODES: &str = "gst.nodes";
/// Counter: subtrees, one per bucket with a ψ-prefix that occurs twice
/// (at most `gst.buckets`).
pub const GST_SUBTREES: &str = "gst.subtrees";
/// Gauge: deepest node (string depth) in any subtree.
pub const GST_MAX_DEPTH: &str = "gst.max_depth";
/// Gauge: heap bytes of the largest forest, or build batch of one, that
/// any rank built (`LocalForest::memory_bytes`: 8 bytes per node and 8
/// per suffix occurrence).
pub const GST_MEMORY_BYTES: &str = "gst.memory_bytes";

/// Gauge: fraction of wall time the master spent busy.
pub const MASTER_BUSY_FRAC: &str = "master.busy_frac";

/// Gauge: critical-path seconds from the trace analyzer (the longest
/// chain of causally ordered spans). Present only on traced runs.
pub const TRACE_CRITICAL_PATH_SECS: &str = "trace.critical_path_secs";
/// Gauge: lowest per-rank utilization from the trace analyzer.
pub const TRACE_UTILIZATION_MIN: &str = "trace.rank_utilization.min";
/// Gauge: mean per-rank utilization from the trace analyzer.
pub const TRACE_UTILIZATION_MEAN: &str = "trace.rank_utilization.mean";

/// Counter: `Work` batches the master re-sent after a slave missed its
/// reply deadline.
pub const FAULTS_RETRIES: &str = "faults.retries";
/// Counter: reports the master ignored as duplicates or stale (wrong
/// sequence number, or from a slave already declared dead).
pub const FAULTS_DUPLICATE_REPORTS: &str = "faults.duplicate_reports";
/// Counter: slaves declared dead after exhausting their retry budget.
pub const FAULTS_DEAD_SLAVES: &str = "faults.dead_slaves";
/// Counter: outstanding pairs of dead slaves put back on the work queue.
pub const FAULTS_REASSIGNED_PAIRS: &str = "faults.reassigned_pairs";
/// Counter: queued pairs discarded because every slave died before they
/// could be dispatched (counted into `pairs.skipped` as well, keeping
/// flow conservation exact).
pub const FAULTS_ABANDONED_PAIRS: &str = "faults.abandoned_pairs";
/// Counter: pairs slaves shipped that never reached the master (dropped
/// in flight or held by a slave that died); folded into
/// `pairs.unconsumed` so flow conservation stays exact under faults.
pub const FAULTS_LOST_PAIRS: &str = "faults.lost_pairs";
/// Counter: messages the fault layer discarded (injected).
pub const FAULTS_INJECTED_DROPS: &str = "faults.injected.drops";
/// Counter: messages the fault layer delayed (injected).
pub const FAULTS_INJECTED_DELAYS: &str = "faults.injected.delays";
/// Counter: ranks the fault layer crashed (injected).
pub const FAULTS_INJECTED_CRASHES: &str = "faults.injected.crashes";
/// Counter: stall sleeps the fault layer performed (injected).
pub const FAULTS_INJECTED_STALLS: &str = "faults.injected.stalls";

/// Counter: memory-budgeted bucket batches planned for this run; an
/// uninterrupted run builds and drains each exactly once.
pub const IO_SPILL_BATCHES: &str = "io.spill_batches";
/// Counter: buckets whose individual footprint estimate exceeded the
/// memory budget and were given a batch of their own.
pub const IO_OVERSIZED_BUCKETS: &str = "io.oversized_buckets";
/// Gauge: largest estimated in-memory batch footprint (bytes) under the
/// batch planner's load model — the effective peak the budget bought.
pub const IO_PEAK_BATCH_BYTES: &str = "io.peak_batch_bytes";

/// Counter: checkpoint snapshots written.
pub const CKPT_WRITES: &str = "ckpt.writes";
/// Counter: bytes written to checkpoint snapshots.
pub const CKPT_BYTES: &str = "ckpt.bytes";
/// Counter: phases restored from checkpoints instead of recomputed
/// (nonzero only on `--resume` runs).
pub const CKPT_PHASES_RESUMED: &str = "ckpt.phases_resumed";
/// Counter: merge records replayed from the checkpointed trace on
/// resume (reconstructing the master's union–find frontier).
pub const CKPT_REPLAYED_MERGES: &str = "ckpt.replayed_merges";

/// Histogram: generated pairs by maximal-common-substring length.
pub const PAIRS_MCS_LEN: &str = "pairs.mcs_len";
/// Gauge: most promising pairs one pair generator held buffered at
/// once — one band of its schedule's emissions (a band is sized to make
/// about 2^16) plus what a request left over — maximized over the run's
/// generators.
pub const PAIRGEN_PEAK_BUFFERED: &str = "pairgen.peak_buffered";
/// Gauge: heap bytes of the largest pair generator, read when it is
/// exhausted (`PairGenerator::memory_bytes`; its parts only grow, so
/// that is its peak), maximized over the run's generators.
pub const PAIRGEN_MEMORY_BYTES: &str = "pairgen.memory_bytes";

/// Phase: bucket counting, global summation and bucket assignment.
pub const PHASE_PARTITIONING: &str = "partitioning";
/// Phase: per-bucket subtree construction.
pub const PHASE_GST_CONSTRUCTION: &str = "gst_construction";
/// Phase: node collection + string-depth sorting (generator setup).
pub const PHASE_NODE_SORTING: &str = "node_sorting";
/// Phase: on-demand promising-pair generation (the generator's
/// `next_batch` calls in a clustering loop).
pub const PHASE_PAIR_GENERATION: &str = "pair_generation";
/// Phase: pairwise (anchored banded) alignment.
pub const PHASE_ALIGNMENT: &str = "alignment";
/// Phase: one slave work batch through the alignment kernel. Finer
/// grained than [`PHASE_ALIGNMENT`] (which is recorded once per rank as
/// the kernel-time total): one span per non-empty batch, so the series
/// exposes batch-size effects and stragglers.
pub const PHASE_ALIGN_BATCH: &str = "align_batch";
/// Phase: streaming FASTA ingest into the sequence store.
pub const PHASE_INGEST: &str = "ingest";
/// Phase: writing the clustering checkpoint snapshot.
pub const PHASE_CHECKPOINT: &str = "checkpoint";
/// Phase: end-to-end wall clock.
pub const PHASE_TOTAL: &str = "total";

/// Counter: client connections the serving daemon accepted.
pub const SERVE_CONNECTIONS: &str = "serve.connections";
/// Counter: queries (member/cluster/rep/stats/ping) answered.
pub const SERVE_QUERIES: &str = "serve.queries";
/// Counter: ingest batches folded into the live index.
pub const SERVE_INGEST_BATCHES: &str = "serve.ingest.batches";
/// Counter: ESTs accepted across all ingest batches.
pub const SERVE_INGEST_ESTS: &str = "serve.ingest.ests";
/// Counter: requests answered with a protocol-level error.
pub const SERVE_ERRORS: &str = "serve.errors";
/// Counter: checkpoints the daemon published while serving.
pub const SERVE_CHECKPOINTS: &str = "serve.checkpoints";
/// Gauge family: query latency quantiles in microseconds, estimated by
/// the log-bucket sketch (`serve.query.p50_us`, `.p90_us`, `.p99_us`).
pub const SERVE_QUERY_P50_US: &str = "serve.query.p50_us";
/// See [`SERVE_QUERY_P50_US`].
pub const SERVE_QUERY_P90_US: &str = "serve.query.p90_us";
/// See [`SERVE_QUERY_P50_US`].
pub const SERVE_QUERY_P99_US: &str = "serve.query.p99_us";
/// Gauge family: ingest fold latency quantiles in microseconds.
pub const SERVE_INGEST_P50_US: &str = "serve.ingest.p50_us";
/// See [`SERVE_INGEST_P50_US`].
pub const SERVE_INGEST_P90_US: &str = "serve.ingest.p90_us";
/// See [`SERVE_INGEST_P50_US`].
pub const SERVE_INGEST_P99_US: &str = "serve.ingest.p99_us";
