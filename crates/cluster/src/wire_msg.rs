//! Wire encoding of the protocol messages for the socket transport.
//!
//! [`Msg`] implements [`Wire`] so a `Rank<Msg>` can run over
//! `UdsHub`/`UdsEndpoint`. `CandidatePair` and `PairOutcome` live in
//! other crates, so their codecs are free functions here rather than
//! trait impls (the orphan rule). Layouts follow the crate convention:
//! little-endian, `u32` length prefixes, floats as IEEE-754 bits.

use crate::align_task::PairOutcome;
use crate::messages::{Msg, ShardReport, WorkerSummary};
use crate::trace::MergeRecord;
use pace_mpisim::wire::{Wire, WireError, WireReader};
use pace_pairgen::CandidatePair;
use pace_seq::StrId;

/// Bytes of one encoded [`CandidatePair`]: five `u32` fields.
const PAIR_BYTES: usize = 20;
/// Bytes of one encoded [`PairOutcome`]: pair + bool + f64 bits.
const OUTCOME_BYTES: usize = PAIR_BYTES + 1 + 8;
/// Bytes of one encoded [`MergeRecord`]: two `u64` ids + `u32` + f64 bits.
const RECORD_BYTES: usize = 8 + 8 + 4 + 8;
/// Bytes of one encoded cross edge: two `u32` ids.
const EDGE_BYTES: usize = 8;

const TAG_REPORT: u8 = 0;
const TAG_WORK: u8 = 1;
const TAG_SHUTDOWN: u8 = 2;
const TAG_SUMMARY: u8 = 3;
const TAG_CROSS_MERGE: u8 = 4;
const TAG_SHARD_DONE: u8 = 5;

fn encode_pair(p: &CandidatePair, out: &mut Vec<u8>) {
    p.s1.0.encode(out);
    p.s2.0.encode(out);
    p.off1.encode(out);
    p.off2.encode(out);
    p.mcs_len.encode(out);
}

fn decode_pair(r: &mut WireReader<'_>) -> Result<CandidatePair, WireError> {
    Ok(CandidatePair {
        s1: StrId(r.u32()?),
        s2: StrId(r.u32()?),
        off1: r.u32()?,
        off2: r.u32()?,
        mcs_len: r.u32()?,
    })
}

fn encode_u64s(v: &[u64], out: &mut Vec<u8>) {
    let n = u32::try_from(v.len()).expect("u64 vector too long for wire format");
    n.encode(out);
    for x in v {
        x.encode(out);
    }
}

fn decode_u64s(r: &mut WireReader<'_>) -> Result<Vec<u64>, WireError> {
    let n = r.len_prefix(8)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.u64()?);
    }
    Ok(v)
}

fn encode_pairs(pairs: &[CandidatePair], out: &mut Vec<u8>) {
    let n = u32::try_from(pairs.len()).expect("pair batch too long for wire format");
    n.encode(out);
    for p in pairs {
        encode_pair(p, out);
    }
}

fn decode_pairs(r: &mut WireReader<'_>) -> Result<Vec<CandidatePair>, WireError> {
    let n = r.len_prefix(PAIR_BYTES)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_pair(r)?);
    }
    Ok(out)
}

fn encode_outcome(o: &PairOutcome, out: &mut Vec<u8>) {
    encode_pair(&o.pair, out);
    o.accepted.encode(out);
    o.score_ratio.encode(out);
}

fn decode_outcome(r: &mut WireReader<'_>) -> Result<PairOutcome, WireError> {
    Ok(PairOutcome {
        pair: decode_pair(r)?,
        accepted: bool::decode(r)?,
        score_ratio: f64::decode(r)?,
    })
}

fn encode_outcomes(results: &[PairOutcome], out: &mut Vec<u8>) {
    let n = u32::try_from(results.len()).expect("result batch too long for wire format");
    n.encode(out);
    for o in results {
        encode_outcome(o, out);
    }
}

fn decode_outcomes(r: &mut WireReader<'_>) -> Result<Vec<PairOutcome>, WireError> {
    let n = r.len_prefix(OUTCOME_BYTES)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_outcome(r)?);
    }
    Ok(out)
}

fn encode_records(records: &[MergeRecord], out: &mut Vec<u8>) {
    let n = u32::try_from(records.len()).expect("merge trace too long for wire format");
    n.encode(out);
    for rec in records {
        rec.est_a.encode(out);
        rec.est_b.encode(out);
        rec.mcs_len.encode(out);
        rec.score_ratio.encode(out);
    }
}

fn decode_records(r: &mut WireReader<'_>) -> Result<Vec<MergeRecord>, WireError> {
    let n = r.len_prefix(RECORD_BYTES)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(MergeRecord {
            est_a: usize::decode(r)?,
            est_b: usize::decode(r)?,
            mcs_len: u32::decode(r)?,
            score_ratio: f64::decode(r)?,
        });
    }
    Ok(out)
}

fn encode_edges(edges: &[(u32, u32)], out: &mut Vec<u8>) {
    let n = u32::try_from(edges.len()).expect("cross-edge batch too long for wire format");
    n.encode(out);
    for &(a, b) in edges {
        a.encode(out);
        b.encode(out);
    }
}

fn decode_edges(r: &mut WireReader<'_>) -> Result<Vec<(u32, u32)>, WireError> {
    let n = r.len_prefix(EDGE_BYTES)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.u32()?, r.u32()?));
    }
    Ok(out)
}

impl Wire for ShardReport {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_records(&self.records, out);
        self.pairs_received.encode(out);
        self.pairs_processed.encode(out);
        self.pairs_accepted.encode(out);
        self.pairs_skipped.encode(out);
        self.merges.encode(out);
        self.cross_edges.encode(out);
        self.epochs.encode(out);
        self.retries.encode(out);
        self.duplicate_reports.encode(out);
        self.dead_slaves.encode(out);
        self.reassigned_pairs.encode(out);
        self.abandoned_pairs.encode(out);
        self.injected_drops.encode(out);
        self.injected_delays.encode(out);
        self.injected_stalls.encode(out);
        self.busy_frac.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ShardReport {
            records: decode_records(r)?,
            pairs_received: u64::decode(r)?,
            pairs_processed: u64::decode(r)?,
            pairs_accepted: u64::decode(r)?,
            pairs_skipped: u64::decode(r)?,
            merges: u64::decode(r)?,
            cross_edges: u64::decode(r)?,
            epochs: u64::decode(r)?,
            retries: u64::decode(r)?,
            duplicate_reports: u64::decode(r)?,
            dead_slaves: u64::decode(r)?,
            reassigned_pairs: u64::decode(r)?,
            abandoned_pairs: u64::decode(r)?,
            injected_drops: u64::decode(r)?,
            injected_delays: u64::decode(r)?,
            injected_stalls: u64::decode(r)?,
            busy_frac: f64::decode(r)?,
        })
    }
}

impl Wire for WorkerSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.gen_nodes_processed.encode(out);
        self.gen_raw_pairs.encode(out);
        self.gen_discarded_self.encode(out);
        self.gen_discarded_mirror.encode(out);
        self.gen_emitted.encode(out);
        self.node_sorting.encode(out);
        self.alignment.encode(out);
        self.partitioning.encode(out);
        self.gst_construction.encode(out);
        self.unconsumed.encode(out);
        self.prefiltered.encode(out);
        self.ws_reuses.encode(out);
        self.injected_drops.encode(out);
        self.injected_delays.encode(out);
        self.injected_stalls.encode(out);
        encode_u64s(&self.gen_by_owner, out);
        encode_u64s(&self.unconsumed_by_owner, out);
        self.pair_generation.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WorkerSummary {
            gen_nodes_processed: u64::decode(r)?,
            gen_raw_pairs: u64::decode(r)?,
            gen_discarded_self: u64::decode(r)?,
            gen_discarded_mirror: u64::decode(r)?,
            gen_emitted: u64::decode(r)?,
            node_sorting: f64::decode(r)?,
            alignment: f64::decode(r)?,
            partitioning: f64::decode(r)?,
            gst_construction: f64::decode(r)?,
            unconsumed: u64::decode(r)?,
            prefiltered: u64::decode(r)?,
            ws_reuses: u64::decode(r)?,
            injected_drops: u64::decode(r)?,
            injected_delays: u64::decode(r)?,
            injected_stalls: u64::decode(r)?,
            gen_by_owner: decode_u64s(r)?,
            unconsumed_by_owner: decode_u64s(r)?,
            pair_generation: f64::decode(r)?,
        })
    }
}

impl Wire for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Report {
                seq,
                results,
                pairs,
                exhausted,
            } => {
                TAG_REPORT.encode(out);
                seq.encode(out);
                encode_outcomes(results, out);
                encode_pairs(pairs, out);
                exhausted.encode(out);
            }
            Msg::Work {
                seq,
                pairs,
                request,
            } => {
                TAG_WORK.encode(out);
                seq.encode(out);
                encode_pairs(pairs, out);
                request.encode(out);
            }
            Msg::Shutdown => TAG_SHUTDOWN.encode(out),
            Msg::Summary(s) => {
                TAG_SUMMARY.encode(out);
                s.encode(out);
            }
            Msg::CrossMerge {
                shard,
                epoch,
                edges,
            } => {
                TAG_CROSS_MERGE.encode(out);
                shard.encode(out);
                epoch.encode(out);
                encode_edges(edges, out);
            }
            Msg::ShardDone { shard, report } => {
                TAG_SHARD_DONE.encode(out);
                shard.encode(out);
                report.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_REPORT => Ok(Msg::Report {
                seq: u64::decode(r)?,
                results: decode_outcomes(r)?,
                pairs: decode_pairs(r)?,
                exhausted: bool::decode(r)?,
            }),
            TAG_WORK => Ok(Msg::Work {
                seq: u64::decode(r)?,
                pairs: decode_pairs(r)?,
                request: usize::decode(r)?,
            }),
            TAG_SHUTDOWN => Ok(Msg::Shutdown),
            TAG_SUMMARY => Ok(Msg::Summary(WorkerSummary::decode(r)?)),
            TAG_CROSS_MERGE => Ok(Msg::CrossMerge {
                shard: u32::decode(r)?,
                epoch: u64::decode(r)?,
                edges: decode_edges(r)?,
            }),
            TAG_SHARD_DONE => Ok(Msg::ShardDone {
                shard: u32::decode(r)?,
                report: ShardReport::decode(r)?,
            }),
            t => Err(WireError(format!("unknown Msg tag {t:#04x}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_mpisim::wire::drill;

    fn pair(i: u32) -> CandidatePair {
        CandidatePair {
            s1: StrId(2 * i),
            s2: StrId(2 * i + 3),
            off1: 7 * i,
            off2: 11 * i,
            mcs_len: 20 + i,
        }
    }

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::Report {
                seq: 3,
                results: vec![
                    PairOutcome {
                        pair: pair(1),
                        accepted: true,
                        score_ratio: 0.91,
                    },
                    PairOutcome {
                        pair: pair(2),
                        accepted: false,
                        score_ratio: 0.11,
                    },
                ],
                pairs: vec![pair(3), pair(4), pair(5)],
                exhausted: false,
            },
            Msg::Report {
                seq: 0,
                results: vec![],
                pairs: vec![],
                exhausted: true,
            },
            Msg::Work {
                seq: 9,
                pairs: vec![pair(6)],
                request: 60,
            },
            Msg::Shutdown,
            Msg::Summary(WorkerSummary {
                gen_nodes_processed: 1,
                gen_raw_pairs: 2,
                gen_discarded_self: 3,
                gen_discarded_mirror: 4,
                gen_emitted: 5,
                node_sorting: 0.25,
                alignment: 1.5,
                partitioning: 0.125,
                gst_construction: 2.0,
                unconsumed: 6,
                prefiltered: 7,
                ws_reuses: 8,
                injected_drops: 9,
                injected_delays: 10,
                injected_stalls: 11,
                gen_by_owner: vec![12, 0, 13],
                unconsumed_by_owner: vec![1, 0, 2],
                pair_generation: 0.75,
            }),
            Msg::CrossMerge {
                shard: 2,
                epoch: 7,
                edges: vec![(3, 41), (5, 38)],
            },
            Msg::CrossMerge {
                shard: 0,
                epoch: 0,
                edges: vec![],
            },
            Msg::ShardDone {
                shard: 1,
                report: ShardReport {
                    records: vec![
                        MergeRecord {
                            est_a: 4,
                            est_b: 17,
                            mcs_len: 23,
                            score_ratio: 0.97,
                        },
                        MergeRecord {
                            est_a: 9,
                            est_b: 40,
                            mcs_len: 31,
                            score_ratio: 1.0,
                        },
                    ],
                    pairs_received: 12,
                    pairs_processed: 11,
                    pairs_accepted: 5,
                    pairs_skipped: 1,
                    merges: 2,
                    cross_edges: 1,
                    epochs: 3,
                    retries: 1,
                    duplicate_reports: 2,
                    dead_slaves: 0,
                    reassigned_pairs: 0,
                    abandoned_pairs: 0,
                    injected_drops: 3,
                    injected_delays: 1,
                    injected_stalls: 0,
                    busy_frac: 0.5,
                },
            },
            Msg::ShardDone {
                shard: 0,
                report: ShardReport::default(),
            },
        ]
    }

    /// Every message kind, and the summaries two of them carry, through
    /// the shared wire drill. None of these types is `PartialEq` (they
    /// carry f64 scores), so the drill's re-encoding check is the round
    /// trip.
    #[test]
    fn every_message_kind_passes_the_wire_drill() {
        for msg in sample_msgs() {
            drill(&msg);
            match &msg {
                Msg::Summary(summary) => {
                    drill(summary);
                }
                Msg::ShardDone { report, .. } => {
                    drill(report);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in sample_msgs() {
            let mut bytes = msg.to_bytes();
            bytes.push(0);
            assert!(Msg::from_bytes(&bytes).is_err(), "{}", msg.kind());
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(Msg::from_bytes(&[9]).is_err());
    }
}
