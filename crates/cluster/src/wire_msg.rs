//! Wire encoding of the protocol messages for the socket transport.
//!
//! [`Msg`] implements [`Wire`] so a `Rank<Msg>` can run over
//! `UdsHub`/`UdsEndpoint`. `CandidatePair` and `PairOutcome` live in
//! other crates, so their codecs are free functions here rather than
//! trait impls (the orphan rule). Layouts follow the crate convention:
//! little-endian, `u32` length prefixes, floats as IEEE-754 bits.

use crate::align_task::PairOutcome;
use crate::messages::{Msg, WorkerSummary};
use pace_mpisim::wire::{Wire, WireError, WireReader};
use pace_pairgen::CandidatePair;
use pace_seq::StrId;

/// Bytes of one encoded [`CandidatePair`]: five `u32` fields.
const PAIR_BYTES: usize = 20;
/// Bytes of one encoded [`PairOutcome`]: pair + bool + f64 bits.
const OUTCOME_BYTES: usize = PAIR_BYTES + 1 + 8;

const TAG_REPORT: u8 = 0;
const TAG_WORK: u8 = 1;
const TAG_SHUTDOWN: u8 = 2;
const TAG_SUMMARY: u8 = 3;

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

/// Bytes of one encoded MCS-histogram entry: `u32` length + `u64` count.
const MCS_ENTRY_BYTES: usize = 4 + 8;

fn encode_mcs_len(hist: &[(u32, u64)], out: &mut Vec<u8>) {
    let n = u32::try_from(hist.len()).expect("MCS histogram too long for wire format");
    n.encode(out);
    for (len, pairs) in hist {
        len.encode(out);
        pairs.encode(out);
    }
}

fn decode_mcs_len(r: &mut WireReader<'_>) -> Result<Vec<(u32, u64)>, WireError> {
    let n = r.len_prefix(MCS_ENTRY_BYTES)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.u32()?, r.u64()?));
    }
    Ok(out)
}

impl Wire for WorkerSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.gen_emitted.encode(out);
        self.unconsumed.encode(out);
        self.prefiltered.encode(out);
        self.ws_reuses.encode(out);
        self.partitioning.encode(out);
        self.gst_construction.encode(out);
        self.node_sorting.encode(out);
        self.pair_generation.encode(out);
        self.align_batches.encode(out);
        encode_mcs_len(&self.mcs_len, out);
        self.peak_buffered.encode(out);
        self.pairgen_memory_bytes.encode(out);
        self.gst_nodes.encode(out);
        self.gst_subtrees.encode(out);
        self.gst_max_depth.encode(out);
        self.gst_memory_bytes.encode(out);
        self.injected_drops.encode(out);
        self.injected_delays.encode(out);
        self.injected_stalls.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WorkerSummary {
            gen_emitted: u64::decode(r)?,
            unconsumed: u64::decode(r)?,
            prefiltered: u64::decode(r)?,
            ws_reuses: u64::decode(r)?,
            partitioning: f64::decode(r)?,
            gst_construction: f64::decode(r)?,
            node_sorting: f64::decode(r)?,
            pair_generation: f64::decode(r)?,
            align_batches: Vec::decode(r)?,
            mcs_len: decode_mcs_len(r)?,
            peak_buffered: u64::decode(r)?,
            pairgen_memory_bytes: u64::decode(r)?,
            gst_nodes: u64::decode(r)?,
            gst_subtrees: u64::decode(r)?,
            gst_max_depth: u32::decode(r)?,
            gst_memory_bytes: u64::decode(r)?,
            injected_drops: u64::decode(r)?,
            injected_delays: u64::decode(r)?,
            injected_stalls: u64::decode(r)?,
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
                gen_emitted: 5,
                unconsumed: 6,
                prefiltered: 7,
                ws_reuses: 8,
                partitioning: 0.125,
                gst_construction: 2.0,
                node_sorting: 0.25,
                pair_generation: 0.75,
                align_batches: vec![0.5, 1.0],
                mcs_len: vec![(20, 3), (41, 1)],
                peak_buffered: 13,
                pairgen_memory_bytes: 4096,
                gst_nodes: 12,
                gst_subtrees: 4,
                gst_max_depth: 97,
                gst_memory_bytes: 160,
                injected_drops: 9,
                injected_delays: 10,
                injected_stalls: 11,
            }),
        ]
    }

    /// Every message kind, and the summary one of them carries, through
    /// the shared wire drill. `Msg` is not `PartialEq` (it carries f64
    /// scores), so the drill's re-encoding check is its round trip; the
    /// summary is also compared with its sample.
    #[test]
    fn every_message_kind_passes_the_wire_drill() {
        for msg in sample_msgs() {
            drill(&msg);
            if let Msg::Summary(summary) = &msg {
                assert_eq!(&drill(summary), summary);
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
