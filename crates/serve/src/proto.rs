//! The daemon's wire protocol.
//!
//! Every message is one `pace-wire` frame (`[len][crc32][payload]`);
//! the payload is a tag byte followed by the message's fields. Requests
//! flow client → daemon, responses daemon → client, strictly one
//! response per request on a connection (no pipelining surprises: the
//! daemon answers in arrival order per connection).
//!
//! ## Versioning
//!
//! [`PROTO_VERSION`] rides in every [`Response::Pong`]; a client checks
//! it once after connecting. Within a version, encodings are append-only
//! at the end of a message — the same rule as the transport's `Ctl`.
//!
//! ## Grammar
//!
//! | Request                    | Response                               |
//! |----------------------------|----------------------------------------|
//! | `Ping`                     | `Pong { version, num_ests }`           |
//! | `Ingest { ids, seqs }`     | `Ingested { … fold summary … }`        |
//! | `Member { id }`            | `Membership { index, label, size }`    |
//! | `Cluster { label }`        | `ClusterMembers { label, ids }`        |
//! | `Rep { label }`            | `Representative { label, id, seq }`    |
//! | `Stats`                    | `StatsReply { … counters … }`          |
//! | `Shutdown`                 | `Ok`                                   |
//! | anything malformed         | `Err { msg }` (connection stays open)  |
//!
//! Cluster labels are **canonical**: a cluster is named by the smallest
//! EST index it contains, so labels are stable across daemon restarts
//! and agree with a one-shot batch run over the same data (the property
//! `tests/serve_identity.rs` pins down).

use pace_wire::{Wire, WireError, WireReader};

/// Serving protocol version, reported in `Pong`.
pub const PROTO_VERSION: u32 = 1;

/// Client → daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness + version check.
    Ping,
    /// Fold a batch of ESTs into the live index.
    Ingest {
        /// One identifier per sequence (FASTA header ids).
        ids: Vec<String>,
        /// DNA sequences, `{A,C,G,T}` upper- or lowercase.
        seqs: Vec<Vec<u8>>,
    },
    /// Which cluster does this EST (by id) belong to?
    Member { id: String },
    /// List the member ids of a cluster.
    Cluster { label: u64 },
    /// The representative (smallest-index member) of a cluster.
    Rep { label: u64 },
    /// Service-wide counters.
    Stats,
    /// Graceful stop: the daemon checkpoints and exits its accept loop.
    Shutdown,
}

/// Daemon → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Generic success (for `Shutdown`).
    Ok,
    /// The request could not be served; the connection stays usable.
    Err { msg: String },
    /// Reply to `Ping`.
    Pong { version: u32, num_ests: u64 },
    /// Reply to `Ingest`: what the fold did.
    Ingested {
        new_ests: u64,
        total_ests: u64,
        num_clusters: u64,
        merges: u64,
        aligned: u64,
    },
    /// Reply to `Member`.
    Membership {
        est_index: u64,
        cluster_label: u64,
        cluster_size: u64,
    },
    /// Reply to `Cluster`.
    ClusterMembers { label: u64, ids: Vec<String> },
    /// Reply to `Rep`.
    Representative {
        label: u64,
        id: String,
        seq: Vec<u8>,
    },
    /// Reply to `Stats`.
    StatsReply(ServeStats),
}

/// Service-wide counters, the payload of [`Response::StatsReply`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// ESTs incorporated.
    pub num_ests: u64,
    /// Current cluster count.
    pub num_clusters: u64,
    /// Ingest batches folded since the daemon first started (survives
    /// restarts via the checkpoint's `progress` section).
    pub ingest_batches: u64,
    /// Accepted merges in the rolling trace.
    pub trace_len: u64,
    /// Promising pairs generated across all folds. A fold generates
    /// pairs only in the ψ-groups its batch touches, so old–old pairs
    /// elsewhere are never counted.
    pub pairs_generated: u64,
    /// Pairs aligned across all folds.
    pub pairs_processed: u64,
    /// Pairs skipped (already clustered, or old–old within a group the
    /// batch touched).
    pub pairs_skipped: u64,
    /// Queries answered since this process started.
    pub queries_served: u64,
    /// Microseconds since this process started serving.
    pub uptime_us: u64,
}

const REQ_PING: u8 = 0;
const REQ_INGEST: u8 = 1;
const REQ_MEMBER: u8 = 2;
const REQ_CLUSTER: u8 = 3;
const REQ_REP: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;

const RESP_OK: u8 = 0;
const RESP_ERR: u8 = 1;
const RESP_PONG: u8 = 2;
const RESP_INGESTED: u8 = 3;
const RESP_MEMBERSHIP: u8 = 4;
const RESP_CLUSTER_MEMBERS: u8 = 5;
const RESP_REPRESENTATIVE: u8 = 6;
const RESP_STATS: u8 = 7;

impl Wire for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::Ingest { ids, seqs } => {
                out.push(REQ_INGEST);
                ids.encode(out);
                seqs.encode(out);
            }
            Request::Member { id } => {
                out.push(REQ_MEMBER);
                id.encode(out);
            }
            Request::Cluster { label } => {
                out.push(REQ_CLUSTER);
                label.encode(out);
            }
            Request::Rep { label } => {
                out.push(REQ_REP);
                label.encode(out);
            }
            Request::Stats => out.push(REQ_STATS),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            REQ_PING => Request::Ping,
            REQ_INGEST => Request::Ingest {
                ids: Vec::decode(r)?,
                seqs: Vec::decode(r)?,
            },
            REQ_MEMBER => Request::Member {
                id: String::decode(r)?,
            },
            REQ_CLUSTER => Request::Cluster { label: r.u64()? },
            REQ_REP => Request::Rep { label: r.u64()? },
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            tag => return Err(WireError(format!("unknown Request tag {tag:#04x}"))),
        })
    }
}

impl Wire for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(RESP_OK),
            Response::Err { msg } => {
                out.push(RESP_ERR);
                msg.encode(out);
            }
            Response::Pong { version, num_ests } => {
                out.push(RESP_PONG);
                version.encode(out);
                num_ests.encode(out);
            }
            Response::Ingested {
                new_ests,
                total_ests,
                num_clusters,
                merges,
                aligned,
            } => {
                out.push(RESP_INGESTED);
                new_ests.encode(out);
                total_ests.encode(out);
                num_clusters.encode(out);
                merges.encode(out);
                aligned.encode(out);
            }
            Response::Membership {
                est_index,
                cluster_label,
                cluster_size,
            } => {
                out.push(RESP_MEMBERSHIP);
                est_index.encode(out);
                cluster_label.encode(out);
                cluster_size.encode(out);
            }
            Response::ClusterMembers { label, ids } => {
                out.push(RESP_CLUSTER_MEMBERS);
                label.encode(out);
                ids.encode(out);
            }
            Response::Representative { label, id, seq } => {
                out.push(RESP_REPRESENTATIVE);
                label.encode(out);
                id.encode(out);
                seq.encode(out);
            }
            Response::StatsReply(s) => {
                out.push(RESP_STATS);
                s.num_ests.encode(out);
                s.num_clusters.encode(out);
                s.ingest_batches.encode(out);
                s.trace_len.encode(out);
                s.pairs_generated.encode(out);
                s.pairs_processed.encode(out);
                s.pairs_skipped.encode(out);
                s.queries_served.encode(out);
                s.uptime_us.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            RESP_OK => Response::Ok,
            RESP_ERR => Response::Err {
                msg: String::decode(r)?,
            },
            RESP_PONG => Response::Pong {
                version: r.u32()?,
                num_ests: r.u64()?,
            },
            RESP_INGESTED => Response::Ingested {
                new_ests: r.u64()?,
                total_ests: r.u64()?,
                num_clusters: r.u64()?,
                merges: r.u64()?,
                aligned: r.u64()?,
            },
            RESP_MEMBERSHIP => Response::Membership {
                est_index: r.u64()?,
                cluster_label: r.u64()?,
                cluster_size: r.u64()?,
            },
            RESP_CLUSTER_MEMBERS => Response::ClusterMembers {
                label: r.u64()?,
                ids: Vec::decode(r)?,
            },
            RESP_REPRESENTATIVE => Response::Representative {
                label: r.u64()?,
                id: String::decode(r)?,
                seq: Vec::decode(r)?,
            },
            RESP_STATS => Response::StatsReply(ServeStats {
                num_ests: r.u64()?,
                num_clusters: r.u64()?,
                ingest_batches: r.u64()?,
                trace_len: r.u64()?,
                pairs_generated: r.u64()?,
                pairs_processed: r.u64()?,
                pairs_skipped: r.u64()?,
                queries_served: r.u64()?,
                uptime_us: r.u64()?,
            }),
            tag => return Err(WireError(format!("unknown Response tag {tag:#04x}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_wire::drill;

    #[test]
    fn every_request_kind_passes_the_wire_drill() {
        for req in [
            Request::Ping,
            Request::Ingest {
                ids: vec!["a".into(), "est_über".into()],
                seqs: vec![b"ACGT".to_vec(), b"ttagc".to_vec()],
            },
            Request::Member {
                id: "gi|123".into(),
            },
            Request::Cluster { label: 0 },
            Request::Rep { label: u64::MAX },
            Request::Stats,
            Request::Shutdown,
        ] {
            assert_eq!(drill(&req), req);
        }
    }

    #[test]
    fn every_response_kind_passes_the_wire_drill() {
        for resp in [
            Response::Ok,
            Response::Err {
                msg: "no such est".into(),
            },
            Response::Pong {
                version: PROTO_VERSION,
                num_ests: 7,
            },
            Response::Ingested {
                new_ests: 10,
                total_ests: 30,
                num_clusters: 4,
                merges: 6,
                aligned: 55,
            },
            Response::Membership {
                est_index: 3,
                cluster_label: 1,
                cluster_size: 9,
            },
            Response::ClusterMembers {
                label: 2,
                ids: vec!["x".into(), "y".into()],
            },
            Response::Representative {
                label: 2,
                id: "x".into(),
                seq: b"ACGTACGT".to_vec(),
            },
            Response::StatsReply(ServeStats {
                num_ests: 1,
                num_clusters: 2,
                ingest_batches: 3,
                trace_len: 4,
                pairs_generated: 5,
                pairs_processed: 6,
                pairs_skipped: 7,
                queries_served: 8,
                uptime_us: 9,
            }),
        ] {
            assert_eq!(drill(&resp), resp);
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(Request::from_bytes(&[0xEE]).is_err());
        assert!(Response::from_bytes(&[0xEE]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Request::Ping.to_bytes();
        bytes.push(0);
        assert!(Request::from_bytes(&bytes).is_err());
    }

    #[test]
    fn invalid_utf8_id_rejected() {
        // REQ_MEMBER tag, then a 2-byte string with an invalid sequence.
        let bytes = [REQ_MEMBER, 2, 0, 0, 0, 0xFF, 0xFE];
        assert!(Request::from_bytes(&bytes).is_err());
    }
}
