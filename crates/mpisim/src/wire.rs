//! Wire codec for the socket transport.
//!
//! The generic machinery — the [`Wire`] trait, the bounds-checked
//! [`WireReader`], CRC-32, and the `[len][crc32][payload]` framing —
//! was extracted into the `pace-wire` crate so other socket protocols
//! (the `pace-serve` daemon) reuse it instead of duplicating it. This
//! module re-exports all of it unchanged and keeps only what is
//! specific to the *transport*: the rendezvous handshake version and
//! the hub's control messages.
//!
//! ## Versioning rules
//!
//! [`WIRE_VERSION`] is exchanged in the `Hello`/`Welcome` handshake and
//! must match exactly — the launcher always spawns workers from the
//! same binary, so a mismatch means a stale binary and the connection
//! is refused. Within a version, fields are append-only: new fields go
//! at the *end* of a message's encoding and decoding must tolerate
//! their absence only across a version bump, never silently.

pub use pace_wire::{
    crc32, drill, read_frame, write_frame, Wire, WireError, WireReader, MAX_FRAME_LEN,
};

/// Wire protocol version exchanged in the rendezvous handshake.
pub const WIRE_VERSION: u32 = 5;

// ---------------------------------------------------------------------
// Transport control messages
// ---------------------------------------------------------------------

/// Control messages the socket transport exchanges beneath the user's
/// message type: the rendezvous handshake and hub-mediated collectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ctl {
    /// Worker → hub, first frame on a fresh connection.
    Hello { version: u32, rank: u32 },
    /// Hub → worker, handshake reply. `epoch_us` is the hub's
    /// observability clock at accept time, letting each worker compute a
    /// clock offset so per-process traces stitch into one timeline.
    Welcome { size: u32, epoch_us: u64 },
    /// Worker → hub: entered a barrier.
    Barrier,
    /// Hub → worker: every rank has entered; proceed.
    BarrierRelease,
    /// Worker → hub: allreduce-sum contribution.
    Sum { vals: Vec<u64> },
    /// Hub → worker: the element-wise total.
    SumResult { vals: Vec<u64> },
}

const CTL_HELLO: u8 = 0;
const CTL_WELCOME: u8 = 1;
const CTL_BARRIER: u8 = 2;
const CTL_BARRIER_RELEASE: u8 = 3;
const CTL_SUM: u8 = 4;
const CTL_SUM_RESULT: u8 = 5;

impl Wire for Ctl {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ctl::Hello { version, rank } => {
                out.push(CTL_HELLO);
                version.encode(out);
                rank.encode(out);
            }
            Ctl::Welcome { size, epoch_us } => {
                out.push(CTL_WELCOME);
                size.encode(out);
                epoch_us.encode(out);
            }
            Ctl::Barrier => out.push(CTL_BARRIER),
            Ctl::BarrierRelease => out.push(CTL_BARRIER_RELEASE),
            Ctl::Sum { vals } => {
                out.push(CTL_SUM);
                vals.encode(out);
            }
            Ctl::SumResult { vals } => {
                out.push(CTL_SUM_RESULT);
                vals.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            CTL_HELLO => Ctl::Hello {
                version: r.u32()?,
                rank: r.u32()?,
            },
            CTL_WELCOME => Ctl::Welcome {
                size: r.u32()?,
                epoch_us: r.u64()?,
            },
            CTL_BARRIER => Ctl::Barrier,
            CTL_BARRIER_RELEASE => Ctl::BarrierRelease,
            CTL_SUM => Ctl::Sum {
                vals: Vec::decode(r)?,
            },
            CTL_SUM_RESULT => Ctl::SumResult {
                vals: Vec::decode(r)?,
            },
            tag => return Err(WireError(format!("unknown Ctl tag {tag:#04x}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ctl_kind_passes_the_wire_drill() {
        for ctl in [
            Ctl::Hello {
                version: WIRE_VERSION,
                rank: 3,
            },
            Ctl::Welcome {
                size: 8,
                epoch_us: 123_456_789,
            },
            Ctl::Barrier,
            Ctl::BarrierRelease,
            Ctl::Sum {
                vals: vec![1, 2, u64::MAX],
            },
            Ctl::SumResult { vals: vec![] },
        ] {
            assert_eq!(drill(&ctl), ctl);
        }
    }

    #[test]
    fn unknown_ctl_tag_rejected() {
        assert!(Ctl::from_bytes(&[0xFF]).is_err());
    }

    #[test]
    fn reexported_framing_is_the_shared_codec() {
        // The extraction must not change behavior: the re-exported
        // framing round-trips and checksums exactly as before.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
