//! A thread-backed message-passing runtime standing in for MPI.
//!
//! The paper runs on an IBM SP under MPI with one master and `p − 1` slave
//! processors. This crate reproduces the *programming model* — ranks,
//! blocking point-to-point `send`/`recv`, barriers, and the reduction
//! collective used for bucket-size summation — on top of OS threads and
//! crossbeam channels, so the clustering engine reads exactly like the
//! paper's MPI code while remaining a single portable process.
//!
//! This is the documented substitution for the paper's hardware testbed:
//! the algorithms are topology-agnostic (master–slave batching plus a
//! bucket partition), so thread-ranks preserve every behaviour the
//! evaluation measures except absolute wall-clock constants.
//!
//! ```
//! use pace_mpisim::run_world;
//!
//! // Every rank sends its rank number to rank 0, which sums them.
//! let results = run_world(4, |rank| {
//!     if rank.rank() == 0 {
//!         let mut total = 0usize;
//!         for _ in 1..rank.size() {
//!             let (_, v) = rank.recv().unwrap();
//!             total += v;
//!         }
//!         total
//!     } else {
//!         rank.send(0, rank.rank());
//!         0
//!     }
//! });
//! assert_eq!(results[0], 1 + 2 + 3);
//! ```

//! Since PR 7 the runtime is *pluggable*: [`Rank`] delegates delivery
//! to a [`Transport`] backend. The thread/channel world above remains
//! the default; [`UdsHub`]/[`UdsEndpoint`] run the same protocol with
//! one OS process per rank over Unix-domain sockets and the hand-rolled
//! wire codec in [`wire`].

mod collectives;
mod fault;
mod rank;
mod stats;
mod transport;
mod uds;
pub mod wire;
mod world;

pub use fault::{FaultAction, FaultPlan, FaultProfile, FaultSnapshot, StallSpec};
pub use rank::{Rank, RecvError};
pub use stats::{CommStats, WorldStats};
pub use transport::{ChannelTransport, Transport};
pub use uds::{UdsEndpoint, UdsHub, INJECTED_CRASH_EXIT};
pub use world::{run_world, run_world_obs, run_world_with_faults};
