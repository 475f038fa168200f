//! Deterministic, seedable fault injection for the thread-backed runtime.
//!
//! The paper assumes a perfectly reliable IBM SP interconnect; real
//! deployments do not get that luxury. A [`FaultPlan`] describes, as
//! *pure data*, how a world should misbehave:
//!
//! - **drop**: discard the `seq`-th message a rank sends to a peer;
//! - **delay**: hold that message back until the sender has initiated
//!   `k` further sends to the same peer (a delay of 1 swaps two adjacent
//!   messages — reorder is just a special case of delay);
//! - **crash**: a one-shot rank death after a chosen number of completed
//!   sends — every later send is discarded and every later receive
//!   errors, so the rank's closure exits the way a dead process would;
//! - **stall**: a bounded number of fixed sleeps injected at receive and
//!   collective entry points, simulating a straggling rank.
//!
//! All decisions are keyed on *per-channel transport sequence numbers*
//! (the n-th send from rank `a` to rank `b`), which depend only on the
//! sender's own program order — never on thread scheduling — so a plan
//! replays identically on every run. Delayed messages that never mature
//! are flushed when the sender's [`Rank`](crate::Rank) handle drops, so
//! delay alone can never lose a message.
//!
//! The default (empty) plan costs nothing: ranks carry no fault state at
//! all and `send`/`recv` take their original branch-free paths.
//!
//! **Scope.** Injection covers point-to-point messaging and timing only.
//! A crashed rank still participates in collectives if its closure
//! reaches them (the barrier is a shared [`std::sync::Barrier`]; letting
//! a rank vanish from it would hang every peer). The clustering protocol
//! only uses collectives during startup partitioning — before any
//! protocol message flows — so this models "slave dies during
//! clustering" faithfully.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What happens to one targeted message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Discard the message entirely.
    Drop,
    /// Deliver the message only after the sender initiates this many
    /// further sends to the same destination (or when the sender
    /// finishes, whichever comes first).
    Delay(u32),
}

/// A bounded sleep schedule for one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallSpec {
    /// Sleep duration per stall, in milliseconds.
    pub millis: u64,
    /// How many times to stall before the rank runs at full speed again.
    pub times: u32,
}

/// Named fault schedules for [`FaultPlan::seeded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Drop a few messages on every channel (bounded per channel, so
    /// bounded-retry recovery always converges).
    Drop,
    /// Delay/reorder a few messages on every channel.
    Delay,
    /// Crash one non-zero rank after a few sends, plus a brief stall on
    /// another rank.
    Crash,
    /// Drops + delays + one crash.
    Mixed,
    /// No message loss at all: one non-zero rank repeatedly sleeps at
    /// receive/collective entry — a pure straggler. Every flow edge
    /// resolves, which is what the trace smoke check asserts on.
    Stall,
}

impl FromStr for FaultProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "drop" => Ok(FaultProfile::Drop),
            "delay" | "reorder" => Ok(FaultProfile::Delay),
            "crash" => Ok(FaultProfile::Crash),
            "mixed" => Ok(FaultProfile::Mixed),
            "stall" => Ok(FaultProfile::Stall),
            other => Err(format!(
                "unknown fault profile {other:?} (expected drop|delay|crash|mixed|stall)"
            )),
        }
    }
}

impl fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultProfile::Drop => "drop",
            FaultProfile::Delay => "delay",
            FaultProfile::Crash => "crash",
            FaultProfile::Mixed => "mixed",
            FaultProfile::Stall => "stall",
        })
    }
}

/// Maximum drops a seeded profile injects on any one channel. Recovery
/// with `max_retries` above this bound is guaranteed to converge: once a
/// channel's targeted sequence numbers are spent, every message flows.
pub const MAX_SEEDED_DROPS_PER_CHANNEL: u32 = 3;

/// A deterministic fault schedule for one world. Pure data: building a
/// plan performs no I/O and takes no clock, so equal plans produce
/// equal executions (up to wall-clock timing).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// `(from, to, transport_seq)` → action.
    rules: BTreeMap<(usize, usize, u64), FaultAction>,
    /// rank → crash after this many completed sends.
    crashes: BTreeMap<usize, u64>,
    /// rank → stall schedule.
    stalls: BTreeMap<usize, StallSpec>,
}

impl FaultPlan {
    /// The empty plan — the zero-cost default.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.crashes.is_empty() && self.stalls.is_empty()
    }

    /// Drop the `seq`-th message sent from `from` to `to`.
    pub fn drop_msg(mut self, from: usize, to: usize, seq: u64) -> Self {
        self.rules.insert((from, to, seq), FaultAction::Drop);
        self
    }

    /// Delay the `seq`-th message from `from` to `to` past the next `by`
    /// sends on that channel. `by = 1` swaps it with the next message.
    pub fn delay_msg(mut self, from: usize, to: usize, seq: u64, by: u32) -> Self {
        self.rules
            .insert((from, to, seq), FaultAction::Delay(by.max(1)));
        self
    }

    /// Crash `rank` once it has completed `after_sends` sends: the next
    /// send attempt (and everything after it) is discarded and every
    /// subsequent receive errors out.
    pub fn crash(mut self, rank: usize, after_sends: u64) -> Self {
        self.crashes.insert(rank, after_sends);
        self
    }

    /// Stall `rank` for `millis` ms at each of its next `times` receive
    /// or collective entries.
    pub fn stall(mut self, rank: usize, millis: u64, times: u32) -> Self {
        self.stalls.insert(rank, StallSpec { millis, times });
        self
    }

    /// Generate a deterministic plan from a profile and seed for a world
    /// of `world_size` ranks. Equal `(profile, seed, world_size)` always
    /// yields an identical plan. Worlds smaller than 2 get an empty plan.
    ///
    /// Drops and delays target every ordered channel with at most
    /// `MAX_SEEDED_DROPS_PER_CHANNEL` rules each, sampled from the
    /// first dozen transport sequence numbers (where the clustering
    /// protocol's startup and early batches live). Crashes always pick a
    /// non-zero rank — rank 0 hosts the master in the clustering engine,
    /// and killing the coordinator is a different experiment.
    pub fn seeded(profile: FaultProfile, seed: u64, world_size: usize) -> Self {
        let mut plan = FaultPlan::default();
        if world_size < 2 {
            return plan;
        }
        let p = world_size;
        match profile {
            FaultProfile::Drop => plan.add_seeded_rules(seed, p, FaultKind::Drop),
            FaultProfile::Delay => plan.add_seeded_rules(seed, p, FaultKind::Delay),
            FaultProfile::Crash => {
                let mut rng = SplitMix64::new(seed ^ 0xC4A5_11ED);
                let rank = 1 + (rng.next() % (p as u64 - 1)) as usize;
                // After exactly one completed send: the startup report
                // is out, so the master has real protocol state to
                // recover, and the second send attempt (the reply to the
                // first work round) happens on every schedule. Later
                // sends are scheduling-dependent — a rank that gets few
                // batches may never attempt them, leaving the crash
                // armed but never fired.
                plan = plan.crash(rank, 1);
                let straggler = 1 + (rng.next() % (p as u64 - 1)) as usize;
                if straggler != rank {
                    plan = plan.stall(straggler, 1 + rng.next() % 3, 2);
                }
            }
            FaultProfile::Mixed => {
                plan.add_seeded_rules(seed, p, FaultKind::Drop);
                plan.add_seeded_rules(seed ^ 0x5EED, p, FaultKind::Delay);
                let mut rng = SplitMix64::new(seed ^ 0xC4A5_11ED);
                let rank = 1 + (rng.next() % (p as u64 - 1)) as usize;
                // Same rationale as the crash profile: one completed
                // send is the only crash point every schedule reaches.
                plan = plan.crash(rank, 1);
            }
            FaultProfile::Stall => {
                let mut rng = SplitMix64::new(seed ^ 0x57A1_1ED0);
                let rank = 1 + (rng.next() % (p as u64 - 1)) as usize;
                // Long enough to dominate a small run's timeline, so the
                // straggler analyzer's ranking is unambiguous.
                plan = plan.stall(rank, 12 + rng.next() % 12, 3 + (rng.next() % 3) as u32);
            }
        }
        plan
    }

    fn add_seeded_rules(&mut self, seed: u64, p: usize, kind: FaultKind) {
        for from in 0..p {
            for to in 0..p {
                if from == to {
                    continue;
                }
                let mut rng =
                    SplitMix64::new(seed ^ ((from as u64) << 32) ^ (to as u64) ^ kind as u64);
                // 1..=2 rules per channel, well under the recovery bound.
                let n = 1 + (rng.next() % 2) as u32;
                debug_assert!(n <= MAX_SEEDED_DROPS_PER_CHANNEL);
                for _ in 0..n {
                    let seq = rng.next() % 12;
                    let key = (from, to, seq);
                    match kind {
                        FaultKind::Drop => {
                            self.rules.insert(key, FaultAction::Drop);
                        }
                        FaultKind::Delay => {
                            self.rules
                                .insert(key, FaultAction::Delay(1 + (rng.next() % 3) as u32));
                        }
                    }
                }
            }
        }
    }

    /// Whether this plan schedules any rank deaths. The multi-process
    /// launcher uses this to whitelist the injected-crash exit code.
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// Serialize to a compact single-line form, so a launcher can hand
    /// the exact plan to worker processes on their command line. The
    /// empty plan encodes as the empty string.
    ///
    /// Grammar: `;`-separated entries, each one of
    /// `D:from:to:seq` (drop), `Y:from:to:seq:by` (delay),
    /// `C:rank:after_sends` (crash), `S:rank:millis:times` (stall).
    /// BTreeMap iteration makes the encoding canonical: equal plans
    /// encode identically.
    pub fn encode(&self) -> String {
        let mut parts = Vec::new();
        for (&(from, to, seq), action) in &self.rules {
            match action {
                FaultAction::Drop => parts.push(format!("D:{from}:{to}:{seq}")),
                FaultAction::Delay(by) => parts.push(format!("Y:{from}:{to}:{seq}:{by}")),
            }
        }
        for (&rank, &after) in &self.crashes {
            parts.push(format!("C:{rank}:{after}"));
        }
        for (&rank, spec) in &self.stalls {
            parts.push(format!("S:{rank}:{}:{}", spec.millis, spec.times));
        }
        parts.join(";")
    }

    /// Inverse of [`FaultPlan::encode`].
    pub fn decode(s: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for entry in s.split(';').filter(|e| !e.is_empty()) {
            let fields: Vec<&str> = entry.split(':').collect();
            let num = |i: usize| -> Result<u64, String> {
                fields
                    .get(i)
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| format!("bad fault plan entry {entry:?}"))
            };
            match fields.first().copied() {
                Some("D") if fields.len() == 4 => {
                    plan = plan.drop_msg(num(1)? as usize, num(2)? as usize, num(3)?);
                }
                Some("Y") if fields.len() == 5 => {
                    plan =
                        plan.delay_msg(num(1)? as usize, num(2)? as usize, num(3)?, num(4)? as u32);
                }
                Some("C") if fields.len() == 3 => {
                    plan = plan.crash(num(1)? as usize, num(2)?);
                }
                Some("S") if fields.len() == 4 => {
                    plan = plan.stall(num(1)? as usize, num(2)?, num(3)? as u32);
                }
                _ => return Err(format!("bad fault plan entry {entry:?}")),
            }
        }
        Ok(plan)
    }

    /// Compile this plan into the runtime state rank `rank` carries, or
    /// `None` when the plan is empty (the zero-cost path).
    pub(crate) fn compile_for<M>(
        &self,
        rank: usize,
        world_size: usize,
        counters: &Arc<FaultCounters>,
    ) -> Option<RankFaults<M>> {
        if self.is_empty() {
            return None;
        }
        let rules = self
            .rules
            .iter()
            .filter(|((from, _, _), _)| *from == rank)
            .map(|(&(_, to, seq), &action)| ((to, seq), action))
            .collect();
        let stall = self.stalls.get(&rank).copied();
        Some(RankFaults {
            rules,
            send_seq: vec![0; world_size],
            delayed: (0..world_size).map(|_| Vec::new()).collect(),
            crash_after: self.crashes.get(&rank).copied(),
            sends_done: 0,
            crashed: false,
            stall_millis: stall.map_or(0, |s| s.millis),
            stall_left: stall.map_or(0, |s| s.times),
            counters: Arc::clone(counters),
        })
    }
}

#[derive(Clone, Copy)]
enum FaultKind {
    Drop = 0,
    Delay = 1,
}

/// SplitMix64 — the seed expander used by the workspace's `rand` shim.
/// Inlined here so plan generation needs no dependency and stays
/// bit-stable even if the shim evolves.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// World-shared injection counters (atomics; every rank's fault state
/// holds a handle).
#[derive(Debug, Default)]
pub(crate) struct FaultCounters {
    pub(crate) dropped: AtomicU64,
    pub(crate) delayed: AtomicU64,
    pub(crate) crashes: AtomicU64,
    pub(crate) stalls: AtomicU64,
}

impl FaultCounters {
    pub(crate) fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            dropped: self.dropped.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a world's injected-fault counters. All zero
/// when the world ran without a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSnapshot {
    /// Messages discarded by drop rules or post-crash sends.
    pub dropped: u64,
    /// Messages held back by delay rules (all eventually delivered
    /// unless the sender crashed first).
    pub delayed: u64,
    /// Ranks that crashed.
    pub crashes: u64,
    /// Stall sleeps performed.
    pub stalls: u64,
}

/// Per-rank runtime fault state. Owned by the rank's thread; interior
/// mutability is provided by the `RefCell` in [`Rank`](crate::Rank).
pub(crate) struct RankFaults<M> {
    /// `(to, transport_seq)` → action, for this rank as sender.
    rules: std::collections::HashMap<(usize, u64), FaultAction>,
    /// Per-destination count of sends initiated on that channel.
    send_seq: Vec<u64>,
    /// Per-destination held-back messages: `(release_seq, payload)`,
    /// matured once the channel's send count passes `release_seq`.
    delayed: Vec<Vec<(u64, M)>>,
    crash_after: Option<u64>,
    sends_done: u64,
    crashed: bool,
    stall_millis: u64,
    stall_left: u32,
    counters: Arc<FaultCounters>,
}

/// What kind of injected fault hit a send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InjectedKind {
    /// A rule discarded the message.
    Drop,
    /// A rule held the message back for later delivery.
    Delay,
    /// This send was the rank's crash point.
    Crash,
    /// The message was discarded because the rank is already dead.
    CrashDrop,
}

/// Attribution for one injected send-side fault: which channel and which
/// per-channel transport sequence number it hit. This is what lets
/// sinks and traces distinguish drops/delays per channel instead of
/// aggregating anonymously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Injected {
    pub(crate) kind: InjectedKind,
    /// Destination rank of the affected message.
    pub(crate) to: usize,
    /// Transport sequence number on the `(sender, to)` channel.
    pub(crate) seq: u64,
}

/// The sender-side verdict for one message.
pub(crate) enum SendFate<M> {
    /// Deliver the message now, then deliver any matured held messages.
    Deliver(M, Vec<M>),
    /// The message was dropped or held; deliver only the matured ones.
    /// Attribution says which injected fault swallowed it.
    Swallowed(Vec<M>, Injected),
}

impl<M> RankFaults<M> {
    pub(crate) fn crashed(&self) -> bool {
        self.crashed
    }

    /// Decide the fate of a message this rank is sending to `to`.
    pub(crate) fn on_send(&mut self, to: usize, msg: M) -> SendFate<M> {
        if self.crashed {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            let seq = self.send_seq[to];
            return SendFate::Swallowed(
                Vec::new(),
                Injected {
                    kind: InjectedKind::CrashDrop,
                    to,
                    seq,
                },
            );
        }
        if let Some(limit) = self.crash_after {
            if self.sends_done >= limit {
                self.crashed = true;
                self.counters.crashes.fetch_add(1, Ordering::Relaxed);
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                // Held messages die with the rank.
                for q in &mut self.delayed {
                    q.clear();
                }
                let seq = self.send_seq[to];
                return SendFate::Swallowed(
                    Vec::new(),
                    Injected {
                        kind: InjectedKind::Crash,
                        to,
                        seq,
                    },
                );
            }
        }
        self.sends_done += 1;
        let seq = self.send_seq[to];
        self.send_seq[to] = seq + 1;
        let fate = match self.rules.get(&(to, seq)) {
            Some(FaultAction::Drop) => {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                Err(InjectedKind::Drop)
            }
            Some(&FaultAction::Delay(by)) => {
                self.counters.delayed.fetch_add(1, Ordering::Relaxed);
                self.delayed[to].push((seq + u64::from(by), msg));
                Err(InjectedKind::Delay)
            }
            None => Ok(msg),
        };
        let matured = self.take_matured(to);
        match fate {
            Ok(m) => SendFate::Deliver(m, matured),
            Err(kind) => SendFate::Swallowed(matured, Injected { kind, to, seq }),
        }
    }

    /// Held messages for `to` whose release point has passed, in their
    /// original send order.
    fn take_matured(&mut self, to: usize) -> Vec<M> {
        let now = self.send_seq[to];
        let queue = &mut self.delayed[to];
        if queue.is_empty() {
            return Vec::new();
        }
        let mut matured = Vec::new();
        let mut i = 0;
        while i < queue.len() {
            if queue[i].0 < now {
                matured.push(queue.remove(i).1);
            } else {
                i += 1;
            }
        }
        matured
    }

    /// Drain every held message (sender is finishing cleanly). Returns
    /// `(destination, payload)` pairs in per-channel send order.
    pub(crate) fn drain_all(&mut self) -> Vec<(usize, M)> {
        if self.crashed {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (to, queue) in self.delayed.iter_mut().enumerate() {
            for (_, msg) in queue.drain(..) {
                out.push((to, msg));
            }
        }
        out
    }

    /// Perform one stall if the schedule has any left; returns the
    /// milliseconds slept so the caller can trace the stall as a span.
    pub(crate) fn maybe_stall(&mut self) -> Option<u64> {
        if self.stall_left > 0 {
            self.stall_left -= 1;
            self.counters.stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(self.stall_millis));
            Some(self.stall_millis)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_world_with_faults, Rank};

    #[test]
    fn empty_plan_compiles_to_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let counters = Arc::new(FaultCounters::default());
        assert!(plan.compile_for::<u8>(0, 4, &counters).is_none());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        for profile in [
            FaultProfile::Drop,
            FaultProfile::Delay,
            FaultProfile::Crash,
            FaultProfile::Mixed,
            FaultProfile::Stall,
        ] {
            let a = FaultPlan::seeded(profile, 7, 4);
            let b = FaultPlan::seeded(profile, 7, 4);
            assert_eq!(a, b, "{profile} plan not reproducible");
            assert!(!a.is_empty(), "{profile} plan empty");
            let c = FaultPlan::seeded(profile, 8, 4);
            assert_ne!(a, c, "{profile} plan ignores the seed");
        }
        assert!(FaultPlan::seeded(FaultProfile::Drop, 1, 1).is_empty());
    }

    #[test]
    fn plans_round_trip_through_strings() {
        let plans = [
            FaultPlan::none(),
            FaultPlan::none()
                .drop_msg(0, 1, 5)
                .delay_msg(1, 2, 3, 2)
                .crash(2, 4)
                .stall(3, 10, 2),
            FaultPlan::seeded(FaultProfile::Mixed, 91, 4),
            FaultPlan::seeded(FaultProfile::Crash, 7, 8),
        ];
        for plan in plans {
            let s = plan.encode();
            let back = FaultPlan::decode(&s).expect("decode");
            assert_eq!(back, plan, "round trip failed for {s:?}");
        }
        assert_eq!(FaultPlan::none().encode(), "");
        assert!(FaultPlan::decode("D:1:2").is_err());
        assert!(FaultPlan::decode("Q:1:2:3").is_err());
        assert!(FaultPlan::decode("C:a:b").is_err());
    }

    #[test]
    fn has_crashes_reflects_the_plan() {
        assert!(!FaultPlan::none().has_crashes());
        assert!(FaultPlan::none().crash(1, 2).has_crashes());
        assert!(FaultPlan::seeded(FaultProfile::Crash, 3, 4).has_crashes());
        assert!(!FaultPlan::seeded(FaultProfile::Drop, 3, 4).has_crashes());
    }

    #[test]
    fn profile_round_trips_through_strings() {
        for s in ["drop", "delay", "crash", "mixed", "stall"] {
            let p: FaultProfile = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert_eq!("reorder".parse::<FaultProfile>(), Ok(FaultProfile::Delay));
        assert!("chaos".parse::<FaultProfile>().is_err());
    }

    #[test]
    fn stall_profile_is_lossless_and_targets_one_worker() {
        for seed in 0..20 {
            let plan = FaultPlan::seeded(FaultProfile::Stall, seed, 4);
            assert!(plan.rules.is_empty(), "stall profile must not drop/delay");
            assert!(plan.crashes.is_empty(), "stall profile must not crash");
            assert_eq!(plan.stalls.len(), 1);
            let (&rank, spec) = plan.stalls.iter().next().unwrap();
            assert_ne!(rank, 0, "seed {seed} stalls the master");
            assert!(spec.millis >= 12 && spec.times >= 3);
        }
    }

    #[test]
    fn crash_profile_never_targets_rank_zero() {
        for seed in 0..50 {
            let plan = FaultPlan::seeded(FaultProfile::Crash, seed, 5);
            assert!(!plan.crashes.contains_key(&0), "seed {seed} crashes rank 0");
            assert_eq!(plan.crashes.len(), 1);
        }
    }

    #[test]
    fn dropped_message_is_lost_later_ones_flow() {
        let plan = FaultPlan::none().drop_msg(0, 1, 0);
        let out = run_world_with_faults(2, &plan, |rank: Rank<u32>| {
            if rank.rank() == 0 {
                rank.send(1, 111);
                rank.send(1, 222);
                Vec::new()
            } else {
                // Only the second message can arrive; recv then errors
                // out once rank 0 is gone.
                let mut got = vec![rank.recv().unwrap().1];
                while let Ok((_, v)) = rank.recv() {
                    got.push(v);
                }
                got
            }
        });
        assert_eq!(out[1], vec![222]);
    }

    #[test]
    fn delayed_message_is_reordered_not_lost() {
        let plan = FaultPlan::none().delay_msg(0, 1, 0, 1);
        let out = run_world_with_faults(2, &plan, |rank: Rank<u32>| {
            if rank.rank() == 0 {
                rank.send(1, 1);
                rank.send(1, 2);
                rank.send(1, 3);
                Vec::new()
            } else {
                (0..3).map(|_| rank.recv().unwrap().1).collect()
            }
        });
        assert_eq!(out[1], vec![2, 1, 3], "delay(1) must swap the first two");
    }

    #[test]
    fn delayed_tail_is_flushed_when_sender_finishes() {
        // The delayed message never matures by send count; the rank's
        // drop glue must still deliver it.
        let plan = FaultPlan::none().delay_msg(0, 1, 1, 100);
        let out = run_world_with_faults(2, &plan, |rank: Rank<u32>| {
            if rank.rank() == 0 {
                rank.send(1, 10);
                rank.send(1, 20);
                Vec::new()
            } else {
                (0..2).map(|_| rank.recv().unwrap().1).collect()
            }
        });
        assert_eq!(out[1], vec![10, 20]);
    }

    #[test]
    fn crashed_rank_stops_sending_and_recv_errors() {
        let plan = FaultPlan::none().crash(1, 1);
        let out = run_world_with_faults(3, &plan, |rank: Rank<u32>| {
            match rank.rank() {
                0 => {
                    // Receive rank 1's single pre-crash message and all
                    // three of rank 2's.
                    let mut got: Vec<u32> = Vec::new();
                    for _ in 0..4 {
                        got.push(rank.recv().unwrap().1);
                    }
                    got.sort_unstable();
                    got
                }
                1 => {
                    rank.send(0, 1); // delivered
                    rank.send(0, 2); // crash point: discarded
                    rank.send(0, 3); // dead: discarded
                    assert!(rank.recv().is_err(), "crashed rank must not receive");
                    assert!(rank.try_recv().is_err());
                    Vec::new()
                }
                _ => {
                    rank.send(0, 100);
                    rank.send(0, 200);
                    rank.send(0, 300);
                    Vec::new()
                }
            }
        });
        assert_eq!(out[0], vec![1, 100, 200, 300]);
    }

    #[test]
    fn stalls_slow_a_rank_but_change_nothing() {
        let plan = FaultPlan::none().stall(1, 1, 3);
        let out = run_world_with_faults(2, &plan, |rank: Rank<u8>| {
            if rank.rank() == 0 {
                rank.send(1, 9);
                0
            } else {
                rank.recv().unwrap().1
            }
        });
        assert_eq!(out[1], 9);
    }

    #[test]
    fn injection_counters_are_reported() {
        let plan = FaultPlan::none()
            .drop_msg(0, 1, 0)
            .delay_msg(0, 1, 1, 1)
            .crash(1, 0);
        let out = run_world_with_faults(2, &plan, |rank: Rank<u8>| {
            if rank.rank() == 0 {
                rank.send(1, 1); // dropped
                rank.send(1, 2); // delayed
                rank.send(1, 3); // delivers, matures the delayed one
            } else {
                rank.send(0, 9); // crash point
                while rank.recv().is_ok() {}
            }
            rank.barrier();
            rank.fault_stats()
        });
        let snap = out[0];
        assert_eq!(snap.dropped, 2, "one rule drop + one crash drop");
        assert_eq!(snap.delayed, 1);
        assert_eq!(snap.crashes, 1);
    }

    // -- collectives under injected timing faults (delay/stall) --------

    #[test]
    fn barrier_completes_under_stalls() {
        let plan = FaultPlan::none().stall(1, 2, 2).stall(2, 1, 3);
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        let out = run_world_with_faults(3, &plan, |rank: Rank<()>| {
            before.fetch_add(1, Ordering::SeqCst);
            rank.barrier();
            // Every rank must have passed the pre-barrier increment.
            before.load(Ordering::SeqCst)
        });
        assert!(out.iter().all(|&n| n == 3), "barrier leaked a stalled rank");
    }

    #[test]
    fn reductions_are_correct_under_stalls_and_p2p_delays() {
        // Delays on point-to-point channels plus stalls on two ranks must
        // not perturb collective results.
        let plan = FaultPlan::seeded(FaultProfile::Delay, 3, 4)
            .stall(1, 1, 4)
            .stall(3, 2, 2);
        let out = run_world_with_faults(4, &plan, |rank: Rank<u64>| {
            let local = vec![rank.rank() as u64, 1, 2 * rank.rank() as u64];
            let sums = rank.allreduce_sum(&local);
            let max = rank.allreduce_max(10 + rank.rank() as u64);
            rank.barrier();
            // Repeat to prove the collective state is not corrupted.
            let sums2 = rank.allreduce_sum(&[5]);
            (sums, max, sums2[0])
        });
        for r in &out {
            assert_eq!(r.0, vec![6, 4, 12]);
            assert_eq!(r.1, 13);
            assert_eq!(r.2, 20);
        }
    }

    #[test]
    fn reductions_remain_correct_on_repeated_stalled_rounds() {
        let plan = FaultPlan::none().stall(2, 1, 8);
        let out = run_world_with_faults(3, &plan, |rank: Rank<()>| {
            let mut acc = 0u64;
            for i in 0..20 {
                acc += rank.allreduce_sum(&[i])[0];
            }
            acc
        });
        let expected: u64 = (0..20u64).map(|i| i * 3).sum();
        assert!(out.iter().all(|&v| v == expected));
    }
}
