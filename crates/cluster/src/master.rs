//! The master processor's state machine.
//!
//! The master owns the work buffer and a [`ClusterCore`] (`CLUSTERS`,
//! the merge trace and the pair counters), and reacts to slave reports.
//! It uses the core's skip test and accept step but never its `drain`:
//! slaves do the aligning. It is written as a pure state machine (no
//! I/O, no `Obs`, no clock — the caller passes timestamps) so the
//! protocol logic is unit-testable without threads. The parallel driver
//! feeds it received messages plus periodic `tick`s and sends whatever
//! it returns.
//!
//! Protocol invariant: a slave piggybacks the results of work batch `k`
//! on the report it sends when work batch `k+1` arrives. The master
//! therefore may park a slave (send no reply) only when it is owed no
//! results; otherwise it sends an empty `Work` to flush them back.
//!
//! ## Recovery
//!
//! Every `Work` carries a per-slave sequence number and is remembered
//! until its report arrives; at most one batch per slave is ever
//! outstanding. If the report misses its deadline the batch is re-sent
//! under the *same* sequence number (slaves answer duplicates from a
//! cached report, so nothing is aligned twice), and after
//! `max_retries` resends the slave is declared dead: its outstanding
//! pairs go back on the work buffer for the survivors and the run
//! degrades to `p − 2` workers. Reports that do not match the expected
//! sequence number — duplicates from recovered slaves, stragglers from
//! slaves already declared dead, or messages still in flight when the
//! world tears down — are counted and ignored rather than corrupting
//! state (or, as an earlier version did, tripping an assertion).

use crate::align_task::PairOutcome;
use crate::cluster_core::ClusterCore;
use crate::config::ClusterConfig;
use crate::messages::Msg;
use pace_dsu::DisjointSets;
use pace_pairgen::CandidatePair;
use std::collections::VecDeque;

/// Cap applied to the demand amplification factor α = P/P′ when a report
/// contributes no useful pairs (P′ = 0).
const ALPHA_CAP: f64 = 4.0;

/// A recovery action the master took, for the driver to surface as a
/// fault event. Purely observational — counters live in
/// [`ClusterStats::faults`](crate::stats::FaultStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultNote {
    /// An outstanding batch was re-sent.
    Resend { slave: usize, seq: u64 },
    /// A slave exhausted its retry budget; `reassigned` of its pairs
    /// went back on the work buffer.
    DeadSlave { slave: usize, reassigned: usize },
    /// A report was ignored as duplicate or stale.
    DuplicateReport { slave: usize, seq: u64 },
    /// Queued pairs were discarded because no live slave remained.
    Abandoned { pairs: u64 },
}

/// Per-slave protocol state.
struct SlaveLink {
    /// Slave has permanently run out of pairs to generate.
    exhausted: bool,
    /// Declared dead after exhausting the retry budget.
    dead: bool,
    /// Sequence number of the outstanding message we await a report for
    /// (`Some(0)` initially: the unsolicited startup report).
    expecting: Option<u64>,
    /// The work batch behind `expecting`, kept verbatim for resend and
    /// reassignment. `None` while awaiting the startup report.
    pending: Option<(Vec<CandidatePair>, usize)>,
    /// The last work batch sent was non-empty, so its results are still
    /// on the slave (initially true: the slave's self-assigned second
    /// startup portion plays the role of the first work batch).
    owed_results: bool,
    /// Next fresh sequence number (startup is 0; batches count from 1).
    next_seq: u64,
    /// When the outstanding report is overdue (`INFINITY` = never; armed
    /// by [`Master::begin`] and every send).
    deadline: f64,
    /// Resends already performed for the outstanding sequence number.
    retries: u32,
}

/// Master state: `CLUSTERS` + `WORKBUF` + flow control + recovery.
pub struct Master {
    /// `CLUSTERS`, the merge trace and the counters. `pairs_generated`
    /// counts the pairs *received* in reports — under message loss this
    /// is less than what the generators emitted; the driver reconciles.
    pub core: ClusterCore,
    workbuf: VecDeque<CandidatePair>,
    cfg: ClusterConfig,
    num_slaves: usize,
    links: Vec<SlaveLink>,
    /// Slaves parked without work (all of them exhausted and flushed).
    waiting: VecDeque<usize>,
    /// Recovery actions since the last [`Master::drain_fault_notes`].
    notes: Vec<FaultNote>,
    done: bool,
}

impl Master {
    /// A master over `num_ests` ESTs and `num_slaves` slave ranks.
    ///
    /// Every slave is initially expected to send the unsolicited startup
    /// report (first portion's results + third portion's pairs) under
    /// sequence number 0. Deadlines stay unarmed (infinite) until
    /// [`Master::begin`].
    pub fn new(num_ests: usize, num_slaves: usize, cfg: ClusterConfig) -> Self {
        assert!(num_slaves > 0, "need at least one slave");
        Master {
            core: ClusterCore::new(DisjointSets::new(num_ests), &cfg),
            workbuf: VecDeque::new(),
            cfg,
            num_slaves,
            links: (0..num_slaves)
                .map(|_| SlaveLink {
                    exhausted: false,
                    dead: false,
                    expecting: Some(0),
                    pending: None,
                    owed_results: true,
                    next_seq: 1,
                    deadline: f64::INFINITY,
                    retries: 0,
                })
                .collect(),
            waiting: VecDeque::new(),
            notes: Vec::new(),
            done: false,
        }
    }

    /// Arm the startup-report deadlines. Call once when the protocol
    /// loop starts; without it the master never times anyone out.
    pub fn begin(&mut self, now: f64) {
        for link in &mut self.links {
            if link.expecting.is_some() && !link.dead {
                link.deadline = now + self.cfg.slave_timeout;
            }
        }
    }

    /// Whether clustering has completed (shutdowns have been issued).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Pairs currently queued for alignment.
    pub fn workbuf_len(&self) -> usize {
        self.workbuf.len()
    }

    /// Whether `slave` has been declared dead.
    pub fn is_dead(&self, slave: usize) -> bool {
        self.links[slave].dead
    }

    /// Whether `slave` is parked (exhausted, flushed, awaiting work).
    pub fn is_parked(&self, slave: usize) -> bool {
        self.waiting.contains(&slave)
    }

    /// The sequence number of the report the master currently awaits
    /// from `slave`, if any.
    pub fn expected_seq(&self, slave: usize) -> Option<u64> {
        self.links[slave].expecting
    }

    /// Recovery actions accumulated since the last drain, in order.
    pub fn drain_fault_notes(&mut self) -> Vec<FaultNote> {
        std::mem::take(&mut self.notes)
    }

    /// Handle one slave report (slave ids are `0..num_slaves`). Returns
    /// the messages to send, as `(slave, message)` pairs — the reply to
    /// the reporting slave, possibly wake-ups for parked slaves, and
    /// shutdowns once everything is finished.
    ///
    /// A report whose `seq` is not the one outstanding for that slave —
    /// or from a slave already declared dead — is counted and dropped:
    /// resends make duplicates a normal occurrence, and each sequence
    /// number must be folded into `CLUSTERS` exactly once.
    pub fn handle_report(
        &mut self,
        slave: usize,
        seq: u64,
        results: Vec<PairOutcome>,
        pairs: Vec<CandidatePair>,
        exhausted: bool,
        now: f64,
    ) -> Vec<(usize, Msg)> {
        debug_assert!(slave < self.num_slaves);
        let link = &mut self.links[slave];
        if link.dead || link.expecting != Some(seq) {
            self.core.stats.faults.duplicate_reports += 1;
            self.notes.push(FaultNote::DuplicateReport { slave, seq });
            return Vec::new();
        }
        link.expecting = None;
        link.pending = None;
        link.retries = 0;
        link.deadline = f64::INFINITY;
        link.exhausted |= exhausted;

        // 1. Fold the alignment results into CLUSTERS.
        for r in &results {
            self.core.accept(r);
        }

        // 2. Admit the useful subset of the reported pairs (P′ of P):
        //    a pair earns a WORKBUF slot only if its ESTs are still in
        //    different clusters.
        let p = pairs.len();
        self.core.stats.pairs_generated += p as u64;
        let before = self.workbuf.len();
        for pair in pairs {
            if !self.core.skip(&pair) {
                self.workbuf.push_back(pair);
            }
        }
        let p_useful = self.workbuf.len() - before;

        let mut out = Vec::new();

        // 3. Reply to the reporting slave.
        if let Some(msg) = self.reply_for(slave, p, p_useful, now) {
            out.push((slave, msg));
        }

        // 4. Excess work re-activates parked slaves.
        self.dispatch_waiting(now, &mut out);

        // 5. Termination check.
        self.maybe_finish(&mut out);
        out
    }

    /// Deadline sweep: re-send overdue batches, declare slaves past
    /// their retry budget dead (reassigning their pairs), and re-check
    /// dispatch and termination. The driver calls this on every poll
    /// cycle; with no deadline passed it returns nothing.
    pub fn tick(&mut self, now: f64) -> Vec<(usize, Msg)> {
        let mut out = Vec::new();
        if self.done {
            return out;
        }
        for s in 0..self.num_slaves {
            let link = &mut self.links[s];
            let Some(seq) = link.expecting else { continue };
            if link.dead || now < link.deadline {
                continue;
            }
            if link.retries < self.cfg.max_retries {
                link.retries += 1;
                link.deadline = now + self.cfg.slave_timeout;
                let msg = match &link.pending {
                    Some((work, request)) => Msg::Work {
                        seq,
                        pairs: work.clone(),
                        request: *request,
                    },
                    // The startup report is missing: probe with an empty
                    // batch under seq 0 — the slave answers duplicates
                    // with its cached report.
                    None => Msg::Work {
                        seq: 0,
                        pairs: Vec::new(),
                        request: 0,
                    },
                };
                self.core.stats.faults.retries += 1;
                self.notes.push(FaultNote::Resend { slave: s, seq });
                out.push((s, msg));
            } else {
                self.declare_dead(s);
            }
        }
        self.dispatch_waiting(now, &mut out);
        self.maybe_finish(&mut out);
        out
    }

    /// The runtime reported that no message can ever arrive again (the
    /// world is tearing down). Write off every slave still owing us
    /// anything, discard undispatchable work, and finish — the in-flight
    /// messages we will never see must not keep the master looping.
    pub fn handle_world_down(&mut self) {
        for s in 0..self.num_slaves {
            let l = &self.links[s];
            if !l.dead && (l.expecting.is_some() || l.owed_results || !l.exhausted) {
                self.declare_dead(s);
            }
        }
        self.abandon_workbuf();
        self.done = true;
    }

    /// Build the `Work { W, E }` reply, or `None` when the slave can be
    /// parked: nothing to align, nothing to request, nothing owed.
    fn reply_for(&mut self, slave: usize, p: usize, p_useful: usize, now: f64) -> Option<Msg> {
        let work = self.drain_work();

        let request = if self.links[slave].exhausted {
            0
        } else {
            // α = P / P′ (how many raw pairs buy one useful pair).
            let alpha = if p_useful > 0 {
                (p as f64 / p_useful as f64).min(ALPHA_CAP)
            } else if p > 0 {
                ALPHA_CAP
            } else {
                1.0
            };
            // δ = p / (active slaves): over-request to keep passive slaves
            // supplied with alignment work.
            let active = self.links.iter().filter(|l| !l.exhausted).count().max(1);
            let delta = self.num_slaves as f64 / active as f64;
            let nfree = self.cfg.workbuf_cap.saturating_sub(self.workbuf.len());
            let demand = (alpha * delta * self.cfg.batchsize as f64).round() as usize;
            // Active slaves always request at least one pair so they never
            // stall silently.
            demand.min(nfree / self.num_slaves).max(1)
        };

        if work.is_empty() && request == 0 && !self.links[slave].owed_results {
            self.waiting.push_back(slave);
            return None;
        }
        Some(self.send_work(slave, work, request, now))
    }

    /// Record a fresh outgoing batch for `slave` — sequence number,
    /// resend copy, deadline — and build its message.
    fn send_work(
        &mut self,
        slave: usize,
        work: Vec<CandidatePair>,
        request: usize,
        now: f64,
    ) -> Msg {
        let link = &mut self.links[slave];
        debug_assert!(!link.dead && link.expecting.is_none());
        let seq = link.next_seq;
        link.next_seq += 1;
        link.owed_results = !work.is_empty();
        link.expecting = Some(seq);
        link.pending = Some((work.clone(), request));
        link.retries = 0;
        link.deadline = now + self.cfg.slave_timeout;
        Msg::Work {
            seq,
            pairs: work,
            request,
        }
    }

    /// Hand queued work to parked slaves while both exist.
    fn dispatch_waiting(&mut self, now: f64, out: &mut Vec<(usize, Msg)>) {
        while !self.workbuf.is_empty() && !self.waiting.is_empty() {
            let s = self.waiting.pop_front().expect("checked non-empty");
            let work = self.drain_work();
            if work.is_empty() {
                // Everything left in the buffer got skipped; re-park.
                self.waiting.push_front(s);
                break;
            }
            out.push((s, self.send_work(s, work, 0, now)));
        }
    }

    /// Termination: every slave dead, or out of pairs with nothing
    /// outstanding; no queued work (unless nobody is left to run it).
    fn maybe_finish(&mut self, out: &mut Vec<(usize, Msg)>) {
        if self.done {
            return;
        }
        let settled = self
            .links
            .iter()
            .all(|l| l.dead || (l.exhausted && l.expecting.is_none() && !l.owed_results));
        if !settled {
            return;
        }
        if !self.workbuf.is_empty() {
            // A live settled slave is parked, and `dispatch_waiting` ran
            // before this check — so leftover work means everyone died.
            if self.links.iter().any(|l| !l.dead) {
                return;
            }
            self.abandon_workbuf();
        }
        self.done = true;
        // Dead slaves get one too: if a "dead" slave was merely slow,
        // the shutdown releases it; if truly gone, the send is discarded.
        for s in 0..self.num_slaves {
            out.push((s, Msg::Shutdown));
        }
    }

    /// Give up on `slave`: mark it dead and put its outstanding batch
    /// back on the work buffer for the survivors.
    fn declare_dead(&mut self, slave: usize) {
        let link = &mut self.links[slave];
        link.dead = true;
        link.exhausted = true;
        link.expecting = None;
        link.owed_results = false;
        link.deadline = f64::INFINITY;
        let pending = link.pending.take();
        let reassigned = pending.as_ref().map_or(0, |(w, _)| w.len());
        if let Some((work, _)) = pending {
            for pair in work {
                self.workbuf.push_back(pair);
            }
        }
        self.waiting.retain(|&w| w != slave);
        let faults = &mut self.core.stats.faults;
        faults.dead_slaves += 1;
        faults.reassigned_pairs += reassigned as u64;
        self.notes.push(FaultNote::DeadSlave { slave, reassigned });
    }

    /// Discard everything still queued (no live slave remains), keeping
    /// flow conservation: abandoned pairs count as skipped.
    fn abandon_workbuf(&mut self) {
        let n = self.workbuf.len() as u64;
        if n == 0 {
            return;
        }
        self.workbuf.clear();
        self.core.stats.pairs_skipped += n;
        self.core.stats.faults.abandoned_pairs += n;
        self.notes.push(FaultNote::Abandoned { pairs: n });
    }

    /// Pull up to `batchsize` pairs from WORKBUF, re-checking each against
    /// the *latest* cluster state (a pair admitted earlier may have become
    /// redundant since).
    fn drain_work(&mut self) -> Vec<CandidatePair> {
        let mut work = Vec::with_capacity(self.cfg.batchsize.min(self.workbuf.len()));
        while work.len() < self.cfg.batchsize {
            let Some(pair) = self.workbuf.pop_front() else {
                break;
            };
            if !self.core.skip(&pair) {
                work.push(pair);
            }
        }
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_seq::{EstId, Strand};

    fn pair(i: u32, j: u32) -> CandidatePair {
        CandidatePair {
            s1: EstId(i).str_id(Strand::Forward),
            s2: EstId(j).str_id(Strand::Forward),
            off1: 0,
            off2: 0,
            mcs_len: 30,
        }
    }

    fn outcome(i: u32, j: u32, accepted: bool) -> PairOutcome {
        PairOutcome {
            pair: pair(i, j),
            accepted,
            score_ratio: if accepted { 0.95 } else { 0.2 },
        }
    }

    fn cfg() -> ClusterConfig {
        let mut c = ClusterConfig::small();
        c.batchsize = 4;
        c.workbuf_cap = 64;
        c
    }

    /// Deliver a report under the sequence number the master currently
    /// expects from `slave` — the happy path every pre-recovery test
    /// exercised.
    fn report(
        m: &mut Master,
        slave: usize,
        results: Vec<PairOutcome>,
        pairs: Vec<CandidatePair>,
        exhausted: bool,
    ) -> Vec<(usize, Msg)> {
        let seq = m
            .expected_seq(slave)
            .expect("test sent a report the master is not expecting");
        m.handle_report(slave, seq, results, pairs, exhausted, 0.0)
    }

    /// Report with `exhausted: true` and nothing else, repeatedly, until
    /// the master stops responding — drains the flush handshake.
    fn drain_slave(m: &mut Master, slave: usize) -> Vec<(usize, Msg)> {
        let mut all = Vec::new();
        loop {
            let replies = report(m, slave, vec![], vec![], true);
            let work_for_me = replies
                .iter()
                .any(|(s, msg)| *s == slave && matches!(msg, Msg::Work { .. }));
            all.extend(replies);
            if !work_for_me {
                return all;
            }
        }
    }

    #[test]
    fn accepted_results_merge_clusters() {
        let mut m = Master::new(10, 1, cfg());
        let replies = report(
            &mut m,
            0,
            vec![outcome(1, 2, true), outcome(3, 4, false)],
            vec![],
            false,
        );
        assert_eq!(m.core.stats.pairs_processed, 2);
        assert_eq!(m.core.stats.pairs_accepted, 1);
        assert_eq!(m.core.stats.merges, 1);
        // Active slave always gets a reply with positive demand.
        assert_eq!(replies.len(), 1);
        match &replies[0].1 {
            Msg::Work { pairs, request, .. } => {
                assert!(pairs.is_empty());
                assert!(*request > 0);
            }
            other => panic!("expected Work, got {}", other.kind()),
        }
        assert!(m.core.sets.same(1, 2));
        assert!(!m.core.sets.same(3, 4));
    }

    #[test]
    fn redundant_pairs_are_skipped_at_admission() {
        let mut m = Master::new(10, 1, cfg());
        report(&mut m, 0, vec![outcome(1, 2, true)], vec![], false);
        report(&mut m, 0, vec![], vec![pair(1, 2), pair(5, 6)], false);
        assert_eq!(m.core.stats.pairs_generated, 2);
        assert_eq!(m.core.stats.pairs_skipped, 1);
    }

    #[test]
    fn work_is_rechecked_at_dispatch() {
        let mut c = cfg();
        c.batchsize = 1; // the duplicate stays queued while (5,6) merges
        let mut m = Master::new(10, 1, c);
        let replies = report(&mut m, 0, vec![], vec![pair(5, 6), pair(5, 6)], false);
        match &replies[0].1 {
            Msg::Work { pairs, .. } => assert_eq!(pairs.len(), 1),
            other => panic!("unexpected {}", other.kind()),
        }
        // The dispatched pair merges 5 and 6; the queued duplicate must be
        // dropped at the next dispatch.
        let replies = report(&mut m, 0, vec![outcome(5, 6, true)], vec![], false);
        match &replies[0].1 {
            Msg::Work { pairs, .. } => assert!(pairs.is_empty(), "stale pair dispatched"),
            other => panic!("unexpected {}", other.kind()),
        }
        assert_eq!(m.core.stats.pairs_skipped, 1);
    }

    #[test]
    fn exhausted_slaves_are_flushed_then_shut_down() {
        let mut m = Master::new(10, 2, cfg());
        // Both slaves report exhausted. Each first gets an empty flush
        // Work (their startup portion-2 results are still owed), then
        // parks; once both are parked the master shuts everything down.
        let r0 = drain_slave(&mut m, 0);
        assert!(
            r0.iter()
                .any(|(s, msg)| *s == 0
                    && matches!(msg, Msg::Work { pairs, .. } if pairs.is_empty())),
            "flush Work expected"
        );
        assert!(!m.is_done());
        let r1 = drain_slave(&mut m, 1);
        assert!(m.is_done());
        let shutdowns = r1
            .iter()
            .filter(|(_, msg)| matches!(msg, Msg::Shutdown))
            .count();
        assert_eq!(shutdowns, 2);
    }

    #[test]
    fn parked_slave_is_woken_by_new_work() {
        let mut m = Master::new(40, 2, cfg());
        drain_slave(&mut m, 0); // slave 0 exhausted, flushed, parked
        assert!(!m.is_done());
        assert!(m.is_parked(0));
        // Slave 1 reports fresh pairs; slave 0 must be woken with work.
        let replies = report(
            &mut m,
            1,
            vec![],
            (0..6).map(|k| pair(2 * k, 2 * k + 1)).collect(),
            false,
        );
        let to_slave0: Vec<_> = replies.iter().filter(|(s, _)| *s == 0).collect();
        assert_eq!(to_slave0.len(), 1);
        match &to_slave0[0].1 {
            Msg::Work { pairs, request, .. } => {
                assert!(!pairs.is_empty());
                assert_eq!(*request, 0, "exhausted slave asked for pairs");
            }
            other => panic!("unexpected {}", other.kind()),
        }
        assert!(!m.is_parked(0));
    }

    #[test]
    fn termination_waits_for_outstanding_results() {
        let mut m = Master::new(10, 1, cfg());
        // Slave gets real work, so the master owes it a flush even after
        // it reports exhausted.
        let replies = report(&mut m, 0, vec![], vec![pair(0, 1)], true);
        match &replies[0].1 {
            Msg::Work { pairs, .. } => assert_eq!(pairs.len(), 1),
            other => panic!("unexpected {}", other.kind()),
        }
        assert!(!m.is_done());
        // Results of that work come back; master flushes (empty Work).
        let replies = report(&mut m, 0, vec![outcome(0, 1, true)], vec![], true);
        assert!(
            matches!(&replies[0].1, Msg::Work { pairs, .. } if pairs.is_empty()),
            "flush expected"
        );
        assert!(!m.is_done());
        // Empty report closes the loop: now shutdown.
        let replies = report(&mut m, 0, vec![], vec![], true);
        assert!(m.is_done());
        assert!(replies.iter().any(|(_, msg)| matches!(msg, Msg::Shutdown)));
        assert_eq!(m.core.stats.merges, 1);
    }

    #[test]
    fn demand_respects_workbuf_free_space() {
        let mut c = cfg();
        c.workbuf_cap = 8;
        c.batchsize = 4;
        let mut m = Master::new(100, 1, c);
        let pairs: Vec<_> = (0..8).map(|k| pair(2 * k, 2 * k + 1)).collect();
        let replies = report(&mut m, 0, vec![], pairs, false);
        match &replies[0].1 {
            Msg::Work { pairs, request, .. } => {
                // 4 dispatched, 4 remain; nfree = 8 − 4 = 4 → E ≤ 4.
                assert_eq!(pairs.len(), 4);
                assert!(*request <= 4, "request {request} exceeds free space");
            }
            other => panic!("unexpected {}", other.kind()),
        }
    }

    #[test]
    fn stats_balance_generated() {
        let mut m = Master::new(10, 1, cfg());
        report(
            &mut m,
            0,
            vec![outcome(0, 1, true)],
            vec![pair(0, 1), pair(2, 3)],
            false,
        );
        assert_eq!(m.core.stats.pairs_generated, 2);
        assert_eq!(m.core.stats.pairs_skipped, 1);
    }

    // ---- recovery machinery ------------------------------------------

    #[test]
    fn sequence_numbers_are_per_slave_and_monotonic() {
        let mut m = Master::new(10, 2, cfg());
        let r = report(&mut m, 0, vec![], vec![], false);
        let Msg::Work { seq, .. } = &r[0].1 else {
            panic!("expected Work");
        };
        assert_eq!(*seq, 1);
        assert_eq!(m.expected_seq(0), Some(1));
        let r = m.handle_report(0, 1, vec![], vec![], false, 0.0);
        let Msg::Work { seq, .. } = &r[0].1 else {
            panic!("expected Work");
        };
        assert_eq!(*seq, 2);
        // Slave 1 still counts from its own startup sequence.
        assert_eq!(m.expected_seq(1), Some(0));
    }

    #[test]
    fn stale_or_unsolicited_reports_are_ignored_not_fatal() {
        // Regression: this used to trip `debug_assert!(expecting_report)`
        // and corrupt counters in release builds. A report the master is
        // not waiting for must be a counted no-op.
        let mut m = Master::new(10, 1, cfg());
        report(&mut m, 0, vec![], vec![], false); // consume startup (now expecting seq 1)
        let replies = m.handle_report(
            0,
            99,
            vec![outcome(1, 2, true)],
            vec![pair(3, 4)],
            true,
            0.0,
        );
        assert!(replies.is_empty(), "stale report must produce no sends");
        assert_eq!(m.core.stats.faults.duplicate_reports, 1);
        assert_eq!(m.core.stats.pairs_processed, 0, "stale results folded");
        assert_eq!(m.core.stats.pairs_generated, 0, "stale pairs admitted");
        assert!(!m.is_done());
        assert_eq!(
            m.drain_fault_notes(),
            vec![FaultNote::DuplicateReport { slave: 0, seq: 99 }]
        );
    }

    #[test]
    fn overdue_batch_is_resent_with_same_sequence_number() {
        let mut c = cfg();
        c.slave_timeout = 1.0;
        c.max_retries = 3;
        let mut m = Master::new(40, 1, c);
        let r = report(
            &mut m,
            0,
            vec![],
            (0..4).map(|k| pair(2 * k, 2 * k + 1)).collect(),
            false,
        );
        let Msg::Work {
            seq,
            pairs,
            request,
        } = &r[0].1
        else {
            panic!("expected Work");
        };
        let (orig_seq, orig_pairs, orig_request) = (*seq, pairs.clone(), *request);

        assert!(m.tick(0.5).is_empty(), "deadline not reached yet");
        let r = m.tick(1.5);
        assert_eq!(r.len(), 1);
        let Msg::Work {
            seq,
            pairs,
            request,
        } = &r[0].1
        else {
            panic!("expected resent Work");
        };
        assert_eq!(*seq, orig_seq, "resend must reuse the sequence number");
        assert_eq!(pairs.len(), orig_pairs.len());
        assert_eq!(*request, orig_request);
        assert_eq!(m.core.stats.faults.retries, 1);
        // The resent batch is answered normally.
        let r = m.handle_report(0, orig_seq, vec![], vec![], true, 2.0);
        assert!(!r.is_empty());
        assert_eq!(m.core.stats.faults.dead_slaves, 0);
    }

    #[test]
    fn startup_silence_is_probed_then_fatal() {
        let mut c = cfg();
        c.slave_timeout = 1.0;
        c.max_retries = 2;
        let mut m = Master::new(10, 1, c);
        m.begin(0.0);
        // Two probes under seq 0, then death; with every slave dead the
        // run finishes (shutdown still sent in case it was merely slow).
        let r = m.tick(1.5);
        assert!(
            matches!(&r[0].1, Msg::Work { seq: 0, pairs, request: 0 } if pairs.is_empty()),
            "expected empty probe"
        );
        let r = m.tick(3.0);
        assert_eq!(r.len(), 1);
        let r = m.tick(4.5);
        assert!(m.is_dead(0));
        assert!(m.is_done(), "all slaves dead must terminate the run");
        assert!(r.iter().any(|(_, msg)| matches!(msg, Msg::Shutdown)));
        assert_eq!(m.core.stats.faults.dead_slaves, 1);
        assert_eq!(m.core.stats.faults.retries, 2);
    }

    #[test]
    fn dead_slaves_pairs_are_reassigned_to_survivors() {
        let mut c = cfg();
        c.slave_timeout = 1.0;
        c.max_retries = 0; // first missed deadline is fatal
        let mut m = Master::new(40, 2, c);
        // Slave 0 takes a 4-pair batch and then goes silent.
        let r = report(
            &mut m,
            0,
            vec![],
            (0..8).map(|k| pair(2 * k, 2 * k + 1)).collect(),
            true,
        );
        let Msg::Work { pairs, .. } = &r[0].1 else {
            panic!("expected Work");
        };
        assert_eq!(pairs.len(), 4);
        let before = m.workbuf_len();
        m.tick(2.0);
        assert!(m.is_dead(0));
        assert_eq!(m.core.stats.faults.reassigned_pairs, 4);
        assert_eq!(m.workbuf_len(), before + 4, "pending batch reclaimed");
        assert!(!m.is_done(), "slave 1 still owes its startup report");
        // Slave 1 arrives and inherits the reassigned work.
        let r = report(&mut m, 1, vec![], vec![], true);
        assert!(
            r.iter()
                .any(|(s, msg)| *s == 1
                    && matches!(msg, Msg::Work { pairs, .. } if !pairs.is_empty())),
            "survivor did not receive reassigned pairs"
        );
        let notes = m.drain_fault_notes();
        assert!(notes.iter().any(|n| matches!(
            n,
            FaultNote::DeadSlave {
                slave: 0,
                reassigned: 4
            }
        )));
    }

    #[test]
    fn all_slaves_dead_abandons_queued_pairs_conservatively() {
        let mut c = cfg();
        c.slave_timeout = 1.0;
        c.max_retries = 0;
        c.batchsize = 2;
        let mut m = Master::new(40, 1, c);
        // 5 pairs arrive: 2 dispatched, 3 queued; then the slave dies.
        report(
            &mut m,
            0,
            vec![],
            (0..5).map(|k| pair(2 * k, 2 * k + 1)).collect(),
            true,
        );
        m.tick(2.0);
        assert!(m.is_dead(0) && m.is_done());
        // 2 reassigned + 3 queued = 5 abandoned; conservation holds:
        // received == processed + skipped.
        assert_eq!(m.core.stats.faults.reassigned_pairs, 2);
        assert_eq!(m.core.stats.faults.abandoned_pairs, 5);
        assert_eq!(
            m.core.stats.pairs_generated,
            m.core.stats.pairs_processed + m.core.stats.pairs_skipped
        );
        assert_eq!(m.workbuf_len(), 0);
    }

    #[test]
    fn world_down_terminates_with_accounting_intact() {
        // Regression for the latent shutdown bug: the world tears a rank
        // down while the master still expects its report. The master must
        // finish cleanly instead of spinning on a rank that cannot answer.
        let mut m = Master::new(40, 2, cfg());
        report(
            &mut m,
            0,
            vec![],
            (0..6).map(|k| pair(2 * k, 2 * k + 1)).collect(),
            false,
        );
        assert!(m.expected_seq(0).is_some(), "slave 0 owes a report");
        m.handle_world_down();
        assert!(m.is_done());
        assert_eq!(m.core.stats.faults.dead_slaves, 2);
        assert_eq!(m.workbuf_len(), 0);
        assert_eq!(
            m.core.stats.pairs_generated,
            m.core.stats.pairs_processed + m.core.stats.pairs_skipped
        );
        // Idempotent: a second notification changes nothing.
        let dup = m.core.stats;
        m.handle_world_down();
        assert_eq!(m.core.stats, dup);
    }

    #[test]
    fn resend_keeps_owed_slave_unparked() {
        // A slave owed results must never end up parked by the retry
        // path: parking is only legal once the flush handshake completed.
        let mut c = cfg();
        c.slave_timeout = 1.0;
        c.max_retries = 5;
        let mut m = Master::new(40, 1, c);
        report(
            &mut m,
            0,
            vec![],
            (0..4).map(|k| pair(2 * k, 2 * k + 1)).collect(),
            true,
        );
        for round in 1..=3 {
            m.tick(round as f64 * 1.5);
            assert!(!m.is_parked(0), "owed slave parked after resend {round}");
            assert!(m.expected_seq(0).is_some());
        }
    }

    #[test]
    fn begin_arms_startup_deadlines() {
        let mut c = cfg();
        c.slave_timeout = 1.0;
        c.max_retries = 1;
        let mut m = Master::new(10, 1, c);
        // Without begin(), deadlines stay infinite: tick never fires.
        assert!(m.tick(1e12).is_empty());
        m.begin(1e12);
        assert!(m.tick(1e12 + 0.5).is_empty());
        assert_eq!(m.tick(1e12 + 1.5).len(), 1, "armed deadline must fire");
    }
}
