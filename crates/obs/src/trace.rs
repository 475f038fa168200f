//! Causal distributed tracing: per-rank spans, instants, and flow
//! (causal) edges, with Chrome/Perfetto JSON export and offline
//! analysis.
//!
//! The registry aggregates *how much*; a trace records *when and
//! because of what*. Every span carries the rank it ran on and
//! microseconds since the run's [`crate::Obs`] epoch (one monotonic
//! clock per process, presented as per-rank tracks); *flow* events link
//! causally related points across ranks, keyed by the clustering
//! protocol's per-slave sequence numbers (`flow id = (slave, seq)`), so
//! a timeline viewer draws an arrow from the master's dispatch of a
//! batch to the report that answers it.
//!
//! Recording is allocation-light by construction: [`TraceEvent`] is
//! `Copy` (names are interned `&'static str`s), each rank appends to
//! its own mutex-striped [`TraceBuffer`] lane, and with no tracer
//! attached the [`crate::Obs::trace_with`] closure is never invoked.
//!
//! # Trace schema (versioned)
//!
//! The exporter writes the Chrome trace-event JSON format (loadable in
//! Perfetto or `about://tracing`): `{"traceEvents": [...], "otherData":
//! {"schema_version": N}}` with one `pid` and one `tid` per rank.
//! Event phases used: `X` (complete span, `ts`/`dur` in µs), `i`
//! (instant), `s`/`t`/`f` (flow start/step/end, `cat` = `"flow"`,
//! bound to the enclosing slice). Span/instant `args` carry the
//! event's `id`/`arg` attributes (sequence numbers, batch sizes, fault
//! millis, merged EST indices). [`TRACE_SCHEMA_VERSION`] follows the
//! same rule as the run report's schema version (DESIGN.md §9): bump on
//! breaking shape changes, and consumers must check it before reading
//! further.

use crate::json::Json;
use crate::quantile::LogQuantile;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Version of the exported trace layout. Bump on breaking changes.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

// -- canonical trace point names ------------------------------------

/// Span: master folding one report (and dispatching its successor).
pub const T_HANDLE_REPORT: &str = "handle_report";
/// Instant: master handing a `Work` batch to a slave.
pub const T_DISPATCH: &str = "dispatch";
/// Span: slave shipping a report to the master.
pub const T_REPORT_SEND: &str = "report_send";
/// Span: a rank blocked waiting for a message.
pub const T_RECV_WAIT: &str = "recv_wait";
/// Instant: one point-to-point send (`arg` = destination rank).
pub const T_SEND: &str = "send";
/// Span: an injected straggler sleep (`arg` = milliseconds).
pub const T_STALL: &str = "stall";
/// Instant: an injected message drop (`arg` = destination rank).
pub const T_FAULT_DROP: &str = "fault.drop";
/// Instant: an injected message delay (`arg` = destination rank).
pub const T_FAULT_DELAY: &str = "fault.delay";
/// Instant: an injected rank crash (`arg` = destination rank).
pub const T_FAULT_CRASH: &str = "fault.crash";
/// Instant: the master re-sent an overdue batch (`id` = its sequence
/// number, `arg` = slave index).
pub const T_RESEND: &str = "resend";
/// Instant: the master declared a slave dead (`id` = pairs reassigned,
/// `arg` = slave index).
pub const T_DEAD_SLAVE: &str = "dead_slave";
/// Instant: the master ignored a duplicate or stale report (`id` = its
/// sequence number, `arg` = slave index).
pub const T_DUPLICATE_REPORT: &str = "duplicate_report";
/// Instant: the master discarded queued pairs with no live slave left
/// (`arg` = pairs).
pub const T_ABANDONED: &str = "abandoned";
/// Instant: an effective union (`id` = `est_a`, `arg` = `est_b`), in
/// the merge trace's order.
pub const T_MERGE: &str = "merge";
/// Name of every flow point.
pub const T_FLOW_NAME: &str = "batch";

/// Span names that represent *waiting*, not work — excluded from
/// per-rank busy time and utilization.
pub const IDLE_SPAN_NAMES: [&str; 2] = [T_RECV_WAIT, T_STALL];

/// The flow id for slave `slave`'s protocol sequence number `seq`.
/// Resends reuse the sequence number and therefore the id, so a retried
/// batch is one flow with several start points — exactly the causality
/// the master's recovery machinery implements.
pub fn flow_id(slave: usize, seq: u64) -> u64 {
    ((slave as u64 + 1) << 44) | (seq & 0xFFF_FFFF_FFFF)
}

/// What one [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A completed span: `[t_us, t_us + dur_us)` on `rank`.
    Span,
    /// A point event.
    Instant,
    /// A flow's producer point (Chrome phase `s`).
    FlowStart,
    /// An intermediate flow point (Chrome phase `t`).
    FlowStep,
    /// A flow's consumer point (Chrome phase `f`).
    FlowEnd,
}

/// One trace record. `Copy`, no heap: names are interned static strings
/// and attributes are two bare `u64`s (`id` is the flow id for flow
/// events and a free attribute otherwise; `arg` is event-specific —
/// sequence number, batch size, destination rank, milliseconds).
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    pub rank: u32,
    pub kind: TraceKind,
    pub name: &'static str,
    /// Microseconds since the owning `Obs` epoch.
    pub t_us: u64,
    /// Span duration in microseconds (0 for non-spans).
    pub dur_us: u64,
    pub id: u64,
    pub arg: u64,
}

/// One rank's append-only event lane.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// Mutex stripes: ranks map onto lanes by `rank % LANES`, so concurrent
/// ranks almost never contend while the handle stays fixed-size.
const LANES: usize = 32;

/// The shared trace recorder: one per traced run, owned by
/// [`crate::Obs`]. All methods take `&self`; ranks record concurrently.
pub struct Tracer {
    lanes: Vec<Mutex<TraceBuffer>>,
    recorded: std::sync::atomic::AtomicU64,
    /// Intern table for dynamic span names (phase names arrive as
    /// `&str`). Bounded by the number of distinct names in a run.
    names: Mutex<BTreeMap<String, &'static str>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            lanes: (0..LANES)
                .map(|_| Mutex::new(TraceBuffer::default()))
                .collect(),
            recorded: std::sync::atomic::AtomicU64::new(0),
            names: Mutex::new(BTreeMap::new()),
        }
    }

    /// Total events recorded so far — the structural counterpart of the
    /// export: `snapshot().len() == recorded()` always, so nothing is
    /// silently dropped between recording and analysis.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Intern a dynamic name. Leaks one allocation per *distinct* name
    /// (phase names number in the dozens); recording itself then stays
    /// allocation-free.
    pub fn intern(&self, name: &str) -> &'static str {
        // Fast path for the canonical constants.
        for known in [
            T_HANDLE_REPORT,
            T_DISPATCH,
            T_REPORT_SEND,
            T_RECV_WAIT,
            T_SEND,
            T_STALL,
            T_FAULT_DROP,
            T_FAULT_DELAY,
            T_FAULT_CRASH,
        ] {
            if name == known {
                return known;
            }
        }
        let mut names = self.names.lock();
        if let Some(&s) = names.get(name) {
            return s;
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        names.insert(name.to_string(), leaked);
        leaked
    }

    fn record(&self, ev: TraceEvent) {
        self.recorded
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.lanes[ev.rank as usize % LANES].lock().record(ev);
    }

    /// Record a completed span `[t0_us, t0_us + dur_us)`.
    pub fn span(
        &self,
        rank: usize,
        name: &'static str,
        t0_us: u64,
        dur_us: u64,
        id: u64,
        arg: u64,
    ) {
        self.record(TraceEvent {
            rank: rank as u32,
            kind: TraceKind::Span,
            name,
            t_us: t0_us,
            dur_us,
            id,
            arg,
        });
    }

    /// Record an instant event.
    pub fn instant(&self, rank: usize, name: &'static str, t_us: u64, id: u64, arg: u64) {
        self.record(TraceEvent {
            rank: rank as u32,
            kind: TraceKind::Instant,
            name,
            t_us,
            dur_us: 0,
            id,
            arg,
        });
    }

    /// Record a flow point (`kind` must be one of the three flow kinds).
    pub fn flow(&self, kind: TraceKind, rank: usize, t_us: u64, id: u64) {
        debug_assert!(matches!(
            kind,
            TraceKind::FlowStart | TraceKind::FlowStep | TraceKind::FlowEnd
        ));
        self.record(TraceEvent {
            rank: rank as u32,
            kind,
            name: T_FLOW_NAME,
            t_us,
            dur_us: 0,
            id,
            arg: 0,
        });
    }

    /// A stable copy of every recorded event, sorted by time then rank.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::with_capacity(self.recorded() as usize);
        for lane in &self.lanes {
            all.extend(lane.lock().events.iter().copied());
        }
        all.sort_by_key(|e| (e.t_us, e.rank, e.dur_us));
        all
    }

    /// Export as a Chrome trace-event JSON document (Perfetto-loadable).
    pub fn to_chrome_json(&self) -> Json {
        events_to_chrome_json(&self.snapshot())
    }

    /// Write the Chrome JSON export to a file.
    pub fn write_chrome_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json().to_string())
    }

    /// [`Tracer::to_chrome_json`] with every timestamp shifted by
    /// `offset_us` — clock stitching for multi-process runs: each worker
    /// records on its own monotonic clock and shifts into the hub's
    /// epoch at export, so the merged timeline is causally ordered.
    pub fn to_chrome_json_offset(&self, offset_us: i64) -> Json {
        let mut events = self.snapshot();
        for e in &mut events {
            e.t_us = e.t_us.saturating_add_signed(offset_us);
        }
        events_to_chrome_json(&events)
    }

    /// Write the offset-shifted Chrome JSON export to a file.
    pub fn write_chrome_file_offset(
        &self,
        path: &std::path::Path,
        offset_us: i64,
    ) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json_offset(offset_us).to_string())
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// Render events as the Chrome trace-event JSON format.
pub fn events_to_chrome_json(events: &[TraceEvent]) -> Json {
    let mut out: Vec<Json> = Vec::with_capacity(events.len() + 8);
    let ranks: BTreeSet<u32> = events.iter().map(|e| e.rank).collect();
    out.push(Json::obj([
        ("ph", Json::Str("M".into())),
        ("name", Json::Str("process_name".into())),
        ("pid", Json::Num(1.0)),
        ("args", Json::obj([("name", Json::Str("pace".into()))])),
    ]));
    for &r in &ranks {
        let label = if r == 0 {
            format!("rank {r} (master)")
        } else {
            format!("rank {r}")
        };
        out.push(Json::obj([
            ("ph", Json::Str("M".into())),
            ("name", Json::Str("thread_name".into())),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(r as f64)),
            ("args", Json::obj([("name", Json::Str(label))])),
        ]));
    }
    for e in events {
        let mut entries: Vec<(String, Json)> = vec![
            ("name".into(), Json::Str(e.name.to_string())),
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(e.rank as f64)),
            ("ts".into(), Json::Num(e.t_us as f64)),
        ];
        match e.kind {
            TraceKind::Span => {
                entries.push(("ph".into(), Json::Str("X".into())));
                // Perfetto hides slices of zero duration; clamp to 1 µs.
                entries.push(("dur".into(), Json::Num(e.dur_us.max(1) as f64)));
                entries.push((
                    "args".into(),
                    Json::obj([
                        ("id", Json::Num(e.id as f64)),
                        ("arg", Json::Num(e.arg as f64)),
                    ]),
                ));
            }
            TraceKind::Instant => {
                entries.push(("ph".into(), Json::Str("i".into())));
                entries.push(("s".into(), Json::Str("t".into())));
                entries.push((
                    "args".into(),
                    Json::obj([
                        ("id", Json::Num(e.id as f64)),
                        ("arg", Json::Num(e.arg as f64)),
                    ]),
                ));
            }
            TraceKind::FlowStart | TraceKind::FlowStep | TraceKind::FlowEnd => {
                let ph = match e.kind {
                    TraceKind::FlowStart => "s",
                    TraceKind::FlowStep => "t",
                    _ => "f",
                };
                entries.push(("ph".into(), Json::Str(ph.into())));
                entries.push(("cat".into(), Json::Str("flow".into())));
                entries.push(("id".into(), Json::Num(e.id as f64)));
                if matches!(e.kind, TraceKind::FlowEnd) {
                    // Bind to the enclosing slice, not the next one.
                    entries.push(("bp".into(), Json::Str("e".into())));
                }
            }
        }
        out.push(Json::Obj(entries));
    }
    Json::obj([
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::Str("ms".into())),
        (
            "otherData",
            Json::obj([
                ("schema_version", Json::Num(TRACE_SCHEMA_VERSION as f64)),
                ("generator", Json::Str("pace-obs".into())),
            ]),
        ),
    ])
}

// -- offline analysis ------------------------------------------------

/// One span as the analyzer sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub rank: u32,
    pub name: String,
    pub t0_us: u64,
    pub dur_us: u64,
}

impl SpanRec {
    fn end_us(&self) -> u64 {
        self.t0_us + self.dur_us
    }
}

/// Where one flow id was observed.
#[derive(Clone, Debug, Default)]
pub struct FlowRec {
    /// Producer points (resends re-emit the start with the same id).
    pub starts: Vec<(u32, u64)>,
    pub steps: Vec<(u32, u64)>,
    /// Consumer points.
    pub ends: Vec<(u32, u64)>,
}

/// One instant as the analyzer sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct InstantRec {
    pub rank: u32,
    pub name: String,
    pub t_us: u64,
    pub id: u64,
    pub arg: u64,
}

/// A parsed trace, decoupled from how it was produced (in-process
/// [`Tracer`] or a Chrome JSON file round-trip).
#[derive(Clone, Debug, Default)]
pub struct TraceDoc {
    pub spans: Vec<SpanRec>,
    /// Instants in time order (per source document).
    pub instants: Vec<InstantRec>,
    pub flows: BTreeMap<u64, FlowRec>,
    pub schema_version: u64,
}

impl TraceDoc {
    /// Build directly from an in-process tracer.
    pub fn from_tracer(tracer: &Tracer) -> TraceDoc {
        let events = tracer.snapshot();
        let mut doc = TraceDoc {
            schema_version: TRACE_SCHEMA_VERSION,
            ..TraceDoc::default()
        };
        for e in &events {
            match e.kind {
                TraceKind::Span => doc.spans.push(SpanRec {
                    rank: e.rank,
                    name: e.name.to_string(),
                    t0_us: e.t_us,
                    dur_us: e.dur_us,
                }),
                TraceKind::Instant => doc.instants.push(InstantRec {
                    rank: e.rank,
                    name: e.name.to_string(),
                    t_us: e.t_us,
                    id: e.id,
                    arg: e.arg,
                }),
                TraceKind::FlowStart => doc
                    .flows
                    .entry(e.id)
                    .or_default()
                    .starts
                    .push((e.rank, e.t_us)),
                TraceKind::FlowStep => doc
                    .flows
                    .entry(e.id)
                    .or_default()
                    .steps
                    .push((e.rank, e.t_us)),
                TraceKind::FlowEnd => doc
                    .flows
                    .entry(e.id)
                    .or_default()
                    .ends
                    .push((e.rank, e.t_us)),
            }
        }
        doc
    }

    /// Parse a Chrome trace-event JSON document (the exporter's output).
    /// Validates the schema: the version must be recognized, and every
    /// event must carry the fields its phase requires.
    pub fn from_chrome_json(doc: &Json) -> Result<TraceDoc, String> {
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("missing traceEvents array")?;
        let schema_version = doc
            .get("otherData")
            .and_then(|o| o.get("schema_version"))
            .and_then(Json::as_u64)
            .ok_or("missing otherData.schema_version")?;
        if schema_version > TRACE_SCHEMA_VERSION {
            return Err(format!(
                "trace schema_version {schema_version} is newer than supported {TRACE_SCHEMA_VERSION}"
            ));
        }
        let mut out = TraceDoc {
            schema_version,
            ..TraceDoc::default()
        };
        for (i, e) in events.iter().enumerate() {
            let ph = e
                .get("ph")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("event {i}: missing ph"))?;
            if ph == "M" {
                continue; // metadata
            }
            let need = |k: &str| -> Result<f64, String> {
                e.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i} (ph {ph}): missing {k}"))
            };
            let rank = need("tid")? as u32;
            let ts = need("ts")? as u64;
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("event {i}: missing name"))?
                .to_string();
            match ph {
                "X" => out.spans.push(SpanRec {
                    rank,
                    name,
                    t0_us: ts,
                    dur_us: need("dur")? as u64,
                }),
                "i" => {
                    let attr = |k: &str| {
                        e.get("args")
                            .and_then(|a| a.get(k))
                            .and_then(Json::as_u64)
                            .unwrap_or(0)
                    };
                    out.instants.push(InstantRec {
                        rank,
                        name,
                        t_us: ts,
                        id: attr("id"),
                        arg: attr("arg"),
                    });
                }
                "s" | "t" | "f" => {
                    let id = need("id")? as u64;
                    let rec = out.flows.entry(id).or_default();
                    match ph {
                        "s" => rec.starts.push((rank, ts)),
                        "t" => rec.steps.push((rank, ts)),
                        _ => rec.ends.push((rank, ts)),
                    }
                }
                other => return Err(format!("event {i}: unknown phase {other:?}")),
            }
        }
        Ok(out)
    }

    /// Absorb another document (a per-process trace from a multi-process
    /// run, already shifted into the shared epoch at export time): spans
    /// and instants are appended, flow observations with the same id are
    /// combined — which is exactly what lets a master-side `FlowStart`
    /// find its worker-side `FlowStep`s across files. Schema versions
    /// must match; mixing export generations is a hard error.
    pub fn merge(&mut self, other: TraceDoc) -> Result<(), String> {
        if self.schema_version != other.schema_version {
            return Err(format!(
                "cannot merge trace schema_version {} with {}",
                other.schema_version, self.schema_version
            ));
        }
        self.spans.extend(other.spans);
        self.instants.extend(other.instants);
        for (id, rec) in other.flows {
            let mine = self.flows.entry(id).or_default();
            mine.starts.extend(rec.starts);
            mine.steps.extend(rec.steps);
            mine.ends.extend(rec.ends);
        }
        Ok(())
    }
}

/// Per-rank time breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct RankBreakdown {
    pub rank: u32,
    /// Union of non-idle span time (nested spans counted once).
    pub busy_secs: f64,
    /// Wall clock minus busy time.
    pub idle_secs: f64,
    /// Injected stall sleep time (from `stall` spans).
    pub stall_secs: f64,
    /// `busy / wall`, guaranteed ∈ [0, 1].
    pub utilization: f64,
    /// Largest busy-to-busy gap inside the rank's active window.
    pub max_gap_secs: f64,
    pub spans: usize,
}

impl RankBreakdown {
    /// Straggler score: injected stall time plus the longest dead gap —
    /// high for the rank everyone else ends up waiting on.
    pub fn straggler_score(&self) -> f64 {
        self.stall_secs + self.max_gap_secs
    }
}

/// One step of the critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalStep {
    pub rank: u32,
    pub name: String,
    pub t0_secs: f64,
    pub dur_secs: f64,
}

/// Quantile summary for one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanQuantiles {
    pub count: u64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

/// The full offline analysis of one trace.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    pub wall_secs: f64,
    pub ranks: Vec<RankBreakdown>,
    /// Longest chain of causally ordered spans (same-rank program order
    /// plus flow edges), by total span duration. Pairwise
    /// non-overlapping by construction, so the total is ≤ wall clock.
    pub critical_path_secs: f64,
    pub critical_path: Vec<CriticalStep>,
    pub flows_total: usize,
    /// Flows with at least one consumer point.
    pub flows_resolved: usize,
    /// Flows with producer points but no consumer — batches that never
    /// came back (a crashed slave's in-flight work).
    pub flows_unresolved: usize,
    /// Flows with a consumer but no producer — a malformed trace.
    pub flows_orphan_ends: usize,
    /// Per-span-name duration quantiles (log-bucket estimates).
    pub quantiles: BTreeMap<String, SpanQuantiles>,
    /// Ranks that coordinated work: those owning at least one
    /// `handle_report` span, which is the master's rank 0 in every trace
    /// the drivers write. Computed from the trace, not assumed from the
    /// protocol's rank layout.
    pub coordinators: BTreeSet<u32>,
    /// How many instants of each name the trace holds, over all ranks
    /// (`merge` counts the run's effective unions, `resend` its
    /// retries, and so on).
    pub instants: BTreeMap<String, u64>,
}

impl Analysis {
    /// Ranks ordered most-straggling first. Coordinator ranks (those
    /// with `handle_report` spans) are excluded when worker ranks
    /// exist: the master idles by design (the paper's "< 2% busy"
    /// claim), which is the opposite of straggling.
    pub fn straggler_ranking(&self) -> Vec<&RankBreakdown> {
        let mut workers: Vec<&RankBreakdown> = self
            .ranks
            .iter()
            .filter(|r| !self.coordinators.contains(&r.rank))
            .collect();
        if workers.is_empty() {
            workers = self.ranks.iter().collect();
        }
        workers.sort_by(|a, b| {
            b.straggler_score()
                .total_cmp(&a.straggler_score())
                .then(b.busy_secs.total_cmp(&a.busy_secs))
        });
        workers
    }

    /// The structural invariants the trace smoke check gates on.
    /// Returns a list of violated invariant descriptions (empty = ok).
    pub fn check_invariants(&self) -> Vec<String> {
        let mut bad = Vec::new();
        if self.flows_unresolved > 0 {
            bad.push(format!(
                "{} of {} flow edges never resolved",
                self.flows_unresolved, self.flows_total
            ));
        }
        if self.flows_orphan_ends > 0 {
            bad.push(format!(
                "{} flow ends have no matching start",
                self.flows_orphan_ends
            ));
        }
        for r in &self.ranks {
            if !(0.0..=1.0).contains(&r.utilization) {
                bad.push(format!(
                    "rank {} utilization {} outside [0,1]",
                    r.rank, r.utilization
                ));
            }
        }
        if self.critical_path_secs > self.wall_secs * (1.0 + 1e-9) + 1e-9 {
            bad.push(format!(
                "critical path {:.6}s exceeds wall clock {:.6}s",
                self.critical_path_secs, self.wall_secs
            ));
        }
        bad
    }
}

/// Merge `[start, end)` intervals and return total covered length (µs).
fn union_len_us(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Largest gap between merged busy intervals within the rank's window.
fn max_gap_us(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut gap = 0u64;
    let mut prev_end: Option<u64> = None;
    for (s, e) in iv {
        if let Some(pe) = prev_end {
            if s > pe {
                gap = gap.max(s - pe);
            }
        }
        prev_end = Some(prev_end.map_or(e, |pe| pe.max(e)));
    }
    gap
}

/// Analyze a trace: wall clock, per-rank utilization, flow resolution,
/// duration quantiles, and the critical path.
pub fn analyze(doc: &TraceDoc) -> Analysis {
    let mut analysis = Analysis::default();

    // The `total` span covers the whole run on rank 0; it is scaffolding
    // for wall clock, not work.
    let work_spans: Vec<&SpanRec> = doc
        .spans
        .iter()
        .filter(|s| s.name != crate::metric::PHASE_TOTAL)
        .collect();

    // Wall clock: extent of everything recorded.
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    for s in &doc.spans {
        t_min = t_min.min(s.t0_us);
        t_max = t_max.max(s.end_us());
    }
    for i in &doc.instants {
        t_min = t_min.min(i.t_us);
        t_max = t_max.max(i.t_us);
        *analysis.instants.entry(i.name.clone()).or_default() += 1;
    }
    for f in doc.flows.values() {
        for &(_, t) in f.starts.iter().chain(&f.steps).chain(&f.ends) {
            t_min = t_min.min(t);
            t_max = t_max.max(t);
        }
    }
    if t_min == u64::MAX {
        return analysis; // empty trace
    }
    let wall_us = t_max - t_min;
    analysis.wall_secs = wall_us as f64 / 1e6;

    // Coordinator ranks own `handle_report` spans. The straggler ranking
    // excludes them — a coordinator idles by design (the paper's "< 2%
    // busy" claim), the opposite of straggling.
    analysis.coordinators = doc
        .spans
        .iter()
        .filter(|s| s.name == T_HANDLE_REPORT)
        .map(|s| s.rank)
        .collect();

    // Per-rank breakdowns.
    let ranks: BTreeSet<u32> = doc
        .spans
        .iter()
        .map(|s| s.rank)
        .chain(doc.instants.iter().map(|i| i.rank))
        .collect();
    for &rank in &ranks {
        let busy_iv: Vec<(u64, u64)> = work_spans
            .iter()
            .filter(|s| s.rank == rank && !IDLE_SPAN_NAMES.contains(&s.name.as_str()))
            .map(|s| (s.t0_us, s.end_us()))
            .collect();
        let stall_us: u64 = doc
            .spans
            .iter()
            .filter(|s| s.rank == rank && s.name == T_STALL)
            .map(|s| s.dur_us)
            .sum();
        let spans = doc.spans.iter().filter(|s| s.rank == rank).count();
        let busy_us = union_len_us(busy_iv.clone()).min(wall_us);
        let busy_secs = busy_us as f64 / 1e6;
        analysis.ranks.push(RankBreakdown {
            rank,
            busy_secs,
            idle_secs: (wall_us - busy_us) as f64 / 1e6,
            stall_secs: stall_us as f64 / 1e6,
            utilization: if wall_us == 0 {
                0.0
            } else {
                (busy_us as f64 / wall_us as f64).clamp(0.0, 1.0)
            },
            max_gap_secs: max_gap_us(busy_iv) as f64 / 1e6,
            spans,
        });
    }

    // Flow resolution.
    analysis.flows_total = doc.flows.len();
    for f in doc.flows.values() {
        let has_producer = !f.starts.is_empty() || !f.steps.is_empty();
        if !f.ends.is_empty() {
            if has_producer {
                analysis.flows_resolved += 1;
            } else {
                analysis.flows_orphan_ends += 1;
            }
        } else {
            analysis.flows_unresolved += 1;
        }
    }

    // Duration quantiles per span name.
    let mut by_name: BTreeMap<&str, LogQuantile> = BTreeMap::new();
    let mut max_by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for s in &work_spans {
        let secs = s.dur_us as f64 / 1e6;
        by_name.entry(&s.name).or_default().observe(secs);
        let slot = max_by_name.entry(&s.name).or_insert(0.0);
        if secs > *slot {
            *slot = secs;
        }
    }
    for (name, lq) in by_name {
        let (p50, p90, p99) = lq.p50_p90_p99();
        analysis.quantiles.insert(
            name.to_string(),
            SpanQuantiles {
                count: lq.count(),
                p50,
                p90,
                p99,
                max: max_by_name[name],
            },
        );
    }

    // Critical path: longest chain of pairwise non-overlapping *work*
    // spans (waiting doesn't belong on a work chain; injected stalls
    // show up as straggler score instead) connected by same-rank program
    // order or flow edges, weighted by span duration. Because every edge
    // requires the successor to start at or after the predecessor's end,
    // any chain's total duration fits inside [t_min, t_max] — the
    // ≤ wall-clock guarantee.
    let mut spans: Vec<&SpanRec> = work_spans
        .iter()
        .filter(|s| !IDLE_SPAN_NAMES.contains(&s.name.as_str()))
        .copied()
        .collect();
    spans.sort_by_key(|s| (s.t0_us, s.end_us()));
    let n = spans.len();
    // Flow-derived edges between span indices: map each flow point to
    // the innermost span containing it on its rank.
    let locate = |rank: u32, t: u64| -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, s) in spans.iter().enumerate() {
            if s.rank == rank && s.t0_us <= t && t < s.end_us().max(s.t0_us + 1) {
                best = match best {
                    Some(b) if spans[b].dur_us <= s.dur_us => Some(b),
                    _ => Some(i),
                };
            }
        }
        best
    };
    let mut flow_edges: HashSet<(usize, usize)> = HashSet::new();
    for f in doc.flows.values() {
        let mut chain: Vec<(u32, u64)> = Vec::new();
        chain.extend(f.starts.iter().copied());
        chain.extend(f.steps.iter().copied());
        chain.extend(f.ends.iter().copied());
        chain.sort_by_key(|&(_, t)| t);
        for w in chain.windows(2) {
            if let (Some(a), Some(b)) = (locate(w[0].0, w[0].1), locate(w[1].0, w[1].1)) {
                if spans[b].t0_us >= spans[a].end_us() {
                    flow_edges.insert((a, b));
                }
            }
        }
    }
    // O(n²) DP is fine at the trace sizes the engine produces (smoke
    // runs are a few thousand spans); cap the quadratic work for very
    // large traces by considering only same-rank immediate context.
    let dense_limit = 20_000;
    let mut best_us: Vec<u64> = spans.iter().map(|s| s.dur_us).collect();
    let mut pred: Vec<Option<usize>> = vec![None; n];
    if n <= dense_limit {
        for i in 0..n {
            for j in 0..i {
                let causal = spans[j].end_us() <= spans[i].t0_us
                    && (spans[j].rank == spans[i].rank || flow_edges.contains(&(j, i)));
                if causal && best_us[j] + spans[i].dur_us > best_us[i] {
                    best_us[i] = best_us[j] + spans[i].dur_us;
                    pred[i] = Some(j);
                }
            }
        }
    } else {
        // Per-rank running best among finished spans + explicit flow edges.
        let mut rank_best: BTreeMap<u32, Vec<(u64, u64, usize)>> = BTreeMap::new(); // (end, best, idx)
        for i in 0..n {
            if let Some(cands) = rank_best.get(&spans[i].rank) {
                for &(end, b, j) in cands.iter().rev() {
                    if end <= spans[i].t0_us {
                        if b + spans[i].dur_us > best_us[i] {
                            best_us[i] = b + spans[i].dur_us;
                            pred[i] = Some(j);
                        }
                        break;
                    }
                }
            }
            for &(j, k) in &flow_edges {
                if k == i
                    && spans[j].end_us() <= spans[i].t0_us
                    && best_us[j] + spans[i].dur_us > best_us[i]
                {
                    best_us[i] = best_us[j] + spans[i].dur_us;
                    pred[i] = Some(j);
                }
            }
            rank_best
                .entry(spans[i].rank)
                .or_default()
                .push((spans[i].end_us(), best_us[i], i));
        }
    }
    if let Some(tail) = (0..n).max_by_key(|&i| best_us[i]) {
        analysis.critical_path_secs = best_us[tail] as f64 / 1e6;
        let mut chain = Vec::new();
        let mut cur = Some(tail);
        while let Some(i) = cur {
            chain.push(CriticalStep {
                rank: spans[i].rank,
                name: spans[i].name.clone(),
                t0_secs: (spans[i].t0_us - t_min) as f64 / 1e6,
                dur_secs: spans[i].dur_us as f64 / 1e6,
            });
            cur = pred[i];
        }
        chain.reverse();
        analysis.critical_path = chain;
    }

    analysis
}

/// Render an analysis as a JSON document (the `pace-trace --json`
/// output, and the source of the run report's utilization fields).
pub fn analysis_to_json(a: &Analysis) -> Json {
    let ranks = Json::Arr(
        a.ranks
            .iter()
            .map(|r| {
                Json::obj([
                    ("rank", Json::Num(r.rank as f64)),
                    ("busy_secs", Json::Num(r.busy_secs)),
                    ("idle_secs", Json::Num(r.idle_secs)),
                    ("stall_secs", Json::Num(r.stall_secs)),
                    ("utilization", Json::Num(r.utilization)),
                    ("max_gap_secs", Json::Num(r.max_gap_secs)),
                    ("spans", Json::Num(r.spans as f64)),
                    ("coordinator", Json::Bool(a.coordinators.contains(&r.rank))),
                ])
            })
            .collect(),
    );
    let stragglers = Json::Arr(
        a.straggler_ranking()
            .iter()
            .map(|r| {
                Json::obj([
                    ("rank", Json::Num(r.rank as f64)),
                    ("score_secs", Json::Num(r.straggler_score())),
                    ("stall_secs", Json::Num(r.stall_secs)),
                    ("max_gap_secs", Json::Num(r.max_gap_secs)),
                ])
            })
            .collect(),
    );
    let critical_path = Json::Arr(
        a.critical_path
            .iter()
            .map(|s| {
                Json::obj([
                    ("rank", Json::Num(s.rank as f64)),
                    ("name", Json::Str(s.name.clone())),
                    ("t0_secs", Json::Num(s.t0_secs)),
                    ("dur_secs", Json::Num(s.dur_secs)),
                ])
            })
            .collect(),
    );
    let quantiles = Json::Obj(
        a.quantiles
            .iter()
            .map(|(name, q)| {
                (
                    name.clone(),
                    Json::obj([
                        ("count", Json::Num(q.count as f64)),
                        ("p50", Json::Num(q.p50)),
                        ("p90", Json::Num(q.p90)),
                        ("p99", Json::Num(q.p99)),
                        ("max", Json::Num(q.max)),
                    ]),
                )
            })
            .collect(),
    );
    let instants = Json::Obj(
        a.instants
            .iter()
            .map(|(name, &n)| (name.clone(), Json::Num(n as f64)))
            .collect(),
    );
    let violations = a.check_invariants();
    Json::obj([
        ("schema_version", Json::Num(TRACE_SCHEMA_VERSION as f64)),
        ("wall_secs", Json::Num(a.wall_secs)),
        ("critical_path_secs", Json::Num(a.critical_path_secs)),
        ("flows_total", Json::Num(a.flows_total as f64)),
        ("flows_resolved", Json::Num(a.flows_resolved as f64)),
        ("flows_unresolved", Json::Num(a.flows_unresolved as f64)),
        ("ranks", ranks),
        ("stragglers", stragglers),
        ("critical_path", critical_path),
        ("quantiles", quantiles),
        ("instants", instants),
        ("invariants_ok", Json::Bool(violations.is_empty())),
        (
            "violations",
            Json::Arr(violations.into_iter().map(Json::Str).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tracer() -> Tracer {
        let tr = Tracer::new();
        // Master (rank 0) dispatches two batches to slave rank 1; one
        // report comes back, one never does.
        tr.span(0, T_HANDLE_REPORT, 100, 50, flow_id(0, 1), 1);
        tr.flow(TraceKind::FlowStart, 0, 110, flow_id(0, 1));
        tr.instant(0, T_DISPATCH, 110, flow_id(0, 1), 8);
        tr.span(1, "align_batch", 200, 300, 0, 8);
        tr.span(1, T_REPORT_SEND, 510, 5, flow_id(0, 1), 1);
        tr.flow(TraceKind::FlowStep, 1, 511, flow_id(0, 1));
        tr.span(0, T_HANDLE_REPORT, 600, 40, flow_id(0, 1), 1);
        tr.flow(TraceKind::FlowEnd, 0, 601, flow_id(0, 1));
        tr.flow(TraceKind::FlowStart, 0, 620, flow_id(0, 2));
        tr.span(1, T_STALL, 700, 100, 0, 1);
        tr
    }

    #[test]
    fn recorded_equals_snapshot_len() {
        let tr = sample_tracer();
        assert_eq!(tr.recorded() as usize, tr.snapshot().len());
    }

    #[test]
    fn snapshot_is_time_sorted() {
        let tr = sample_tracer();
        let snap = tr.snapshot();
        assert!(snap.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn chrome_export_parses_back() {
        let tr = sample_tracer();
        let json = tr.to_chrome_json();
        let text = json.to_string();
        let back = crate::json::parse(&text).unwrap();
        let doc = TraceDoc::from_chrome_json(&back).unwrap();
        assert_eq!(doc.schema_version, TRACE_SCHEMA_VERSION);
        assert_eq!(doc.spans.len(), 5);
        assert_eq!(doc.flows.len(), 2);
        // The direct path sees the same structure.
        let direct = TraceDoc::from_tracer(&tr);
        assert_eq!(direct.spans.len(), doc.spans.len());
        assert_eq!(direct.flows.len(), doc.flows.len());
        // Instants keep both attributes through the file.
        assert_eq!(doc.instants.len(), 1);
        assert_eq!(direct.instants, doc.instants);
    }

    #[test]
    fn from_chrome_json_rejects_malformed() {
        let missing_schema = crate::json::parse(r#"{"traceEvents":[]}"#).unwrap();
        assert!(TraceDoc::from_chrome_json(&missing_schema).is_err());
        let bad_event = crate::json::parse(
            r#"{"traceEvents":[{"ph":"X","name":"x","tid":0}],
                "otherData":{"schema_version":1}}"#,
        )
        .unwrap();
        assert!(TraceDoc::from_chrome_json(&bad_event).is_err());
    }

    #[test]
    fn analysis_flows_and_utilization() {
        let doc = TraceDoc::from_tracer(&sample_tracer());
        let a = analyze(&doc);
        assert_eq!(a.flows_total, 2);
        assert_eq!(a.flows_resolved, 1);
        assert_eq!(a.flows_unresolved, 1);
        for r in &a.ranks {
            assert!((0.0..=1.0).contains(&r.utilization), "{r:?}");
        }
        // Rank 1's stall span counts as idle, not busy.
        let r1 = a.ranks.iter().find(|r| r.rank == 1).unwrap();
        assert!(r1.stall_secs > 0.0);
        assert!(a.wall_secs > 0.0);
    }

    #[test]
    fn analysis_counts_instants_by_name_over_all_ranks() {
        let tr = sample_tracer();
        for (t, a, b) in [(120, 0, 1), (130, 2, 3), (140, 0, 2)] {
            tr.instant(0, T_MERGE, t, a, b);
        }
        tr.instant(0, T_RESEND, 150, 7, 1);
        tr.instant(2, T_RESEND, 160, 8, 2);
        let a = analyze(&TraceDoc::from_tracer(&tr));
        let want: BTreeMap<String, u64> = [(T_DISPATCH, 1), (T_MERGE, 3), (T_RESEND, 2)]
            .into_iter()
            .map(|(name, n)| (name.to_string(), n))
            .collect();
        assert_eq!(a.instants, want);
        let json = analysis_to_json(&a);
        let counts = json.get("instants").unwrap();
        assert_eq!(counts.get(T_MERGE).and_then(Json::as_u64), Some(3));
        assert_eq!(counts.get(T_RESEND).and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn critical_path_crosses_ranks_and_fits_wall() {
        let doc = TraceDoc::from_tracer(&sample_tracer());
        let a = analyze(&doc);
        assert!(a.critical_path_secs > 0.0);
        assert!(a.critical_path_secs <= a.wall_secs + 1e-12);
        // Longest chain: handle_report(0) → align_batch(1) → report_send
        // (flow/rank order) → handle_report(0) — it must span both ranks.
        let ranks: BTreeSet<u32> = a.critical_path.iter().map(|s| s.rank).collect();
        assert!(ranks.len() >= 2, "critical path stuck on one rank: {a:?}");
    }

    #[test]
    fn straggler_ranking_puts_stalled_rank_first() {
        let tr = sample_tracer();
        // A clean second worker for contrast.
        tr.span(2, "align_batch", 150, 100, 0, 4);
        let a = analyze(&TraceDoc::from_tracer(&tr));
        let ranking = a.straggler_ranking();
        assert_eq!(ranking[0].rank, 1, "stalled rank must rank first");
        // Coordinator (rank 0) is excluded from the ranking.
        assert!(ranking.iter().all(|r| r.rank != 0));
    }

    #[test]
    fn interning_is_stable() {
        let tr = Tracer::new();
        let a = tr.intern("custom_phase");
        let b = tr.intern("custom_phase");
        assert!(std::ptr::eq(a, b));
        // Canonical names take the fast path (no table entry needed);
        // `const` promotion does not guarantee a unique address, so
        // assert content, not identity.
        assert_eq!(tr.intern(T_STALL), T_STALL);
        assert!(tr.names.lock().is_empty() || !tr.names.lock().contains_key(T_STALL));
    }

    #[test]
    fn invariant_check_reports_unresolved() {
        let tr = Tracer::new();
        tr.flow(TraceKind::FlowStart, 0, 10, 1);
        tr.span(0, "x", 0, 100, 0, 0);
        let a = analyze(&TraceDoc::from_tracer(&tr));
        assert!(!a.check_invariants().is_empty());
    }
}
