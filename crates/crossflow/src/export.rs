//! Streaming JSONL export of run output.
//!
//! One run becomes one stream of newline-delimited JSON objects, each
//! tagged with a `"type"` discriminator:
//!
//! | `type`     | payload                                              |
//! |------------|------------------------------------------------------|
//! | `run_meta` | schema version, runtime/scheduler names, seed, names |
//! | `trace`    | one [`TraceEvent`] (data plane: job lifecycle)       |
//! | `sched`    | one [`SchedEvent`] (control plane: contests, faults) |
//! | `record`   | the run's [`RunRecord`] (§6.1 metrics)               |
//! | `metrics`  | the run's [`RegistrySnapshot`]                       |
//!
//! Both runtimes emit the same vocabulary, so a stream parses
//! identically whether it came from the simulation engine or the
//! threaded runtime; [`parse_run_stream`] round-trips everything
//! [`write_run_stream`] emits. The schema is versioned via
//! [`SCHEMA_VERSION`] on the `run_meta` line; consumers should reject
//! newer versions rather than misread them.
//!
//! There is one codec per line type, chosen by `"type"`. The two event
//! types are all but three of a stream's lines: their bytes go straight
//! into the output buffer and come back from a [`FlatObject`] scan, with
//! no [`Json`] tree either way (DESIGN.md §4d has the line grammar).

use std::io::{self, Write};

use crossbid_metrics::json::{render_f64, render_str, render_u64, FlatObject, Scalar};
use crossbid_metrics::{Json, JsonError, JsonlWriter, RegistrySnapshot, RunRecord};
use crossbid_simcore::SimTime;

use crate::engine::RunOutput;
use crate::job::{JobId, ShardId, WorkerId};
use crate::trace::{SchedEvent, SchedEventKind, TraceEvent, TraceKind};

/// Version stamped into every `run_meta` line. Bump on any change to
/// line shapes or the event vocabulary.
///
/// v2 added the `submitted`, `offered`, `rejected` and `completed`
/// scheduler events, making the control-plane log self-contained for
/// the conservation invariants `crossbid-checker` asserts.
///
/// v3 added the at-least-once reliability events `assign_acked`,
/// `lease_expired` and `resent` (with its `attempt` field), emitted
/// by both runtimes when a [`crate::faults::NetFaultPlan`] is active.
///
/// v4 added the master-failover events `leader_elected` (with its
/// `term` field) and `failover_replayed` (with its `entries` field),
/// emitted when a [`crate::faults::MasterFaultPlan`] crashes the
/// leader and an elected standby rebuilds by log replay.
///
/// v5 added the federation hand-off events `spill_out` (with its
/// `to_shard` field) and `spill_in` (with its `from_shard` field) and
/// the elastic-membership events `worker_joined`, `worker_draining`
/// and `worker_removed`, emitted when a
/// [`crate::faults::MembershipPlan`] or a federation routing tier is
/// active.
///
/// v6 added the atomization events `task_offer` (with `root`, `task`,
/// `preds`, `total`), `task_bid` (with `root`, `task`,
/// `estimate_secs`), `task_assign` (with `root`, `task`,
/// `speculative`), `task_done` (with `root`, `task`) and the
/// speculation events `spec_launch` / `spec_cancel` (with `root`,
/// `task`), emitted when arrivals carry a
/// [`TaskDag`](crate::atomize::TaskDag).
///
/// v7 added the replicated-data-plane events `fetch_req` / `fetch_ok`
/// (with `object`, `from`), `fetch_fail` (with `object`, `from`,
/// `attempt`), `replica_add` (with `object`), `replica_drop` (with
/// `object`, `evicted`) and the re-replication repair events
/// `repair_start` (with `object`, `from`) / `repair_done` (with
/// `object`), emitted when a
/// [`ReplicationConfig`](crate::engine::ReplicationConfig) is active.
pub const SCHEMA_VERSION: u64 = 7;

/// The stream header: which run produced the lines that follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStreamMeta {
    /// Runtime name (`"sim"` or `"threaded"`).
    pub runtime: String,
    /// Scheduler name (e.g. `"bidding"`).
    pub scheduler: String,
    /// Worker-configuration preset name.
    pub worker_config: String,
    /// Job-configuration preset name.
    pub job_config: String,
    /// Iteration index within the session.
    pub iteration: u32,
    /// The iteration's derived seed.
    pub seed: u64,
}

impl RunStreamMeta {
    fn to_json(&self) -> Json {
        Json::obj([
            ("type", Json::str("run_meta")),
            ("schema", Json::UInt(SCHEMA_VERSION)),
            ("runtime", Json::str(&self.runtime)),
            ("scheduler", Json::str(&self.scheduler)),
            ("worker_config", Json::str(&self.worker_config)),
            ("job_config", Json::str(&self.job_config)),
            ("iteration", Json::UInt(self.iteration as u64)),
            ("seed", Json::UInt(self.seed)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let schema = v.req_u64("schema")?;
        if schema > SCHEMA_VERSION {
            return Err(JsonError(format!(
                "run stream schema {schema} is newer than supported {SCHEMA_VERSION}"
            )));
        }
        Ok(RunStreamMeta {
            runtime: v.req_str("runtime")?.to_string(),
            scheduler: v.req_str("scheduler")?.to_string(),
            worker_config: v.req_str("worker_config")?.to_string(),
            job_config: v.req_str("job_config")?.to_string(),
            iteration: u32::try_from(v.req_u64("iteration")?)
                .map_err(|_| JsonError("field `iteration` is out of range".into()))?,
            seed: v.req_u64("seed")?,
        })
    }
}

/// One parsed line of a run stream. The once-per-stream payloads are
/// boxed: a parsed stream is a `Vec` of these and nearly every element
/// is an event.
#[derive(Debug, Clone)]
pub enum RunStreamLine {
    /// The `run_meta` header.
    Meta(Box<RunStreamMeta>),
    /// A data-plane lifecycle event.
    Trace(TraceEvent),
    /// A control-plane scheduler event.
    Sched(SchedEvent),
    /// The run's §6.1 record.
    Record(Box<RunRecord>),
    /// The run's metrics snapshot.
    Metrics(Box<RegistrySnapshot>),
}

/// A field type of the event lines: how it is written and how it is
/// read back. Reading is strict — an integer wider than the type is an
/// error naming the field, never a wrap.
trait Wire: Sized {
    fn put(self, out: &mut String);
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<Self, JsonError>;
}

/// Unsigned integers and the id newtypes around them.
macro_rules! wire_uint {
    ($($t:ty: $raw:expr, $wrap:expr;)*) => {$(
        impl Wire for $t {
            fn put(self, out: &mut String) {
                render_u64(u64::from($raw(self)), out);
            }
            fn take(obj: &FlatObject<'_>, key: &str) -> Result<Self, JsonError> {
                obj.req_uint(key).map($wrap)
            }
        }
    )*};
}
wire_uint! {
    u64: |n| n, |n| n;
    u32: |n| n, |n| n;
    JobId: |id: JobId| id.0, JobId;
    WorkerId: |id: WorkerId| id.0, WorkerId;
    ShardId: |id: ShardId| id.0, ShardId;
}

impl Wire for bool {
    fn put(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<Self, JsonError> {
        obj.req_bool(key)
    }
}

/// Non-finite renders as `null` and `null` reads back as NaN: a
/// corrupted bid is logged that way for the oracle to find.
impl Wire for f64 {
    fn put(self, out: &mut String) {
        render_f64(self, out);
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<Self, JsonError> {
        obj.req_f64(key)
    }
}

/// Unlike a bare `f64`, an instant must be a number: `null` would
/// otherwise read as t = 0.
impl Wire for SimTime {
    fn put(self, out: &mut String) {
        render_f64(self.as_secs_f64(), out);
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<Self, JsonError> {
        let secs = obj.req_f64(key)?;
        if secs.is_nan() {
            return Err(JsonError(format!("field `{key}` is null")));
        }
        Ok(SimTime::from_secs_f64(secs))
    }
}

/// Absent and `null` both read as `None`.
impl<T: Wire> Wire for Option<T> {
    fn put(self, out: &mut String) {
        match self {
            Some(v) => v.put(out),
            None => out.push_str("null"),
        }
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<Self, JsonError> {
        match obj.get(key) {
            None | Some(Scalar::Null) => Ok(None),
            Some(_) => T::take(obj, key).map(Some),
        }
    }
}

const TRACE_KINDS: [(TraceKind, &str); 4] = [
    (TraceKind::Queued, "queued"),
    (TraceKind::Started, "started"),
    (TraceKind::Fetched, "fetched"),
    (TraceKind::Finished, "finished"),
];

impl Wire for TraceKind {
    fn put(self, out: &mut String) {
        let name = TRACE_KINDS.iter().find(|(k, _)| *k == self);
        render_str(name.expect("every trace kind has a wire name").1, out);
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<Self, JsonError> {
        let name = obj.req_str(key)?;
        let kind = TRACE_KINDS.iter().find(|(_, n)| *n == name);
        kind.map(|(k, _)| *k)
            .ok_or_else(|| JsonError(format!("unknown trace kind {name:?}")))
    }
}

/// Append `,"key":value`. Keys are schema names and need no escaping.
fn put_field(out: &mut String, key: &str, value: impl Wire) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    value.put(out);
}

fn put_trace(ev: &TraceEvent, out: &mut String) {
    out.push_str("{\"type\":\"trace\"");
    put_field(out, "job", ev.job);
    put_field(out, "worker", ev.worker);
    put_field(out, "kind", ev.kind);
    put_field(out, "at_secs", ev.at);
    out.push('}');
}

fn take_trace(obj: &FlatObject<'_>) -> Result<TraceEvent, JsonError> {
    Ok(TraceEvent {
        job: Wire::take(obj, "job")?,
        worker: Wire::take(obj, "worker")?,
        kind: Wire::take(obj, "kind")?,
        at: Wire::take(obj, "at_secs")?,
    })
}

/// The scheduler vocabulary: each kind's wire name and its payload
/// fields in wire order, from which the name lookup, the encoder and
/// the decoder are all generated. A field's key is its name in
/// [`SchedEventKind`] and its encoding is its type's [`Wire`].
macro_rules! sched_kinds {
    ($($name:literal => $kind:ident { $($field:ident),* }),* $(,)?) => {
        /// The stable wire name of a scheduler event kind.
        pub fn sched_kind_name(kind: &SchedEventKind) -> &'static str {
            match kind {
                $(SchedEventKind::$kind { .. } => $name,)*
            }
        }

        /// Append `,"kind":"<name>"` and the kind's payload fields.
        fn put_sched_kind(kind: SchedEventKind, out: &mut String) {
            out.push_str(",\"kind\":");
            render_str(sched_kind_name(&kind), out);
            match kind {
                $(SchedEventKind::$kind { $($field),* } => {
                    $(put_field(out, stringify!($field), $field);)*
                })*
            }
        }

        fn take_sched_kind(obj: &FlatObject<'_>) -> Result<SchedEventKind, JsonError> {
            Ok(match obj.req_str("kind")? {
                $($name => SchedEventKind::$kind {
                    $($field: Wire::take(obj, stringify!($field))?),*
                },)*
                other => return Err(JsonError(format!("unknown sched kind {other:?}"))),
            })
        }
    };
}

sched_kinds! {
    "submitted" => Submitted {},
    "contest_opened" => ContestOpened {},
    "bid_received" => BidReceived { estimate_secs },
    "assigned" => Assigned {},
    "contest_closed" => ContestClosed { timed_out, fallback },
    "offered" => Offered {},
    "rejected" => Rejected {},
    "completed" => Completed {},
    "crash" => Crash {},
    "recover" => Recover {},
    "redistributed" => Redistributed {},
    "assign_acked" => AssignAcked {},
    "lease_expired" => LeaseExpired {},
    "resent" => Resent { attempt },
    "leader_elected" => LeaderElected { term },
    "failover_replayed" => FailoverReplayed { entries },
    "spill_out" => SpillOut { to_shard },
    "spill_in" => SpillIn { from_shard },
    "worker_joined" => WorkerJoined {},
    "worker_draining" => WorkerDraining {},
    "worker_removed" => WorkerRemoved {},
    "task_done" => TaskDone { root, task },
    "task_offer" => TaskOffer { root, task, preds, total },
    "task_bid" => TaskBid { root, task, estimate_secs },
    "task_assign" => TaskAssign { root, task, speculative },
    "spec_launch" => SpecLaunch { root, task },
    "spec_cancel" => SpecCancel { root, task },
    "fetch_req" => FetchReq { object, from },
    "fetch_ok" => FetchOk { object, from },
    "fetch_fail" => FetchFail { object, from, attempt },
    "replica_add" => ReplicaAdd { object },
    "replica_drop" => ReplicaDrop { object, evicted },
    "repair_start" => RepairStart { object, from },
    "repair_done" => RepairDone { object },
}

fn put_sched(ev: &SchedEvent, out: &mut String) {
    out.push_str("{\"type\":\"sched\"");
    put_field(out, "at_secs", ev.at);
    put_field(out, "worker", ev.worker);
    put_field(out, "job", ev.job);
    put_sched_kind(ev.kind, out);
    out.push('}');
}

fn take_sched(obj: &FlatObject<'_>) -> Result<SchedEvent, JsonError> {
    Ok(SchedEvent {
        at: Wire::take(obj, "at_secs")?,
        worker: Wire::take(obj, "worker")?,
        job: Wire::take(obj, "job")?,
        kind: take_sched_kind(obj)?,
    })
}

fn record_line(record: &RunRecord) -> Json {
    let mut fields = vec![("type".to_string(), Json::str("record"))];
    if let Json::Obj(inner) = record.to_json() {
        fields.extend(inner);
    }
    Json::Obj(fields)
}

fn metrics_line(snapshot: &RegistrySnapshot) -> Json {
    Json::obj([
        ("type", Json::str("metrics")),
        ("snapshot", snapshot.to_json()),
    ])
}

impl RunStreamLine {
    /// Append this line's text (no newline) to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            RunStreamLine::Meta(m) => m.to_json().render_into(out),
            RunStreamLine::Trace(ev) => put_trace(ev, out),
            RunStreamLine::Sched(ev) => put_sched(ev, out),
            RunStreamLine::Record(r) => record_line(r).render_into(out),
            RunStreamLine::Metrics(s) => metrics_line(s).render_into(out),
        }
    }

    /// This line's text (no newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Decode one line; `obj` is scratch space reused from line to line.
    fn decode<'a>(line: &'a str, obj: &mut FlatObject<'a>) -> Result<Self, JsonError> {
        obj.scan(line)?;
        match obj.req_str("type")? {
            "trace" => take_trace(obj).map(RunStreamLine::Trace),
            "sched" => take_sched(obj).map(RunStreamLine::Sched),
            "run_meta" => RunStreamMeta::from_json(&Json::parse(line)?)
                .map(|m| RunStreamLine::Meta(Box::new(m))),
            "record" => RunRecord::from_json(&Json::parse(line)?)
                .map(|r| RunStreamLine::Record(Box::new(r))),
            "metrics" => RegistrySnapshot::from_json(Json::parse(line)?.req("snapshot")?)
                .map(|s| RunStreamLine::Metrics(Box::new(s))),
            other => Err(JsonError(format!("unknown stream line type {other:?}"))),
        }
    }
}

/// Write one run as a JSONL stream: the `run_meta` header, every
/// trace event, every scheduler event, the record, and the metrics
/// snapshot. Returns the number of lines written.
pub fn write_run_stream<W: Write>(
    out: W,
    meta: &RunStreamMeta,
    run: &RunOutput,
) -> io::Result<u64> {
    let mut w = JsonlWriter::new(out);
    w.write(&meta.to_json())?;
    for ev in run.trace.events() {
        w.write_with(|line| put_trace(ev, line))?;
    }
    for ev in run.sched_log.events() {
        w.write_with(|line| put_sched(ev, line))?;
    }
    w.write(&record_line(&run.record))?;
    w.write(&metrics_line(&run.metrics))?;
    let lines = w.lines();
    w.finish()?;
    Ok(lines)
}

/// Decode a JSONL run stream one line at a time, for consumers that
/// fold over a stream too long to hold parsed. Blank lines are skipped
/// and an error names the physical line it is on.
pub fn run_stream_lines(text: &str) -> impl Iterator<Item = Result<RunStreamLine, JsonError>> + '_ {
    let mut obj = FlatObject::default();
    let lines = text.lines().enumerate();
    lines
        .filter(|(_, line)| !line.trim().is_empty())
        .map(move |(i, line)| {
            RunStreamLine::decode(line, &mut obj)
                .map_err(|e| JsonError(format!("line {}: {}", i + 1, e.0)))
        })
}

/// Parse a JSONL run stream produced by [`write_run_stream`] (or any
/// concatenation of such streams).
pub fn parse_run_stream(text: &str) -> Result<Vec<RunStreamLine>, JsonError> {
    run_stream_lines(text).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn trace_events_round_trip() {
        for kind in [
            TraceKind::Queued,
            TraceKind::Started,
            TraceKind::Fetched,
            TraceKind::Finished,
        ] {
            let ev = TraceEvent {
                job: JobId(7),
                worker: WorkerId(2),
                kind,
                at: t(12.5),
            };
            let line = RunStreamLine::Trace(ev).render();
            match parse_run_stream(&line).unwrap()[..] {
                [RunStreamLine::Trace(back)] => assert_eq!(back, ev, "{line}"),
                ref other => panic!("{line} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn sched_events_round_trip_all_kinds() {
        let kinds = [
            SchedEventKind::Submitted,
            SchedEventKind::ContestOpened,
            SchedEventKind::BidReceived {
                estimate_secs: 3.25,
            },
            SchedEventKind::Assigned,
            SchedEventKind::ContestClosed {
                timed_out: true,
                fallback: false,
            },
            SchedEventKind::Offered,
            SchedEventKind::Rejected,
            SchedEventKind::Completed,
            SchedEventKind::Crash,
            SchedEventKind::Recover,
            SchedEventKind::Redistributed,
            SchedEventKind::AssignAcked,
            SchedEventKind::LeaseExpired,
            SchedEventKind::Resent { attempt: 2 },
            SchedEventKind::LeaderElected { term: 3 },
            SchedEventKind::FailoverReplayed { entries: 42 },
            SchedEventKind::SpillOut {
                to_shard: ShardId(2),
            },
            SchedEventKind::SpillIn {
                from_shard: ShardId(1),
            },
            SchedEventKind::WorkerJoined,
            SchedEventKind::WorkerDraining,
            SchedEventKind::WorkerRemoved,
            SchedEventKind::TaskOffer {
                root: JobId(1000),
                task: 3,
                preds: 0b101,
                total: 7,
            },
            SchedEventKind::TaskBid {
                root: JobId(1000),
                task: 3,
                estimate_secs: 1.75,
            },
            SchedEventKind::TaskAssign {
                root: JobId(1000),
                task: 3,
                speculative: true,
            },
            SchedEventKind::TaskDone {
                root: JobId(1000),
                task: 3,
            },
            SchedEventKind::SpecLaunch {
                root: JobId(1000),
                task: 3,
            },
            SchedEventKind::SpecCancel {
                root: JobId(1000),
                task: 3,
            },
            SchedEventKind::FetchReq {
                object: 42,
                from: WorkerId(3),
            },
            SchedEventKind::FetchOk {
                object: 42,
                from: WorkerId(3),
            },
            SchedEventKind::FetchFail {
                object: 42,
                from: WorkerId(3),
                attempt: 1,
            },
            SchedEventKind::ReplicaAdd { object: 42 },
            SchedEventKind::ReplicaDrop {
                object: 42,
                evicted: true,
            },
            SchedEventKind::RepairStart {
                object: 42,
                from: WorkerId(5),
            },
            SchedEventKind::RepairDone { object: 42 },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let ev = SchedEvent {
                at: t(i as f64),
                worker: if i % 2 == 0 { Some(WorkerId(1)) } else { None },
                job: if i % 3 == 0 {
                    None
                } else {
                    Some(JobId(i as u64))
                },
                kind,
            };
            let line = RunStreamLine::Sched(ev).render();
            match parse_run_stream(&line).unwrap()[..] {
                [RunStreamLine::Sched(back)] => assert_eq!(back, ev, "{line}"),
                ref other => panic!("{line} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn meta_rejects_newer_schema() {
        let mut m = RunStreamMeta {
            runtime: "sim".into(),
            scheduler: "bidding".into(),
            worker_config: "w".into(),
            job_config: "j".into(),
            iteration: 0,
            seed: 1,
        };
        let good = m.to_json();
        m = RunStreamMeta::from_json(&good).unwrap();
        assert_eq!(m.runtime, "sim");
        let Json::Obj(mut fields) = good else {
            panic!()
        };
        for (k, v) in &mut fields {
            if k == "schema" {
                *v = Json::UInt(SCHEMA_VERSION + 1);
            }
        }
        assert!(RunStreamMeta::from_json(&Json::Obj(fields)).is_err());
    }

    #[test]
    fn unknown_line_type_is_an_error() {
        let err = parse_run_stream("{\"type\":\"mystery\"}").unwrap_err();
        assert!(err.0.contains("mystery"), "{err}");
    }

    #[test]
    fn errors_name_the_physical_line() {
        // Blank lines are skipped but still counted.
        let err = parse_run_stream("\n\n{\"type\":\"mystery\"}").unwrap_err();
        assert!(err.0.starts_with("line 3:"), "{err}");
        let good = RunStreamLine::Trace(TraceEvent {
            job: JobId(1),
            worker: WorkerId(0),
            kind: TraceKind::Queued,
            at: t(0.0),
        })
        .render();
        let err = parse_run_stream(&format!("{good}\n \r\n{good}\n{{\"type\":7}}\n")).unwrap_err();
        assert!(err.0.starts_with("line 4:"), "{err}");
    }

    #[test]
    fn out_of_range_ids_are_errors_not_wraps() {
        let sched = |payload: &str| {
            format!("{{\"type\":\"sched\",\"at_secs\":1.0,\"worker\":0,\"job\":1,{payload}}}")
        };
        let wide_u32 = u64::from(u32::MAX) + 2; // wrapped to 1 before
        let wide_u16 = u64::from(u16::MAX) + 2;
        for (line, field) in [
            (
                format!("{{\"type\":\"trace\",\"job\":1,\"worker\":{wide_u32},\"kind\":\"queued\",\"at_secs\":0.5}}"),
                "worker",
            ),
            (
                format!("{{\"type\":\"sched\",\"at_secs\":1.0,\"worker\":{wide_u32},\"job\":1,\"kind\":\"crash\"}}"),
                "worker",
            ),
            (sched(&format!("\"kind\":\"resent\",\"attempt\":{wide_u32}")), "attempt"),
            (sched(&format!("\"kind\":\"leader_elected\",\"term\":{wide_u32}")), "term"),
            (sched(&format!("\"kind\":\"spill_out\",\"to_shard\":{wide_u16}")), "to_shard"),
            (sched(&format!("\"kind\":\"spill_in\",\"from_shard\":{wide_u16}")), "from_shard"),
            (sched(&format!("\"kind\":\"task_done\",\"root\":1,\"task\":{wide_u32}")), "task"),
            (
                sched(&format!("\"kind\":\"task_offer\",\"root\":1,\"task\":0,\"preds\":0,\"total\":{wide_u32}")),
                "total",
            ),
            (sched(&format!("\"kind\":\"fetch_ok\",\"object\":1,\"from\":{wide_u32}")), "from"),
            (
                format!("{{\"type\":\"run_meta\",\"schema\":7,\"runtime\":\"sim\",\"scheduler\":\"bidding\",\"worker_config\":\"w\",\"job_config\":\"j\",\"iteration\":{wide_u32},\"seed\":1}}"),
                "iteration",
            ),
        ] {
            let err = parse_run_stream(&line).unwrap_err();
            assert!(
                err.0.contains(&format!("`{field}`")) && err.0.contains("out of range"),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn null_is_a_legal_estimate_but_not_a_legal_instant() {
        let line = |at: &str, estimate: &str| {
            format!(
                "{{\"type\":\"sched\",\"at_secs\":{at},\"worker\":0,\"job\":1,\"kind\":\"bid_received\",\"estimate_secs\":{estimate}}}"
            )
        };
        match parse_run_stream(&line("2.5", "null")).unwrap()[..] {
            [RunStreamLine::Sched(SchedEvent {
                kind: SchedEventKind::BidReceived { estimate_secs },
                ..
            })] => assert!(estimate_secs.is_nan()),
            ref other => panic!("{other:?}"),
        }
        let err = parse_run_stream(&line("null", "1.0")).unwrap_err();
        assert!(err.0.contains("`at_secs` is null"), "{err}");
        let err = parse_run_stream(
            "{\"type\":\"trace\",\"job\":1,\"worker\":0,\"kind\":\"queued\",\"at_secs\":null}",
        )
        .unwrap_err();
        assert!(err.0.contains("`at_secs` is null"), "{err}");
    }

    #[test]
    fn a_parsed_line_is_no_larger_than_an_event() {
        // A parsed stream holds one of these per line, and all but
        // three lines of a stream are events.
        assert!(std::mem::size_of::<RunStreamLine>() <= 64);
    }
}
