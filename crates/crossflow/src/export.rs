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
//! The two event types are all but three of a stream's lines, and
//! neither builds a [`Json`] tree. Their bytes go straight into the
//! output buffer. Reading one back first tries the writer's own layout
//! with one cursor over the line: the `"type"` prefix, each field's
//! `,"key":` in wire order, values as the writer spells them (no
//! whitespace, no escapes, no exponent, no sign on an id or instant,
//! no leading zero), and `}` right after the last field. A line that
//! differs anywhere goes to a [`FlatObject`] scan, which reads every
//! spelling the tree parser reads and raises every error. The line's
//! own bytes pick the path, and where both accept a line they give the
//! same event. The scan stays because it is the only reader of foreign
//! input; the cursor read exists because on a 32-worker stream (41
//! lines per job, 32 of them bids) the scan's ≈ 300 ns/line set the
//! pipeline's pace, and the cursor read is under half of that.
//!
//! An instant below 10¹⁵ µs ticks is written and read from its ticks,
//! as `secs.frac` with the fraction's trailing zeros trimmed (`.0` when
//! whole). That is exact: such a decimal has at most 15 significant
//! digits, so it is the shortest round-trip string of its nearest
//! double (the bytes equal [`render_f64`] of the seconds), and
//! [`SimTime::from_secs_f64`] of that double is within 0.23 tick before
//! rounding (the ticks equal what the float path reads). At or above
//! 10¹⁵ ticks both sides take the float path. DESIGN.md §4d has the
//! line grammar.

use std::io::{self, Write};

use crossbid_metrics::json::{render_f64, render_str, render_u64, FlatObject, Scalar};
use crossbid_metrics::{Json, JsonError, JsonlWriter, RegistrySnapshot, RunRecord};
use crossbid_simcore::time::TICKS_PER_SEC;
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

/// A field type of the event lines: how it is written, how it is taken
/// from a [`FlatObject`], and how it is read back from exactly the
/// bytes `put` writes. Taking is strict — an integer wider than the
/// type is an error naming the field, never a wrap. Reading is stricter
/// still: any other spelling is `None`, and the whole line then goes to
/// the `FlatObject` decode, which takes the same value or names the
/// error.
trait Wire: Sized {
    fn put(self, out: &mut String);
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<Self, JsonError>;
    fn read(cur: &mut Cursor<'_>) -> Option<Self>;
}

/// `,"key":`, the one spelling of a field key that both the writer and
/// the canonical read use.
macro_rules! key {
    ($($key:tt)*) => {
        concat!(",\"", $($key)*, "\":")
    };
}

/// A cursor over one event line that accepts only what the writer lays
/// down. On `None` the line is decoded afresh, so what was consumed
/// does not matter.
struct Cursor<'a>(&'a str);

impl<'a> Cursor<'a> {
    fn lit(&mut self, s: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(s)?;
        Some(())
    }

    /// The value after the literal `key` (a [`key!`]).
    fn field<T: Wire>(&mut self, key: &str) -> Option<T> {
        self.lit(key)?;
        T::read(self)
    }

    /// A run of ASCII digits, possibly empty.
    fn digits(&mut self) -> &'a str {
        let n = self.0.bytes().position(|b| !b.is_ascii_digit());
        let (digits, rest) = self.0.split_at(n.unwrap_or(self.0.len()));
        self.0 = rest;
        digits
    }

    /// Integer digits as [`render_u64`] writes them: no leading zero.
    fn int_digits(&mut self) -> Option<&'a str> {
        let digits = self.digits();
        match digits.as_bytes() {
            [] | [b'0', _, ..] => None,
            _ => Some(digits),
        }
    }

    fn uint(&mut self) -> Option<u64> {
        self.int_digits()?.parse().ok()
    }

    /// A point and at least one digit.
    fn fraction(&mut self) -> Option<&'a str> {
        self.lit(".")?;
        Some(self.digits()).filter(|d| !d.is_empty())
    }

    /// The text of a string up to the next quote. No schema name holds
    /// an escape, so an escaped name matches none of them.
    fn str(&mut self) -> Option<&'a str> {
        let rest = self.0.strip_prefix('"')?;
        let (text, rest) = rest.split_once('"')?;
        self.0 = rest;
        Some(text)
    }
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
            fn read(cur: &mut Cursor<'_>) -> Option<Self> {
                cur.uint()?.try_into().ok().map($wrap)
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
    fn read(cur: &mut Cursor<'_>) -> Option<Self> {
        match cur.lit("true") {
            Some(()) => Some(true),
            None => cur.lit("false").map(|()| false),
        }
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
    /// `{}` never writes an exponent, so a float is `-?int.frac`.
    fn read(cur: &mut Cursor<'_>) -> Option<Self> {
        if cur.lit("null").is_some() {
            return Some(f64::NAN);
        }
        let start = cur.0;
        let _ = cur.lit("-");
        cur.int_digits()?;
        cur.fraction()?;
        start[..start.len() - cur.0.len()].parse().ok()
    }
}

/// Instants below this many ticks are written and read from their
/// ticks; the module docs say why that is exact.
const EXACT_TICKS: u64 = 1_000_000_000_000_000;

/// Unlike a bare `f64`, an instant must be a finite, non-negative
/// number: `null`, `-3.0` and `1e999` would otherwise read as t = 0.
impl Wire for SimTime {
    fn put(self, out: &mut String) {
        let ticks = self.ticks();
        if ticks >= EXACT_TICKS {
            return render_f64(self.as_secs_f64(), out);
        }
        render_u64(ticks / TICKS_PER_SEC, out);
        let mut frac = *b".000000";
        let mut rest = ticks % TICKS_PER_SEC;
        for digit in frac[1..].iter_mut().rev() {
            *digit += (rest % 10) as u8;
            rest /= 10;
        }
        // Trim trailing zeros, down to `.0` for a whole second.
        let len = frac.iter().rposition(|&b| b != b'0').unwrap_or(0) + 1;
        out.push_str(std::str::from_utf8(&frac[..len.max(2)]).expect("ascii digits"));
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<Self, JsonError> {
        let secs = obj.req_f64(key)?;
        if secs.is_nan() {
            return Err(JsonError(format!("field `{key}` is null")));
        }
        if secs < 0.0 || secs.is_infinite() {
            return Err(JsonError(format!("field `{key}` is out of range: {secs}")));
        }
        Ok(SimTime::from_secs_f64(secs))
    }
    /// `int.frac` with one to six (µs) fraction digits, straight to ticks.
    fn read(cur: &mut Cursor<'_>) -> Option<Self> {
        let secs = cur.uint()?;
        let frac = cur.fraction()?;
        if frac.len() > 6 {
            return None;
        }
        let scale = 10u64.pow(6 - frac.len() as u32);
        let frac: u64 = frac.parse().ok()?;
        let ticks = secs.checked_mul(TICKS_PER_SEC)?.checked_add(frac * scale)?;
        (ticks < EXACT_TICKS).then_some(SimTime::from_ticks(ticks))
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
    fn read(cur: &mut Cursor<'_>) -> Option<Self> {
        match cur.lit("null") {
            Some(()) => Some(None),
            None => T::read(cur).map(Some),
        }
    }
}

const TRACE_KINDS: [(TraceKind, &str); 4] = [
    (TraceKind::Queued, "queued"),
    (TraceKind::Started, "started"),
    (TraceKind::Fetched, "fetched"),
    (TraceKind::Finished, "finished"),
];

fn trace_kind(name: &str) -> Option<TraceKind> {
    let kind = TRACE_KINDS.iter().find(|(_, n)| *n == name);
    kind.map(|(k, _)| *k)
}

impl Wire for TraceKind {
    fn put(self, out: &mut String) {
        let name = TRACE_KINDS.iter().find(|(k, _)| *k == self);
        render_str(name.expect("every trace kind has a wire name").1, out);
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<Self, JsonError> {
        let name = obj.req_str(key)?;
        trace_kind(name).ok_or_else(|| JsonError(format!("unknown trace kind {name:?}")))
    }
    fn read(cur: &mut Cursor<'_>) -> Option<Self> {
        trace_kind(cur.str()?)
    }
}

/// An event line: its `"type"` tag and its fields in wire order, each
/// as `event_field: "wire_key"`, from which its encoder, its
/// `FlatObject` decoder and its canonical read are all generated.
macro_rules! event_line {
    ($ty:ident $tag:literal { $($field:ident: $key:literal),* }
        => $put:ident, $take:ident, $read:ident) => {
        fn $put(ev: &$ty, out: &mut String) {
            out.push_str(concat!("{\"type\":\"", $tag, "\""));
            $(
                out.push_str(key!($key));
                Wire::put(ev.$field, out);
            )*
            out.push('}');
        }

        fn $take(obj: &FlatObject<'_>) -> Result<$ty, JsonError> {
            Ok($ty { $($field: Wire::take(obj, $key)?),* })
        }

        /// `line` read in the writer's layout, or `None` if it differs.
        fn $read(line: &str) -> Option<$ty> {
            let mut cur = Cursor(line.strip_prefix(concat!("{\"type\":\"", $tag, "\""))?);
            let ev = $ty { $($field: cur.field(key!($key))?),* };
            (cur.0 == "}").then_some(ev)
        }
    };
}

event_line! {
    TraceEvent "trace" { job: "job", worker: "worker", kind: "kind", at: "at_secs" }
        => put_trace, take_trace, read_trace
}

event_line! {
    SchedEvent "sched" { at: "at_secs", worker: "worker", job: "job", kind: "kind" }
        => put_sched, take_sched, read_sched
}

/// Makes, from [`sched_vocabulary!`](crate::trace::sched_vocabulary)'s
/// rows, the name lookup and the kind's [`Wire`] encoding, decoding and
/// canonical read. A field's key is its name in [`SchedEventKind`] and
/// its encoding is its type's [`Wire`].
macro_rules! sched_wire {
    ($(
        $(#[$doc:meta])*
        $kind:ident $name:literal $({
            $($(#[$field_doc:meta])* $field:ident: $ty:ty,)*
        })?,
    )*) => {
        /// The stable wire name of a scheduler event kind.
        pub fn sched_kind_name(kind: &SchedEventKind) -> &'static str {
            match kind {
                $(SchedEventKind::$kind { .. } => $name,)*
            }
        }

        /// A kind's value is its name; its payload fields follow it as
        /// fields of the line.
        impl Wire for SchedEventKind {
            fn put(self, out: &mut String) {
                match self {
                    $(SchedEventKind::$kind { $($($field),*)? } => {
                        out.push_str(concat!("\"", $name, "\""));
                        $($(
                            out.push_str(key!(stringify!($field)));
                            Wire::put($field, out);
                        )*)?
                    })*
                }
            }

            fn take(obj: &FlatObject<'_>, key: &str) -> Result<Self, JsonError> {
                Ok(match obj.req_str(key)? {
                    $($name => SchedEventKind::$kind {
                        $($($field: Wire::take(obj, stringify!($field))?),*)?
                    },)*
                    other => return Err(JsonError(format!("unknown sched kind {other:?}"))),
                })
            }

            fn read(cur: &mut Cursor<'_>) -> Option<Self> {
                Some(match cur.str()? {
                    $($name => SchedEventKind::$kind {
                        $($($field: cur.field(key!(stringify!($field)))?),*)?
                    },)*
                    _ => return None,
                })
            }
        }
    };
}

crate::trace::sched_vocabulary!(sched_wire);

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
        match Self::read_canonical(line) {
            Some(line) => Ok(line),
            None => Self::scan(line, obj),
        }
    }

    /// An event line in exactly the writer's layout, or `None`.
    fn read_canonical(line: &str) -> Option<Self> {
        match read_sched(line) {
            Some(ev) => Some(RunStreamLine::Sched(ev)),
            None => read_trace(line).map(RunStreamLine::Trace),
        }
    }

    /// Decode a line of any spelling the tree parser reads.
    fn scan<'a>(line: &'a str, obj: &mut FlatObject<'a>) -> Result<Self, JsonError> {
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
        w.write_with(|line| put_sched(&ev, line))?;
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
            match read_both_ways(&line) {
                RunStreamLine::Trace(back) => assert_eq!(back, ev, "{line}"),
                other => panic!("{line} read as {other:?}"),
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
        let nan_bid = SchedEventKind::BidReceived {
            estimate_secs: f64::NAN,
        };
        for (i, kind) in kinds.into_iter().chain([nan_bid]).enumerate() {
            let ev = SchedEvent {
                // Whole seconds and one to six fraction digits.
                at: SimTime::from_ticks(i as u64 * 1_250_125),
                worker: if i % 2 == 0 { Some(WorkerId(1)) } else { None },
                job: if i % 3 == 0 {
                    None
                } else {
                    Some(JobId(i as u64))
                },
                kind,
            };
            let line = RunStreamLine::Sched(ev).render();
            let expected = format!("{:?}", [RunStreamLine::Sched(ev)]);
            assert_eq!(format!("{:?}", [read_both_ways(&line)]), expected);
            assert_eq!(format!("{:?}", parse_run_stream(&line).unwrap()), expected);
        }
    }

    /// Both readers take the writer's `line`, to the same event (by
    /// `Debug`, so that a NaN estimate is equal to itself).
    fn read_both_ways(line: &str) -> RunStreamLine {
        let read = RunStreamLine::read_canonical(line)
            .unwrap_or_else(|| panic!("the canonical read refused {line}"));
        let scanned = RunStreamLine::scan(line, &mut FlatObject::default()).unwrap();
        assert_eq!(format!("{read:?}"), format!("{scanned:?}"), "{line}");
        read
    }

    /// The instant `ticks` is written as the float path writes it, and
    /// below 10^15 ticks the canonical read takes it back exactly, as
    /// the float path does; at or above, the canonical read leaves it
    /// to the float path.
    fn check_instant(ticks: u64) {
        let at = SimTime::from_ticks(ticks);
        let mut bytes = String::new();
        at.put(&mut bytes);
        let mut float = String::new();
        render_f64(at.as_secs_f64(), &mut float);
        assert_eq!(bytes, float, "{ticks} ticks");

        let line = format!("{{\"at_secs\":{bytes}}}");
        let mut obj = FlatObject::default();
        obj.scan(&line).unwrap();
        let taken = SimTime::take(&obj, "at_secs").unwrap();
        let mut cur = Cursor(&bytes);
        let read = SimTime::read(&mut cur).filter(|_| cur.0.is_empty());
        let exact = ticks < 1_000_000_000_000_000;
        assert_eq!(read, exact.then_some(at), "{bytes}");
        if exact {
            assert_eq!(taken, at, "{bytes}");
        }
    }

    #[test]
    fn instants_at_the_corners_of_the_tick_codec() {
        for ticks in [
            0,
            1,
            999_999,
            1_000_000,
            999_999_999_999_999,
            1_000_000_000_000_000,
            u64::MAX,
        ] {
            check_instant(ticks);
        }
    }

    proptest::proptest! {
        #[test]
        fn instants_are_written_and_read_from_ticks_as_through_floats(
            short in 0u64..100_000_000,
            below in 0u64..1_000_000_000_000_000,
            above in 1_000_000_000_000_000u64..10_000_000_000_000_000,
            wide: u64,
        ) {
            for ticks in [short, below, above, wide] {
                check_instant(ticks);
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
        // Nor is an instant that would saturate to t = 0.
        for at in ["-3.0", "-0.5", "1e999", "-1e999"] {
            let err = parse_run_stream(&line(at, "1.0")).unwrap_err();
            assert!(err.0.contains("`at_secs` is out of range"), "{at}: {err}");
        }
    }

    #[test]
    fn a_parsed_line_is_no_larger_than_an_event() {
        // A parsed stream holds one of these per line, and all but
        // three lines of a stream are events.
        assert!(std::mem::size_of::<RunStreamLine>() <= 64);
    }
}
