//! Execution tracing — per-job lifecycle records.
//!
//! When [`EngineConfig::trace`](crate::EngineConfig) is enabled the
//! engine records every job's placement and phase transitions. The
//! trace supports the kind of analysis the paper's discussion relies
//! on ("slower workers having to download and process larger
//! repositories", queue-time vs transfer-time breakdowns) and renders
//! a text Gantt chart for eyeballing a schedule.

use crossbid_simcore::{SimTime, Welford};
use serde::{Deserialize, Serialize};

use crate::job::{JobId, ShardId, WorkerId};

/// A job lifecycle phase transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Placed in a worker's queue.
    Queued,
    /// Physical work began (fetch or scan).
    Started,
    /// Resource transfer finished (only for jobs that fetched).
    Fetched,
    /// Processing finished at the worker.
    Finished,
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// The job.
    pub job: JobId,
    /// The worker involved.
    pub worker: WorkerId,
    /// Phase transition.
    pub kind: TraceKind,
    /// Virtual instant.
    pub at: SimTime,
}

/// The collected trace of one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

/// Per-job phase durations extracted from a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobPhases {
    /// The job.
    pub job: JobId,
    /// The executing worker.
    pub worker: WorkerId,
    /// Queue wait: queued → started, seconds.
    pub wait_secs: f64,
    /// Transfer: started → fetched, seconds (0 when the job hit the
    /// cache or needed no resource).
    pub fetch_secs: f64,
    /// Processing: (fetched|started) → finished, seconds.
    pub proc_secs: f64,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event (engine-internal).
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// All events in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True iff nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-job phase breakdown for jobs that ran to completion. Jobs
    /// that were re-placed after a crash report their *final*
    /// placement.
    pub fn job_phases(&self) -> Vec<JobPhases> {
        use std::collections::HashMap;
        #[derive(Default, Clone, Copy)]
        struct Acc {
            queued: Option<SimTime>,
            started: Option<SimTime>,
            fetched: Option<SimTime>,
            finished: Option<SimTime>,
            worker: Option<WorkerId>,
        }
        let mut acc: HashMap<JobId, Acc> = HashMap::new();
        for ev in &self.events {
            let a = acc.entry(ev.job).or_default();
            match ev.kind {
                TraceKind::Queued => {
                    // Re-placements overwrite: final placement wins.
                    *a = Acc {
                        queued: Some(ev.at),
                        worker: Some(ev.worker),
                        ..Acc::default()
                    };
                }
                TraceKind::Started => a.started = Some(ev.at),
                TraceKind::Fetched => a.fetched = Some(ev.at),
                TraceKind::Finished => {
                    a.finished = Some(ev.at);
                    a.worker = Some(ev.worker);
                }
            }
        }
        let mut out: Vec<JobPhases> = acc
            .into_iter()
            .filter_map(|(job, a)| {
                let queued = a.queued?;
                let started = a.started?;
                let finished = a.finished?;
                let worker = a.worker?;
                let fetch_end = a.fetched.unwrap_or(started);
                Some(JobPhases {
                    job,
                    worker,
                    wait_secs: started.saturating_since(queued).as_secs_f64(),
                    fetch_secs: fetch_end.saturating_since(started).as_secs_f64(),
                    proc_secs: finished.saturating_since(fetch_end).as_secs_f64(),
                })
            })
            .collect();
        out.sort_by_key(|p| p.job);
        out
    }

    /// Aggregate statistics over the phase breakdown:
    /// `(wait, fetch, proc)` Welford accumulators in seconds.
    pub fn phase_stats(&self) -> (Welford, Welford, Welford) {
        let mut wait = Welford::new();
        let mut fetch = Welford::new();
        let mut proc = Welford::new();
        for p in self.job_phases() {
            wait.push(p.wait_secs);
            fetch.push(p.fetch_secs);
            proc.push(p.proc_secs);
        }
        (wait, fetch, proc)
    }

    /// Reconstruct a worker's queue depth over time from
    /// Queued/Started transitions: returns `(time, depth)` change
    /// points, depth counting jobs queued but not yet started.
    pub fn queue_depth_series(&self, worker: WorkerId) -> Vec<(SimTime, i64)> {
        let mut deltas: Vec<(SimTime, i64)> = Vec::new();
        for ev in &self.events {
            if ev.worker != worker {
                continue;
            }
            match ev.kind {
                TraceKind::Queued => deltas.push((ev.at, 1)),
                TraceKind::Started => deltas.push((ev.at, -1)),
                _ => {}
            }
        }
        deltas.sort_by_key(|(t, _)| *t);
        let mut out = Vec::with_capacity(deltas.len());
        let mut depth = 0i64;
        for (t, d) in deltas {
            depth += d;
            match out.last_mut() {
                Some((lt, ld)) if *lt == t => *ld = depth,
                _ => out.push((t, depth)),
            }
        }
        out
    }

    /// Peak queue depth at `worker` over the run.
    pub fn peak_queue_depth(&self, worker: WorkerId) -> i64 {
        self.queue_depth_series(worker)
            .into_iter()
            .map(|(_, d)| d)
            .max()
            .unwrap_or(0)
    }

    /// A text Gantt chart: one row per worker, `#` = processing,
    /// `▒` (rendered as `~`) = fetching, `.` = idle, with `cols`
    /// character columns spanning the makespan.
    pub fn gantt(&self, n_workers: usize, cols: usize) -> String {
        let end = self
            .events
            .iter()
            .map(|e| e.at)
            .max()
            .unwrap_or(SimTime::ZERO);
        let span = end.as_secs_f64().max(1e-9);
        let cols = cols.max(10);
        let mut rows = vec![vec!['.'; cols]; n_workers];
        for p in self.job_phases() {
            let w = p.worker.0 as usize;
            if w >= n_workers {
                continue;
            }
            // Reconstruct absolute phase windows from the breakdown:
            // find the job's Started event for the anchor.
            let started = self
                .events
                .iter()
                .find(|e| e.job == p.job && e.kind == TraceKind::Started)
                .map(|e| e.at.as_secs_f64())
                .unwrap_or(0.0);
            let mark = |rows: &mut Vec<Vec<char>>, from: f64, to: f64, ch: char| {
                let a = ((from / span) * cols as f64) as usize;
                let b = (((to / span) * cols as f64).ceil() as usize).min(cols);
                for c in &mut rows[w][a.min(cols.saturating_sub(1))..b] {
                    // Processing never overwrites processing, but wins
                    // over idle and fetch markers from other jobs.
                    if ch == '#' || *c == '.' {
                        *c = ch;
                    }
                }
            };
            mark(&mut rows, started, started + p.fetch_secs, '~');
            mark(
                &mut rows,
                started + p.fetch_secs,
                started + p.fetch_secs + p.proc_secs,
                '#',
            );
        }
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            out.push_str(&format!("w{i:<2} |"));
            out.extend(row.iter());
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "     0s {:->width$} {:.1}s\n",
            ">",
            end.as_secs_f64(),
            width = cols.saturating_sub(8)
        ));
        out
    }
}

/// The scheduler event vocabulary, written once: one row per kind, in
/// rank order. A row is the variant's docs, its name, its wire name,
/// and its payload fields in order, each with its docs and type. The
/// rows are handed to the generator `$then`: `sched_kinds!` here
/// makes [`SchedEventKind`], its rank and the stored log's payload
/// codec, and `sched_wire!` in `export.rs` makes the JSONL names and
/// fields. Adding a kind is adding a row.
///
/// The row order is the rank, which breaks same-instant ties in
/// [`SchedLog::push`] and heads every stored event.
macro_rules! sched_vocabulary {
    ($then:ident) => {
        $then! {
            /// A job entered allocation for the first time (external arrival
            /// or downstream spawn). Redistribution re-entries are *not*
            /// re-submitted — they keep their original submission.
            Submitted "submitted",
            /// A bidding contest was opened (bid requests broadcast).
            ContestOpened "contest_opened",
            /// A (finite) bid was received and recorded.
            BidReceived "bid_received" {
                /// The worker's completion-time estimate.
                estimate_secs: f64,
            },
            /// The job was assigned to a worker.
            Assigned "assigned",
            /// The contest was decided.
            ContestClosed "contest_closed" {
                /// Closed by window expiry rather than a complete bid set.
                timed_out: bool,
                /// No usable bids: an arbitrary live worker was drafted.
                fallback: bool,
            },
            /// Baseline: the job was offered to a worker (pull protocol).
            Offered "offered",
            /// Baseline: the worker declined the offered job (reject-once).
            Rejected "rejected",
            /// The master accepted a completion report for the job — its
            /// terminal event. A duplicate completion racing a redistribution
            /// is de-duplicated *before* this is logged, so a correct run
            /// logs exactly one `Completed` per submitted job.
            Completed "completed",
            /// The worker failed (fault injection).
            Crash "crash",
            /// The worker came back with an empty store and queue.
            Recover "recover",
            /// A job stranded on a failed worker was taken back by the master
            /// for re-placement.
            Redistributed "redistributed",
            /// The worker acknowledged holding the assignment (or accepted
            /// offer) — the at-least-once layer stops retransmitting and the
            /// lease no longer bounces the job.
            AssignAcked "assign_acked",
            /// An assignment's lease ran out with neither an ack nor a
            /// completion: the master took the job back for re-offer. Unlike
            /// [`Redistributed`](Self::Redistributed) the worker may be alive —
            /// the *link* is the suspect.
            LeaseExpired "lease_expired",
            /// A reliability-layer retransmission (of an unacked
            /// Assign/Offer, or of an unacked `Done`).
            Resent "resent" {
                /// 0-based retransmission attempt.
                attempt: u32,
            },
            /// A standby master won the election after the leader crashed and
            /// now owns the replicated log (see [`crate::replog`]).
            LeaderElected "leader_elected" {
                /// The new leadership term (the first leader is term 1).
                term: u32,
            },
            /// The elected master finished rebuilding scheduler state by
            /// replaying the committed log.
            FailoverReplayed "failover_replayed" {
                /// Committed entries replayed into the state machine.
                entries: u64,
            },
            /// Federation: the home master handed the job off to a less-loaded
            /// peer shard. A *decision* event (committed before the hand-off
            /// is sent); the job's terminal event in the home shard's log —
            /// exactly one `SpillIn` in the target shard must follow in the
            /// federation-wide union.
            SpillOut "spill_out" {
                /// The shard the job was forwarded to.
                to_shard: ShardId,
            },
            /// Federation: the job arrived from a peer shard and entered local
            /// allocation. Takes the place of `Submitted` in the receiving
            /// shard's log; the job keeps its home-qualified federation id.
            SpillIn "spill_in" {
                /// The home shard that spilled the job here.
                from_shard: ShardId,
            },
            /// Elastic membership: the worker joined the shard at runtime
            /// (autoscale-up) and is now eligible for contests and placements.
            WorkerJoined "worker_joined",
            /// Elastic membership: the worker was told to drain — it accepts
            /// no new placements but finishes its queue.
            WorkerDraining "worker_draining",
            /// Elastic membership: the worker left the roster for good (drain
            /// completed, or an administrative removal reclaimed its queue).
            WorkerRemoved "worker_removed",
            /// Atomization: the task completed *effectively* — the first
            /// completion wins; a speculative loser is cancelled and never
            /// logs a second `TaskDone`. Exactly one per task in a clean run.
            ///
            /// Declared (and ranked) before [`TaskOffer`](Self::TaskOffer):
            /// a completion releases successor tasks *at the same instant*,
            /// and the two events concern different jobs, so the same-instant
            /// tiebreak in [`SchedLog::push`] orders them by rank — the
            /// predecessor's `TaskDone` must sort before the successor's
            /// `TaskOffer` for the gate invariant to read causally.
            TaskDone "task_done" {
                /// Root id of the DAG.
                root: JobId,
                /// Task index within the DAG.
                task: u32,
            },
            /// Atomization: a DAG task was released into allocation — every
            /// predecessor named in `preds` has a committed
            /// [`TaskDone`](Self::TaskDone). A *decision* event (committed
            /// before the task's job is submitted). `job` is the task's job
            /// id; `root` the parent DAG's root id.
            TaskOffer "task_offer" {
                /// Root id of the DAG this task belongs to.
                root: JobId,
                /// Task index within the DAG (0-based).
                task: u32,
                /// Bitmask of predecessor task indices (DAGs are capped at 64
                /// tasks so the mask is self-describing in the log).
                preds: u64,
                /// Total tasks in the DAG — lets a log consumer detect
                /// orphaned stages without out-of-band knowledge.
                total: u32,
            },
            /// Atomization: the straggler detector launched a speculative
            /// replica of an in-flight task. A *decision* event (committed
            /// before the replica's job is submitted). `job` is the replica's
            /// fresh job id.
            SpecLaunch "spec_launch" {
                /// Root id of the DAG.
                root: JobId,
                /// Task index within the DAG.
                task: u32,
            },
            /// Atomization: the losing attempt of a speculated task was
            /// cancelled after the winner's [`TaskDone`](Self::TaskDone)
            /// committed. A *decision* event; `job` is the cancelled attempt's
            /// job id — its terminal accounting event (a later completion
            /// report from the loser is swallowed, never logged).
            SpecCancel "spec_cancel" {
                /// Root id of the DAG.
                root: JobId,
                /// Task index within the DAG.
                task: u32,
            },
            /// Data plane: the worker (`worker`) started fetching an artifact
            /// from a peer replica instead of the master. `job` is the driving
            /// job, or `None` for a repair copy.
            FetchReq "fetch_req" {
                /// The artifact being fetched.
                object: u64,
                /// The peer replica holder serving the transfer.
                from: WorkerId,
            },
            /// Data plane: the peer transfer completed and the artifact is now
            /// resident on `worker`.
            FetchOk "fetch_ok" {
                /// The artifact fetched.
                object: u64,
                /// The peer that served it.
                from: WorkerId,
            },
            /// Data plane: a peer fetch attempt timed out or was lost by the
            /// network; the requester retries (next replica, seeded backoff)
            /// or falls back to a degraded master fetch.
            FetchFail "fetch_fail" {
                /// The artifact whose transfer failed.
                object: u64,
                /// The peer that failed to serve it.
                from: WorkerId,
                /// 0-based attempt number that failed.
                attempt: u32,
            },
            /// Data plane: `worker` now holds a live copy of the artifact
            /// (master fetch, peer fetch, DAG output, or completed repair).
            ReplicaAdd "replica_add" {
                /// The artifact admitted.
                object: u64,
            },
            /// Data plane: `worker` no longer holds a copy — evicted under
            /// cache pressure (`evicted: true`) or destroyed by a crash /
            /// removal (`evicted: false`). The distinction matters to the
            /// oracle: an eviction that destroys the last live copy means the
            /// pin protocol failed (the checker's `EvictedLastCopy`); a crash
            /// doing the same is data loss the repair path exists to prevent.
            ReplicaDrop "replica_drop" {
                /// The artifact dropped.
                object: u64,
                /// True iff dropped by eviction rather than crash/removal.
                evicted: bool,
            },
            /// Data plane repair: the master committed its intent to restore
            /// the artifact's replication factor by copying from `from` to
            /// `worker`. A *decision* event (commit-before-copy): after a
            /// failover the elected master resumes every `RepairStart` without
            /// a matching [`RepairDone`](Self::RepairDone) instead of
            /// re-committing it.
            RepairStart "repair_start" {
                /// The under-replicated artifact.
                object: u64,
                /// The surviving replica serving as copy source.
                from: WorkerId,
            },
            /// Data plane repair: the copy landed and the artifact is back at
            /// (or closer to) its target replication factor. `worker` is the
            /// destination that now holds the new replica — it may differ from
            /// the `RepairStart` destination if the original target died
            /// mid-copy and the repair was re-routed.
            RepairDone "repair_done" {
                /// The repaired artifact.
                object: u64,
            },
        }
    };
}
pub(crate) use sched_vocabulary;

/// Makes, from [`sched_vocabulary!`]'s rows: [`SchedEventKind`]; its
/// rank (`Rank`, `KINDS`, `rank()`); and its payload in the stored log,
/// each field `Packed` in row order.
macro_rules! sched_kinds {
    ($(
        $(#[$doc:meta])*
        $kind:ident $name:literal $({
            $($(#[$field_doc:meta])* $field:ident: $ty:ty,)*
        })?,
    )*) => {
        /// A scheduler-level protocol event. Where [`TraceKind`] records the
        /// *data plane* (a job's physical lifecycle on a worker), this records
        /// the *control plane*: contest arbitration, failures, and the
        /// redistribution machinery. Both runtimes emit the same shape so
        /// parity and fault-tolerance tests can assert identical invariants on
        /// the simulated and the threaded scheduler.
        #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
        pub enum SchedEventKind {
            $($(#[$doc])* $kind $({ $($(#[$field_doc])* $field: $ty,)* })?,)*
        }

        /// The kinds without their payloads, in rank order.
        enum Rank {
            $($kind,)*
        }

        /// Number of [`SchedEventKind`] variants: ranks run `0..KINDS`.
        const KINDS: usize = [$(Rank::$kind),*].len();

        impl SchedEventKind {
            /// Stable rank for the same-instant ordering tiebreak
            /// ([`SchedLog::push`]): the row order of the vocabulary.
            fn rank(&self) -> u8 {
                match self {
                    $(SchedEventKind::$kind { .. } => Rank::$kind as u8,)*
                }
            }

            /// Append the payload's fields to `out`.
            fn put(self, out: &mut Vec<u8>) {
                match self {
                    $(SchedEventKind::$kind { $($($field),*)? } => {
                        $($(Packed::put($field, out);)*)?
                    })*
                }
            }

            /// The kind of rank `rank`, its payload taken from the front
            /// of `input`: one dense match, each rank a named constant.
            #[allow(non_upper_case_globals)]
            fn get(rank: u8, input: &mut &[u8]) -> Self {
                $(const $kind: u8 = Rank::$kind as u8;)*
                match rank {
                    $($kind => SchedEventKind::$kind { $($($field: Packed::get(input)),*)? },)*
                    rank => unreachable!("no kind has rank {rank}"),
                }
            }
        }
    };
}

sched_vocabulary!(sched_kinds);

/// One scheduler event. `worker`/`job` are filled where meaningful:
/// crash/recover events carry no job, contest-opened events carry no
/// worker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedEvent {
    /// Virtual instant.
    pub at: SimTime,
    /// The worker involved, if any.
    pub worker: Option<WorkerId>,
    /// The job involved, if any.
    pub job: Option<JobId>,
    /// What happened.
    pub kind: SchedEventKind,
}

/// The collected scheduler event log of one run.
///
/// Stored as one byte stream plus the *open instant*: the events that
/// share the latest `at`, kept decoded because [`push`](Self::push)'s
/// commuting-event rule only ever reorders within them. When an event
/// at another instant arrives, the open instant is encoded onto the
/// stream and its buffer reused. An event takes about ten bytes of
/// stream (the encoding is described at `Base`) where a `SchedEvent`
/// takes 64.
#[derive(Clone)]
pub struct SchedLog {
    /// Every closed instant, encoded.
    stream: Vec<u8>,
    /// Events in `stream`.
    closed: usize,
    /// The fields of the last event in `stream`.
    base: Base,
    /// The open instant, in stored order.
    open: Vec<SchedEvent>,
    /// Events per kind rank.
    tally: [usize; KINDS],
    /// Contests closed by window expiry.
    timeouts: usize,
    /// Contests decided by drafting a worker.
    fallbacks: usize,
    /// Committed entries replayed across all failovers.
    replayed: u64,
    /// Some event's `at` was earlier than its predecessor's.
    unsorted: bool,
}

impl Default for SchedLog {
    fn default() -> Self {
        SchedLog {
            stream: Vec::new(),
            closed: 0,
            base: Base::default(),
            open: Vec::new(),
            tally: [0; KINDS],
            timeouts: 0,
            fallbacks: 0,
            replayed: 0,
            unsorted: false,
        }
    }
}

/// Two logs are equal iff they hold the same events in the same order.
impl PartialEq for SchedLog {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.events().eq(other.events())
    }
}

impl std::fmt::Debug for SchedLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.events()).finish()
    }
}

impl SchedLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty log with stream room for about `n` events.
    pub(crate) fn with_capacity(n: usize) -> Self {
        SchedLog {
            stream: Vec::with_capacity(n * 12),
            ..Self::default()
        }
    }

    /// Append one event (runtime-internal).
    ///
    /// Same-instant events are kept in a deterministic order across
    /// the sim and threaded runtimes: within one timestamp, events that
    /// *commute* (they concern different jobs, or the same job at the
    /// same kind) are stored sorted by `(kind, job, worker)`. Events
    /// about one job with different kinds are causally ordered by the
    /// protocol (e.g. `Offered` → `Rejected` → `Offered` at one
    /// instant under an instant control plane) and keep their emission
    /// order, as do job-less events (crashes, elections), which act as
    /// barriers. This keeps failover replay and oracle parity
    /// independent of channel arrival order without ever reordering a
    /// causal chain.
    pub fn push(&mut self, ev: SchedEvent) {
        fn key(e: &SchedEvent) -> (u8, Option<u64>, Option<u32>) {
            (e.kind.rank(), e.job.map(|j| j.0), e.worker.map(|w| w.0))
        }
        if let Some(head) = self.open.first().filter(|h| h.at != ev.at) {
            self.unsorted |= ev.at < head.at;
            self.close_instant();
        }
        let mut i = self.open.len();
        if ev.job.is_some() {
            while i > 0 {
                let p = &self.open[i - 1];
                if p.at != ev.at || p.job.is_none() {
                    break;
                }
                let commutes = p.job != ev.job || p.kind.rank() == ev.kind.rank();
                if commutes && key(p) > key(&ev) {
                    i -= 1;
                } else {
                    break;
                }
            }
        }
        self.open.insert(i, ev);
        self.tally[ev.kind.rank() as usize] += 1;
        match ev.kind {
            SchedEventKind::ContestClosed {
                timed_out,
                fallback,
            } => {
                self.timeouts += usize::from(timed_out);
                self.fallbacks += usize::from(fallback);
            }
            SchedEventKind::FailoverReplayed { entries } => self.replayed += entries,
            _ => {}
        }
    }

    /// Encode the open instant onto the stream and empty its buffer.
    fn close_instant(&mut self) {
        for ev in &self.open {
            self.base.put(&mut self.stream, ev);
        }
        self.closed += self.open.len();
        self.open.clear();
    }

    /// Give back spare capacity (a finished log).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.stream.shrink_to_fit();
        self.open.shrink_to_fit();
    }

    /// All events in stored order.
    pub fn events(&self) -> impl ExactSizeIterator<Item = SchedEvent> + Clone + '_ {
        Events {
            stream: &self.stream,
            base: Base::default(),
            closed: self.closed,
            open: self.open.iter(),
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.closed + self.open.len()
    }

    /// True iff nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff every event's `at` is at or after its predecessor's.
    pub(crate) fn is_time_sorted(&self) -> bool {
        !self.unsorted
    }

    /// Heap bytes the log holds: the stream's and the open buffer's.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.stream.capacity() + self.open.capacity() * std::mem::size_of::<SchedEvent>()
    }

    fn count(&self, rank: Rank) -> usize {
        self.tally[rank as usize]
    }

    /// Number of crash events.
    pub fn crashes(&self) -> usize {
        self.count(Rank::Crash)
    }

    /// Number of recovery events.
    pub fn recoveries(&self) -> usize {
        self.count(Rank::Recover)
    }

    /// Number of jobs pulled back from failed workers.
    pub fn redistributions(&self) -> usize {
        self.count(Rank::Redistributed)
    }

    /// Number of jobs submitted into allocation.
    pub fn submissions(&self) -> usize {
        self.count(Rank::Submitted)
    }

    /// Number of completions accepted by the master.
    pub fn completions(&self) -> usize {
        self.count(Rank::Completed)
    }

    /// Number of Baseline offers issued.
    pub fn offers(&self) -> usize {
        self.count(Rank::Offered)
    }

    /// Number of Baseline rejections received.
    pub fn rejections(&self) -> usize {
        self.count(Rank::Rejected)
    }

    /// Number of contests opened.
    pub fn contests_opened(&self) -> usize {
        self.count(Rank::ContestOpened)
    }

    /// Number of assignments issued.
    pub fn assignments(&self) -> usize {
        self.count(Rank::Assigned)
    }

    /// Number of assignment/offer acks received by the master.
    pub fn assign_acks(&self) -> usize {
        self.count(Rank::AssignAcked)
    }

    /// Number of lease expiries (jobs bounced back for re-offer).
    pub fn lease_expiries(&self) -> usize {
        self.count(Rank::LeaseExpired)
    }

    /// Number of reliability-layer retransmissions.
    pub fn resends(&self) -> usize {
        self.count(Rank::Resent)
    }

    /// Number of contests closed by window expiry.
    pub fn timeouts(&self) -> usize {
        self.timeouts
    }

    /// Number of contests decided by drafting an arbitrary worker.
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }

    /// Number of leader elections after the initial one (failovers).
    pub fn failovers(&self) -> usize {
        self.count(Rank::LeaderElected)
    }

    /// Number of jobs spilled out to peer shards.
    pub fn spills_out(&self) -> usize {
        self.count(Rank::SpillOut)
    }

    /// Number of jobs accepted from peer shards.
    pub fn spills_in(&self) -> usize {
        self.count(Rank::SpillIn)
    }

    /// Number of workers that joined at runtime.
    pub fn worker_joins(&self) -> usize {
        self.count(Rank::WorkerJoined)
    }

    /// Number of workers put into draining.
    pub fn worker_drains(&self) -> usize {
        self.count(Rank::WorkerDraining)
    }

    /// Number of workers removed from the roster.
    pub fn worker_removals(&self) -> usize {
        self.count(Rank::WorkerRemoved)
    }

    /// Number of DAG tasks released into allocation.
    pub fn task_offers(&self) -> usize {
        self.count(Rank::TaskOffer)
    }

    /// Number of effective task completions.
    pub fn task_dones(&self) -> usize {
        self.count(Rank::TaskDone)
    }

    /// Number of speculative replicas launched by the straggler
    /// detector.
    pub fn spec_launches(&self) -> usize {
        self.count(Rank::SpecLaunch)
    }

    /// Number of speculative losers cancelled.
    pub fn spec_cancels(&self) -> usize {
        self.count(Rank::SpecCancel)
    }

    /// Number of peer-to-peer fetches started.
    pub fn fetch_reqs(&self) -> usize {
        self.count(Rank::FetchReq)
    }

    /// Number of peer-to-peer fetches completed.
    pub fn fetch_oks(&self) -> usize {
        self.count(Rank::FetchOk)
    }

    /// Number of peer fetch attempts that failed (and were retried or
    /// degraded to a master fetch).
    pub fn fetch_fails(&self) -> usize {
        self.count(Rank::FetchFail)
    }

    /// Number of replicas admitted into worker stores.
    pub fn replica_adds(&self) -> usize {
        self.count(Rank::ReplicaAdd)
    }

    /// Number of replicas dropped (eviction or crash).
    pub fn replica_drops(&self) -> usize {
        self.count(Rank::ReplicaDrop)
    }

    /// Number of re-replication repairs committed.
    pub fn repair_starts(&self) -> usize {
        self.count(Rank::RepairStart)
    }

    /// Number of re-replication repairs completed.
    pub fn repair_dones(&self) -> usize {
        self.count(Rank::RepairDone)
    }

    /// Total committed entries replayed across all failovers.
    pub fn replayed_entries(&self) -> u64 {
        self.replayed
    }

    /// True iff no [`SchedEventKind::Assigned`] event for `worker`
    /// falls inside a window where the log shows it crashed and not
    /// yet recovered, once the detection delay has elapsed. Used by
    /// parity tests: after detection, a dead worker must never be
    /// handed work.
    pub fn no_assignments_to_detected_dead(&self, detection_delay_secs: f64) -> bool {
        use std::collections::HashMap;
        let mut down_since: HashMap<WorkerId, SimTime> = HashMap::new();
        for ev in self.events() {
            match ev.kind {
                SchedEventKind::Crash => {
                    if let Some(w) = ev.worker {
                        down_since.insert(w, ev.at);
                    }
                }
                SchedEventKind::Recover => {
                    if let Some(w) = ev.worker {
                        down_since.remove(&w);
                    }
                }
                SchedEventKind::Assigned => {
                    if let Some(w) = ev.worker {
                        if let Some(&since) = down_since.get(&w) {
                            let down_for = ev.at.saturating_since(since).as_secs_f64();
                            if down_for > detection_delay_secs {
                                return false;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        true
    }
}

/// The stored log's encoding, one event at a time, and the fields of
/// the previous event its deltas are taken against.
///
/// An event is a header byte (the kind's rank, bit 6 set iff it has a
/// worker, bit 7 iff it has a job); then zigzag-varint deltas of
/// `at.ticks()`, of the worker's id and of the job's id, each against
/// the last event that had one (an absent worker or job writes
/// nothing); then the kind's payload, each field [`Packed`] in row
/// order.
#[derive(Debug, Clone, Copy, Default)]
struct Base {
    ticks: u64,
    worker: u32,
    job: u64,
}

const HAS_WORKER: u8 = 1 << 6;
const HAS_JOB: u8 = 1 << 7;
// Every rank fits below the header's flag bits.
const _: () = assert!(KINDS <= HAS_WORKER as usize);

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

impl Base {
    /// Append `ev` to `out` and make it the base of the next event.
    fn put(&mut self, out: &mut Vec<u8>, ev: &SchedEvent) {
        let worker = ev.worker.map_or(0, |_| HAS_WORKER);
        let job = ev.job.map_or(0, |_| HAS_JOB);
        out.push(ev.kind.rank() | worker | job);
        let ticks = ev.at.ticks();
        put_varint(out, zigzag(ticks.wrapping_sub(self.ticks) as i64));
        self.ticks = ticks;
        if let Some(w) = ev.worker {
            put_varint(out, zigzag(w.0.wrapping_sub(self.worker) as i32 as i64));
            self.worker = w.0;
        }
        if let Some(j) = ev.job {
            put_varint(out, zigzag(j.0.wrapping_sub(self.job) as i64));
            self.job = j.0;
        }
        ev.kind.put(out);
    }

    /// Decode the event at the front of `input`, consume it and make it
    /// the base of the next event.
    fn get(&mut self, input: &mut &[u8]) -> SchedEvent {
        let head = byte(input);
        self.ticks = self.ticks.wrapping_add(unzigzag(varint(input)) as u64);
        let worker = (head & HAS_WORKER != 0).then(|| {
            self.worker = self
                .worker
                .wrapping_add(unzigzag(varint(input)) as i32 as u32);
            WorkerId(self.worker)
        });
        let job = (head & HAS_JOB != 0).then(|| {
            self.job = self.job.wrapping_add(unzigzag(varint(input)) as u64);
            JobId(self.job)
        });
        let kind = SchedEventKind::get(head & !(HAS_WORKER | HAS_JOB), input);
        SchedEvent {
            at: SimTime::from_ticks(self.ticks),
            worker,
            job,
            kind,
        }
    }
}

fn byte(input: &mut &[u8]) -> u8 {
    let (&b, rest) = input.split_first().expect("a whole event");
    *input = rest;
    b
}

fn varint(input: &mut &[u8]) -> u64 {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let b = byte(input);
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// A payload field's encoding in the stored log: a varint for integers
/// and ids, the raw bits for an estimate, one byte for a flag.
trait Packed {
    fn put(self, out: &mut Vec<u8>);
    fn get(input: &mut &[u8]) -> Self;
}

macro_rules! packed_varint {
    ($($t:ty: $raw:expr, $wrap:expr;)*) => {$(
        impl Packed for $t {
            fn put(self, out: &mut Vec<u8>) {
                put_varint(out, u64::from($raw(self)));
            }
            fn get(input: &mut &[u8]) -> Self {
                $wrap(varint(input))
            }
        }
    )*};
}
packed_varint! {
    u64: |n| n, |n| n;
    u32: |n| n, |n| n as u32;
    JobId: |id: JobId| id.0, JobId;
    WorkerId: |id: WorkerId| id.0, |n| WorkerId(n as u32);
    ShardId: |id: ShardId| id.0, |n| ShardId(n as u16);
}

impl Packed for f64 {
    fn put(self, out: &mut Vec<u8>) {
        out.extend(self.to_le_bytes());
    }
    fn get(input: &mut &[u8]) -> Self {
        let (bits, rest) = input.split_first_chunk().expect("a whole estimate");
        *input = rest;
        f64::from_le_bytes(*bits)
    }
}

impl Packed for bool {
    fn put(self, out: &mut Vec<u8>) {
        out.push(u8::from(self));
    }
    fn get(input: &mut &[u8]) -> Self {
        byte(input) & 1 != 0
    }
}

/// The events of a [`SchedLog`]: its stream decoded, then its open
/// instant.
#[derive(Clone)]
struct Events<'a> {
    stream: &'a [u8],
    base: Base,
    /// Events left in `stream`.
    closed: usize,
    open: std::slice::Iter<'a, SchedEvent>,
}

impl Iterator for Events<'_> {
    type Item = SchedEvent;

    fn next(&mut self) -> Option<SchedEvent> {
        if self.closed == 0 {
            return self.open.next().copied();
        }
        self.closed -= 1;
        Some(self.base.get(&mut self.stream))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.closed + self.open.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Events<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn ev(job: u64, worker: u32, kind: TraceKind, at: u64) -> TraceEvent {
        TraceEvent {
            job: JobId(job),
            worker: WorkerId(worker),
            kind,
            at: t(at),
        }
    }

    #[test]
    fn phases_are_computed() {
        let mut tr = Trace::new();
        tr.push(ev(1, 0, TraceKind::Queued, 0));
        tr.push(ev(1, 0, TraceKind::Started, 2));
        tr.push(ev(1, 0, TraceKind::Fetched, 12));
        tr.push(ev(1, 0, TraceKind::Finished, 15));
        let phases = tr.job_phases();
        assert_eq!(phases.len(), 1);
        let p = phases[0];
        assert_eq!(p.worker, WorkerId(0));
        assert_eq!(p.wait_secs, 2.0);
        assert_eq!(p.fetch_secs, 10.0);
        assert_eq!(p.proc_secs, 3.0);
    }

    #[test]
    fn cache_hit_jobs_have_zero_fetch() {
        let mut tr = Trace::new();
        tr.push(ev(2, 1, TraceKind::Queued, 0));
        tr.push(ev(2, 1, TraceKind::Started, 1));
        tr.push(ev(2, 1, TraceKind::Finished, 4));
        let p = tr.job_phases()[0];
        assert_eq!(p.fetch_secs, 0.0);
        assert_eq!(p.proc_secs, 3.0);
    }

    #[test]
    fn replacement_after_crash_keeps_final_attempt() {
        let mut tr = Trace::new();
        tr.push(ev(3, 0, TraceKind::Queued, 0));
        tr.push(ev(3, 0, TraceKind::Started, 1));
        // crash: re-placed on worker 1
        tr.push(ev(3, 1, TraceKind::Queued, 10));
        tr.push(ev(3, 1, TraceKind::Started, 11));
        tr.push(ev(3, 1, TraceKind::Finished, 14));
        let phases = tr.job_phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].worker, WorkerId(1));
        assert_eq!(phases[0].wait_secs, 1.0);
    }

    #[test]
    fn incomplete_jobs_are_skipped() {
        let mut tr = Trace::new();
        tr.push(ev(4, 0, TraceKind::Queued, 0));
        tr.push(ev(4, 0, TraceKind::Started, 1));
        assert!(tr.job_phases().is_empty());
        assert_eq!(tr.len(), 2);
        assert!(!tr.is_empty());
    }

    #[test]
    fn phase_stats_aggregate() {
        let mut tr = Trace::new();
        for (j, d) in [(1u64, 2u64), (2, 4)] {
            tr.push(ev(j, 0, TraceKind::Queued, 0));
            tr.push(ev(j, 0, TraceKind::Started, 1));
            tr.push(ev(j, 0, TraceKind::Finished, 1 + d));
        }
        let (wait, fetch, proc) = tr.phase_stats();
        assert_eq!(wait.count(), 2);
        assert_eq!(wait.mean(), 1.0);
        assert_eq!(fetch.mean(), 0.0);
        assert_eq!(proc.mean(), 3.0);
    }

    #[test]
    fn queue_depth_reconstruction() {
        let mut tr = Trace::new();
        tr.push(ev(1, 0, TraceKind::Queued, 0));
        tr.push(ev(2, 0, TraceKind::Queued, 1));
        tr.push(ev(1, 0, TraceKind::Started, 2));
        tr.push(ev(3, 0, TraceKind::Queued, 3));
        tr.push(ev(2, 0, TraceKind::Started, 4));
        tr.push(ev(3, 0, TraceKind::Started, 5));
        let series = tr.queue_depth_series(WorkerId(0));
        assert_eq!(
            series,
            vec![
                (t(0), 1),
                (t(1), 2),
                (t(2), 1),
                (t(3), 2),
                (t(4), 1),
                (t(5), 0)
            ]
        );
        assert_eq!(tr.peak_queue_depth(WorkerId(0)), 2);
        assert_eq!(tr.peak_queue_depth(WorkerId(9)), 0);
    }

    #[test]
    fn queue_depth_coalesces_same_instant() {
        let mut tr = Trace::new();
        tr.push(ev(1, 0, TraceKind::Queued, 0));
        tr.push(ev(1, 0, TraceKind::Started, 0));
        let series = tr.queue_depth_series(WorkerId(0));
        assert_eq!(series, vec![(t(0), 0)]);
    }

    #[test]
    fn gantt_renders_rows_and_marks() {
        let mut tr = Trace::new();
        tr.push(ev(1, 0, TraceKind::Queued, 0));
        tr.push(ev(1, 0, TraceKind::Started, 0));
        tr.push(ev(1, 0, TraceKind::Fetched, 50));
        tr.push(ev(1, 0, TraceKind::Finished, 100));
        let g = tr.gantt(2, 40);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3, "{g}");
        assert!(lines[0].contains('~'), "fetch marked: {g}");
        assert!(lines[0].contains('#'), "processing marked: {g}");
        assert!(lines[1].contains('.'), "idle worker: {g}");
    }

    #[test]
    fn empty_trace_gantt_is_safe() {
        let g = Trace::new().gantt(1, 20);
        assert!(g.contains("w0"));
    }

    fn sev(at: u64, worker: Option<u32>, job: Option<u64>, kind: SchedEventKind) -> SchedEvent {
        SchedEvent {
            at: t(at),
            worker: worker.map(WorkerId),
            job: job.map(JobId),
            kind,
        }
    }

    #[test]
    fn sched_log_counts() {
        let mut log = SchedLog::new();
        log.push(sev(0, None, Some(1), SchedEventKind::ContestOpened));
        log.push(sev(
            0,
            Some(0),
            Some(1),
            SchedEventKind::BidReceived { estimate_secs: 3.0 },
        ));
        log.push(sev(
            1,
            None,
            Some(1),
            SchedEventKind::ContestClosed {
                timed_out: true,
                fallback: false,
            },
        ));
        log.push(sev(1, Some(0), Some(1), SchedEventKind::Assigned));
        log.push(sev(2, Some(0), None, SchedEventKind::Crash));
        log.push(sev(4, Some(0), Some(1), SchedEventKind::Redistributed));
        log.push(sev(5, Some(0), None, SchedEventKind::Recover));
        assert_eq!(log.contests_opened(), 1);
        assert_eq!(log.timeouts(), 1);
        assert_eq!(log.fallbacks(), 0);
        assert_eq!(log.crashes(), 1);
        assert_eq!(log.recoveries(), 1);
        assert_eq!(log.redistributions(), 1);
        assert_eq!(log.assignments(), 1);
        assert_eq!(log.len(), 7);
        assert!(!log.is_empty());
    }

    #[test]
    fn same_instant_events_for_different_jobs_order_deterministically() {
        // The two runtimes may emit same-instant events for unrelated
        // jobs in either channel order; the stored order must agree.
        let a = sev(3, Some(1), Some(2), SchedEventKind::Offered);
        let b = sev(3, Some(0), Some(1), SchedEventKind::Submitted);
        let mut fwd = SchedLog::new();
        fwd.push(a);
        fwd.push(b);
        let mut rev = SchedLog::new();
        rev.push(b);
        rev.push(a);
        assert_eq!(fwd, rev);
        assert!(matches!(
            fwd.events().next().unwrap().kind,
            SchedEventKind::Submitted
        ));
    }

    #[test]
    fn same_instant_causal_chain_keeps_emission_order() {
        // Offered -> Rejected -> Offered for one job at one instant
        // (instant control plane) is a causal chain: sorting it by
        // kind would fabricate a double placement.
        let mut log = SchedLog::new();
        log.push(sev(2, Some(0), Some(7), SchedEventKind::Offered));
        log.push(sev(2, Some(0), Some(7), SchedEventKind::Rejected));
        log.push(sev(2, Some(1), Some(7), SchedEventKind::Offered));
        let kinds: Vec<u8> = log.events().map(|e| e.kind.rank()).collect();
        assert_eq!(
            kinds,
            vec![5, 6, 5],
            "causal same-job chain reordered: {log:?}"
        );
    }

    #[test]
    fn jobless_events_are_ordering_barriers() {
        let mut log = SchedLog::new();
        log.push(sev(1, Some(0), None, SchedEventKind::Crash));
        // Submitted sorts before Crash by kind, but must not cross it.
        log.push(sev(1, None, Some(1), SchedEventKind::Submitted));
        assert!(matches!(
            log.events().next().unwrap().kind,
            SchedEventKind::Crash
        ));
    }

    #[test]
    fn same_job_same_kind_ties_break_on_worker() {
        let a = sev(
            4,
            Some(2),
            Some(9),
            SchedEventKind::BidReceived { estimate_secs: 1.0 },
        );
        let b = sev(
            4,
            Some(1),
            Some(9),
            SchedEventKind::BidReceived { estimate_secs: 2.0 },
        );
        let mut fwd = SchedLog::new();
        fwd.push(a);
        fwd.push(b);
        let mut rev = SchedLog::new();
        rev.push(b);
        rev.push(a);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.events().next().unwrap().worker, Some(WorkerId(1)));
    }

    #[test]
    fn failover_counters() {
        let mut log = SchedLog::new();
        log.push(sev(0, None, Some(1), SchedEventKind::Submitted));
        log.push(sev(
            1,
            None,
            None,
            SchedEventKind::LeaderElected { term: 2 },
        ));
        log.push(sev(
            1,
            None,
            None,
            SchedEventKind::FailoverReplayed { entries: 1 },
        ));
        log.push(sev(
            2,
            None,
            None,
            SchedEventKind::LeaderElected { term: 3 },
        ));
        log.push(sev(
            2,
            None,
            None,
            SchedEventKind::FailoverReplayed { entries: 3 },
        ));
        assert_eq!(log.failovers(), 2);
        assert_eq!(log.replayed_entries(), 4);
    }

    #[test]
    fn federation_and_membership_counters() {
        let mut log = SchedLog::new();
        log.push(sev(0, None, Some(1), SchedEventKind::Submitted));
        log.push(sev(
            1,
            None,
            Some(1),
            SchedEventKind::SpillOut {
                to_shard: ShardId(2),
            },
        ));
        log.push(sev(
            2,
            None,
            Some(1),
            SchedEventKind::SpillIn {
                from_shard: ShardId(0),
            },
        ));
        log.push(sev(3, Some(4), None, SchedEventKind::WorkerJoined));
        log.push(sev(4, Some(4), None, SchedEventKind::WorkerDraining));
        log.push(sev(5, Some(4), None, SchedEventKind::WorkerRemoved));
        assert_eq!(log.spills_out(), 1);
        assert_eq!(log.spills_in(), 1);
        assert_eq!(log.worker_joins(), 1);
        assert_eq!(log.worker_drains(), 1);
        assert_eq!(log.worker_removals(), 1);
    }

    #[test]
    fn dead_worker_assignment_invariant() {
        let mut ok = SchedLog::new();
        ok.push(sev(0, Some(0), None, SchedEventKind::Crash));
        // Within the detection window: allowed (masking not yet done).
        ok.push(sev(1, Some(0), Some(1), SchedEventKind::Assigned));
        ok.push(sev(5, Some(0), None, SchedEventKind::Recover));
        ok.push(sev(9, Some(0), Some(2), SchedEventKind::Assigned));
        assert!(ok.no_assignments_to_detected_dead(2.0));

        let mut bad = SchedLog::new();
        bad.push(sev(0, Some(0), None, SchedEventKind::Crash));
        bad.push(sev(8, Some(0), Some(1), SchedEventKind::Assigned));
        assert!(!bad.no_assignments_to_detected_dead(2.0));
    }

    /// The log as a plain `Vec<SchedEvent>` with the commuting-event
    /// insertion rule: the reference the stored log must reproduce.
    #[derive(Default)]
    struct VecLog {
        events: Vec<SchedEvent>,
    }

    impl VecLog {
        fn push(&mut self, ev: SchedEvent) {
            fn key(e: &SchedEvent) -> (u8, Option<u64>, Option<u32>) {
                (e.kind.rank(), e.job.map(|j| j.0), e.worker.map(|w| w.0))
            }
            let mut i = self.events.len();
            if ev.job.is_some() {
                while i > 0 {
                    let p = &self.events[i - 1];
                    if p.at != ev.at || p.job.is_none() {
                        break;
                    }
                    let commutes = p.job != ev.job || p.kind.rank() == ev.kind.rank();
                    if commutes && key(p) > key(&ev) {
                        i -= 1;
                    } else {
                        break;
                    }
                }
            }
            self.events.insert(i, ev);
        }

        /// Events per kind rank (0 for the ranks with no counter of
        /// their own), then timeouts, fallbacks and the replayed-entry
        /// total.
        fn counters(&self) -> Vec<u64> {
            let mut out: Vec<u64> = (0..KINDS as u8)
                .map(|r| match r {
                    2 | 4 | 15 => 0,
                    r => self.events.iter().filter(|e| e.kind.rank() == r).count() as u64,
                })
                .collect();
            let closed = |f: fn(bool, bool) -> bool| {
                self.events
                    .iter()
                    .filter(|e| match e.kind {
                        SchedEventKind::ContestClosed {
                            timed_out,
                            fallback,
                        } => f(timed_out, fallback),
                        _ => false,
                    })
                    .count() as u64
            };
            out.push(closed(|t, _| t));
            out.push(closed(|_, f| f));
            out.push(
                self.events
                    .iter()
                    .map(|e| match e.kind {
                        SchedEventKind::FailoverReplayed { entries } => entries,
                        _ => 0,
                    })
                    .sum(),
            );
            out
        }
    }

    /// Every public counter of `log`, in the order of
    /// [`VecLog::counters`].
    fn counters(log: &SchedLog) -> Vec<u64> {
        [
            log.submissions(),
            log.contests_opened(),
            0, // bids have no counter of their own
            log.assignments(),
            0, // nor do closed contests: see timeouts and fallbacks
            log.offers(),
            log.rejections(),
            log.completions(),
            log.crashes(),
            log.recoveries(),
            log.redistributions(),
            log.assign_acks(),
            log.lease_expiries(),
            log.resends(),
            log.failovers(),
            0, // see replayed_entries
            log.spills_out(),
            log.spills_in(),
            log.worker_joins(),
            log.worker_drains(),
            log.worker_removals(),
            log.task_dones(),
            log.task_offers(),
            log.spec_launches(),
            log.spec_cancels(),
            log.fetch_reqs(),
            log.fetch_oks(),
            log.fetch_fails(),
            log.replica_adds(),
            log.replica_drops(),
            log.repair_starts(),
            log.repair_dones(),
            log.timeouts(),
            log.fallbacks(),
        ]
        .into_iter()
        .map(|n| n as u64)
        .chain([log.replayed_entries()])
        .collect()
    }

    /// Events with each estimate's bits beside them, so NaN payloads
    /// and signed zeros compare exactly.
    fn bitwise<E: std::borrow::Borrow<SchedEvent>>(
        events: impl IntoIterator<Item = E>,
    ) -> Vec<(SchedEvent, u64)> {
        events
            .into_iter()
            .map(|e| {
                let mut e = *e.borrow();
                let bits = match &mut e.kind {
                    SchedEventKind::BidReceived { estimate_secs } => {
                        std::mem::replace(estimate_secs, 0.0).to_bits()
                    }
                    _ => 0,
                };
                (e, bits)
            })
            .collect()
    }

    /// Small, extreme and arbitrary values from one draw.
    fn pick(x: u64) -> u64 {
        match x % 4 {
            0 => x >> 60,
            1 => u64::MAX,
            2 => x >> 32,
            _ => x,
        }
    }

    /// Finite, infinite, signed-zero and NaN (with payload) estimates.
    fn estimate(x: u64) -> f64 {
        match x % 8 {
            0 => f64::NAN,
            1 => f64::from_bits(x | 0x7ff0_0000_0000_0001),
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => -0.0,
            5 => 0.0,
            6 => (x >> 40) as f64 * 1e-3,
            _ => f64::from_bits(x),
        }
    }

    /// The kind of rank `rank`, its payload drawn from `a`, `b`, `c`.
    fn kind_of(rank: u8, a: u64, b: u64, c: u64) -> SchedEventKind {
        use SchedEventKind as K;
        let (root, task, object) = (JobId(pick(a)), pick(b) as u32, pick(c));
        let from = WorkerId(pick(b) as u32);
        let flag = |bit: u32| (a >> bit) & 1 == 1;
        match rank {
            0 => K::Submitted,
            1 => K::ContestOpened,
            2 => K::BidReceived {
                estimate_secs: estimate(c),
            },
            3 => K::Assigned,
            4 => K::ContestClosed {
                timed_out: flag(1),
                fallback: flag(2),
            },
            5 => K::Offered,
            6 => K::Rejected,
            7 => K::Completed,
            8 => K::Crash,
            9 => K::Recover,
            10 => K::Redistributed,
            11 => K::AssignAcked,
            12 => K::LeaseExpired,
            13 => K::Resent {
                attempt: pick(a) as u32,
            },
            14 => K::LeaderElected {
                term: pick(b) as u32,
            },
            // Entries stay below 2^32 so their total cannot overflow.
            15 => K::FailoverReplayed {
                entries: pick(a) >> 32,
            },
            16 => K::SpillOut {
                to_shard: ShardId(pick(a) as u16),
            },
            17 => K::SpillIn {
                from_shard: ShardId(pick(b) as u16),
            },
            18 => K::WorkerJoined,
            19 => K::WorkerDraining,
            20 => K::WorkerRemoved,
            21 => K::TaskDone { root, task },
            22 => K::TaskOffer {
                root,
                task,
                preds: pick(c),
                total: pick(a >> 3) as u32,
            },
            23 => K::SpecLaunch { root, task },
            24 => K::SpecCancel { root, task },
            25 => K::FetchReq { object, from },
            26 => K::FetchOk { object, from },
            27 => K::FetchFail {
                object,
                from,
                attempt: pick(a) as u32,
            },
            28 => K::ReplicaAdd { object },
            29 => K::ReplicaDrop {
                object,
                evicted: flag(4),
            },
            30 => K::RepairStart { object, from },
            31 => K::RepairDone { object },
            _ => unreachable!("{KINDS} kinds"),
        }
    }

    type RawPush = ((u8, u8, u8), (u64, u64, u64, u64));

    const ANY: std::ops::RangeInclusive<u64> = 0..=u64::MAX;

    /// One push from a raw draw: `step` picks the instant relative to
    /// the previous one (mostly the same, so runs share an instant;
    /// sometimes forward, backward, or anywhere); `shape` picks the job
    /// (none, a few colliding small ids, a shard-qualified id,
    /// `u64::MAX`) and the worker (none, small, shard-qualified,
    /// `u32::MAX`).
    fn push_of(prev: u64, ((step, rank, shape), (at, a, b, c)): RawPush) -> SchedEvent {
        let at = match step {
            0..=4 => prev,
            5 => prev.wrapping_add(at % 5 + 1),
            6 => prev.wrapping_sub(at % 5 + 1),
            _ => pick(at),
        };
        let job = match shape & 3 {
            0 => None,
            1 => Some(JobId(a % 3)),
            2 => Some(JobId::in_shard(ShardId(b as u16 % 4), a >> 20)),
            _ => Some(JobId(u64::MAX)),
        };
        let worker = match shape >> 2 {
            0 => None,
            1 => Some(WorkerId(b as u32 % 3)),
            2 => Some(WorkerId::in_shard(ShardId(a as u16 % 4), b as u32 >> 20)),
            _ => Some(WorkerId(u32::MAX)),
        };
        SchedEvent {
            at: SimTime::from_ticks(at),
            worker,
            job,
            kind: kind_of(rank, a, b, c),
        }
    }

    #[test]
    fn every_rank_has_a_kind() {
        let mut names = std::collections::HashSet::new();
        for r in 0..KINDS as u8 {
            let kind = kind_of(r, 1, 2, 3);
            assert_eq!(kind.rank(), r);
            names.insert(crate::export::sched_kind_name(&kind));
        }
        assert_eq!(names.len(), KINDS, "wire names are distinct: {names:?}");
    }

    proptest::proptest! {
        /// Arbitrary pushes (same-instant runs that commute and runs
        /// that do not, job-less barriers, instants that go backwards,
        /// shard-qualified and extreme ids, NaN, infinite and signed-zero
        /// estimates, every kind) store exactly the events, length and
        /// counters of the `Vec` reference.
        #[test]
        fn the_log_matches_the_vec_reference(
            raw in proptest::collection::vec(
                ((0u8..8, 0u8..KINDS as u8, 0u8..16), (ANY, ANY, ANY, ANY)),
                0..300,
            ),
        ) {
            let (mut log, mut want) = (SchedLog::new(), VecLog::default());
            let mut prev = 0;
            for r in raw {
                let ev = push_of(prev, r);
                prev = ev.at.ticks();
                log.push(ev);
                want.push(ev);
            }
            proptest::prop_assert_eq!(bitwise(log.events()), bitwise(&want.events));
            proptest::prop_assert_eq!(log.len(), want.events.len());
            proptest::prop_assert_eq!(counters(&log), want.counters());
            let sorted = want.events.windows(2).all(|w| w[0].at <= w[1].at);
            proptest::prop_assert_eq!(log.is_time_sorted(), sorted);
        }
    }
}
