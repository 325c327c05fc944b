//! The master's ledger, written once under both runtimes.
//!
//! Listing 1 of the paper is one algorithm; this crate runs it on two
//! drivers — the discrete-event [`engine`](crate::engine) and the
//! [`threaded`](crate::threaded) master. [`MasterCore`] is the part of
//! the master both execute statement for statement: every line that
//! turns a scheduling fact into replicated-log entries, job ids,
//! `created`/`completed` counts, [`DagState`] transitions and retained
//! payloads. It performs no I/O and owns no clock — every method takes
//! the instant to stamp — and it returns small values (a [`Job`], a
//! [`Completion`]) that the *driver* dispatches. The drivers keep what
//! genuinely differs: the event queue vs channels and deadlines, who
//! is asked to bid and how a winner is chosen, membership and the
//! replica plane.
//!
//! **The placement ledger.** Every placement in flight — its worker,
//! seq, offer flag, ack, retransmission count, placement instant and
//! the retry and lease deadlines, all in virtual time — lives here,
//! with one method per rule: [`place`](MasterCore::place),
//! [`ack`](MasterCore::ack), [`resend`](MasterCore::resend),
//! [`expire`](MasterCore::expire), [`settle`](MasterCore::settle) and
//! [`reclaim`](MasterCore::reclaim). Each driver keeps only its clock:
//! the sim schedules one event per deadline a method hands back, the
//! threaded master scans [`due`](MasterCore::due).
//!
//! **Commit before act.** [`MasterCore::commit`] appends one entry and
//! says whether the caller may act on it. A *decision*
//! ([`crate::replog::is_decision`]) that the leader died appending is
//! truncated: `false` comes back, and the core method that was
//! recording it has changed no counter, bound nothing and retained
//! nothing — the driver must send nothing. A *fact* always commits.
//! Either way a crash arms [`failover_pending`](Self::failover_pending)
//! and the driver runs [`takeover`](Self::takeover) before its next
//! decision. What a standby may assume afterwards is exactly the
//! committed log plus the payload table: [`SchedState::replay`] names
//! the jobs still owed a placement, the core hands back their payloads.

use std::collections::HashMap;

use crossbid_metrics::{RunRecord, SchedulerKind};
use crossbid_simcore::{IdMap, IdSet, SimDuration, SimTime};
use crossbid_storage::{ObjectId, ReplicaMap, StoreStats};

use crate::atomize::{AtomizeConfig, DagState, DoneOutcome};
use crate::engine::RunMeta;
use crate::faults::{NetFaultPlan, RetryPolicy};
use crate::job::{Job, JobId, JobSpec, ShardId, WorkerId};
use crate::obs::RuntimeMetrics;
use crate::replog::{AppendOutcome, ReplicatedLog, SchedState};
use crate::trace::{SchedEvent, SchedEventKind, SchedLog};

/// What an arrival became.
pub(crate) enum Admitted {
    /// A plain job, submitted: the driver hands it to allocation.
    Job(Job),
    /// An atomized job: its DAG is registered under `root` (an id that
    /// appears only in `Task*` payloads) and the driver passes each
    /// gate-open task to [`MasterCore::release_task`], in order.
    Dag {
        root: JobId,
        released: Vec<(u32, JobSpec)>,
    },
}

/// What a completion report meant to the ledger.
pub(crate) enum Completion {
    /// A delivery of a report already applied (at-least-once `Done`, or
    /// a redistributed copy that finished elsewhere): nothing happened.
    Duplicate,
    /// The late report of a cancelled speculation loser, swallowed: its
    /// accounting happened when `SpecCancel` committed.
    Cancelled,
    /// Counted: `Completed` is committed (and `TaskDone` for an
    /// effective task completion). [`DoneOutcome::NotTask`] — the
    /// driver runs the task logic and [`MasterCore::spawn`]s what it
    /// emits; [`DoneOutcome::Effective`] — the driver credits the
    /// output artifact, passes every loser to
    /// [`MasterCore::cancel_loser`] and every released task to
    /// [`MasterCore::release_task`], in that order.
    Counted(DoneOutcome),
}

/// What a standby inherits ([`MasterCore::takeover`]).
pub(crate) struct Takeover {
    pub state: SchedState,
    pub unplaced: Vec<Job>,
    pub frontier: Vec<(JobId, u32, JobSpec)>,
}

/// What a placement became ([`MasterCore::place`]).
pub(crate) enum Placed {
    /// Recorded and on the ledger: deliver it.
    Send(Delivery),
    /// An append truncated: nothing may go out, and the job goes back
    /// where it came from for the elected standby.
    Truncated(Job),
    /// The job's completion has committed — a lease bounce put it back
    /// in a queue before its holder's report landed. Nothing is logged
    /// or sent: the driver drops it, and gives back any worker it took.
    Completed,
}

/// A placement to put on the wire: `job` to `worker`, as an offer or an
/// assignment, stamped `seq` (0 where no timers are armed). `retry` and
/// `lease` are the deadlines the sim schedules a `PlacementDue` event
/// at (a retransmission re-arms only the first).
#[derive(Clone)]
pub(crate) struct Delivery {
    pub worker: WorkerId,
    pub offer: bool,
    pub job: Job,
    pub seq: u64,
    pub retry: Option<SimTime>,
    pub lease: Option<SimTime>,
}

/// What takes a placement off the ledger ([`MasterCore::settle`]).
pub(crate) enum Settle {
    /// The job's `Done` arrived: its completion settles the placement
    /// wherever it is.
    Done,
    /// Placement `seq` at `worker` came back — `Bounced(worker, seq)`:
    /// rejected, or addressed to a worker that was dead on arrival.
    Bounced(WorkerId, u64),
}

/// One placement in flight: what was delivered — whose `retry` is the
/// next retransmission (`None` once the budget is spent) and whose
/// `lease` bounces it back to allocation; an ack makes both moot — plus
/// the ledger's own columns.
struct Placement {
    sent: Delivery,
    acked: bool,
    /// Retransmissions sent so far.
    attempt: u32,
    placed_at: SimTime,
}

impl Placement {
    /// Its earliest pending deadline.
    fn deadline(&self) -> Option<SimTime> {
        self.sent.retry.into_iter().chain(self.sent.lease).min()
    }
}

/// Every placement in flight plus every job whose completion was
/// applied — kept only where a report can arrive twice.
struct Ledger {
    placements: IdMap<JobId, Placement>,
    done: IdSet<JobId>,
    /// Retry policy and net seed; `None` (links reliable): every
    /// placement is born acked, stamped seq 0, with no deadline.
    timers: Option<(RetryPolicy, u64)>,
    /// Starts at 1, so seq 0 means "no timers".
    next_seq: u64,
}

fn after(now: SimTime, secs: Option<f64>) -> Option<SimTime> {
    secs.map(|s| now + SimDuration::from_secs_f64(s))
}

/// The per-run figures of a [`RunRecord`] only the driver knows.
pub(crate) struct RunTotals {
    pub scheduler: SchedulerKind,
    pub makespan_secs: f64,
    pub contests_timed_out: u64,
    pub contests_fallback: u64,
    pub mean_queue_wait_secs: f64,
    pub recovery_secs: f64,
}

/// See the [module docs](self).
pub(crate) struct MasterCore {
    /// `None` on the sim's untraced hot path: `commit` is then an
    /// early return.
    log: Option<ReplicatedLog>,
    dag: DagState,
    shard: ShardId,
    next_job_id: u64,
    created: u64,
    completed: u64,
    /// Payloads of submitted-but-uncompleted jobs (the log records
    /// ids, not payloads), kept only while master faults are armed.
    payloads: Option<HashMap<JobId, Job>>,
    /// Placements in flight and applied completions, kept only where a
    /// report can arrive twice: side effects happen once.
    ledger: Option<Ledger>,
    failover_pending: bool,
    /// This run's tallies: the record reads them before they are
    /// published.
    pub(crate) m: RuntimeMetrics,
    /// Sabotage (`ProtocolMutation::DropDedup`): apply duplicates too.
    pub(crate) drops_dedup: bool,
    /// Sabotage (`IgnoreAcks`): log an ack, keep its timers running.
    pub(crate) ignores_acks: bool,
    /// Sabotage (`NoLeases`): arm no lease.
    pub(crate) no_leases: bool,
}

impl MasterCore {
    /// A core appending to `log`, allocating ids in `shard`'s space.
    /// `retain_payloads`: master faults are armed, so a standby will
    /// need the payloads of unplaced jobs. `ledger`: a completion can
    /// be delivered twice, so keep the placement ledger — with retry
    /// and lease timers when the plan is active.
    pub(crate) fn new(
        log: Option<ReplicatedLog>,
        shard: ShardId,
        atomize: AtomizeConfig,
        retain_payloads: bool,
        ledger: Option<&NetFaultPlan>,
        m: RuntimeMetrics,
    ) -> Self {
        MasterCore {
            log,
            dag: DagState::new(atomize),
            shard,
            next_job_id: 0,
            created: 0,
            completed: 0,
            payloads: retain_payloads.then(HashMap::new),
            ledger: ledger.map(|plan| Ledger {
                placements: IdMap::default(),
                done: IdSet::default(),
                timers: plan.is_active().then_some((plan.retry, plan.seed)),
                next_seq: 1,
            }),
            failover_pending: false,
            m,
            drops_dedup: false,
            ignores_acks: false,
            no_leases: false,
        }
    }

    /// Jobs submitted so far (external, downstream and task jobs).
    pub(crate) fn created(&self) -> u64 {
        self.created
    }

    /// Jobs accounted complete so far (cancelled losers included).
    pub(crate) fn completed(&self) -> u64 {
        self.completed
    }

    /// The leader died appending; no further decision may be taken
    /// until [`takeover`](Self::takeover) ran.
    pub(crate) fn failover_pending(&self) -> bool {
        self.failover_pending
    }

    /// Was `job`'s completion report already applied? Always `false`
    /// where reports cannot arrive twice.
    pub(crate) fn is_done(&self, job: JobId) -> bool {
        self.ledger.as_ref().is_some_and(|l| l.done.contains(&job))
    }

    /// The DAG bookkeeping, for the driver's reads (task of a job, is
    /// a sweep due, is an attempt cancelled).
    pub(crate) fn dag(&self) -> &DagState {
        &self.dag
    }

    /// Committed entries so far (0 without a log).
    pub(crate) fn log_len(&self) -> usize {
        self.log.as_ref().map_or(0, |l| l.log().len())
    }

    /// Take the committed log out (end of run; empty without one).
    pub(crate) fn take_log(&mut self) -> SchedLog {
        self.log
            .take()
            .map(ReplicatedLog::into_log)
            .unwrap_or_default()
    }

    /// Commit one scheduler event through the replicated log.
    ///
    /// Returns `true` when the caller may act on the event. A `false`
    /// return means the leader crashed *before* the entry reached a
    /// quorum: the decision was truncated, so its side effects must
    /// not happen. A crash *after* commit still returns `true` (the
    /// entry is durable and will survive replay) but arms
    /// `failover_pending` like the other.
    pub(crate) fn commit(
        &mut self,
        at: SimTime,
        worker: Option<WorkerId>,
        job: Option<JobId>,
        kind: SchedEventKind,
    ) -> bool {
        let Some(log) = &mut self.log else {
            return true;
        };
        match log.append(SchedEvent {
            at,
            worker,
            job,
            kind,
        }) {
            AppendOutcome::Committed => true,
            AppendOutcome::LeaderCrashed { truncated } => {
                self.failover_pending = true;
                if truncated {
                    self.m.replog_truncated.inc();
                }
                !truncated
            }
        }
    }

    fn alloc_id(&mut self) -> JobId {
        let id = JobId::in_shard(self.shard, self.next_job_id);
        self.next_job_id += 1;
        id
    }

    /// The id a job enters allocation under: the pre-assigned
    /// federation identity when the routing tier stamped one, a
    /// locally allocated shard-qualified id otherwise. Honoring a
    /// pre-assigned id reserves the local-spawn band so downstream
    /// spawns can never collide with router-assigned sequence numbers.
    fn intake_id(&mut self, spec: &JobSpec) -> JobId {
        match spec.origin {
            Some(o) => {
                self.next_job_id = self.next_job_id.max(JobId::SPAWN_BAND);
                o.id
            }
            None => self.alloc_id(),
        }
    }

    /// Count `spec` as created under `id`, commit its intake fact and
    /// retain its payload.
    fn submit(&mut self, now: SimTime, id: JobId, spec: JobSpec, intake: SchedEventKind) -> Job {
        self.created += 1;
        self.commit(now, None, Some(id), intake);
        let job = spec.into_job(id);
        if let Some(p) = &mut self.payloads {
            p.insert(id, job.clone());
        }
        job
    }

    /// An external arrival enters the ledger.
    pub(crate) fn admit(&mut self, now: SimTime, mut spec: JobSpec) -> Admitted {
        if let Some(dag) = spec.dag.take() {
            // Atomization: the arriving job never enters allocation
            // itself; its tasks are released as ordinary jobs through
            // the unchanged bidding machinery.
            let root = self.alloc_id();
            let released = self.dag.register(root, spec.task, dag);
            return Admitted::Dag { root, released };
        }
        let id = self.intake_id(&spec);
        // A job handed off from a peer shard enters the log as a
        // `SpillIn` under its home-qualified id; everything else is a
        // fresh local submission.
        let intake = match spec.origin.and_then(|o| o.spilled_from) {
            Some(from_shard) => SchedEventKind::SpillIn { from_shard },
            None => SchedEventKind::Submitted,
        };
        Admitted::Job(self.submit(now, id, spec, intake))
    }

    /// A job the task logic emitted downstream enters the ledger.
    pub(crate) fn spawn(&mut self, now: SimTime, spec: JobSpec) -> Job {
        let id = self.alloc_id();
        self.submit(now, id, spec, SchedEventKind::Submitted)
    }

    /// Release one DAG task (or a speculative replica of one) into
    /// allocation: the `TaskOffer`/`SpecLaunch` decision is committed
    /// under a freshly allocated job id before the job exists. `None`:
    /// the append truncated and the submission died with the leader —
    /// a task is then owed its release again at [`takeover`]
    /// (a straggler is simply found again by a later sweep).
    ///
    /// [`takeover`]: Self::takeover
    pub(crate) fn release_task(
        &mut self,
        now: SimTime,
        root: JobId,
        task: u32,
        spec: JobSpec,
        speculative: bool,
    ) -> Option<Job> {
        let id = self.alloc_id();
        let kind = if speculative {
            SchedEventKind::SpecLaunch { root, task }
        } else {
            let (preds, total) = self.dag.offer_payload(root, task);
            SchedEventKind::TaskOffer {
                root,
                task,
                preds,
                total,
            }
        };
        if !self.commit(now, None, Some(id), kind) {
            if !speculative {
                // Not offered after all: the takeover re-derives it.
                self.dag.unoffer(root, task);
            }
            return None;
        }
        let job = self.submit(now, id, spec, SchedEventKind::Submitted);
        self.dag.bind(root, task, id, speculative);
        Some(job)
    }

    /// Straggler sweep: replicate the slowest in-flight task once
    /// enough siblings completed to price "slow".
    pub(crate) fn launch_straggler(&mut self, now: SimTime) -> Option<Job> {
        let sp = self.dag.straggler(now.as_secs_f64())?;
        self.release_task(now, sp.root, sp.task, sp.spec, true)
    }

    /// A bid freshly recorded into `job`'s open contest, `waited_secs`
    /// after the broadcast. A bid on a DAG task additionally lands in
    /// the per-task vocabulary, so the oracle can tie pricing to the
    /// DAG without joining on job ids.
    pub(crate) fn record_bid(
        &mut self,
        now: SimTime,
        from: WorkerId,
        job: JobId,
        estimate_secs: f64,
        waited_secs: f64,
    ) {
        self.m.bids_received.inc();
        self.m.bid_latency_secs.record(waited_secs);
        let bid = SchedEventKind::BidReceived { estimate_secs };
        self.commit(now, Some(from), Some(job), bid);
        if let Some((root, task, _)) = self.dag.task_of(job) {
            let bid = SchedEventKind::TaskBid {
                root,
                task,
                estimate_secs,
            };
            self.commit(now, Some(from), Some(job), bid);
        }
    }

    /// Record that `job`'s contest closed in favour of a placement
    /// about to be recorded (`worker` as the driver logs it).
    pub(crate) fn close_contest(
        &mut self,
        now: SimTime,
        worker: Option<WorkerId>,
        job: JobId,
        timed_out: bool,
        fallback: bool,
    ) -> bool {
        let kind = SchedEventKind::ContestClosed {
            timed_out,
            fallback,
        };
        if !self.commit(now, worker, Some(job), kind) {
            return false;
        }
        self.m.contests_closed.inc();
        true
    }

    /// Place `job` on `worker`: record it — `Offered` or `Assigned`,
    /// plus `TaskAssign` and the attempt's straggler clock for a DAG
    /// task job — then put it on the ledger under a fresh seq with its
    /// first retransmission and its lease armed. A completed job is
    /// never placed again.
    pub(crate) fn place(
        &mut self,
        now: SimTime,
        worker: WorkerId,
        job: Job,
        offer: bool,
    ) -> Placed {
        if self.is_done(job.id) {
            return Placed::Completed;
        }
        let kind = if offer {
            SchedEventKind::Offered
        } else {
            SchedEventKind::Assigned
        };
        if !self.commit(now, Some(worker), Some(job.id), kind) {
            return Placed::Truncated(job);
        }
        if let Some((root, task, speculative)) = self.dag.task_of(job.id) {
            let kind = SchedEventKind::TaskAssign {
                root,
                task,
                speculative,
            };
            if !self.commit(now, Some(worker), Some(job.id), kind) {
                return Placed::Truncated(job);
            }
            self.dag.on_placed(job.id, now.as_secs_f64());
        }
        let mut sent = Delivery {
            worker,
            offer,
            job,
            seq: 0,
            retry: None,
            lease: None,
        };
        let Some(l) = &mut self.ledger else {
            return Placed::Send(sent);
        };
        if let Some((retry, seed)) = l.timers {
            sent.seq = l.next_seq;
            l.next_seq += 1;
            let series = RetryPolicy::series_seed(seed, sent.job.id, sent.seq);
            sent.retry = after(now, retry.delay_secs(series, 0));
            sent.lease = after(now, (!self.no_leases).then_some(retry.lease_secs));
        }
        let p = Placement {
            sent: sent.clone(),
            acked: l.timers.is_none(),
            attempt: 0,
            placed_at: now,
        };
        l.placements.insert(sent.job.id, p);
        Placed::Send(sent)
    }

    /// The unacked placement `seq` of `job`, if it is still on the
    /// ledger.
    fn unacked(&mut self, job: JobId, seq: u64) -> Option<&mut Placement> {
        let p = self.ledger.as_mut()?.placements.get_mut(&job)?;
        (p.sent.seq == seq && !p.acked).then_some(p)
    }

    /// `worker` acknowledged placement `seq` of `job`: `AssignAcked`
    /// commits once and the entry's retransmission and lease stand
    /// down. A stale ack (the job was re-placed since) or a repeated
    /// one changes nothing.
    pub(crate) fn ack(&mut self, now: SimTime, worker: WorkerId, job: JobId, seq: u64) {
        // Acked, its deadlines are dead: nothing resends, expires or
        // waits on an acked placement.
        let acked = !self.ignores_acks;
        let Some(p) = self.unacked(job, seq).filter(|p| p.sent.worker == worker) else {
            return;
        };
        p.acked = acked;
        self.m.acks_received.inc();
        self.commit(now, Some(worker), Some(job), SchedEventKind::AssignAcked);
    }

    /// Retransmit placement `seq` of `job` if it is still unacked and
    /// its retransmission is due: `Resent { attempt }` commits, and the
    /// next attempt is armed on the seeded backoff — none once the
    /// budget is spent (the lease decides).
    pub(crate) fn resend(&mut self, now: SimTime, job: JobId, seq: u64) -> Option<Delivery> {
        let (retry, seed) = self.ledger.as_ref()?.timers?;
        let p = self
            .unacked(job, seq)
            .filter(|p| p.sent.retry.is_some_and(|t| t <= now))?;
        let attempt = p.attempt;
        p.attempt += 1;
        let series = RetryPolicy::series_seed(seed, job, seq);
        p.sent.retry = after(now, retry.delay_secs(series, attempt + 1));
        let again = Delivery {
            lease: None,
            ..p.sent.clone()
        };
        self.m.net_retries.inc();
        let kind = SchedEventKind::Resent { attempt };
        self.commit(now, Some(again.worker), Some(job), kind);
        Some(again)
    }

    /// Expire placement `seq` of `job` if it is still unacked and its
    /// lease is due: it leaves the ledger and `LeaseExpired` commits.
    /// Returns the lease's worker and the job to re-enter allocation —
    /// `None` when it completed or was cancelled meanwhile.
    pub(crate) fn expire(
        &mut self,
        now: SimTime,
        job: JobId,
        seq: u64,
    ) -> Option<(WorkerId, Option<Job>)> {
        self.unacked(job, seq)
            .filter(|p| p.sent.lease.is_some_and(|t| t <= now))?;
        let Delivery { worker, job: j, .. } = self.ledger.as_mut()?.placements.remove(&job)?.sent;
        self.m.lease_expired.inc();
        self.commit(now, Some(worker), Some(job), SchedEventKind::LeaseExpired);
        let settled = self.is_done(job) || self.dag.is_cancelled(job);
        Some((worker, (!settled).then_some(j)))
    }

    /// Take a placement off the ledger: on a `Done`, whatever placement
    /// the job has; on a bounce, only placement `seq` at `worker`.
    /// `false`: a bounce that matched nothing — a stale or duplicate
    /// delivery the driver must drop. Without a ledger every bounce
    /// counts.
    pub(crate) fn settle(&mut self, job: JobId, by: Settle) -> bool {
        let Some(l) = &mut self.ledger else {
            return true;
        };
        if let Settle::Bounced(worker, seq) = by {
            let p = l.placements.get(&job);
            if !p.is_some_and(|p| p.sent.worker == worker && p.sent.seq == seq) {
                return false;
            }
        }
        l.placements.remove(&job);
        true
    }

    /// `worker` crashed or left: every placement it holds that was made
    /// before `placed_before` (all of them on `None`) leaves the
    /// ledger, acked or not — an acked job whose `Done` never arrived
    /// is owed too. Hands back, by id, the jobs to re-enter allocation:
    /// all but the completed and the cancelled.
    pub(crate) fn reclaim(&mut self, worker: WorkerId, placed_before: Option<SimTime>) -> Vec<Job> {
        let Some(Ledger {
            placements, done, ..
        }) = &mut self.ledger
        else {
            return Vec::new();
        };
        let mine = |p: &Placement| {
            p.sent.worker == worker && placed_before.is_none_or(|t| p.placed_at < t)
        };
        let mut ids: Vec<JobId> = placements
            .iter()
            .filter(|(_, p)| mine(p))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids.into_iter()
            .filter_map(|id| placements.remove(&id))
            .filter(|p| !done.contains(&p.sent.job.id) && !self.dag.is_cancelled(p.sent.job.id))
            .map(|p| p.sent.job)
            .collect()
    }

    /// Unacked placements with a retransmission or lease due at `now`:
    /// the threaded master's timer scan.
    pub(crate) fn due(&self, now: SimTime) -> Vec<(JobId, u64)> {
        self.armed()
            .filter(|p| p.deadline().is_some_and(|t| t <= now))
            .map(|p| (p.sent.job.id, p.sent.seq))
            .collect()
    }

    /// The earliest retransmission or lease deadline pending.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.armed().filter_map(Placement::deadline).min()
    }

    /// Unacked placements, where timers are armed at all.
    fn armed(&self) -> impl Iterator<Item = &Placement> {
        let l = self.ledger.as_ref().filter(|l| l.timers.is_some());
        l.into_iter()
            .flat_map(|l| l.placements.values())
            .filter(|p| !p.acked)
    }

    /// Does `worker` hold a placement?
    pub(crate) fn holds_placements(&self, worker: WorkerId) -> bool {
        self.ledger
            .as_ref()
            .is_some_and(|l| l.placements.values().any(|p| p.sent.worker == worker))
    }

    /// The job placement `job` delivers, while it is on the ledger.
    pub(crate) fn placed_job(&self, job: JobId) -> Option<Job> {
        let p = self.ledger.as_ref()?.placements.get(&job)?;
        Some(p.sent.job.clone())
    }

    /// `worker` reported `job` done.
    pub(crate) fn complete(&mut self, now: SimTime, worker: WorkerId, job: JobId) -> Completion {
        let first = self.ledger.as_mut().is_none_or(|l| l.done.insert(job));
        if self.dag.take_cancelled(job) {
            self.forget(job);
            return Completion::Cancelled;
        }
        if !first && !self.drops_dedup {
            return Completion::Duplicate;
        }
        self.completed += 1;
        self.commit(now, Some(worker), Some(job), SchedEventKind::Completed);
        self.forget(job);
        self.m.jobs_completed.inc();
        let outcome = self.dag.on_done(job, now.as_secs_f64());
        if let DoneOutcome::Effective { root, task, .. } = outcome {
            self.commit(
                now,
                Some(worker),
                Some(job),
                SchedEventKind::TaskDone { root, task },
            );
        }
        Completion::Counted(outcome)
    }

    /// Cancel the losing attempt of a decided speculation race.
    /// `SpecCancel` is its terminal accounting event: once committed
    /// (`true`), the attempt counts as complete, its placement is
    /// settled, and its eventual report, or a crash bounce, is
    /// swallowed.
    pub(crate) fn cancel_loser(
        &mut self,
        now: SimTime,
        loser: JobId,
        root: JobId,
        task: u32,
    ) -> bool {
        if !self.commit(
            now,
            None,
            Some(loser),
            SchedEventKind::SpecCancel { root, task },
        ) {
            return false;
        }
        self.dag.cancel(loser);
        self.completed += 1;
        self.forget(loser);
        if let Some(l) = &mut self.ledger {
            l.placements.remove(&loser);
        }
        true
    }

    fn forget(&mut self, job: JobId) {
        if let Some(p) = &mut self.payloads {
            p.remove(&job);
        }
    }

    /// Elect a standby after a leader crash: replay the committed log
    /// into a [`SchedState`] and hand back the work that is owed, for
    /// the driver to re-enter in this order — every
    /// submitted-but-unplaced job, by id, with its retained payload,
    /// then every releasable task whose `TaskOffer` never committed,
    /// by `(root, task)`, for [`release_task`](Self::release_task)
    /// (this includes a DAG none of whose tasks was ever offered, which
    /// the log does not know exists). Placed jobs are left alone:
    /// their worker (or the ledger's lease) still owns them — and a
    /// ledger entry the log cannot prove is dropped, its job being one
    /// of the unplaced. Pending repairs are read off the state by the
    /// driver.
    pub(crate) fn takeover(&mut self, now: SimTime) -> Takeover {
        self.failover_pending = false;
        let log = self
            .log
            .as_mut()
            .expect("failover without a replicated log");
        let (_term, state, entries) = log.failover(now);
        self.m.master_failovers.inc();
        self.m.replay_entries.add(entries);
        let payloads = self
            .payloads
            .as_ref()
            .expect("failover without retained payloads");
        let unplaced = state
            .unplaced_jobs()
            .into_iter()
            .map(|id| {
                payloads
                    .get(&id)
                    .cloned()
                    .expect("unplaced job without a retained payload")
            })
            .collect();
        if let Some(l) = &mut self.ledger {
            l.placements
                .retain(|id, p| state.placed_on(*id) == Some(p.sent.worker));
        }
        Takeover {
            state,
            unplaced,
            frontier: self.dag.reopen_frontier(),
        }
    }

    /// End of run, before [`Self::m`] is flushed: fold each worker's
    /// store accounting and busy fraction into the metrics and write
    /// the run's record, whose counts are this run's tallies.
    pub(crate) fn record(
        &self,
        meta: &RunMeta,
        totals: RunTotals,
        workers: impl IntoIterator<Item = (StoreStats, f64)>,
    ) -> RunRecord {
        let m = &self.m;
        let mut sum = StoreStats::default();
        let mut busy = Vec::new();
        for (i, (s, frac)) in workers.into_iter().enumerate() {
            sum.merge(&s);
            m.set_worker_busy_frac(i, frac);
            busy.push(frac);
        }
        let data_load_mb = sum.bytes_admitted as f64 / 1e6;
        m.cache_misses.add(sum.misses);
        m.cache_hits.add(sum.hits);
        m.peer_fetches.add(sum.peer_fetches);
        m.cache_evictions.add(sum.evictions);
        m.set_makespan_secs(totals.makespan_secs);
        m.set_data_load_mb(data_load_mb);
        RunRecord {
            scheduler: totals.scheduler,
            worker_config: meta.worker_config.clone(),
            job_config: meta.job_config.clone(),
            iteration: meta.iteration,
            seed: meta.seed,
            makespan_secs: totals.makespan_secs,
            data_load_mb,
            cache_misses: sum.misses,
            cache_hits: sum.hits,
            evictions: sum.evictions,
            jobs_completed: self.completed,
            control_messages: m.control_messages.get(),
            contests_timed_out: totals.contests_timed_out,
            contests_fallback: totals.contests_fallback,
            mean_queue_wait_secs: totals.mean_queue_wait_secs,
            worker_busy_frac: busy,
            jobs_redistributed: m.jobs_redistributed.get(),
            worker_crashes: m.worker_crashes.get(),
            recovery_secs: totals.recovery_secs,
        }
    }
}

/// Start of run: copies that earlier iterations of a session left in
/// the workers' stores — `(worker, object, bytes)` — enter the replica
/// registry without log events (pre-run state, not a decision).
/// Returns the objects whose pins the caller must now re-derive, each
/// once, ascending.
pub(crate) fn warm_seed(
    map: &mut ReplicaMap,
    resident: impl IntoIterator<Item = (u32, ObjectId, u64)>,
) -> Vec<ObjectId> {
    let mut seeded: Vec<ObjectId> = Vec::new();
    for (w, obj, bytes) in resident {
        map.add(obj, w, bytes);
        seeded.push(obj);
    }
    seeded.sort_unstable();
    seeded.dedup();
    seeded
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, VecDeque};

    use crossbid_simcore::SimDuration;
    use proptest::prelude::*;

    use super::*;
    use crate::atomize::{TaskDag, TaskNode};
    use crate::faults::MasterFaultPlan;
    use crate::job::{FedIdentity, Payload, ResourceRef, TaskId};

    const W: WorkerId = WorkerId(0);

    fn task(preds: u64, out: u64) -> TaskNode {
        TaskNode {
            preds,
            input: None,
            output: ResourceRef {
                id: ObjectId(out),
                bytes: 1000,
            },
            work_bytes: 0,
            cpu_secs: 1.0,
        }
    }

    /// t0 → {t1, t2} → t3.
    fn diamond() -> TaskDag {
        TaskDag::new(vec![task(0, 10), task(1, 11), task(1, 12), task(6, 13)]).unwrap()
    }

    fn core(shard: ShardId, crash_at: Option<u64>) -> MasterCore {
        let mut plan = MasterFaultPlan::new();
        if let Some(k) = crash_at {
            plan = plan.crash_at(k);
        }
        // An eager detector: one completed task prices "slow", and any
        // task a step older than a tenth of it is a straggler.
        let atomize = AtomizeConfig {
            spec_factor: 0.1,
            min_completed_for_spec: 1,
            ..AtomizeConfig::default()
        };
        let m = RuntimeMetrics::from_sink(None);
        MasterCore::new(
            Some(ReplicatedLog::new(&plan)),
            shard,
            atomize,
            true,
            Some(&NetFaultPlan::none()),
            m,
        )
    }

    /// What a truncated append must leave untouched.
    #[derive(Debug, PartialEq)]
    struct Marks {
        created: u64,
        completed: u64,
        retained: usize,
        placements: usize,
        committed: usize,
        bound: Vec<Option<(JobId, u32, bool)>>,
    }

    /// A driver with no runtime: one worker's worth of bookkeeping
    /// around a [`MasterCore`], shadowing what is owed so every
    /// takeover can be checked against it.
    struct Mini {
        core: MasterCore,
        now: SimTime,
        /// Submitted, awaiting placement.
        queue: VecDeque<Job>,
        /// Placement sent, report not yet delivered.
        running: Vec<Job>,
        /// Submitted and not accounted complete.
        open: BTreeSet<JobId>,
        /// Jobs whose placement message went out.
        sent: BTreeSet<JobId>,
        /// Released by the DAG layer, release truncated.
        unreleased: BTreeSet<(JobId, u32)>,
        /// Every id ever handed out by the core.
        ids: Vec<JobId>,
        swallowed: Vec<JobId>,
        takeovers: u32,
    }

    impl Mini {
        fn new(crash_at: Option<u64>) -> Self {
            Mini {
                core: core(ShardId(0), crash_at),
                now: SimTime::ZERO,
                queue: VecDeque::new(),
                running: Vec::new(),
                open: BTreeSet::new(),
                sent: BTreeSet::new(),
                unreleased: BTreeSet::new(),
                ids: Vec::new(),
                swallowed: Vec::new(),
                takeovers: 0,
            }
        }

        fn marks(&self) -> Marks {
            Marks {
                created: self.core.created(),
                completed: self.core.completed(),
                retained: self.core.payloads.as_ref().map_or(0, HashMap::len),
                placements: self.core.ledger.as_ref().map_or(0, |l| l.placements.len()),
                committed: self.core.log_len(),
                bound: self
                    .ids
                    .iter()
                    .map(|&j| self.core.dag().task_of(j))
                    .collect(),
            }
        }

        fn enter(&mut self, job: Job) {
            self.ids.push(job.id);
            assert!(self.open.insert(job.id), "{:?} submitted twice", job.id);
            self.queue.push_back(job);
        }

        fn release(&mut self, root: JobId, task: u32, spec: JobSpec) {
            let before = self.marks();
            match self.core.release_task(self.now, root, task, spec, false) {
                Some(job) => self.enter(job),
                None => {
                    assert_eq!(self.marks(), before, "a truncated release left a mark");
                    assert!(self.core.failover_pending());
                    self.unreleased.insert((root, task));
                }
            }
        }

        fn arrive(&mut self, spec: JobSpec) {
            match self.core.admit(self.now, spec) {
                Admitted::Job(job) => self.enter(job),
                Admitted::Dag { root, released } => {
                    for (task, spec) in released {
                        self.release(root, task, spec);
                    }
                }
            }
            self.settle();
        }

        /// Run the takeover if the leader died, then place what waits.
        fn settle(&mut self) {
            while self.core.failover_pending() {
                self.takeovers += 1;
                let Takeover {
                    unplaced, frontier, ..
                } = self.core.takeover(self.now);
                // The log, the payload table and the DAG frontier
                // re-derive exactly the work that is owed.
                let owed: Vec<JobId> = self.open.difference(&self.sent).copied().collect();
                let unplaced_ids: Vec<JobId> = unplaced.iter().map(|j| j.id).collect();
                assert_eq!(unplaced_ids, owed);
                let frontier_ids: Vec<(JobId, u32)> =
                    frontier.iter().map(|(r, t, _)| (*r, *t)).collect();
                let unreleased: Vec<(JobId, u32)> = self.unreleased.iter().copied().collect();
                assert_eq!(frontier_ids, unreleased);
                self.unreleased.clear();
                self.queue = unplaced.into();
                for (root, task, spec) in frontier {
                    self.release(root, task, spec);
                }
            }
            while let Some(job) = self.queue.pop_front() {
                let before = self.marks();
                match self.core.place(self.now, W, job, false) {
                    Placed::Send(d) => {
                        self.sent.insert(d.job.id);
                        self.running.push(d.job);
                    }
                    Placed::Truncated(_) => {
                        // Dropped with the leader; the standby re-enters it.
                        assert_eq!(self.marks(), before, "a truncated placement left a mark");
                        return self.settle();
                    }
                    Placed::Completed => panic!("a queued job was already complete"),
                }
                if self.core.failover_pending() {
                    return self.settle();
                }
            }
        }

        /// `job`'s worker reports it done — twice, as a lossy link would.
        fn report(&mut self, job: Job) {
            self.now += SimDuration::from_secs(1);
            if let Some(replica) = self.core.launch_straggler(self.now) {
                self.enter(replica);
            }
            self.core.settle(job.id, Settle::Done);
            match self.core.complete(self.now, W, job.id) {
                Completion::Duplicate => panic!("{:?}: first report taken for a duplicate", job.id),
                Completion::Cancelled => {
                    assert!(
                        !self.open.contains(&job.id),
                        "swallowed but never accounted"
                    );
                    self.swallowed.push(job.id);
                }
                Completion::Counted(outcome) => {
                    assert!(self.open.remove(&job.id), "{:?} counted twice", job.id);
                    match outcome {
                        DoneOutcome::NotTask if job.payload == Payload::Index(0) => {
                            let child = JobSpec::compute(job.task, 1.0, Payload::Index(1));
                            let child = self.core.spawn(self.now, child);
                            self.enter(child);
                        }
                        DoneOutcome::NotTask | DoneOutcome::Swallowed => {}
                        DoneOutcome::Effective {
                            root,
                            task,
                            released,
                            losers,
                            ..
                        } => {
                            for loser in losers {
                                let before = self.marks();
                                if self.core.cancel_loser(self.now, loser, root, task) {
                                    assert!(self.open.remove(&loser));
                                } else {
                                    assert_eq!(self.marks(), before);
                                }
                            }
                            for (task, spec) in released {
                                self.release(root, task, spec);
                            }
                        }
                    }
                }
            }
            assert!(matches!(
                self.core.complete(self.now, W, job.id),
                Completion::Duplicate
            ));
            self.check_conservation();
            self.settle();
            self.check_conservation();
        }

        fn check_conservation(&self) {
            assert_eq!(
                self.core.created(),
                self.core.completed() + self.open.len() as u64,
                "created == completed + open"
            );
        }

        /// One plain job that spawns a child, one diamond DAG; reports
        /// come back in the order `picks` chooses. Returns the append
        /// count.
        fn run(crash_at: Option<u64>, picks: &[usize]) -> (Mini, u64) {
            let mut mini = Mini::new(crash_at);
            mini.arrive(JobSpec::compute(TaskId(0), 1.0, Payload::Index(0)));
            mini.arrive(JobSpec::atomized(TaskId(0), diamond()));
            let mut picks = picks.iter().copied().cycle();
            while !mini.running.is_empty() {
                let i = picks.next().unwrap_or(0) % mini.running.len();
                let job = mini.running.remove(i);
                mini.report(job);
            }
            let appends = mini.core.log.as_ref().expect("logged").appends();
            (mini, appends)
        }
    }

    fn assert_drained(mini: &Mini) {
        assert!(mini.queue.is_empty() && mini.open.is_empty());
        assert_eq!(mini.core.created(), mini.core.completed());
        assert!(!mini.core.dag().is_active(), "a DAG is still in flight");
        let log = mini.core.log.as_ref().expect("logged").log();
        assert_eq!(
            log.task_dones(),
            4,
            "every task of the diamond decided once"
        );
        let state = SchedState::replay(log.events());
        assert!(state.unplaced_jobs().is_empty());
        // Every placement was settled: by its report, or by the
        // cancellation of a loser.
        assert!(!mini.core.holds_placements(W));
        // A cancelled loser's report is swallowed once.
        let once: BTreeSet<JobId> = mini.swallowed.iter().copied().collect();
        assert_eq!(once.len(), mini.swallowed.len());
    }

    #[test]
    fn the_script_drains_and_speculates_without_a_crash() {
        let (mini, appends) = Mini::run(None, &[0]);
        assert_drained(&mini);
        assert_eq!(mini.takeovers, 0);
        assert!(
            appends > 30,
            "the script is long enough to be worth crashing"
        );
        let log = mini.core.log.as_ref().unwrap().log();
        assert!(log.spec_launches() >= 1, "the eager detector fired");
    }

    #[test]
    fn every_crash_index_of_the_script_recovers_what_is_owed() {
        let (_, appends) = Mini::run(None, &[0]);
        for crash in 1..=appends {
            let (mini, _) = Mini::run(Some(crash), &[0]);
            assert_eq!(mini.takeovers, 1, "crash index {crash} fired once");
            assert_drained(&mini);
        }
    }

    proptest! {
        /// The same, with reports arriving in any order.
        #[test]
        fn any_crash_index_under_any_report_order_recovers_what_is_owed(
            crash in 1u64..80,
            picks in proptest::collection::vec(0usize..4, 1..12),
        ) {
            let (mini, appends) = Mini::run(Some(crash), &picks);
            prop_assert_eq!(mini.takeovers, u32::from(crash <= appends));
            assert_drained(&mini);
        }
    }

    #[test]
    fn a_router_assigned_id_moves_local_allocation_to_the_spawn_band() {
        let shard = ShardId(2);
        let mut core = core(shard, None);
        let local = |core: &mut MasterCore| {
            core.spawn(
                SimTime::ZERO,
                JobSpec::compute(TaskId(0), 1.0, Payload::None),
            )
        };
        assert_eq!(local(&mut core).id, JobId::in_shard(shard, 0));
        let routed = FedIdentity {
            id: JobId::in_shard(shard, 7),
            spilled_from: Some(ShardId(0)),
        };
        let spec = JobSpec::compute(TaskId(0), 1.0, Payload::None).with_origin(routed);
        let Admitted::Job(job) = core.admit(SimTime::ZERO, spec) else {
            panic!("a plain spec is admitted as a job");
        };
        assert_eq!(job.id, routed.id, "the federation id is honoured verbatim");
        for n in 0..3 {
            let id = local(&mut core).id;
            assert_eq!(id, JobId::in_shard(shard, JobId::SPAWN_BAND + n));
            assert_eq!(id.shard(), shard);
        }
        let log = core.take_log();
        assert_eq!(log.spills_in(), 1, "a spilled job enters as SpillIn");
        assert_eq!(log.submissions(), 4);
    }

    #[test]
    fn no_log_means_no_entries_and_no_retention() {
        let m = RuntimeMetrics::from_sink(None);
        let mut core = MasterCore::new(None, ShardId(0), AtomizeConfig::default(), false, None, m);
        let spec = JobSpec::compute(TaskId(0), 1.0, Payload::None);
        let Admitted::Job(job) = core.admit(SimTime::ZERO, spec) else {
            panic!("a plain spec is admitted as a job");
        };
        let placed = core.place(SimTime::ZERO, W, job.clone(), false);
        assert!(matches!(
            placed,
            Placed::Send(Delivery {
                seq: 0,
                retry: None,
                lease: None,
                ..
            })
        ));
        assert!(!core.holds_placements(W), "no ledger, no entry");
        assert!(matches!(
            core.complete(SimTime::ZERO, W, job.id),
            Completion::Counted(DoneOutcome::NotTask)
        ));
        // Without dedup a second report is the caller's problem.
        assert!(!core.is_done(job.id));
        assert_eq!(
            (core.created(), core.completed(), core.log_len()),
            (1, 1, 0)
        );
        assert!(core.payloads.is_none() && core.take_log().is_empty());
    }

    /// One step against the placement ledger. `pick` chooses among the
    /// `(worker, seq)` placements a job ever had, so stale acks,
    /// rejects, retries and lease checks are exercised as well as
    /// current ones.
    #[derive(Debug, Clone)]
    enum Op {
        Place {
            job: usize,
            worker: u32,
            offer: bool,
        },
        Tick {
            millis: u32,
        },
        Ack {
            job: usize,
            pick: usize,
            worker: Option<u32>,
        },
        Resend {
            job: usize,
            pick: usize,
        },
        Expire {
            job: usize,
            pick: usize,
        },
        Scan,
        Done {
            job: usize,
        },
        Reject {
            job: usize,
            pick: usize,
            worker: Option<u32>,
        },
        Reclaim {
            worker: u32,
            back_millis: Option<u32>,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        let raw = (0u8..16, 0usize..6, 0u32..3, 0u32..3000, proptest::bool::ANY);
        raw.prop_map(|(kind, job, worker, millis, flag)| {
            // Half the acks and rejects name the placement's own
            // worker, half a possibly different one.
            let other = flag.then_some(worker);
            let pick = millis as usize;
            match kind {
                0..=2 => Op::Place {
                    job,
                    worker,
                    offer: flag,
                },
                3..=5 => Op::Tick { millis },
                6 | 7 => Op::Ack {
                    job,
                    pick,
                    worker: other,
                },
                8 | 9 => Op::Resend { job, pick },
                10 | 11 => Op::Expire { job, pick },
                12 => Op::Scan,
                13 => Op::Done { job },
                14 => Op::Reject {
                    job,
                    pick,
                    worker: other,
                },
                _ => Op::Reclaim {
                    worker,
                    back_millis: flag.then_some(millis),
                },
            }
        })
    }

    /// The shadow's view of one placement on the books.
    #[derive(Debug, Clone, Copy)]
    struct Entry {
        worker: WorkerId,
        seq: u64,
        acked: bool,
        placed_at: SimTime,
    }

    proptest! {
        /// Random place / ack / resend / expire / settle / reclaim
        /// sequences against a shadow model of what is on the books.
        #[test]
        fn the_placement_ledger_keeps_its_rules(ops in proptest::collection::vec(op(), 1..120)) {
            let plan = NetFaultPlan::lossy(7, 0.1, 0.0);
            let log = ReplicatedLog::new(&MasterFaultPlan::none());
            let m = RuntimeMetrics::from_sink(None);
            let atomize = AtomizeConfig::default();
            let mut core = MasterCore::new(Some(log), ShardId(0), atomize, false, Some(&plan), m);
            let jobs: Vec<Job> = (0..6)
                .map(|i| {
                    let spec = JobSpec::compute(TaskId(0), 1.0, Payload::Index(i));
                    match core.admit(SimTime::ZERO, spec) {
                        Admitted::Job(job) => job,
                        Admitted::Dag { .. } => unreachable!("a plain spec"),
                    }
                })
                .collect();
            let mut now = SimTime::ZERO;
            let mut books: HashMap<JobId, Entry> = HashMap::new();
            let mut history: HashMap<JobId, Vec<(WorkerId, u64)>> = HashMap::new();
            let mut completed: BTreeSet<JobId> = BTreeSet::new();
            // Placements that left the books: they never act again.
            let mut gone: BTreeSet<(JobId, u64)> = BTreeSet::new();
            let mut acked_once: BTreeSet<(JobId, u64)> = BTreeSet::new();
            let mut last_seq = 0;
            let old = |history: &HashMap<JobId, Vec<(WorkerId, u64)>>, id, pick: usize| {
                let h = history.get(&id)?;
                Some(h[pick % h.len()])
            };
            for op in ops {
                match op {
                    Op::Place { job, worker, offer } => {
                        let (job, worker) = (jobs[job].clone(), WorkerId(worker));
                        let before = core.log_len();
                        match core.place(now, worker, job.clone(), offer) {
                            Placed::Completed => {
                                prop_assert!(completed.contains(&job.id), "refused a live job");
                                prop_assert_eq!(core.log_len(), before, "a refusal logged");
                            }
                            Placed::Send(d) => {
                                prop_assert!(!completed.contains(&job.id), "placed when done");
                                prop_assert!(d.seq > last_seq && d.worker == worker);
                                prop_assert!(d.retry.is_some() && d.lease.is_some());
                                last_seq = d.seq;
                                let e = Entry { worker, seq: d.seq, acked: false, placed_at: now };
                                if let Some(e) = books.insert(job.id, e) {
                                    gone.insert((job.id, e.seq));
                                }
                                history.entry(job.id).or_default().push((worker, d.seq));
                            }
                            Placed::Truncated(_) => prop_assert!(false, "no master fault is armed"),
                        }
                    }
                    Op::Tick { millis } => now += SimDuration::from_millis(millis as u64),
                    Op::Ack { job, pick, worker } => {
                        let id = jobs[job].id;
                        let Some((w, seq)) = old(&history, id, pick) else { continue };
                        let w = worker.map_or(w, WorkerId);
                        let before = core.log_len();
                        core.ack(now, w, id, seq);
                        let logged = core.log_len() > before;
                        let current = books.get_mut(&id).filter(|e| e.worker == w && e.seq == seq);
                        prop_assert_eq!(logged, current.as_ref().is_some_and(|e| !e.acked));
                        if logged {
                            prop_assert!(acked_once.insert((id, seq)), "acked twice");
                            current.expect("checked").acked = true;
                        }
                    }
                    Op::Resend { job, pick } => {
                        let id = jobs[job].id;
                        let Some((_, seq)) = old(&history, id, pick) else { continue };
                        if let Some(d) = core.resend(now, id, seq) {
                            prop_assert!(!gone.contains(&(id, seq)), "a settled placement resent");
                            let e = books[&id];
                            prop_assert!(e.seq == seq && !e.acked && d.worker == e.worker);
                            prop_assert!(d.lease.is_none(), "a resend re-armed the lease");
                        }
                    }
                    Op::Expire { job, pick } => {
                        let id = jobs[job].id;
                        let Some((_, seq)) = old(&history, id, pick) else { continue };
                        if let Some((w, back)) = core.expire(now, id, seq) {
                            prop_assert!(!gone.contains(&(id, seq)), "a settled placement expired");
                            let e = books.remove(&id).expect("on the books");
                            prop_assert!(e.seq == seq && !e.acked && w == e.worker);
                            prop_assert_eq!(back.is_some(), !completed.contains(&id));
                            gone.insert((id, seq));
                        }
                    }
                    Op::Scan => {
                        for (id, seq) in core.due(now) {
                            prop_assert!(books.get(&id).is_some_and(|e| e.seq == seq && !e.acked));
                        }
                    }
                    Op::Done { job } => {
                        let id = jobs[job].id;
                        prop_assert!(core.settle(id, Settle::Done));
                        if let Some(e) = books.remove(&id) {
                            gone.insert((id, e.seq));
                        }
                        core.complete(now, W, id);
                        completed.insert(id);
                    }
                    Op::Reject { job, pick, worker } => {
                        let id = jobs[job].id;
                        let Some((w, seq)) = old(&history, id, pick) else { continue };
                        let w = worker.map_or(w, WorkerId);
                        let current = books.get(&id).is_some_and(|e| e.worker == w && e.seq == seq);
                        prop_assert_eq!(core.settle(id, Settle::Bounced(w, seq)), current);
                        if current {
                            gone.insert((id, books.remove(&id).expect("current").seq));
                        }
                    }
                    Op::Reclaim { worker, back_millis } => {
                        let w = WorkerId(worker);
                        let back_secs = |b: u32| (now.as_secs_f64() - f64::from(b) / 1e3).max(0.0);
                        let cut = back_millis.map(|b| SimTime::from_secs_f64(back_secs(b)));
                        let mut lost: Vec<JobId> = books
                            .iter()
                            .filter(|(_, e)| e.worker == w && cut.is_none_or(|t| e.placed_at < t))
                            .map(|(id, _)| *id)
                            .collect();
                        lost.sort_unstable();
                        let back: Vec<JobId> = core.reclaim(w, cut).iter().map(|j| j.id).collect();
                        let owed: Vec<JobId> =
                            lost.iter().copied().filter(|id| !completed.contains(id)).collect();
                        prop_assert_eq!(back, owed, "reclaim: the unsettled entries at the worker");
                        for id in lost {
                            gone.insert((id, books.remove(&id).expect("listed").seq));
                        }
                    }
                }
                for w in 0..3 {
                    let held = books.values().any(|e| e.worker == WorkerId(w));
                    prop_assert_eq!(core.holds_placements(WorkerId(w)), held);
                }
                let armed = books.values().any(|e| !e.acked);
                prop_assert!(core.next_deadline().is_none() || armed);
            }
        }
    }
}
