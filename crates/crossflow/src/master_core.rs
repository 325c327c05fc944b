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
//! is asked to bid and how a winner is chosen, the outstanding / lease
//! tables, crash reclaim, membership and the replica plane.
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

use std::collections::{HashMap, HashSet};

use crossbid_metrics::{RunRecord, SchedulerKind};
use crossbid_simcore::SimTime;
use crossbid_storage::{ObjectId, ReplicaMap, StoreStats};

use crate::atomize::{AtomizeConfig, DagState, DoneOutcome};
use crate::engine::RunMeta;
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
    /// Jobs whose report was applied, kept only where one can arrive
    /// twice: side effects happen once.
    done_ids: Option<HashSet<JobId>>,
    failover_pending: bool,
    pub(crate) m: RuntimeMetrics,
    /// A shared sink accumulates across iterations; the run's record
    /// reports deltas from these (control messages, redistributions,
    /// worker crashes).
    base: [u64; 3],
    /// Sabotage (`ProtocolMutation::DropDedup`): apply duplicates too.
    pub(crate) drops_dedup: bool,
}

impl MasterCore {
    /// A core appending to `log`, allocating ids in `shard`'s space.
    /// `retain_payloads`: master faults are armed, so a standby will
    /// need the payloads of unplaced jobs. `dedup`: a completion can be
    /// delivered twice.
    pub(crate) fn new(
        log: Option<ReplicatedLog>,
        shard: ShardId,
        atomize: AtomizeConfig,
        retain_payloads: bool,
        dedup: bool,
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
            done_ids: dedup.then(HashSet::new),
            failover_pending: false,
            base: [
                m.control_messages.get(),
                m.jobs_redistributed.get(),
                m.worker_crashes.get(),
            ],
            m,
            drops_dedup: false,
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
        self.done_ids.as_ref().is_some_and(|d| d.contains(&job))
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

    /// Record the placement of `job` on `worker` — `Offered` or
    /// `Assigned`, plus `TaskAssign` and the attempt's straggler clock
    /// for a DAG task job. `false`: an append truncated and the
    /// message must not be sent.
    pub(crate) fn place(
        &mut self,
        now: SimTime,
        worker: WorkerId,
        job: JobId,
        offer: bool,
    ) -> bool {
        let kind = if offer {
            SchedEventKind::Offered
        } else {
            SchedEventKind::Assigned
        };
        if !self.commit(now, Some(worker), Some(job), kind) {
            return false;
        }
        let Some((root, task, speculative)) = self.dag.task_of(job) else {
            return true;
        };
        let kind = SchedEventKind::TaskAssign {
            root,
            task,
            speculative,
        };
        if !self.commit(now, Some(worker), Some(job), kind) {
            return false;
        }
        self.dag.on_placed(job, now.as_secs_f64());
        true
    }

    /// `worker` reported `job` done.
    pub(crate) fn complete(&mut self, now: SimTime, worker: WorkerId, job: JobId) -> Completion {
        if self.dag.take_cancelled(job) {
            if let Some(d) = &mut self.done_ids {
                d.insert(job);
            }
            self.forget(job);
            return Completion::Cancelled;
        }
        if let Some(d) = &mut self.done_ids {
            if !d.insert(job) && !self.drops_dedup {
                return Completion::Duplicate;
            }
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
    /// (`true`), the attempt counts as complete and its eventual
    /// report, or a crash bounce, is swallowed.
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
    /// their worker (or the driver's lease machinery) still owns them.
    /// Pending repairs are read off the state by the driver.
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
        Takeover {
            state,
            unplaced,
            frontier: self.dag.reopen_frontier(),
        }
    }

    /// End of run: fold each worker's store accounting and busy
    /// fraction into the metrics sink and write the run's record.
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
        let [control, redistributed, crashes] = self.base;
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
            control_messages: m.control_messages.get() - control,
            contests_timed_out: totals.contests_timed_out,
            contests_fallback: totals.contests_fallback,
            mean_queue_wait_secs: totals.mean_queue_wait_secs,
            worker_busy_frac: busy,
            jobs_redistributed: m.jobs_redistributed.get() - redistributed,
            worker_crashes: m.worker_crashes.get() - crashes,
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
            true,
            m,
        )
    }

    /// What a truncated append must leave untouched.
    #[derive(Debug, PartialEq)]
    struct Ledger {
        created: u64,
        completed: u64,
        retained: usize,
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

        fn ledger(&self) -> Ledger {
            Ledger {
                created: self.core.created(),
                completed: self.core.completed(),
                retained: self.core.payloads.as_ref().map_or(0, HashMap::len),
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
            let before = self.ledger();
            match self.core.release_task(self.now, root, task, spec, false) {
                Some(job) => self.enter(job),
                None => {
                    assert_eq!(self.ledger(), before, "a truncated release left a mark");
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
                let before = self.ledger();
                if self.core.place(self.now, W, job.id, false) {
                    self.sent.insert(job.id);
                    self.running.push(job);
                } else {
                    // Dropped with the leader; the standby re-enters it.
                    assert_eq!(self.ledger(), before, "a truncated placement left a mark");
                    return self.settle();
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
                                let before = self.ledger();
                                if self.core.cancel_loser(self.now, loser, root, task) {
                                    assert!(self.open.remove(&loser));
                                } else {
                                    assert_eq!(self.ledger(), before);
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
        let mut core = MasterCore::new(None, ShardId(0), AtomizeConfig::default(), false, false, m);
        let spec = JobSpec::compute(TaskId(0), 1.0, Payload::None);
        let Admitted::Job(job) = core.admit(SimTime::ZERO, spec) else {
            panic!("a plain spec is admitted as a job");
        };
        assert!(core.place(SimTime::ZERO, W, job.id, false));
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
}
