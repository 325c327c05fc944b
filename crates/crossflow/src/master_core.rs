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
//! genuinely differs: the event queue vs channels and deadlines, and
//! the worker instances. The replica plane is written once beside it,
//! in [`ReplicaPlane`](crate::replica::ReplicaPlane).
//!
//! **The decision path.** The core owns the run's
//! [`MasterScheduler`] — Listing 1, the Baseline, or any allocator's
//! master — and the roster it sees. [`decide`](MasterCore::decide)
//! runs one scheduler callback and carries its actions out, commit
//! before act: `ContestOpened`, `ContestClosed` (attributed timed-out
//! or fallback from the scheduler's stats), `Assigned` and `Offered`
//! each commit before the [`Effect`] that acts on them is queued for
//! the driver — a placement to send, one bid round (the job and the
//! roster it goes to), a timer to arm, a worker back in the pull pool.
//! [`receive`](MasterCore::receive) is the master's intake: a reject
//! settles its placement, and a bid is a round of one through
//! [`take_bids`](MasterCore::take_bids), which takes a whole round in
//! one pass — only a fresh, finite bid into an open contest commits
//! `BidReceived`. The sim turns effects into events, the threaded
//! master into channel sends and deadlines.
//!
//! **Membership.** The roster is scheduler state: the core keeps one
//! [`Member`] per worker — believed live or not, and serving, draining
//! or departed — and the roster is exactly the believed-live serving
//! workers. Each transition is one method that commits its log entry,
//! moves the worker, tells the scheduler and leaves what the worker
//! does next as an [`Effect`]: [`join`](MasterCore::join),
//! [`recover`](MasterCore::recover), [`drain`](MasterCore::drain),
//! [`remove`](MasterCore::remove), and a crash in two steps —
//! [`crash`](MasterCore::crash) commits the fact, [`lose`](MasterCore::lose)
//! is the master noticing it (at once in the sim, after the detection
//! delay on threads). A draining or departed worker's `Idle` and `Bid`
//! go no further than [`receive`](MasterCore::receive).
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
use std::ops::Range;

use crossbid_metrics::{RunRecord, SchedulerKind};
use crossbid_simcore::{IdMap, IdSet, RngStream, SimDuration, SimTime};
use crossbid_storage::StoreStats;

use crate::atomize::{AtomizeConfig, DagState, DoneOutcome};
use crate::bids::WorkerSet;
use crate::engine::RunMeta;
use crate::faults::{MembershipPlan, NetFaultPlan, RetryPolicy};
use crate::job::{Job, JobId, JobSpec, ShardId, WorkerId};
use crate::mutation::{self, ProtocolMutation};
use crate::obs::RuntimeMetrics;
use crate::replog::{AppendOutcome, ReplicatedLog};
use crate::scheduler::{
    MasterScheduler, SchedAction, SchedCtx, SchedStats, WorkerHandle, WorkerToMaster,
};
use crate::task::TaskCtx;
use crate::trace::{SchedEvent, SchedEventKind, SchedLog};
use crate::workflow::Workflow;

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
    pub unplaced: Vec<Job>,
    pub frontier: Vec<(JobId, u32, JobSpec)>,
}

/// What a placement became ([`MasterCore::place`]).
pub(crate) enum Placed {
    /// Recorded and on the ledger: deliver it.
    Send(Delivery),
    /// An append truncated: nothing may go out; the elected standby
    /// re-derives the job from the log.
    Truncated,
    /// The job's completion has committed — a lease bounce put it back
    /// in a queue before its holder's report landed — or its
    /// `SpecCancel` has: a losing replica still queued when its race
    /// was decided. Nothing is logged or sent: the driver drops it, and
    /// gives back any worker it took.
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

/// Messages the master sends a worker, under both runtimes. `Clone`
/// exists for the net-fault layer's duplicate/retransmit delivery;
/// `seq` is the placement sequence number the reliability layer acks
/// and dedups on (0 when the layer is off).
#[derive(Debug, Clone)]
pub(crate) enum ToWorker {
    /// Estimate and bid on this job.
    BidRequest(Job),
    /// Baseline: consider this job (may reject once).
    Offer {
        /// The offered job.
        job: Job,
        /// Placement sequence number (reliability layer).
        seq: u64,
    },
    /// You won / were assigned: queue it for execution.
    Assign {
        /// The assigned job.
        job: Job,
        /// Placement sequence number (reliability layer).
        seq: u64,
    },
    /// Reliability layer: the master saw this job's `Done` — stop
    /// resending it.
    AckDone(JobId),
    /// Run terminated; exit threads (threaded runtime only).
    Shutdown,
}

impl ToWorker {
    /// The message that delivers a placement.
    pub(crate) fn placement(d: Delivery) -> Self {
        let Delivery {
            offer, job, seq, ..
        } = d;
        if offer {
            ToWorker::Offer { job, seq }
        } else {
            ToWorker::Assign { job, seq }
        }
    }
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

/// What a decision asks of the driver ([`MasterCore::decide`]). Each
/// follows the commit it acts on; none follows a truncated one.
pub(crate) enum Effect {
    /// Deliver this placement: its `Assigned` or `Offered` committed.
    Send(Delivery),
    /// Ask every worker in [`solicited()[to]`](MasterCore::solicited) —
    /// the roster the decision saw — to bid on `job`: its
    /// `ContestOpened` committed.
    Solicit { job: Job, to: Range<usize> },
    /// Call the scheduler's `on_timer(token)` after `delay`.
    Timer { delay: SimDuration, token: u64 },
    /// An offer's job completed before it could be placed: `worker`
    /// goes back to the pull pool, as if it had announced itself idle.
    Repool(WorkerId),
    /// `worker` came up (a recovery or a join) with nothing queued: it
    /// announces itself idle, over the wire.
    Announce(WorkerId),
}

/// Where a worker stands in the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stage {
    /// A member that takes placements while it is believed live.
    Serving,
    /// Finishing what it holds; it takes nothing new.
    Draining,
    /// Drained out or removed: gone for good.
    Departed,
}

/// What the master believes of one worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Member {
    /// Up, as far as the master knows: a crash clears it only once it
    /// is noticed ([`MasterCore::lose`]).
    pub live: bool,
    pub stage: Stage,
}

impl Member {
    /// Bids, pulls and takes placements.
    fn on_roster(self) -> bool {
        self.live && self.stage == Stage::Serving
    }
}

/// The core's view of one undecided contest.
struct OpenContest {
    /// Broadcast instant (bid latencies are measured from here).
    opened: SimTime,
    /// Workers whose bids were committed — a duplicate is not. A stale
    /// in-flight bid from a pre-failover contest arriving next to the
    /// re-solicited one is such a duplicate.
    bidders: WorkerSet,
}

/// What one scheduler context collected: its actions, and the contests
/// the scheduler counted timed out or fallen back meanwhile.
struct Consulted {
    actions: Vec<SchedAction>,
    timed_out: u64,
    fallback: u64,
}

/// The most entries one bid's gate appends: `BidReceived`, plus the
/// stolen placement's `Assigned` under `AcceptLateBids`.
const GATE_APPENDS: u64 = 2;

/// The per-run figures of a [`RunRecord`] only the driver knows.
pub(crate) struct RunTotals {
    pub scheduler: SchedulerKind,
    pub makespan_secs: f64,
    pub contests_timed_out: u64,
    pub contests_fallback: u64,
    pub mean_queue_wait_secs: f64,
    pub recovery_secs: f64,
}

/// [`MasterCore::commit`], on the fields it touches — so the bid gate
/// can append while it holds its contest.
fn append(
    log: &mut Option<ReplicatedLog>,
    failover_pending: &mut bool,
    m: &RuntimeMetrics,
    ev: SchedEvent,
) -> bool {
    let Some(log) = log else {
        return true;
    };
    match log.append(ev) {
        AppendOutcome::Committed => true,
        AppendOutcome::LeaderCrashed { truncated } => {
            *failover_pending = true;
            if truncated {
                m.replog_truncated.inc();
            }
            !truncated
        }
    }
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
    /// The scheduler that decides, and the contest tallies of the
    /// ones a takeover replaced (a fresh scheduler counts from zero).
    master: Box<dyn MasterScheduler>,
    carried: SchedStats,
    /// Every worker's handle and standing, by id; the roster is the
    /// ones [`Member::on_roster`], rebuilt only when that changed.
    workers: Vec<WorkerHandle>,
    members: Vec<Member>,
    roster: Vec<WorkerHandle>,
    roster_dirty: bool,
    rng: RngStream,
    next_token: u64,
    open_contests: IdMap<JobId, OpenContest>,
    /// The emptied bidder sets of decided contests, reused by the next.
    spare_bidders: Vec<WorkerSet>,
    /// Reused across callbacks: the scheduler's actions and the
    /// effects they leave for the driver.
    actions: Vec<SchedAction>,
    effects: Vec<Effect>,
    /// The recipients of every `Solicit` in `effects`, each a range of
    /// it; cleared when the buffer is handed back.
    solicited: Vec<WorkerId>,
    /// This run's tallies: the record reads them before they are
    /// published.
    pub(crate) m: RuntimeMetrics,
    /// The reintroduced bug, if any: `DropDedup` applies duplicates
    /// too, `IgnoreAcks` logs an ack and keeps its timers running,
    /// `NoLeases` arms no lease; the bid gate commits a non-finite
    /// estimate (`AcceptNonFiniteBids`) or a second bid from one worker
    /// (`AcceptDuplicateBids`), and a bid outside an open contest
    /// re-places its still-placed job on the late bidder
    /// (`AcceptLateBids`). The DAG state holds it too, and every
    /// scheduler this core seats is wrapped for `ReofferToRejector`.
    mutation: ProtocolMutation,
}

impl MasterCore {
    /// A core appending to `log`, allocating ids in `shard`'s space.
    /// `retain_payloads`: master faults are armed, so a standby will
    /// need the payloads of unplaced jobs. `ledger`: a completion can
    /// be delivered twice, so keep the placement ledger — with retry
    /// and lease timers when the plan is active. `master` decides over
    /// a roster of `workers` (all live and serving; see
    /// [`defer`](Self::defer)), drawing on `rng`, with `mutation`
    /// armed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        log: Option<ReplicatedLog>,
        shard: ShardId,
        atomize: AtomizeConfig,
        retain_payloads: bool,
        ledger: Option<&NetFaultPlan>,
        m: RuntimeMetrics,
        master: Box<dyn MasterScheduler>,
        workers: Vec<WorkerHandle>,
        rng: RngStream,
        mutation: ProtocolMutation,
    ) -> Self {
        MasterCore {
            log,
            dag: DagState::mutated(atomize, mutation),
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
            master: mutation::scheduler(mutation, master),
            carried: SchedStats::default(),
            members: vec![
                Member {
                    live: true,
                    stage: Stage::Serving,
                };
                workers.len()
            ],
            roster: Vec::with_capacity(workers.len()),
            workers,
            roster_dirty: true,
            rng,
            next_token: 0,
            open_contests: IdMap::default(),
            spare_bidders: Vec::new(),
            actions: Vec::new(),
            effects: Vec::new(),
            solicited: Vec::new(),
            m,
            mutation,
        }
    }

    /// Every worker `plan` defers is dormant — not live — until its
    /// [`join`](Self::join).
    pub(crate) fn defer(&mut self, plan: &MembershipPlan) {
        for (i, m) in self.members.iter_mut().enumerate() {
            if plan.is_deferred(WorkerId(i as u32)) {
                m.live = false;
                self.roster_dirty = true;
            }
        }
    }

    /// What the master believes of `worker`.
    pub(crate) fn member(&self, worker: WorkerId) -> Member {
        self.members[worker.0 as usize]
    }

    /// Is `worker` on the roster?
    pub(crate) fn eligible(&self, worker: WorkerId) -> bool {
        self.member(worker).on_roster()
    }

    /// Is anyone on the roster?
    pub(crate) fn any_eligible(&self) -> bool {
        self.members.iter().any(|m| m.on_roster())
    }

    /// Is anyone believed live?
    pub(crate) fn any_live(&self) -> bool {
        self.members.iter().any(|m| m.live)
    }

    /// Move `worker` and mark the roster for a rebuild.
    fn set_member(&mut self, worker: WorkerId, live: bool, stage: Stage) {
        self.members[worker.0 as usize] = Member { live, stage };
        self.roster_dirty = true;
    }

    /// `worker`'s instance died: `Crash` commits, a fact. The master
    /// has not noticed yet — the worker stays on the roster until
    /// [`lose`](Self::lose). `false`: it was not believed live.
    pub(crate) fn crash(&mut self, now: SimTime, worker: WorkerId) -> bool {
        if !self.member(worker).live {
            return false;
        }
        self.m.worker_crashes.inc();
        self.commit(now, Some(worker), None, SchedEventKind::Crash);
        true
    }

    /// The master notices that `worker` is down: it leaves the roster
    /// and the scheduler hears `on_worker_failed`. `false`: it was not
    /// believed live.
    pub(crate) fn lose(&mut self, now: SimTime, worker: WorkerId) -> bool {
        let m = self.member(worker);
        if !m.live {
            return false;
        }
        self.set_member(worker, false, m.stage);
        self.decide(now, |s, ctx| s.on_worker_failed(worker, ctx));
        true
    }

    /// A fresh incarnation of a crashed `worker` is up: `Recover`
    /// commits, it is believed live again — back on the roster unless
    /// it drains — the scheduler hears `on_worker_recovered`, and it
    /// announces itself idle. `false`: it departed, and stays gone.
    pub(crate) fn recover(&mut self, now: SimTime, worker: WorkerId) -> bool {
        let m = self.member(worker);
        if m.stage == Stage::Departed {
            return false;
        }
        self.m.worker_recoveries.inc();
        self.set_member(worker, true, m.stage);
        self.commit(now, Some(worker), None, SchedEventKind::Recover);
        self.come_up(now, worker);
        true
    }

    /// A dormant `worker` joins: `WorkerJoined` commits and, to the
    /// scheduler, a join is a fresh worker's first appearance — heard
    /// and announced the way a recovery is. `false`: it is live
    /// already, or departed.
    pub(crate) fn join(&mut self, now: SimTime, worker: WorkerId) -> bool {
        let m = self.member(worker);
        if m.live || m.stage == Stage::Departed {
            return false;
        }
        self.set_member(worker, true, Stage::Serving);
        self.commit(now, Some(worker), None, SchedEventKind::WorkerJoined);
        self.come_up(now, worker);
        true
    }

    fn come_up(&mut self, now: SimTime, worker: WorkerId) {
        self.decide(now, |s, ctx| s.on_worker_recovered(worker, ctx));
        self.effects.push(Effect::Announce(worker));
    }

    /// `worker` starts draining: `WorkerDraining` commits, it leaves
    /// the roster, keeping what it holds, and the scheduler hears
    /// `on_worker_failed` (it takes nothing new). The driver removes it
    /// once it owes nothing. `false`: it drains or departed already.
    pub(crate) fn drain(&mut self, now: SimTime, worker: WorkerId) -> bool {
        let m = self.member(worker);
        if m.stage != Stage::Serving {
            return false;
        }
        self.set_member(worker, m.live, Stage::Draining);
        self.commit(now, Some(worker), None, SchedEventKind::WorkerDraining);
        self.decide(now, |s, ctx| s.on_worker_failed(worker, ctx));
        true
    }

    /// `worker` leaves for good — its drain completed, or it was
    /// removed outright: `WorkerRemoved` commits, once, and the
    /// scheduler hears `on_worker_failed`. `false`: it departed
    /// already.
    pub(crate) fn remove(&mut self, now: SimTime, worker: WorkerId) -> bool {
        if self.member(worker).stage == Stage::Departed {
            return false;
        }
        self.set_member(worker, false, Stage::Departed);
        self.commit(now, Some(worker), None, SchedEventKind::WorkerRemoved);
        self.decide(now, |s, ctx| s.on_worker_failed(worker, ctx));
        true
    }

    /// The contest tallies of every scheduler this run had.
    pub(crate) fn sched_stats(&self) -> SchedStats {
        let now = self.master.stats();
        SchedStats {
            contests_timed_out: now.contests_timed_out + self.carried.contests_timed_out,
            contests_fallback: now.contests_fallback + self.carried.contests_fallback,
        }
    }

    /// The effects the last decisions left, for the driver to carry
    /// out; hand the buffer back through [`put_effects`](Self::put_effects).
    pub(crate) fn take_effects(&mut self) -> Vec<Effect> {
        std::mem::take(&mut self.effects)
    }

    /// Return an emptied effect buffer for reuse.
    pub(crate) fn put_effects(&mut self, fx: Vec<Effect>) {
        debug_assert!(fx.is_empty() && self.effects.is_empty());
        self.effects = fx;
        self.solicited.clear();
    }

    /// The recipients of the [`Effect::Solicit`]s taken and not yet
    /// handed back, each at its `to` range.
    pub(crate) fn solicited(&self) -> &[WorkerId] {
        &self.solicited
    }

    /// Run one scheduler callback at `now` over the roster and carry
    /// out its actions, commit before act, leaving an [`Effect`] per
    /// act. A crashed leader decides nothing: its callbacks are
    /// dropped and the elected standby rebuilds from the log instead.
    /// A decision whose append truncated performs nothing — the
    /// remaining actions are dropped and the standby's replay
    /// re-derives the work.
    pub(crate) fn decide<F>(&mut self, now: SimTime, f: F)
    where
        F: FnOnce(&mut dyn MasterScheduler, &mut SchedCtx),
    {
        if self.failover_pending {
            return;
        }
        let actions = self.consult(now, |s, ctx, _| f(s, ctx));
        self.carry_out(now, actions);
    }

    /// Run `f` over one context on the roster — rebuilt first if it
    /// changed — and hand back the actions it collected, with the
    /// contest tallies the scheduler moved meanwhile (`f` also sees
    /// every worker's standing).
    fn consult<F>(&mut self, now: SimTime, f: F) -> Consulted
    where
        F: FnOnce(&mut dyn MasterScheduler, &mut SchedCtx, &[Member]),
    {
        if self.roster_dirty {
            let on = self
                .workers
                .iter()
                .zip(&self.members)
                .filter(|(_, m)| m.on_roster());
            self.roster.clear();
            self.roster.extend(on.map(|(h, _)| h.clone()));
            self.roster_dirty = false;
        }
        // Contest decisions (timeout / fallback) happen inside the
        // scheduler; its stats, diffed around the call, attribute them
        // to the close it emits.
        let before = self.master.stats();
        let buf = std::mem::take(&mut self.actions);
        let mut ctx =
            SchedCtx::reusing(now, &self.roster, &mut self.rng, &mut self.next_token, buf);
        f(self.master.as_mut(), &mut ctx, &self.members);
        let actions = ctx.take_actions();
        let after = self.master.stats();
        let timed_out = after.contests_timed_out - before.contests_timed_out;
        let fallback = after.contests_fallback - before.contests_fallback;
        self.m.contests_timed_out.add(timed_out);
        self.m.contests_fallback.add(fallback);
        Consulted {
            actions,
            timed_out,
            fallback,
        }
    }

    /// Carry out what [`consult`](Self::consult) collected, in order,
    /// until a decision truncates.
    fn carry_out(&mut self, now: SimTime, c: Consulted) {
        let Consulted {
            mut actions,
            mut timed_out,
            mut fallback,
        } = c;
        for action in actions.drain(..) {
            if self.failover_pending || !self.act(now, action, &mut timed_out, &mut fallback) {
                break;
            }
        }
        self.actions = actions;
    }

    /// Carry out one action; `false` when its decision truncated.
    fn act(
        &mut self,
        now: SimTime,
        action: SchedAction,
        timed_out: &mut u64,
        fallback: &mut u64,
    ) -> bool {
        match action {
            SchedAction::Assign { worker, job } => {
                if self.open_contests.contains_key(&job.id) {
                    // This assignment decides a contest. The stats
                    // deltas belong to the first contest closed in the
                    // batch (at most one closes per callback in
                    // practice).
                    let (t, f) = (*timed_out > 0, *fallback > 0);
                    if !self.close_contest(now, Some(worker), job.id, t, f) {
                        return false;
                    }
                    (*timed_out, *fallback) = (0, 0);
                    if let Some(mut c) = self.open_contests.remove(&job.id) {
                        c.bidders.clear();
                        self.spare_bidders.push(c.bidders);
                    }
                }
                self.place_effect(now, worker, job, false)
            }
            SchedAction::Offer { worker, job } => self.place_effect(now, worker, job, true),
            SchedAction::BroadcastBidRequest { job } => {
                if !self.commit(now, None, Some(job.id), SchedEventKind::ContestOpened) {
                    return false;
                }
                self.m.contests_opened.inc();
                let bidders = self
                    .spare_bidders
                    .pop()
                    .unwrap_or_else(|| WorkerSet::with_capacity(self.workers.len()));
                let contest = OpenContest {
                    opened: now,
                    bidders,
                };
                self.open_contests.insert(job.id, contest);
                let start = self.solicited.len();
                self.solicited.extend(self.roster.iter().map(|h| h.id));
                let to = start..self.solicited.len();
                self.effects.push(Effect::Solicit { job, to });
                true
            }
            SchedAction::Timer { delay, token } => {
                self.effects.push(Effect::Timer { delay, token });
                true
            }
        }
    }

    /// [`place`](Self::place) `job` on `worker` and leave what it
    /// became for the driver; `false` when the record truncated.
    fn place_effect(&mut self, now: SimTime, worker: WorkerId, job: Job, offer: bool) -> bool {
        match self.place(now, worker, job, offer) {
            Placed::Send(d) => self.effects.push(Effect::Send(d)),
            Placed::Truncated => return false,
            Placed::Completed if offer => self.effects.push(Effect::Repool(worker)),
            Placed::Completed => {}
        }
        true
    }

    /// The master's intake of one worker message (`seq`: the placement
    /// a `Reject` answers). A reject that does not match the placement
    /// on the ledger is a stale or duplicate delivery and goes no
    /// further — forwarding it would double-advance the Baseline's
    /// re-offer routing; one that matches commits `Rejected` here, at
    /// receipt, so the log reflects exactly what the master has seen.
    /// A bid is a round of one ([`take_bids`](Self::take_bids)). A
    /// draining or departed worker is out of allocation: its `Idle` and
    /// its bids go no further (it must not re-enter the pull loop or
    /// win a contest), while its rejects still flow — the job must
    /// re-enter allocation.
    pub(crate) fn receive(&mut self, now: SimTime, from: WorkerId, msg: WorkerToMaster, seq: u64) {
        let serving = self.member(from).stage == Stage::Serving;
        match &msg {
            WorkerToMaster::Idle if !serving => return,
            WorkerToMaster::Reject { job } => {
                if !self.settle(job.id, Settle::Bounced(from, seq)) {
                    return;
                }
                self.commit(now, Some(from), Some(job.id), SchedEventKind::Rejected);
            }
            &WorkerToMaster::Bid { job, estimate_secs } => {
                self.take_bids(now, job, &[(from, estimate_secs)]);
                return;
            }
            WorkerToMaster::Idle => {}
        }
        self.decide(now, |m, ctx| m.on_worker_message(from, msg, ctx));
    }

    /// The master's intake of `bids` on `job`, in arrival order: it
    /// takes a prefix of them and returns its length, and the driver
    /// carries out the effects before it passes the rest to the next
    /// call. The scheduler hears the bids through one context, up to
    /// and including the first it acts on; then the prefix passes the
    /// [gate](Self::gate) and only then are the actions carried out —
    /// so the log, the effects and the scheduler's state are what one
    /// call per bid, gate then decide, leaves. The one difference would
    /// be a crash inside the gate, after which the scheduler must not
    /// hear the bid: where the gate's appends could reach an armed
    /// crash index, or a crash is already pending, a call takes one bid
    /// in that order.
    pub(crate) fn take_bids(
        &mut self,
        now: SimTime,
        job: JobId,
        bids: &[(WorkerId, f64)],
    ) -> usize {
        let left = self
            .log
            .as_ref()
            .and_then(ReplicatedLog::appends_before_crash);
        let cap = left.map_or(bids.len(), |left| (left / GATE_APPENDS) as usize);
        if cap == 0 || self.failover_pending {
            let (from, estimate_secs) = bids[0];
            if self.member(from).stage == Stage::Serving {
                self.gate(now, job, &bids[..1]);
                let bid = WorkerToMaster::Bid { job, estimate_secs };
                self.decide(now, |m, ctx| m.on_worker_message(from, bid, ctx));
            }
            return 1;
        }
        let mut taken = 0;
        let consulted = self.consult(now, |s, ctx, members| {
            for &(from, estimate_secs) in bids.iter().take(cap) {
                taken += 1;
                if members[from.0 as usize].stage != Stage::Serving {
                    continue;
                }
                s.on_worker_message(from, WorkerToMaster::Bid { job, estimate_secs }, ctx);
                if ctx.holds_actions() {
                    break;
                }
            }
        });
        self.gate(now, job, &bids[..taken]);
        self.carry_out(now, consulted);
        taken
    }

    /// Commit `BidReceived` for each fresh, finite bid of a serving
    /// worker in `bids` into `job`'s open contest, in order. A late bid
    /// (its contest already closed) or a duplicate is received but
    /// never committed, matching what the scheduler counts.
    fn gate(&mut self, now: SimTime, job: JobId, bids: &[(WorkerId, f64)]) {
        let mutation = self.mutation;
        let finite_only = mutation != ProtocolMutation::AcceptNonFiniteBids;
        let dup_ok = mutation == ProtocolMutation::AcceptDuplicateBids;
        let mut contest = self.open_contests.get_mut(&job);
        for &(from, estimate_secs) in bids {
            let serving = self.members[from.0 as usize].stage == Stage::Serving;
            if !serving || (finite_only && !estimate_secs.is_finite()) {
                continue;
            }
            let fresh = contest
                .as_mut()
                .and_then(|c| (c.bidders.insert(from) || dup_ok).then_some(c.opened));
            let Some(opened) = fresh else {
                if mutation == ProtocolMutation::AcceptLateBids {
                    // The reintroduced bug: the late bidder steals the job.
                    if let Some(placed) = self.placed_job(job) {
                        let bid = SchedEventKind::BidReceived { estimate_secs };
                        self.commit(now, Some(from), Some(job), bid);
                        self.place_effect(now, from, placed, false);
                    }
                    contest = self.open_contests.get_mut(&job);
                }
                continue;
            };
            self.m.bids_received.inc();
            let waited = now.saturating_since(opened).as_secs_f64();
            self.m.bid_latency_secs.record(waited);
            let ev = SchedEvent {
                at: now,
                worker: Some(from),
                job: Some(job),
                kind: SchedEventKind::BidReceived { estimate_secs },
            };
            append(&mut self.log, &mut self.failover_pending, &self.m, ev);
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

    /// The committed log so far.
    #[cfg(test)]
    pub(crate) fn log(&self) -> &SchedLog {
        self.log.as_ref().expect("a logged core").log()
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
        let ev = SchedEvent {
            at,
            worker,
            job,
            kind,
        };
        append(&mut self.log, &mut self.failover_pending, &self.m, ev)
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

    /// An external arrival enters allocation: a plain job goes to the
    /// scheduler, an atomized one's gate-open tasks are released.
    /// `true`: it was atomized.
    pub(crate) fn arrive(&mut self, now: SimTime, spec: JobSpec) -> bool {
        match self.admit(now, spec) {
            Admitted::Job(job) => {
                self.decide(now, |m, ctx| m.on_job(job, ctx));
                false
            }
            Admitted::Dag { root, released } => {
                for (task, spec) in released {
                    self.offer_task(now, root, task, spec);
                }
                true
            }
        }
    }

    /// [`release_task`](Self::release_task) a gate-open task and hand
    /// it to the scheduler; a truncated release is dropped with the
    /// leader.
    pub(crate) fn offer_task(&mut self, now: SimTime, root: JobId, task: u32, spec: JobSpec) {
        if let Some(job) = self.release_task(now, root, task, spec, false) {
            self.decide(now, |m, ctx| m.on_job(job, ctx));
        }
    }

    /// What `worker`'s counted report of `job` sets in motion, once the
    /// driver materialized an effective task's output: a plain job's
    /// task logic runs in `workflow` and what it emits enters
    /// allocation; a task's race losers are cancelled and the tasks it
    /// released are offered; then the scheduler hears `on_job_done`.
    pub(crate) fn follow_up(
        &mut self,
        now: SimTime,
        worker: WorkerId,
        job: &Job,
        outcome: DoneOutcome,
        workflow: &mut Workflow,
    ) {
        match outcome {
            DoneOutcome::NotTask => {
                let mut out: Vec<JobSpec> = Vec::new();
                let ctx = TaskCtx { now, worker };
                workflow.logic_mut(job.task).process(job, &ctx, &mut out);
                for spec in out {
                    debug_assert!(workflow.contains(spec.task), "unknown task target");
                    debug_assert!(
                        workflow.allows(job.task, spec.task),
                        "task {:?} emitted a job for {:?} outside the declared channels",
                        job.task,
                        spec.task
                    );
                    let spawned = self.spawn(now, spec);
                    self.decide(now, |m, ctx| m.on_job(spawned, ctx));
                }
            }
            // A second completion of an already-done task (both
            // attempts raced to Done, or the loser's `SpecCancel`
            // never committed): only the first was effective.
            DoneOutcome::Swallowed => {}
            DoneOutcome::Effective {
                root,
                task,
                released,
                losers,
                ..
            } => {
                // Exactly-once accounting: a loser is retired at
                // cancellation, and its eventual report is swallowed.
                for loser in losers {
                    self.cancel_loser(now, loser, root, task);
                }
                for (idx, spec) in released {
                    self.offer_task(now, root, idx, spec);
                }
            }
        }
        self.decide(now, |m, ctx| m.on_job_done(worker, job, ctx));
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

    /// Record that `job`'s contest closed in favour of a placement
    /// about to be recorded on `worker`.
    fn close_contest(
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
    /// and the attempt's straggler clock for a DAG task job — then put
    /// it on the ledger under a fresh seq with its first retransmission
    /// and its lease armed. A completed or cancelled job is never
    /// placed again; refusing a cancelled one settles it, since no
    /// report of it will come.
    pub(crate) fn place(
        &mut self,
        now: SimTime,
        worker: WorkerId,
        job: Job,
        offer: bool,
    ) -> Placed {
        if self.is_done(job.id) || self.dag.take_cancelled(job.id) {
            return Placed::Completed;
        }
        let kind = if offer {
            SchedEventKind::Offered
        } else {
            SchedEventKind::Assigned
        };
        if !self.commit(now, Some(worker), Some(job.id), kind) {
            return Placed::Truncated;
        }
        self.dag.on_placed(job.id, now.as_secs_f64());
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
            sent.lease = after(
                now,
                (self.mutation != ProtocolMutation::NoLeases).then_some(retry.lease_secs),
            );
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
        let acked = self.mutation != ProtocolMutation::IgnoreAcks;
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

    /// `worker` crashed or left, and `stranded` — its job in hand and
    /// its queue, in queue order — with it. Returns what re-enters
    /// allocation. Without a ledger every report arrives, so that is
    /// exactly `stranded`. With one, every placement at `worker` made
    /// before `placed_before` (all of them on `None`) leaves the
    /// ledger, acked or not — an acked job whose `Done` never arrived
    /// is owed too — and what is owed, completed and cancelled jobs
    /// aside, comes back in two runs: first the placements that never
    /// reached the worker's queue (unacked, or acked with the `Done`
    /// lost), by id, then the stranded jobs still on the books, in
    /// queue order, each once. A queued copy the ledger has since
    /// placed elsewhere, or seen complete, stays put.
    pub(crate) fn reclaim(
        &mut self,
        worker: WorkerId,
        placed_before: Option<SimTime>,
        stranded: Vec<Job>,
    ) -> Vec<Job> {
        let Some(Ledger {
            placements, done, ..
        }) = &mut self.ledger
        else {
            return stranded;
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
        let owed: Vec<Job> = ids
            .into_iter()
            .filter_map(|id| placements.remove(&id))
            .filter(|p| !done.contains(&p.sent.job.id) && !self.dag.is_cancelled(p.sent.job.id))
            .map(|p| p.sent.job)
            .collect();
        let held: IdSet<JobId> = stranded.iter().map(|j| j.id).collect();
        let mut on_books: IdSet<JobId> = owed.iter().map(|j| j.id).collect();
        let unreached = owed.into_iter().filter(|j| !held.contains(&j.id));
        // Once each: a stale copy queued twice is owed once.
        let queued = stranded.into_iter().filter(|j| on_books.remove(&j.id));
        unreached.chain(queued).collect()
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
        if !first && self.mutation != ProtocolMutation::DropDedup {
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
    /// into a [`SchedState`], seat `fresh` — the standby's own
    /// scheduler, carrying the dead one's contest tallies — and hand
    /// back the work that is owed, for the driver to re-enter in this
    /// order — every submitted-but-unplaced job, by id, with its
    /// retained payload, then every releasable task whose `TaskOffer`
    /// never committed, by `(root, task)`, for
    /// [`release_task`](Self::release_task) (this includes a DAG none
    /// of whose tasks was ever offered, which the log does not know
    /// exists). Contests open at the crash were decided by nobody: they
    /// are forgotten, and re-open when their jobs re-enter. Rejection
    /// routing (the Baseline's "avoid the rejector on re-offer")
    /// survives through the log. Placed jobs are left alone: their
    /// worker (or the ledger's lease) still owns them — and a ledger
    /// entry the log cannot prove is dropped, its job being one of the
    /// unplaced.
    pub(crate) fn takeover(&mut self, now: SimTime, fresh: Box<dyn MasterScheduler>) -> Takeover {
        self.failover_pending = false;
        let log = self
            .log
            .as_mut()
            .expect("failover without a replicated log");
        let (_term, state, entries) = log.failover(now);
        self.m.master_failovers.inc();
        self.m.replay_entries.add(entries);
        self.carried = self.sched_stats();
        self.master = mutation::scheduler(self.mutation, fresh);
        self.open_contests.clear();
        for (job, w) in state.rejections() {
            self.master.restore_rejection(job, w);
        }
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

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, VecDeque};

    use crossbid_simcore::SimDuration;
    use crossbid_storage::ObjectId;
    use proptest::prelude::*;

    use super::*;
    use crate::atomize::{TaskDag, TaskNode};
    use crate::baseline::BaselineMaster;
    use crate::faults::MasterFaultPlan;
    use crate::job::{FedIdentity, Payload, ResourceRef, TaskId};
    use crate::replog::SchedState;

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
            Box::new(BaselineMaster::new()),
            Vec::new(),
            RngStream::from_seed(0),
            ProtocolMutation::None,
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
        bound: Vec<Option<(JobId, u32)>>,
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
        /// Losers whose `SpecCancel` committed.
        cancelled: BTreeSet<JobId>,
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
                cancelled: BTreeSet::new(),
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
                } = self
                    .core
                    .takeover(self.now, Box::new(BaselineMaster::new()));
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
                let id = job.id;
                match self.core.place(self.now, W, job, false) {
                    Placed::Send(d) => {
                        self.sent.insert(d.job.id);
                        self.running.push(d.job);
                    }
                    Placed::Truncated => {
                        // Dropped with the leader; the standby re-enters it.
                        assert_eq!(self.marks(), before, "a truncated placement left a mark");
                        return self.settle();
                    }
                    // Only a cancelled replica still queued is refused.
                    Placed::Completed => assert!(
                        self.cancelled.contains(&id),
                        "a queued job was already complete"
                    ),
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
                                    self.cancelled.insert(loser);
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
        let baseline = Box::new(BaselineMaster::new());
        let rng = RngStream::from_seed(0);
        let atomize = AtomizeConfig::default();
        let mut core = MasterCore::new(
            None,
            ShardId(0),
            atomize,
            false,
            None,
            m,
            baseline,
            Vec::new(),
            rng,
            ProtocolMutation::None,
        );
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
            let baseline = Box::new(BaselineMaster::new());
            let rng = RngStream::from_seed(0);
            let mut core = MasterCore::new(
                Some(log),
                ShardId(0),
                atomize,
                false,
                Some(&plan),
                m,
                baseline,
                Vec::new(),
                rng,
                ProtocolMutation::None,
            );
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
                            Placed::Truncated => prop_assert!(false, "no master fault is armed"),
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
                        let back: Vec<JobId> =
                            core.reclaim(w, cut, Vec::new()).iter().map(|j| j.id).collect();
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

    /// One input to the decision path. `pick`s choose among what
    /// exists when the input is applied (jobs, armed timers, current
    /// placements), so stale and repeated inputs are drawn as well as
    /// fresh ones.
    #[derive(Debug, Clone)]
    enum Input {
        /// A job arrives.
        Job,
        /// `worker` bids `est` on the `pick`th job: `kind` 0 is a
        /// finite bid, 1 a NaN, 2 the same bid delivered twice, 3 a
        /// bid on a job already placed.
        Bid {
            pick: usize,
            worker: u32,
            kind: u8,
            est: u16,
        },
        /// The `pick`th armed timer fires.
        Timer { pick: usize },
        /// The `pick`th placement bounces back from its worker.
        Reject { pick: usize },
        /// `worker` announces itself idle.
        Idle { worker: u32 },
        /// The `pick`th placement's worker reports it done.
        Done { pick: usize },
        /// `worker` leaves the roster, or rejoins it and announces
        /// itself idle.
        Roster { worker: u32, on: bool },
    }

    fn input() -> impl Strategy<Value = Input> {
        let raw = (0u8..14, 0usize..64, 0u32..3, 0u8..4, 1u16..500);
        raw.prop_map(|(op, pick, worker, kind, est)| match op {
            0..=2 => Input::Job,
            3..=6 => Input::Bid {
                pick,
                worker,
                kind,
                est,
            },
            7 | 8 => Input::Timer { pick },
            9 => Input::Reject { pick },
            10 => Input::Idle { worker },
            11 | 12 => Input::Done { pick },
            _ => Input::Roster {
                worker,
                on: pick % 2 == 0,
            },
        })
    }

    /// The scheduler under test: Listing 1 with serialized or
    /// concurrent contests, or the Baseline.
    fn scheduler(which: u8) -> Box<dyn MasterScheduler> {
        match which {
            0 | 1 => Box::new(crate::bidding::BiddingMaster::new(
                crate::bidding::BiddingConfig {
                    serialize_contests: which == 0,
                    ..crate::bidding::BiddingConfig::default()
                },
            )),
            _ => Box::new(BaselineMaster::new()),
        }
    }

    /// A driver with no runtime: effects are applied on the spot, and
    /// every input's effects are held against what it committed.
    struct Decider {
        core: MasterCore,
        which: u8,
        crash_at: Option<u64>,
        now: SimTime,
        jobs: Vec<Job>,
        tokens: Vec<u64>,
        /// Placements sent and not yet reported or bounced:
        /// `(job, worker, seq)`.
        placed: Vec<(Job, WorkerId, u64)>,
    }

    impl Decider {
        fn new(which: u8, crash_at: Option<u64>, mutation: ProtocolMutation) -> Self {
            let mut plan = MasterFaultPlan::new();
            if let Some(k) = crash_at {
                plan = plan.crash_at(k);
            }
            let workers = (0..3)
                .map(|i| WorkerHandle {
                    id: WorkerId(i),
                    name: format!("w{i}"),
                })
                .collect();
            let core = MasterCore::new(
                Some(ReplicatedLog::new(&plan)),
                ShardId(0),
                AtomizeConfig::default(),
                true,
                Some(&NetFaultPlan::none()),
                RuntimeMetrics::from_sink(None),
                scheduler(which),
                workers,
                RngStream::from_seed(7),
                mutation,
            );
            Decider {
                core,
                which,
                crash_at,
                now: SimTime::ZERO,
                jobs: Vec::new(),
                tokens: Vec::new(),
                placed: Vec::new(),
            }
        }

        fn bid(&mut self, worker: u32, job: JobId, est: f64) {
            let bid = WorkerToMaster::Bid {
                job,
                estimate_secs: est,
            };
            self.core.receive(self.now, WorkerId(worker), bid, 0);
        }

        fn apply(&mut self, input: Input) {
            let now = self.now;
            match input {
                Input::Job => {
                    let spec = JobSpec::compute(TaskId(0), 1.0, Payload::None);
                    if let Admitted::Job(job) = self.core.admit(now, spec) {
                        self.jobs.push(job.clone());
                        self.core.decide(now, |m, ctx| m.on_job(job, ctx));
                    }
                }
                Input::Bid {
                    pick,
                    worker,
                    kind,
                    est,
                } => {
                    let job = match kind {
                        3 if !self.placed.is_empty() => self.placed[pick % self.placed.len()].0.id,
                        _ if !self.jobs.is_empty() => self.jobs[pick % self.jobs.len()].id,
                        _ => return,
                    };
                    let est = if kind == 1 { f64::NAN } else { f64::from(est) };
                    self.bid(worker, job, est);
                    if kind == 2 {
                        self.bid(worker, job, est);
                    }
                }
                Input::Timer { pick } => {
                    if !self.tokens.is_empty() {
                        let token = self.tokens.remove(pick % self.tokens.len());
                        self.core.decide(now, |m, ctx| m.on_timer(token, ctx));
                    }
                }
                Input::Reject { pick } => {
                    if !self.placed.is_empty() {
                        let (job, w, seq) = self.placed.remove(pick % self.placed.len());
                        let reject = WorkerToMaster::Reject { job };
                        self.core.receive(now, w, reject, seq);
                    }
                }
                Input::Idle { worker } => {
                    self.core
                        .receive(now, WorkerId(worker), WorkerToMaster::Idle, 0);
                }
                Input::Done { pick } => {
                    if !self.placed.is_empty() {
                        let (job, w, _) = self.placed.remove(pick % self.placed.len());
                        self.core.settle(job.id, Settle::Done);
                        if let Completion::Counted(_) = self.core.complete(now, w, job.id) {
                            self.core.decide(now, |m, ctx| m.on_job_done(w, &job, ctx));
                        }
                    }
                }
                Input::Roster { worker, on } => {
                    let w = WorkerId(worker);
                    if on {
                        self.core.recover(now, w);
                    } else if self.core.crash(now, w) {
                        self.core.lose(now, w);
                    }
                }
            }
        }

        /// Apply `input` and carry out what it decided.
        fn step(&mut self, input: Input) -> Result<(), String> {
            self.now += SimDuration::from_millis(1);
            let before = self.core.log_len();
            self.apply(input);
            self.carry_out(before)
        }

        /// Hold the effects left since the log was `before` entries
        /// long against the entries committed since, carry them out,
        /// and take over after a crash.
        fn carry_out(&mut self, before: usize) -> Result<(), String> {
            let log = self.core.log.as_ref().expect("logged").log();
            let committed: Vec<SchedEvent> = log.events().skip(before).collect();
            let placed = |job: JobId, w: WorkerId, offer: bool| {
                let kind = if offer {
                    SchedEventKind::Offered
                } else {
                    SchedEventKind::Assigned
                };
                committed
                    .iter()
                    .any(|e| e.job == Some(job) && e.worker == Some(w) && e.kind == kind)
            };
            let opened = |job: JobId| {
                committed
                    .iter()
                    .any(|e| e.job == Some(job) && e.kind == SchedEventKind::ContestOpened)
            };
            let mut repooled = Vec::new();
            let mut fx = self.core.take_effects();
            for e in fx.drain(..) {
                match e {
                    Effect::Send(d) => {
                        if !placed(d.job.id, d.worker, d.offer) {
                            return Err(format!("{:?} sent uncommitted", d.job.id));
                        }
                        self.placed.retain(|(j, _, _)| j.id != d.job.id);
                        self.placed.push((d.job, d.worker, d.seq));
                    }
                    Effect::Solicit { job, to } => {
                        let on = self.core.solicited()[to]
                            .iter()
                            .all(|&w| self.core.eligible(w));
                        if !opened(job.id) || !on {
                            return Err(format!("{:?} solicited off a contest", job.id));
                        }
                    }
                    Effect::Timer { token, .. } => self.tokens.push(token),
                    Effect::Repool(w) | Effect::Announce(w) => repooled.push(w),
                }
            }
            self.core.put_effects(fx);
            if self.core.failover_pending() {
                // The append that crashed was the input's last.
                let appends = self.core.log.as_ref().expect("logged").appends();
                if Some(appends) != self.crash_at {
                    return Err(format!(
                        "{appends} appends after a crash at {:?}",
                        self.crash_at
                    ));
                }
                let Takeover { unplaced, .. } = self.core.takeover(self.now, scheduler(self.which));
                let before = self.core.log_len();
                for job in unplaced {
                    self.core.decide(self.now, |m, ctx| m.on_job(job, ctx));
                }
                return self.carry_out(before);
            }
            for w in repooled {
                self.step(Input::Idle { worker: w.0 })?;
            }
            Ok(())
        }
    }

    /// The rules the committed log must keep: a contest closes at most
    /// once per opening, and `BidReceived` is committed only for a
    /// fresh, finite bid into an open contest.
    fn log_keeps_its_rules(log: &SchedLog) -> Result<(), String> {
        let mut open: HashMap<JobId, BTreeSet<WorkerId>> = HashMap::new();
        for e in log.events() {
            let Some(job) = e.job else { continue };
            match e.kind {
                SchedEventKind::ContestOpened => {
                    open.insert(job, BTreeSet::new());
                }
                SchedEventKind::ContestClosed { .. } if open.remove(&job).is_none() => {
                    return Err(format!("{job:?} closed without an open contest"));
                }
                SchedEventKind::BidReceived { estimate_secs } => {
                    let w = e.worker.expect("a bid names its worker");
                    let Some(bidders) = open.get_mut(&job) else {
                        return Err(format!("{job:?}: a bid from {w:?} outside a contest"));
                    };
                    if !estimate_secs.is_finite() || !bidders.insert(w) {
                        return Err(format!("{job:?}: {w:?}'s bid {estimate_secs} committed"));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn drive(
        which: u8,
        crash_at: Option<u64>,
        mutation: ProtocolMutation,
        inputs: &[Input],
    ) -> Result<(), String> {
        let mut d = Decider::new(which, crash_at, mutation);
        for input in inputs {
            d.step(input.clone())?;
        }
        log_keeps_its_rules(d.core.log.as_ref().expect("logged").log())
    }

    fn inputs() -> impl Strategy<Value = Vec<Input>> {
        proptest::collection::vec(input(), 1..80)
    }

    proptest! {
        /// Random jobs, bids (finite, NaN, duplicate, late), timers,
        /// rejects, idle announcements, roster changes and a crash at
        /// any append index, through the core under Listing 1
        /// (serialized and concurrent) and the Baseline: every effect
        /// follows its commit, none follows a truncated decision, and
        /// the log keeps the contest and bid-gate rules.
        #[test]
        fn the_decision_path_keeps_its_rules(
            which in 0u8..3,
            crash_at in proptest::option::of(1u64..60),
            inputs in inputs(),
        ) {
            let kept = drive(which, crash_at, ProtocolMutation::None, &inputs);
            prop_assert!(kept.is_ok(), "{}", kept.unwrap_err());
        }
    }

    /// One bid round on a DAG task's contest under Listing 1
    /// (serialized, short-circuited or not), with a crash armed at
    /// append `crash_at`: a drained worker's bid sits in the round, and
    /// a plain job waits for the next contest. Fed `whole` the way the
    /// sim takes a round — [`MasterCore::take_bids`] on what is left,
    /// a takeover before the next intake — or one bid at a time in the
    /// order the master took bids before rounds existed: the gate
    /// commits, then the scheduler decides. Returns the appends made
    /// before the round and what it left: every effect in order, how
    /// many bids were in before each takeover, and the committed log.
    fn round_across_a_crash(
        crash_at: u64,
        short_circuit: Option<f64>,
        whole: bool,
    ) -> (u64, Vec<String>) {
        use crate::bidding::{BiddingConfig, BiddingMaster};

        let cfg = BiddingConfig {
            short_circuit_below: short_circuit,
            serialize_contests: true,
            ..BiddingConfig::default()
        };
        let fresh = || Box::new(BiddingMaster::new(cfg.clone())) as Box<dyn MasterScheduler>;
        let workers = (0..6)
            .map(|i| WorkerHandle {
                id: WorkerId(i),
                name: format!("w{i}"),
            })
            .collect();
        let mut core = MasterCore::new(
            Some(ReplicatedLog::new(
                &MasterFaultPlan::new().crash_at(crash_at),
            )),
            ShardId(0),
            AtomizeConfig::default(),
            true,
            Some(&NetFaultPlan::none()),
            RuntimeMetrics::from_sink(None),
            fresh(),
            workers,
            RngStream::from_seed(3),
            ProtocolMutation::None,
        );
        let t0 = SimTime::ZERO;
        let Admitted::Dag { root, released } =
            core.admit(t0, JobSpec::atomized(TaskId(0), diamond()))
        else {
            panic!("a DAG");
        };
        let (task, spec) = released.into_iter().next().expect("a source task");
        let contested = core
            .release_task(t0, root, task, spec, false)
            .expect("released");
        let job = contested.id;
        core.decide(t0, |m, ctx| m.on_job(contested, ctx));
        if let Admitted::Job(next) = core.admit(t0, JobSpec::compute(TaskId(0), 1.0, Payload::None))
        {
            core.decide(t0, |m, ctx| m.on_job(next, ctx));
        }
        core.drain(t0, WorkerId(4));
        let mut fx = core.take_effects();
        fx.clear();
        core.put_effects(fx);

        let before = core.log.as_ref().expect("logged").appends();
        let now = SimTime::from_millis(1);
        let round: Vec<(WorkerId, f64)> = [9.0, 7.0, 3.0, 8.0, 1.0, 6.0]
            .into_iter()
            .enumerate()
            .map(|(w, est)| (WorkerId(w as u32), est))
            .collect();
        let mut seen = Vec::new();
        let mut taken = 0;
        while taken < round.len() {
            if core.failover_pending() {
                seen.push(format!("takeover after {taken} bids"));
                let Takeover { unplaced, .. } = core.takeover(now, fresh());
                for j in unplaced {
                    core.decide(now, |m, ctx| m.on_job(j, ctx));
                }
            }
            if whole {
                taken += core.take_bids(now, job, &round[taken..]);
            } else {
                let (from, estimate_secs) = round[taken];
                if core.member(from).stage == Stage::Serving {
                    core.gate(now, job, &round[taken..=taken]);
                    let bid = WorkerToMaster::Bid { job, estimate_secs };
                    core.decide(now, |m, ctx| m.on_worker_message(from, bid, ctx));
                }
                taken += 1;
            }
            let mut fx = core.take_effects();
            for e in fx.drain(..) {
                seen.push(match e {
                    Effect::Send(d) => format!("send {:?} to {:?}", d.job.id, d.worker),
                    Effect::Solicit { job, to } => {
                        format!("solicit {job:?} from {:?}", &core.solicited()[to])
                    }
                    Effect::Timer { delay, token } => format!("timer {token} in {delay:?}"),
                    Effect::Repool(w) => format!("repool {w:?}"),
                    Effect::Announce(w) => format!("announce {w:?}"),
                });
            }
            core.put_effects(fx);
        }
        seen.extend(core.log().events().map(|e| format!("{e:?}")));
        (before, seen)
    }

    /// A round that straddles an armed crash index is taken exactly as
    /// its bids fed one at a time are: the same log, the same bid the
    /// standby takes over at, the same effects — at every crash index
    /// from the round's first append to one past its last.
    #[test]
    fn a_round_across_a_crash_is_taken_as_its_bids_would_be() {
        for short_circuit in [None, Some(5.0)] {
            let (setup, clean) = round_across_a_crash(u64::MAX, short_circuit, false);
            let appends = clean.iter().filter(|e| e.starts_with("SchedEvent")).count();
            let mut crossed = 0;
            for crash_at in setup + 1..=appends as u64 + 1 {
                let one = round_across_a_crash(crash_at, short_circuit, false);
                let whole = round_across_a_crash(crash_at, short_circuit, true);
                assert_eq!(
                    whole, one,
                    "crash at {crash_at}, short circuit {short_circuit:?}"
                );
                crossed += usize::from(one.1.iter().any(|e| e.starts_with("takeover after 2")));
            }
            assert!(crossed > 0, "no crash fell between two bids of the round");
        }
    }

    /// Each mutation of the bid gate fails the property above on some
    /// case it generates.
    #[test]
    fn each_bid_gate_sabotage_breaks_the_decision_path_rules() {
        use proptest::test_runner::TestRng;

        for gate in [
            ProtocolMutation::AcceptNonFiniteBids,
            ProtocolMutation::AcceptDuplicateBids,
            ProtocolMutation::AcceptLateBids,
        ] {
            let mut rng = TestRng::from_name("the_decision_path_keeps_its_rules");
            let caught = (0..256).any(|_| {
                let case = inputs().sample(&mut rng);
                (0..2).any(|which| drive(which, None, gate, &case).is_err())
            });
            assert!(caught, "{gate:?} passed every case");
        }
    }

    /// One input to the membership property: the decision path's
    /// traffic interleaved with every roster transition. `pick`s choose
    /// among what exists when the input is applied.
    #[derive(Debug, Clone)]
    enum Churn {
        /// A job arrives: plain, or an atomized diamond.
        Job {
            dag: bool,
        },
        /// The straggler sweep runs.
        Sweep,
        Bid {
            pick: usize,
            worker: u32,
            est: u16,
        },
        Timer {
            pick: usize,
        },
        Idle {
            worker: u32,
        },
        /// The `pick`th placement's worker reports it done.
        Done {
            pick: usize,
        },
        /// The `pick`th placement bounces back from its worker.
        Reject {
            pick: usize,
        },
        /// The `pick`th placement is delivered again and queued twice.
        Dup {
            pick: usize,
        },
        Join {
            worker: u32,
        },
        Drain {
            worker: u32,
        },
        Remove {
            worker: u32,
        },
        /// The instance dies; the master notices at `Detect`.
        Crash {
            worker: u32,
        },
        Detect {
            worker: u32,
        },
        Recover {
            worker: u32,
        },
    }

    const CHURN_WORKERS: u32 = 4;

    /// What a transition returned, against what the shadow says.
    fn expect(w: WorkerId, what: &str, want: bool, got: bool) -> Result<(), String> {
        if want == got {
            Ok(())
        } else {
            Err(format!(
                "w{}: {what} returned {got}, the shadow says {want}",
                w.0
            ))
        }
    }

    fn churn() -> impl Strategy<Value = Churn> {
        let raw = (0u8..25, 0usize..64, 0..CHURN_WORKERS, 1u16..500);
        raw.prop_map(|(op, pick, worker, est)| match op {
            0..=2 => Churn::Job { dag: pick % 3 == 0 },
            3 => Churn::Sweep,
            4..=7 => Churn::Bid { pick, worker, est },
            8 | 9 => Churn::Timer { pick },
            10 | 11 => Churn::Idle { worker },
            12..=14 => Churn::Done { pick },
            15 => Churn::Reject { pick },
            16 => Churn::Join { worker },
            17 | 18 => Churn::Drain { worker },
            19 => Churn::Remove { worker },
            20 => Churn::Crash { worker },
            21 | 22 => Churn::Detect { worker },
            23 => Churn::Recover { worker },
            _ => Churn::Dup { pick },
        })
    }

    /// The test's own account of one worker: what the master should
    /// believe, and what its instance is doing.
    #[derive(Debug, Clone, Copy)]
    struct Shadow {
        live: bool,
        stage: Stage,
        /// The instance is up (dormant, crashed and departed ones are
        /// not).
        up: bool,
        /// It crashed and has not recovered.
        down: bool,
        /// When its current incarnation came up after a crash.
        recovered: Option<SimTime>,
    }

    /// A driver with no runtime over the core's membership: the worker
    /// instances are queues of delivered placements, effects are
    /// applied on the spot, and every rule is held against a shadow.
    struct Churner {
        core: MasterCore,
        wf: Workflow,
        task: TaskId,
        now: SimTime,
        jobs: Vec<JobId>,
        tokens: Vec<u64>,
        shadow: Vec<Shadow>,
        /// Each worker's delivered placements, in delivery order:
        /// what a crash strands.
        held: Vec<Vec<Job>>,
        /// The placement each job has on the books: `(worker, seq,
        /// placed_at)`.
        books: HashMap<JobId, (WorkerId, u64, SimTime)>,
        /// Crashes awaiting detection: when, and what each stranded.
        undetected: Vec<VecDeque<(SimTime, Vec<Job>)>>,
        completed: BTreeSet<JobId>,
        /// Every third placement is lost on the wire.
        lossy: bool,
    }

    impl Churner {
        fn new(which: u8, lossy: bool) -> Self {
            let mut wf = Workflow::new();
            let task = wf.add_sink("t");
            let workers = (0..CHURN_WORKERS)
                .map(|i| WorkerHandle {
                    id: WorkerId(i),
                    name: format!("w{i}"),
                })
                .collect();
            let atomize = AtomizeConfig {
                spec_factor: 0.1,
                min_completed_for_spec: 1,
                ..AtomizeConfig::default()
            };
            let mut core = MasterCore::new(
                Some(ReplicatedLog::new(&MasterFaultPlan::none())),
                ShardId(0),
                atomize,
                false,
                Some(&NetFaultPlan::none()),
                RuntimeMetrics::from_sink(None),
                scheduler(which),
                workers,
                RngStream::from_seed(11),
                ProtocolMutation::None,
            );
            // The last worker is deferred: dormant until it joins.
            let last = WorkerId(CHURN_WORKERS - 1);
            core.defer(&MembershipPlan::new().join_at(SimTime::ZERO, last));
            let shadow = (0..CHURN_WORKERS)
                .map(|i| {
                    let up = i != last.0;
                    Shadow {
                        live: up,
                        stage: Stage::Serving,
                        up,
                        down: false,
                        recovered: None,
                    }
                })
                .collect();
            let n = CHURN_WORKERS as usize;
            Churner {
                core,
                wf,
                task,
                now: SimTime::ZERO,
                jobs: Vec::new(),
                tokens: Vec::new(),
                shadow,
                held: vec![Vec::new(); n],
                books: HashMap::new(),
                undetected: vec![VecDeque::new(); n],
                completed: BTreeSet::new(),
                lossy,
            }
        }

        fn sh(&mut self, w: WorkerId) -> &mut Shadow {
            &mut self.shadow[w.0 as usize]
        }

        fn on_roster(&self, w: WorkerId) -> bool {
            let s = self.shadow[w.0 as usize];
            s.live && s.stage == Stage::Serving
        }

        /// Every placement on the books that `pick` can name.
        fn placements(&self) -> Vec<(JobId, WorkerId, u64)> {
            let mut v: Vec<_> = self
                .books
                .iter()
                .map(|(j, (w, s, _))| (*j, *w, *s))
                .collect();
            v.sort_unstable();
            v
        }

        fn forget(&mut self, job: JobId) {
            if let Some((w, ..)) = self.books.remove(&job) {
                self.held[w.0 as usize].retain(|j| j.id != job);
            }
        }

        /// `w`'s placements before `cut`, as `reclaim` must hand them
        /// back: the unreached ones by id, then the stranded ones in
        /// queue order — none completed, none cancelled.
        fn owed(&self, w: WorkerId, cut: Option<SimTime>, stranded: &[Job]) -> Vec<JobId> {
            let settled =
                |j: &JobId| self.completed.contains(j) || self.core.dag().is_cancelled(*j);
            let mut books: Vec<JobId> = (self.books.iter())
                .filter(|(_, (bw, _, at))| *bw == w && cut.is_none_or(|c| *at < c))
                .map(|(j, _)| *j)
                .filter(|j| !settled(j))
                .collect();
            books.sort_unstable();
            let held: BTreeSet<JobId> = stranded.iter().map(|j| j.id).collect();
            let unreached = books.iter().copied().filter(|j| !held.contains(j));
            let mut once = BTreeSet::new();
            let queued =
                (stranded.iter().map(|j| j.id)).filter(|j| books.contains(j) && once.insert(*j));
            unreached.chain(queued).collect()
        }

        /// Reclaim what `w` owed and re-enter it.
        fn reclaim(
            &mut self,
            w: WorkerId,
            cut: Option<SimTime>,
            stranded: Vec<Job>,
        ) -> Result<(), String> {
            let owed = self.owed(w, cut, &stranded);
            let back = self.core.reclaim(w, cut, stranded);
            let ids: Vec<JobId> = back.iter().map(|j| j.id).collect();
            if ids != owed {
                return Err(format!("w{}: reclaimed {ids:?}, owed {owed:?}", w.0));
            }
            let stale: Vec<JobId> = (self.books.iter())
                .filter(|(_, (bw, _, at))| *bw == w && cut.is_none_or(|c| *at < c))
                .map(|(j, _)| *j)
                .collect();
            for j in stale {
                self.forget(j);
            }
            for job in back {
                self.core.commit(
                    self.now,
                    Some(w),
                    Some(job.id),
                    SchedEventKind::Redistributed,
                );
                self.core.decide(self.now, |m, ctx| m.on_job(job, ctx));
            }
            Ok(())
        }

        /// A drainer that is up and has nothing on the books departs.
        fn finish_drain(&mut self, w: WorkerId) -> Result<(), String> {
            let s = self.shadow[w.0 as usize];
            let owes = self.books.values().any(|(bw, ..)| *bw == w);
            if s.stage != Stage::Draining || s.down || owes {
                return Ok(());
            }
            expect(w, "remove", true, self.core.remove(self.now, w))?;
            let sh = self.sh(w);
            (sh.live, sh.stage, sh.up) = (false, Stage::Departed, false);
            Ok(())
        }

        fn apply(&mut self, input: Churn) -> Result<(), String> {
            let now = self.now;
            match input {
                Churn::Job { dag } => {
                    let spec = if dag {
                        JobSpec::atomized(self.task, diamond())
                    } else {
                        JobSpec::compute(self.task, 1.0, Payload::None)
                    };
                    self.core.arrive(now, spec);
                }
                Churn::Sweep => {
                    if let Some(job) = self.core.launch_straggler(now) {
                        self.core.decide(now, |m, ctx| m.on_job(job, ctx));
                    }
                }
                Churn::Bid { pick, worker, est } => {
                    if !self.jobs.is_empty() {
                        let job = self.jobs[pick % self.jobs.len()];
                        let bid = WorkerToMaster::Bid {
                            job,
                            estimate_secs: f64::from(est),
                        };
                        self.core.receive(now, WorkerId(worker), bid, 0);
                    }
                }
                Churn::Timer { pick } => {
                    if !self.tokens.is_empty() {
                        let token = self.tokens.remove(pick % self.tokens.len());
                        self.core.decide(now, |m, ctx| m.on_timer(token, ctx));
                    }
                }
                Churn::Idle { worker } => {
                    self.core
                        .receive(now, WorkerId(worker), WorkerToMaster::Idle, 0);
                }
                Churn::Done { pick } => {
                    let all = self.placements();
                    if let Some(&(id, w, _)) = all.get(pick % all.len().max(1)) {
                        let job = self.held[w.0 as usize].iter().find(|j| j.id == id).cloned();
                        let Some(job) = job else { return Ok(()) };
                        self.forget(id);
                        self.core.settle(id, Settle::Done);
                        if let Completion::Counted(outcome) = self.core.complete(now, w, id) {
                            self.completed.insert(id);
                            self.core.follow_up(now, w, &job, outcome, &mut self.wf);
                        }
                        self.finish_drain(w)?;
                    }
                }
                Churn::Reject { pick } => {
                    let all = self.placements();
                    if let Some(&(id, w, seq)) = all.get(pick % all.len().max(1)) {
                        let job = self.held[w.0 as usize].iter().find(|j| j.id == id).cloned();
                        let Some(job) = job else { return Ok(()) };
                        self.forget(id);
                        self.core
                            .receive(now, w, WorkerToMaster::Reject { job }, seq);
                        self.finish_drain(w)?;
                    }
                }
                Churn::Dup { pick } => {
                    let all = self.placements();
                    if let Some(&(id, w, _)) = all.get(pick % all.len().max(1)) {
                        let held = &mut self.held[w.0 as usize];
                        if let Some(job) = held.iter().find(|j| j.id == id).cloned() {
                            held.push(job);
                        }
                    }
                }
                Churn::Join { worker } => {
                    let w = WorkerId(worker);
                    let s = self.shadow[worker as usize];
                    if s.down {
                        return Ok(());
                    }
                    let want = !s.live && s.stage != Stage::Departed;
                    expect(w, "join", want, self.core.join(now, w))?;
                    if want {
                        let sh = self.sh(w);
                        (sh.live, sh.stage, sh.up) = (true, Stage::Serving, true);
                    }
                }
                Churn::Drain { worker } => {
                    let w = WorkerId(worker);
                    let want = self.shadow[worker as usize].stage == Stage::Serving;
                    expect(w, "drain", want, self.core.drain(now, w))?;
                    if want {
                        self.sh(w).stage = Stage::Draining;
                        self.finish_drain(w)?;
                    }
                }
                Churn::Remove { worker } => {
                    let w = WorkerId(worker);
                    let want = self.shadow[worker as usize].stage != Stage::Departed;
                    expect(w, "remove", want, self.core.remove(now, w))?;
                    if want {
                        let stranded = std::mem::take(&mut self.held[worker as usize]);
                        let sh = self.sh(w);
                        (sh.live, sh.stage, sh.up, sh.down) =
                            (false, Stage::Departed, false, false);
                        self.reclaim(w, None, stranded)?;
                    }
                }
                Churn::Crash { worker } => {
                    let w = WorkerId(worker);
                    let s = self.shadow[worker as usize];
                    if s.down {
                        return Ok(());
                    }
                    expect(w, "crash", s.live, self.core.crash(now, w))?;
                    if s.live {
                        let stranded = std::mem::take(&mut self.held[worker as usize]);
                        let sh = self.sh(w);
                        (sh.up, sh.down) = (false, true);
                        self.undetected[worker as usize].push_back((now, stranded));
                    }
                }
                Churn::Detect { worker } => {
                    let w = WorkerId(worker);
                    let Some((crashed, stranded)) = self.undetected[worker as usize].pop_front()
                    else {
                        return Ok(());
                    };
                    let s = self.shadow[worker as usize];
                    let recovered = s.recovered.filter(|r| *r >= crashed);
                    if recovered.is_none() {
                        expect(w, "lose", s.live, self.core.lose(now, w))?;
                        self.sh(w).live = false;
                    }
                    self.reclaim(w, recovered, stranded)?;
                    self.finish_drain(w)?;
                }
                Churn::Recover { worker } => {
                    let w = WorkerId(worker);
                    let s = self.shadow[worker as usize];
                    if s.up {
                        return Ok(());
                    }
                    let want = s.stage != Stage::Departed;
                    expect(w, "recover", want, self.core.recover(now, w))?;
                    if want {
                        let sh = self.sh(w);
                        (sh.live, sh.up, sh.down, sh.recovered) = (true, true, false, Some(now));
                        self.finish_drain(w)?;
                    }
                }
            }
            Ok(())
        }

        /// Apply `input`, carry out what it decided, and hold the core
        /// to the rules.
        fn step(&mut self, input: Churn) -> Result<(), String> {
            self.now += SimDuration::from_millis(1);
            let before = self.core.log_len();
            let quiet = match input {
                Churn::Idle { worker } | Churn::Bid { worker, .. } => {
                    self.shadow[worker as usize].stage != Stage::Serving
                }
                _ => false,
            };
            self.apply(input)?;
            if quiet && (self.core.log_len() != before || !self.core.effects.is_empty()) {
                return Err("a draining or departed worker's Idle or Bid acted".into());
            }
            self.carry_out()?;
            for i in 0..CHURN_WORKERS {
                let w = WorkerId(i);
                if self.core.eligible(w) != self.on_roster(w) {
                    return Err(format!(
                        "w{i}: on the roster is {}, the shadow disagrees",
                        self.core.eligible(w)
                    ));
                }
            }
            if !self.core.roster_dirty {
                let roster: Vec<WorkerId> = self.core.roster.iter().map(|h| h.id).collect();
                let want: Vec<WorkerId> = (0..CHURN_WORKERS)
                    .map(WorkerId)
                    .filter(|&w| self.on_roster(w))
                    .collect();
                if roster != want {
                    return Err(format!("the scheduler's roster {roster:?}, want {want:?}"));
                }
            }
            Ok(())
        }

        /// Carry out the effects left: a placement lands in its worker's
        /// queue (or bounces off a dead instance), a bid request must
        /// reach a worker on the roster, a freshly up or repooled
        /// worker announces itself idle.
        fn carry_out(&mut self) -> Result<(), String> {
            loop {
                let mut fx = self.core.take_effects();
                if fx.is_empty() {
                    self.core.put_effects(fx);
                    return Ok(());
                }
                let (mut idle, mut bounced) = (Vec::new(), Vec::new());
                for e in fx.drain(..) {
                    match e {
                        Effect::Send(d) => {
                            let w = d.worker;
                            if self.shadow[w.0 as usize].stage != Stage::Serving {
                                return Err(format!(
                                    "{:?} placed on w{} off the roster",
                                    d.job.id, w.0
                                ));
                            }
                            if !self.jobs.contains(&d.job.id) {
                                self.jobs.push(d.job.id);
                            }
                            self.forget(d.job.id);
                            let s = self.shadow[w.0 as usize];
                            if !s.live {
                                // Believed dead: it bounces back.
                                if self.core.settle(d.job.id, Settle::Bounced(w, d.seq)) {
                                    bounced.push(d.job);
                                }
                                continue;
                            }
                            self.books.insert(d.job.id, (w, d.seq, self.now));
                            // A dead instance, or a lossy link, loses
                            // it: on the books, never in the queue.
                            let lost = self.lossy && d.seq % 3 == 0;
                            if s.up && !lost {
                                self.held[w.0 as usize].push(d.job);
                            }
                        }
                        Effect::Solicit { job, to } => {
                            if !self.jobs.contains(&job.id) {
                                self.jobs.push(job.id);
                            }
                            for &w in &self.core.solicited()[to] {
                                if self.shadow[w.0 as usize].stage != Stage::Serving {
                                    return Err(format!(
                                        "bid request for {:?} sent to w{} off the roster",
                                        job.id, w.0
                                    ));
                                }
                            }
                        }
                        Effect::Timer { token, .. } => self.tokens.push(token),
                        Effect::Repool(w) | Effect::Announce(w) => idle.push(w),
                    }
                }
                self.core.put_effects(fx);
                for job in bounced {
                    self.core.decide(self.now, |m, ctx| m.on_job(job, ctx));
                }
                for w in idle {
                    self.core.receive(self.now, w, WorkerToMaster::Idle, 0);
                }
            }
        }
    }

    /// The rules the log must keep: `WorkerRemoved` at most once per
    /// worker, nothing brings a departed worker back, and no placement
    /// names a worker after the commit that took it off the roster for
    /// good (its drain or its removal).
    fn membership_log_keeps_its_rules(log: &SchedLog) -> Result<(), String> {
        let mut gone: BTreeSet<WorkerId> = BTreeSet::new();
        let mut removed: BTreeSet<WorkerId> = BTreeSet::new();
        for e in log.events() {
            let Some(w) = e.worker else { continue };
            match e.kind {
                SchedEventKind::WorkerRemoved if !removed.insert(w) => {
                    return Err(format!("w{} removed twice", w.0));
                }
                SchedEventKind::WorkerRemoved | SchedEventKind::WorkerDraining => {
                    gone.insert(w);
                }
                SchedEventKind::Recover | SchedEventKind::WorkerJoined if removed.contains(&w) => {
                    return Err(format!("w{} came back after its removal", w.0));
                }
                SchedEventKind::Assigned | SchedEventKind::Offered if gone.contains(&w) => {
                    return Err(format!("{:?} placed on w{} after it left", e.job, w.0));
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn churn_drive(which: u8, lossy: bool, inputs: &[Churn]) -> Result<(), String> {
        let mut c = Churner::new(which, lossy);
        for input in inputs {
            c.step(input.clone())?;
        }
        membership_log_keeps_its_rules(c.core.log.as_ref().expect("logged").log())
    }

    proptest! {
        /// Random joins, drains, removals, crashes, detections and
        /// recoveries interleaved with arrivals (plain and atomized),
        /// sweeps, bids, timers, completions and rejects, on reliable
        /// or lossy links, under Listing 1 (serialized and concurrent)
        /// and the Baseline: the
        /// roster is always exactly the believed-live serving workers,
        /// a departed worker never returns and is removed once, nothing
        /// is placed on or solicited from a worker off the roster for
        /// good, a draining or departed worker's `Idle` and `Bid` do
        /// nothing, and `reclaim` hands back exactly what is owed, once,
        /// in the reclaim order — never a completed or cancelled job.
        #[test]
        fn membership_keeps_its_rules(
            which in 0u8..3,
            lossy in proptest::bool::ANY,
            inputs in proptest::collection::vec(churn(), 1..120),
        ) {
            let kept = churn_drive(which, lossy, &inputs);
            prop_assert!(kept.is_ok(), "{}", kept.unwrap_err());
        }
    }
}
