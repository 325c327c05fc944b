//! The pluggable allocation interface.
//!
//! Allocation in this framework is split exactly the way the paper
//! splits it:
//!
//! * a **master-side** component ([`MasterScheduler`]) that reacts to
//!   arriving jobs, worker messages and timers by emitting
//!   [`SchedAction`]s (Listing 1 is one implementation of this trait —
//!   `crossbid-core`'s `BiddingMaster`);
//! * a **worker-side** component ([`WorkerPolicy`]) encapsulating the
//!   node's "opinion": whether to accept an offered job, and what to
//!   bid in a contest (Listing 2).
//!
//! The engine mediates all communication: scheduler actions and worker
//! replies travel through the (latency-afflicted) control plane, so a
//! scheduler can never observe worker state directly — only through
//! messages, exactly like the real distributed system.

use crossbid_metrics::SchedulerKind;
use crossbid_simcore::{RngStream, SimDuration, SimTime};

use crate::job::{Job, JobId, WorkerId};

/// What the master knows about a worker a priori: only its identity.
/// Everything else must be learned from messages.
#[derive(Debug, Clone)]
pub struct WorkerHandle {
    /// Worker id.
    pub id: WorkerId,
    /// Display name.
    pub name: String,
}

/// An action emitted by a master scheduler.
#[derive(Debug, Clone)]
pub enum SchedAction {
    /// Unconditionally queue `job` on `worker` (push model — bidding
    /// winners, Spark assignments).
    Assign { worker: WorkerId, job: Job },
    /// Offer `job` to `worker`, which may accept or reject it
    /// according to its [`WorkerPolicy`] (Crossflow Baseline).
    Offer { worker: WorkerId, job: Job },
    /// Broadcast a bid request for `job` to every worker. The job
    /// itself stays with the scheduler until it assigns it.
    BroadcastBidRequest { job: Job },
    /// Ask for a timer callback `delay` from now carrying `token`.
    Timer { delay: SimDuration, token: u64 },
}

/// Messages workers send to the master that are relevant to
/// allocation.
#[derive(Debug, Clone)]
pub enum WorkerToMaster {
    /// A bid: the worker estimates it can complete `job` in
    /// `estimate_secs` from now (Listing 2 line 6).
    Bid { job: JobId, estimate_secs: f64 },
    /// The worker declined an offered job; it returns to the master
    /// "so another worker can consider it" (§4).
    Reject { job: Job },
    /// The worker has no more queued work (a pull request in the
    /// Baseline's pull model; push schedulers may ignore it).
    Idle,
}

/// Context passed to master-scheduler callbacks. Collects actions and
/// allocates timer tokens; the engine applies the actions with
/// control-plane latency after the callback returns.
pub struct SchedCtx<'a> {
    now: SimTime,
    workers: &'a [WorkerHandle],
    rng: &'a mut RngStream,
    actions: Vec<SchedAction>,
    next_token: &'a mut u64,
}

impl<'a> SchedCtx<'a> {
    /// Engine-internal constructor.
    pub fn new(
        now: SimTime,
        workers: &'a [WorkerHandle],
        rng: &'a mut RngStream,
        next_token: &'a mut u64,
    ) -> Self {
        Self::reusing(now, workers, rng, next_token, Vec::new())
    }

    /// [`new`](Self::new), collecting into `actions` (emptied first),
    /// so a driver can hand the buffer [`take_actions`](Self::take_actions)
    /// returned to the next callback instead of allocating one each.
    pub(crate) fn reusing(
        now: SimTime,
        workers: &'a [WorkerHandle],
        rng: &'a mut RngStream,
        next_token: &'a mut u64,
        mut actions: Vec<SchedAction>,
    ) -> Self {
        actions.clear();
        SchedCtx {
            now,
            workers,
            rng,
            actions,
            next_token,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The worker roster ("activeWorkers" in Listing 1).
    pub fn workers(&self) -> &[WorkerHandle] {
        self.workers
    }

    /// Number of active workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Randomness for tie-breaking / arbitrary fallback assignment.
    pub fn rng(&mut self) -> &mut RngStream {
        self.rng
    }

    /// A uniformly random worker (Listing 1's "assigns the job to an
    /// arbitrary node in case none of the workers submitted").
    pub fn arbitrary_worker(&mut self) -> WorkerId {
        let idx = self.rng.below(self.workers.len() as u64) as usize;
        self.workers[idx].id
    }

    /// Queue `job` on `worker` unconditionally.
    pub fn assign(&mut self, worker: WorkerId, job: Job) {
        self.actions.push(SchedAction::Assign { worker, job });
    }

    /// Offer `job` to `worker` (may be rejected).
    pub fn offer(&mut self, worker: WorkerId, job: Job) {
        self.actions.push(SchedAction::Offer { worker, job });
    }

    /// Open a bidding contest for `job`.
    pub fn broadcast_bid_request(&mut self, job: Job) {
        self.actions.push(SchedAction::BroadcastBidRequest { job });
    }

    /// Request a timer callback; returns the token that will be handed
    /// to [`MasterScheduler::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration) -> u64 {
        let token = *self.next_token;
        *self.next_token += 1;
        self.actions.push(SchedAction::Timer { delay, token });
        token
    }

    /// Has a callback through this context emitted an action yet?
    pub(crate) fn holds_actions(&self) -> bool {
        !self.actions.is_empty()
    }

    /// Drain collected actions (engine-internal).
    pub fn take_actions(self) -> Vec<SchedAction> {
        self.actions
    }
}

/// Counters a master scheduler exposes after a run (feed the §6.3.2
/// overhead discussion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Contests closed by the 1-second window rather than a complete
    /// set of bids.
    pub contests_timed_out: u64,
    /// Contests that received zero bids and fell back to an arbitrary
    /// worker.
    pub contests_fallback: u64,
}

/// Master-side allocation logic (Listing 1's role).
pub trait MasterScheduler: Send {
    /// Which algorithm this is (for records).
    fn kind(&self) -> SchedulerKind;

    /// A new job is ready for allocation (external arrival or emitted
    /// downstream by a finished task).
    fn on_job(&mut self, job: Job, ctx: &mut SchedCtx);

    /// A worker message arrived.
    fn on_worker_message(&mut self, from: WorkerId, msg: WorkerToMaster, ctx: &mut SchedCtx);

    /// A previously requested timer fired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut SchedCtx) {}

    /// A worker completed a job (the master observes completions
    /// because results flow back through it). Lets centralized
    /// schedulers maintain load/locality bookkeeping.
    fn on_job_done(&mut self, _worker: WorkerId, _job: &Job, _ctx: &mut SchedCtx) {}

    /// The monitoring layer reports `worker` dead (fault-injection
    /// extension; see [`crate::faults`]). Schedulers should drop the
    /// worker from any pull/idle bookkeeping; its stranded jobs are
    /// redistributed by the engine.
    fn on_worker_failed(&mut self, _worker: WorkerId, _ctx: &mut SchedCtx) {}

    /// `worker` rejoined with a cold cache.
    fn on_worker_recovered(&mut self, _worker: WorkerId, _ctx: &mut SchedCtx) {}

    /// Failover replay: the committed log proves `worker` rejected
    /// `job` under a previous leader. Schedulers that route around
    /// rejectors (e.g. the Baseline's re-offer avoidance) restore that
    /// memory here; stateless schedulers ignore it.
    fn restore_rejection(&mut self, _job: JobId, _worker: WorkerId) {}

    /// Overhead counters for the run record.
    fn stats(&self) -> SchedStats {
        SchedStats::default()
    }
}

/// A read-only snapshot of the worker's own state, precomputed by the
/// engine for policy decisions. All estimates use *believed* speeds —
/// noise is invisible here, exactly as in the paper.
#[derive(Debug, Clone, Copy)]
pub struct WorkerView {
    /// This worker's id.
    pub id: WorkerId,
    /// Virtual time of the decision.
    pub now: SimTime,
    /// `totalCostOfUnfinishedJobs()` in seconds.
    pub backlog_secs: f64,
    /// Does the local store hold the job's resource (or the job needs
    /// none)?
    pub has_data: bool,
    /// Has this worker declined this exact job before? (Baseline's
    /// second-offer obligation.)
    pub declined_before: bool,
    /// Estimated fetch seconds for this job (0 when local).
    pub est_fetch_secs: f64,
    /// Estimated processing seconds for this job.
    pub est_proc_secs: f64,
    /// Jobs currently queued (not including the one being decided).
    pub queue_len: usize,
}

/// Minimal job information exposed to worker policies.
#[derive(Debug, Clone, Copy)]
pub struct JobView {
    /// The job id.
    pub id: JobId,
    /// Bytes of the required resource (0 when none).
    pub resource_bytes: u64,
}

/// Worker-side opinion logic (Listing 2's role).
pub trait WorkerPolicy: Send {
    /// Decide whether to accept an offered job (Baseline). Returning
    /// `false` sends the job back to the master.
    fn accept_offer(&mut self, view: &WorkerView, job: &JobView) -> bool;

    /// Produce a bid for a requested job, or `None` to abstain.
    /// The engine transmits `Some(est)` to the master after the
    /// configured bid-compute delay.
    fn bid(&mut self, view: &WorkerView, job: &JobView) -> Option<f64>;

    /// A job this worker executed finished: `est_secs` was the
    /// estimated (transfer + processing) cost when it was enqueued,
    /// `actual_secs` what it really took. Learning policies (§7 future
    /// work) use this to adjust future bids; the default ignores it.
    fn on_job_finished(&mut self, _est_secs: f64, _actual_secs: f64) {}
}

/// A bundled allocation algorithm: factory for fresh master/worker
/// components per run.
pub trait Allocator: Send + Sync {
    /// Which algorithm this is.
    fn kind(&self) -> SchedulerKind;

    /// Create the master-side scheduler for one run.
    fn master(&self) -> Box<dyn MasterScheduler>;

    /// Create the worker-side policy (one instance per worker per
    /// run).
    fn worker_policy(&self) -> Box<dyn WorkerPolicy>;
}

/// A policy that accepts everything and never bids — appropriate for
/// fully centralized schedulers (Spark-like, Random) where workers
/// have no opinion.
#[derive(Debug, Default, Clone, Copy)]
pub struct ObedientPolicy;

impl WorkerPolicy for ObedientPolicy {
    fn accept_offer(&mut self, _view: &WorkerView, _job: &JobView) -> bool {
        true
    }

    fn bid(&mut self, _view: &WorkerView, _job: &JobView) -> Option<f64> {
        None
    }
}

/// The three components of a bid, kept separate for inspection and
/// ablation benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BidBreakdown {
    /// `totalCostOfUnfinishedJobs()` — queued + in-flight work,
    /// seconds (Listing 2 line 2).
    pub backlog_secs: f64,
    /// `estimateDataTransferTime(job)` — zero when the resource is in
    /// the local store (Listing 2 line 4).
    pub transfer_secs: f64,
    /// `estimateProcessingTime(job)` (Listing 2 line 5).
    pub processing_secs: f64,
}

impl BidBreakdown {
    /// The bid amount transmitted to the master.
    pub fn total(&self) -> f64 {
        self.backlog_secs + self.transfer_secs + self.processing_secs
    }

    /// True iff this bid reflects a fully local job (no transfer).
    pub fn is_local(&self) -> bool {
        self.transfer_secs == 0.0
    }
}

/// Compute the bid for a job given the worker's current view. The
/// engine precomputes all estimates with *believed* speeds (nominal
/// spec speeds, or §6.4 historic averages when speed learning is on) —
/// the noise applied during actual execution is invisible here, which
/// is exactly why "bidding costs differed from actual execution
/// times" in the paper's evaluation.
pub fn estimate_bid(view: &WorkerView) -> BidBreakdown {
    BidBreakdown {
        backlog_secs: view.backlog_secs,
        transfer_secs: view.est_fetch_secs,
        processing_secs: view.est_proc_secs,
    }
}

/// The worker-side policy of the Bidding Scheduler: always bids, never
/// receives plain offers (the bidding master assigns unconditionally),
/// but accepts them defensively if one arrives.
#[derive(Debug, Default, Clone, Copy)]
pub struct BiddingPolicy;

impl WorkerPolicy for BiddingPolicy {
    fn accept_offer(&mut self, _view: &WorkerView, _job: &JobView) -> bool {
        // The bidding protocol assigns jobs after a won contest; an
        // assigned job must be taken ("it is bound to accept").
        true
    }

    fn bid(&mut self, view: &WorkerView, _job: &JobView) -> Option<f64> {
        Some(estimate_bid(view).total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Payload, TaskId};

    fn mk_job(id: u64) -> Job {
        Job {
            id: JobId(id),
            task: TaskId(0),
            resource: None,
            work_bytes: 0,
            cpu_secs: 0.0,
            payload: Payload::None,
        }
    }

    fn handles(n: u32) -> Vec<WorkerHandle> {
        (0..n)
            .map(|i| WorkerHandle {
                id: WorkerId(i),
                name: format!("w{i}"),
            })
            .collect()
    }

    #[test]
    fn ctx_collects_actions_in_order() {
        let workers = handles(3);
        let mut rng = RngStream::from_seed(1);
        let mut token = 0;
        let mut ctx = SchedCtx::new(SimTime::ZERO, &workers, &mut rng, &mut token);
        ctx.assign(WorkerId(1), mk_job(1));
        ctx.offer(WorkerId(2), mk_job(2));
        let t = ctx.set_timer(SimDuration::from_secs(1));
        assert_eq!(t, 0);
        let t2 = ctx.set_timer(SimDuration::from_secs(2));
        assert_eq!(t2, 1);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 4);
        assert!(matches!(
            actions[0],
            SchedAction::Assign {
                worker: WorkerId(1),
                ..
            }
        ));
        assert!(matches!(
            actions[1],
            SchedAction::Offer {
                worker: WorkerId(2),
                ..
            }
        ));
        assert!(matches!(actions[3], SchedAction::Timer { token: 1, .. }));
        assert_eq!(token, 2, "token counter persists across contexts");
    }

    #[test]
    fn arbitrary_worker_is_in_roster() {
        let workers = handles(5);
        let mut rng = RngStream::from_seed(2);
        let mut token = 0;
        let mut ctx = SchedCtx::new(SimTime::ZERO, &workers, &mut rng, &mut token);
        for _ in 0..50 {
            let w = ctx.arbitrary_worker();
            assert!(w.0 < 5);
        }
    }

    #[test]
    fn obedient_policy() {
        let mut p = ObedientPolicy;
        let view = WorkerView {
            id: WorkerId(0),
            now: SimTime::ZERO,
            backlog_secs: 0.0,
            has_data: false,
            declined_before: false,
            est_fetch_secs: 1.0,
            est_proc_secs: 1.0,
            queue_len: 0,
        };
        let job = JobView {
            id: JobId(1),
            resource_bytes: 10,
        };
        assert!(p.accept_offer(&view, &job));
        assert!(p.bid(&view, &job).is_none());
    }
}
