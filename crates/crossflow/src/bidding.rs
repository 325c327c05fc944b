//! Master-side contest management (Listing 1 of the paper).
//!
//! Listing 1 lives beside the [`MasterScheduler`] trait, as Listing 2
//! ([`crate::scheduler::BiddingPolicy`]) does, so both runtimes drive
//! the one master; `crossbid-core` re-exports it unchanged beside its
//! allocator.

use crossbid_metrics::SchedulerKind;
use crossbid_simcore::{IdMap, SimDuration, SimTime};

use crate::bids::BidSet;
use crate::job::{Job, JobId, WorkerId};
use crate::scheduler::{MasterScheduler, SchedCtx, SchedStats, WorkerToMaster};

/// Tunables of the bidding protocol.
#[derive(Debug, Clone)]
pub struct BiddingConfig {
    /// How long a contest stays open before the master decides with
    /// whatever bids it has ("the master waits for workers to make
    /// submissions within one second").
    pub window: SimDuration,
    /// §7 future-work optimisation: close the contest as soon as a bid
    /// arrives whose estimate is below this threshold *and* comes from
    /// a worker holding the data locally is approximated by closing on
    /// any bid ≤ `short_circuit_below` seconds. `None` disables it
    /// (the paper's evaluated configuration).
    pub short_circuit_below: Option<f64>,
    /// Run one contest at a time, queueing further jobs until the
    /// current contest closes. The paper leaves contest concurrency
    /// open ("the communication process is asynchronous ... we rely
    /// on time frames to group the messages"); concurrent contests
    /// (the default) are maximally asynchronous but let a burst of
    /// simultaneous jobs all go to the same worker, whose bids cannot
    /// yet reflect the wins it has not been told about. The threaded
    /// runtime always serializes: each assignment then reaches the
    /// winner's bidder (a FIFO channel) before the next bid request.
    pub serialize_contests: bool,
}

impl Default for BiddingConfig {
    fn default() -> Self {
        BiddingConfig {
            window: SimDuration::from_secs(1),
            short_circuit_below: None,
            serialize_contests: false,
        }
    }
}

/// Status of a bidding contest (`Bids[job.id].status` in Listing 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContestStatus {
    /// Bidding ongoing.
    Open,
    /// Winner chosen, job assigned.
    Closed,
}

/// State of one contest.
#[derive(Debug)]
pub struct Contest {
    /// The job being contested (held by the master until assignment).
    pub job: Job,
    /// Received bids, at most one per worker, in arrival order.
    pub bids: BidSet,
    /// Open/closed.
    pub status: ContestStatus,
    /// When the contest was opened.
    pub opened_at: SimTime,
    /// Token of the window-expiry timer.
    pub timer_token: u64,
}

impl Contest {
    /// `getPreferredWorker`: sort received bids ascending by estimate
    /// (ties broken by worker id for determinism) and return the
    /// winner.
    pub fn preferred_worker(&self) -> Option<WorkerId> {
        self.bids.preferred()
    }
}

/// The bidding master (Listing 1).
pub struct BiddingMaster {
    cfg: BiddingConfig,
    contests: IdMap<JobId, Contest>,
    timer_to_job: IdMap<u64, JobId>,
    /// Jobs waiting for the current contest to close
    /// (serialize_contests mode only).
    pending: std::collections::VecDeque<Job>,
    /// The emptied bid tables of closed contests, reused by the next
    /// ones so that opening a contest allocates nothing.
    spare: Vec<BidSet>,
    stats: SchedStats,
    decided: u64,
}

impl BiddingMaster {
    /// Fresh master state.
    pub fn new(cfg: BiddingConfig) -> Self {
        BiddingMaster {
            cfg,
            contests: IdMap::default(),
            timer_to_job: IdMap::default(),
            pending: std::collections::VecDeque::new(),
            spare: Vec::new(),
            stats: SchedStats::default(),
            decided: 0,
        }
    }

    fn open_contest(&mut self, job: Job, ctx: &mut SchedCtx) {
        let id = job.id;
        let token = ctx.set_timer(self.cfg.window);
        ctx.broadcast_bid_request(job.clone());
        self.timer_to_job.insert(token, id);
        let bids = self
            .spare
            .pop()
            .unwrap_or_else(|| BidSet::with_capacity(ctx.worker_count()));
        self.contests.insert(
            id,
            Contest {
                job,
                bids,
                status: ContestStatus::Open,
                opened_at: ctx.now(),
                timer_token: token,
            },
        );
    }

    /// Number of contests decided so far.
    pub fn contests_decided(&self) -> u64 {
        self.decided
    }

    /// Open contests (should drain to zero by the end of a run).
    pub fn open_contests(&self) -> usize {
        self.contests
            .values()
            .filter(|c| c.status == ContestStatus::Open)
            .count()
    }

    /// Close the contest and assign the job (Listing 1 lines 10-13,
    /// plus the fallback path). `timed_out` distinguishes closure by
    /// window expiry from closure by a complete bid set.
    fn close(&mut self, job_id: JobId, timed_out: bool, ctx: &mut SchedCtx) {
        let Some(contest) = self.contests.get_mut(&job_id) else {
            return;
        };
        if contest.status == ContestStatus::Closed {
            return;
        }
        // The winner is chosen among the bidders still on the roster: a
        // bid stays recorded when its worker leaves (it counts toward
        // the set), but a dead, draining or departed worker cannot win.
        let on_roster = |w: WorkerId| ctx.workers().iter().any(|h| h.id == w);
        let winner = match contest.preferred_worker() {
            Some(w) if !on_roster(w) => contest.bids.preferred_among(on_roster),
            w => w,
        };
        if winner.is_none() && ctx.worker_count() == 0 {
            // Every worker is down (fault-injection extension): there
            // is nobody to arbitrate to. Keep the contest open and
            // retry after another window; the job waits for a
            // recovery.
            self.timer_to_job.remove(&contest.timer_token);
            let token = ctx.set_timer(self.cfg.window);
            contest.timer_token = token;
            self.timer_to_job.insert(token, job_id);
            return;
        }
        contest.status = ContestStatus::Closed;
        // Take the job out; the contest record leaves the map to keep
        // it small over long streams, and its bid table is kept.
        let mut contest = self.contests.remove(&job_id).expect("present above");
        contest.bids.clear();
        self.spare.push(contest.bids);
        self.timer_to_job.remove(&contest.timer_token);
        self.decided += 1;
        if timed_out {
            self.stats.contests_timed_out += 1;
        }
        let worker = match winner {
            Some(w) => w,
            None => {
                // "assigns the job to an arbitrary node in case none
                // of the workers submitted their estimates".
                self.stats.contests_fallback += 1;
                ctx.arbitrary_worker()
            }
        };
        ctx.assign(worker, contest.job);
        // Serialized mode: the next queued job gets its contest now.
        if self.cfg.serialize_contests && self.contests.is_empty() {
            if let Some(next) = self.pending.pop_front() {
                self.open_contest(next, ctx);
            }
        }
    }
}

impl MasterScheduler for BiddingMaster {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Bidding
    }

    /// `sendJob`: publish for bidding and mark the contest open (or
    /// queue behind the running contest in serialized mode).
    fn on_job(&mut self, job: Job, ctx: &mut SchedCtx) {
        if self.cfg.serialize_contests && !self.contests.is_empty() {
            self.pending.push_back(job);
            return;
        }
        self.open_contest(job, ctx);
    }

    /// `receiveBid` + `biddingFinished`.
    fn on_worker_message(&mut self, from: WorkerId, msg: WorkerToMaster, ctx: &mut SchedCtx) {
        match msg {
            WorkerToMaster::Bid { job, estimate_secs } => {
                // A NaN or infinite estimate can never be a meaningful
                // cost; drop it at intake so it neither fills a contest
                // slot nor trips the short-circuit threshold.
                if !estimate_secs.is_finite() {
                    return;
                }
                let all_workers = ctx.worker_count();
                let mut finished = false;
                let mut short_circuit = false;
                if let Some(c) = self.contests.get_mut(&job) {
                    if c.status == ContestStatus::Open {
                        // A worker bids at most once per contest; a
                        // duplicate is ignored entirely — in particular
                        // it must not re-trigger the short-circuit with
                        // an estimate that was never recorded.
                        if c.bids.record(from, estimate_secs) {
                            finished = c.bids.len() >= all_workers;
                            if let Some(th) = self.cfg.short_circuit_below {
                                short_circuit = estimate_secs <= th;
                            }
                        }
                    }
                }
                if finished || short_circuit {
                    self.close(job, false, ctx);
                }
            }
            WorkerToMaster::Idle => {
                // Push model: idle notifications carry no information
                // the bidding master needs (backlog arrives in bids).
            }
            WorkerToMaster::Reject { job } => {
                // Assigned jobs cannot be rejected under bidding; a
                // reject indicates a mis-bundled policy. Recover by
                // re-running the contest.
                self.on_job(job, ctx);
            }
        }
    }

    /// Window expiry (`bidding_lasted_for > 1s` branch of
    /// `biddingFinished`).
    fn on_timer(&mut self, token: u64, ctx: &mut SchedCtx) {
        if let Some(job_id) = self.timer_to_job.remove(&token) {
            self.close(job_id, true, ctx);
        }
    }

    fn stats(&self) -> SchedStats {
        self.stats
    }
}

/// The bidding master, with workers that bid their backlog plus their
/// estimated fetch and processing time: an in-crate stand-in for the
/// allocator `crossbid-core` builds on this crate, so test logs hold
/// bids as its do.
#[cfg(test)]
pub(crate) mod stand_in {
    use crate::scheduler::{Allocator, JobView, MasterScheduler, WorkerPolicy, WorkerView};

    /// Listing 1 under this configuration.
    #[derive(Default)]
    pub(crate) struct Bidding(pub(crate) super::BiddingConfig);

    impl Allocator for Bidding {
        fn kind(&self) -> crossbid_metrics::SchedulerKind {
            crossbid_metrics::SchedulerKind::Bidding
        }

        fn master(&self) -> Box<dyn MasterScheduler> {
            Box::new(super::BiddingMaster::new(self.0.clone()))
        }

        fn worker_policy(&self) -> Box<dyn WorkerPolicy> {
            Box::new(Bidder)
        }
    }

    struct Bidder;

    impl WorkerPolicy for Bidder {
        fn accept_offer(&mut self, _: &WorkerView, _: &JobView) -> bool {
            true
        }

        fn bid(&mut self, view: &WorkerView, _: &JobView) -> Option<f64> {
            Some(view.backlog_secs + view.est_fetch_secs + view.est_proc_secs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Payload, TaskId};
    use crate::scheduler::{SchedAction, WorkerHandle};
    use crossbid_simcore::RngStream;

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

    struct Harness {
        m: BiddingMaster,
        workers: Vec<WorkerHandle>,
        rng: RngStream,
        token: u64,
    }

    impl Harness {
        fn new(n: u32, cfg: BiddingConfig) -> Self {
            Harness {
                m: BiddingMaster::new(cfg),
                workers: handles(n),
                rng: RngStream::from_seed(1),
                token: 0,
            }
        }

        fn drive<F: FnOnce(&mut BiddingMaster, &mut SchedCtx)>(
            &mut self,
            f: F,
        ) -> Vec<SchedAction> {
            let mut ctx =
                SchedCtx::new(SimTime::ZERO, &self.workers, &mut self.rng, &mut self.token);
            f(&mut self.m, &mut ctx);
            ctx.take_actions()
        }

        fn bid(&mut self, w: u32, job: u64, est: f64) -> Vec<SchedAction> {
            self.drive(|m, ctx| {
                m.on_worker_message(
                    WorkerId(w),
                    WorkerToMaster::Bid {
                        job: JobId(job),
                        estimate_secs: est,
                    },
                    ctx,
                )
            })
        }
    }

    #[test]
    fn contest_opens_with_broadcast_and_timer() {
        let mut h = Harness::new(3, BiddingConfig::default());
        let a = h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        assert_eq!(a.len(), 2);
        assert!(matches!(a[0], SchedAction::Timer { .. }));
        assert!(matches!(a[1], SchedAction::BroadcastBidRequest { .. }));
        assert_eq!(h.m.open_contests(), 1);
    }

    #[test]
    fn full_bid_set_closes_with_lowest_estimate() {
        let mut h = Harness::new(3, BiddingConfig::default());
        h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        assert!(h.bid(0, 1, 10.0).is_empty());
        assert!(h.bid(1, 1, 4.0).is_empty());
        let a = h.bid(2, 1, 7.0);
        assert_eq!(a.len(), 1);
        match &a[0] {
            SchedAction::Assign { worker, job } => {
                assert_eq!(*worker, WorkerId(1), "lowest estimate wins");
                assert_eq!(job.id, JobId(1));
            }
            other => panic!("expected assign, got {other:?}"),
        }
        assert_eq!(h.m.open_contests(), 0);
        assert_eq!(h.m.contests_decided(), 1);
        assert_eq!(h.m.stats().contests_timed_out, 0);
    }

    #[test]
    fn tie_breaks_deterministically_by_worker_id() {
        let mut h = Harness::new(2, BiddingConfig::default());
        h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        h.bid(1, 1, 5.0);
        let a = h.bid(0, 1, 5.0);
        match &a[0] {
            SchedAction::Assign { worker, .. } => assert_eq!(*worker, WorkerId(0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_bidder_that_left_the_roster_cannot_win() {
        let mut h = Harness::new(3, BiddingConfig::default());
        h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        h.bid(0, 1, 1.0);
        // Worker 0 leaves the roster: its bid stays and completes the
        // shrunken set, but the contest goes to a worker still on it.
        h.workers.remove(0);
        let a = h.bid(2, 1, 5.0);
        match &a[0] {
            SchedAction::Assign { worker, .. } => assert_eq!(*worker, WorkerId(2)),
            other => panic!("{other:?}"),
        }
        assert_eq!(h.m.stats().contests_fallback, 0);
    }

    #[test]
    fn timeout_closes_with_partial_bids() {
        let mut h = Harness::new(3, BiddingConfig::default());
        let a = h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        let token = match a[0] {
            SchedAction::Timer { token, .. } => token,
            _ => panic!(),
        };
        h.bid(2, 1, 9.0);
        let a = h.drive(|m, ctx| m.on_timer(token, ctx));
        match &a[0] {
            SchedAction::Assign { worker, .. } => assert_eq!(*worker, WorkerId(2)),
            other => panic!("{other:?}"),
        }
        assert_eq!(h.m.stats().contests_timed_out, 1);
        assert_eq!(h.m.stats().contests_fallback, 0);
    }

    #[test]
    fn timeout_with_no_bids_falls_back_to_arbitrary_worker() {
        let mut h = Harness::new(4, BiddingConfig::default());
        let a = h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        let token = match a[0] {
            SchedAction::Timer { token, .. } => token,
            _ => panic!(),
        };
        let a = h.drive(|m, ctx| m.on_timer(token, ctx));
        assert!(matches!(a[0], SchedAction::Assign { .. }));
        assert_eq!(h.m.stats().contests_fallback, 1);
        assert_eq!(h.m.stats().contests_timed_out, 1);
    }

    #[test]
    fn late_bids_after_close_are_ignored() {
        let mut h = Harness::new(2, BiddingConfig::default());
        h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        h.bid(0, 1, 3.0);
        let a = h.bid(1, 1, 1.0);
        assert_eq!(a.len(), 1, "contest closes on full set");
        // A straggler bid for the decided job does nothing.
        let a = h.bid(1, 1, 0.1);
        assert!(a.is_empty());
        assert_eq!(h.m.contests_decided(), 1);
    }

    #[test]
    fn duplicate_bids_from_one_worker_count_once() {
        let mut h = Harness::new(2, BiddingConfig::default());
        h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        let a = h.bid(0, 1, 3.0);
        assert!(a.is_empty());
        let a = h.bid(0, 1, 2.0);
        assert!(a.is_empty(), "same worker cannot complete the set alone");
    }

    #[test]
    fn stale_timer_is_harmless() {
        let mut h = Harness::new(2, BiddingConfig::default());
        let a = h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        let token = match a[0] {
            SchedAction::Timer { token, .. } => token,
            _ => panic!(),
        };
        h.bid(0, 1, 3.0);
        h.bid(1, 1, 2.0); // closes
        let a = h.drive(|m, ctx| m.on_timer(token, ctx));
        assert!(a.is_empty());
        assert_eq!(h.m.stats().contests_timed_out, 0);
    }

    #[test]
    fn concurrent_contests_are_independent() {
        let mut h = Harness::new(2, BiddingConfig::default());
        h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        h.drive(|m, ctx| m.on_job(mk_job(2), ctx));
        assert_eq!(h.m.open_contests(), 2);
        h.bid(0, 1, 5.0);
        h.bid(0, 2, 1.0);
        let a1 = h.bid(1, 1, 2.0);
        let a2 = h.bid(1, 2, 9.0);
        match (&a1[0], &a2[0]) {
            (
                SchedAction::Assign {
                    worker: w1,
                    job: j1,
                },
                SchedAction::Assign {
                    worker: w2,
                    job: j2,
                },
            ) => {
                assert_eq!((j1.id, *w1), (JobId(1), WorkerId(1)));
                assert_eq!((j2.id, *w2), (JobId(2), WorkerId(0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn short_circuit_closes_on_local_bid() {
        let mut h = Harness::new(
            3,
            BiddingConfig {
                window: SimDuration::from_secs(1),
                short_circuit_below: Some(2.0),
                ..BiddingConfig::default()
            },
        );
        h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        let a = h.bid(2, 1, 1.5);
        assert_eq!(a.len(), 1, "sub-threshold bid decides immediately");
        match &a[0] {
            SchedAction::Assign { worker, .. } => assert_eq!(*worker, WorkerId(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serialized_contests_queue_behind_the_open_one() {
        let mut h = Harness::new(
            2,
            BiddingConfig {
                serialize_contests: true,
                ..BiddingConfig::default()
            },
        );
        let a = h.drive(|m, ctx| {
            m.on_job(mk_job(1), ctx);
            m.on_job(mk_job(2), ctx);
        });
        // Only job 1's contest opened (one broadcast + one timer).
        let broadcasts = a
            .iter()
            .filter(|x| matches!(x, SchedAction::BroadcastBidRequest { .. }))
            .count();
        assert_eq!(broadcasts, 1);
        assert_eq!(h.m.open_contests(), 1);
        // Closing job 1 opens job 2 in the same action batch.
        h.bid(0, 1, 3.0);
        let a = h.bid(1, 1, 2.0);
        assert!(
            matches!(a[0], SchedAction::Assign { .. }),
            "job 1 assigned: {a:?}"
        );
        assert!(
            a.iter()
                .any(|x| matches!(x, SchedAction::BroadcastBidRequest { .. })),
            "job 2's contest opened: {a:?}"
        );
        assert_eq!(h.m.open_contests(), 1);
    }

    #[test]
    fn preferred_worker_on_empty_contest_is_none() {
        let c = Contest {
            job: mk_job(1),
            bids: BidSet::default(),
            status: ContestStatus::Open,
            opened_at: SimTime::ZERO,
            timer_token: 0,
        };
        assert_eq!(c.preferred_worker(), None);
    }

    #[test]
    fn nan_bid_is_dropped_at_intake() {
        let mut h = Harness::new(2, BiddingConfig::default());
        h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        // A NaN estimate must not fill a contest slot...
        assert!(h.bid(0, 1, f64::NAN).is_empty());
        assert!(h.bid(1, 1, 7.0).is_empty(), "set must not be complete yet");
        // ...and the eventual winner is the worker with the real bid.
        let a = h.bid(0, 1, 9.0);
        match &a[0] {
            SchedAction::Assign { worker, .. } => assert_eq!(*worker, WorkerId(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infinite_bid_cannot_win_or_complete_a_set() {
        let mut h = Harness::new(2, BiddingConfig::default());
        let a = h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        let token = match a[0] {
            SchedAction::Timer { token, .. } => token,
            _ => panic!(),
        };
        assert!(h.bid(0, 1, f64::INFINITY).is_empty());
        assert!(h.bid(1, 1, f64::NEG_INFINITY).is_empty());
        // No recorded bids: window expiry must take the fallback path,
        // never assign based on a non-finite estimate.
        let a = h.drive(|m, ctx| m.on_timer(token, ctx));
        assert!(matches!(a[0], SchedAction::Assign { .. }));
        assert_eq!(h.m.stats().contests_fallback, 1);
    }

    #[test]
    fn nan_bid_does_not_trip_short_circuit() {
        let mut h = Harness::new(
            3,
            BiddingConfig {
                short_circuit_below: Some(2.0),
                ..BiddingConfig::default()
            },
        );
        h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        // NaN <= th is false, but the guard must hold at intake too.
        assert!(h.bid(0, 1, f64::NAN).is_empty());
        assert_eq!(h.m.open_contests(), 1);
    }

    #[test]
    fn duplicate_bid_cannot_short_circuit_with_stale_estimate() {
        let mut h = Harness::new(
            2,
            BiddingConfig {
                short_circuit_below: Some(2.0),
                ..BiddingConfig::default()
            },
        );
        h.drive(|m, ctx| m.on_job(mk_job(1), ctx));
        // Recorded estimate 5.0: above the threshold, contest stays open.
        assert!(h.bid(0, 1, 5.0).is_empty());
        // Duplicate bid below the threshold is NOT recorded, so it must
        // not close the contest either (the recorded estimate is 5.0).
        assert!(
            h.bid(0, 1, 1.0).is_empty(),
            "unrecorded duplicate bid must not short-circuit"
        );
        assert_eq!(h.m.open_contests(), 1);
        // The other worker's bid completes the set and wins on merit.
        let a = h.bid(1, 1, 3.0);
        match &a[0] {
            SchedAction::Assign { worker, .. } => assert_eq!(*worker, WorkerId(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn preferred_worker_total_order_survives_nan_in_recorded_set() {
        // Defence in depth: even if a NaN were recorded, total_cmp
        // sorts it above every finite estimate so it cannot win.
        let mut bids = BidSet::default();
        bids.record(WorkerId(0), f64::NAN);
        bids.record(WorkerId(1), 4.0);
        let c = Contest {
            job: mk_job(1),
            bids,
            status: ContestStatus::Open,
            opened_at: SimTime::ZERO,
            timer_token: 0,
        };
        assert_eq!(c.preferred_worker(), Some(WorkerId(1)));
    }
}
