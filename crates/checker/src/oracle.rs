//! The protocol invariant oracle: a pure state machine over the
//! control-plane event log ([`SchedLog`]) asserting the conservation
//! invariants the bidding protocol (paper §5, Listings 1–2) and the
//! Baseline (§6.2) must uphold under *any* interleaving:
//!
//! 1. **Conservation** — every submitted job completes exactly once
//!    (or, when the caller says a partial run is legitimate, at most
//!    once); nothing completes that was never submitted.
//! 2. **No assignment without a winning bid** — a contested job is
//!    assigned only after its contest closed, to a worker that bid in
//!    it (unless the close was an explicit no-bid fallback draft).
//! 3. **No bid after close** — bids are recorded only into open
//!    contests, at most one per worker per contest, and never with a
//!    non-finite estimate.
//! 4. **Redistribution only from the dead** — a job is redistributed
//!    from a worker only if that worker's incarnation died holding it:
//!    the worker crashed *after* the placement, or the placement
//!    landed inside the worker's dead-but-undetected masking window.
//! 5. **Queues never go negative** — per worker, rejections and
//!    completions never outnumber placements.
//! 6. **Leases bound silence, not confirmed work** — under the
//!    lossy-link reliability layer, a placement lease may expire only
//!    while the placement is unacknowledged and the job incomplete;
//!    expiring an acked or completed placement means the master
//!    discarded state the protocol had already confirmed. Nor is a
//!    completed job ever placed again.
//!
//! The oracle is runtime-agnostic: both the discrete-event engine and
//! the threaded runtime emit the same vocabulary (pinned by
//! `tests/golden/event_vocabulary.txt`), and the same `SchedLog` can be
//! reconstructed from an exported JSONL stream.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

use crossbid_crossflow::{
    JobId, SchedEvent, SchedEventKind, SchedLog, ShardId, WorkerId, WorkerSet,
};

/// One invariant violation, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A job was submitted twice (id reuse).
    DuplicateSubmit {
        /// Offending job.
        job: JobId,
    },
    /// A bid carried a NaN or infinite estimate.
    NonFiniteBid {
        /// Offending job.
        job: JobId,
        /// Bidding worker.
        worker: WorkerId,
    },
    /// A bid was recorded outside any open contest for the job.
    BidAfterClose {
        /// Offending job.
        job: JobId,
        /// Bidding worker.
        worker: WorkerId,
    },
    /// A second bid from the same worker was recorded into one
    /// contest.
    DuplicateBid {
        /// Offending job.
        job: JobId,
        /// Bidding worker.
        worker: WorkerId,
    },
    /// A contested job was assigned without a contest close, after a
    /// close with no bids (and no fallback flag), or to a worker that
    /// never bid in the closing contest.
    AssignmentWithoutBid {
        /// Offending job.
        job: JobId,
        /// Assignee.
        worker: WorkerId,
    },
    /// A job was placed (assigned/offered) while the log still shows
    /// it placed elsewhere — a double assignment.
    AssignedWhilePlaced {
        /// Offending job.
        job: JobId,
        /// New assignee.
        worker: WorkerId,
        /// Where the log believes the job already sits.
        previous: WorkerId,
    },
    /// A worker rejected a job it was never offered.
    RejectWithoutOffer {
        /// Offending job.
        job: JobId,
        /// Rejecting worker.
        worker: WorkerId,
    },
    /// Baseline strict mode: a job bounced straight back to the worker
    /// that just rejected it.
    ReofferToRejector {
        /// Offending job.
        job: JobId,
        /// The rejector it bounced back to.
        worker: WorkerId,
    },
    /// A completion was logged for a job never submitted.
    CompletedUnknownJob {
        /// Offending job.
        job: JobId,
    },
    /// A second completion was logged for one job.
    CompletedTwice {
        /// Offending job.
        job: JobId,
        /// Worker reporting the duplicate.
        worker: WorkerId,
    },
    /// A completion came from a worker the job was never placed on.
    CompletedWithoutPlacement {
        /// Offending job.
        job: JobId,
        /// Completing worker.
        worker: WorkerId,
    },
    /// A job was redistributed from a worker that neither crashed
    /// while holding it nor received it during its dead (undetected)
    /// window.
    RedistributionWithLiveOwner {
        /// Offending job.
        job: JobId,
        /// The owner it was reclaimed from.
        worker: WorkerId,
    },
    /// A job was redistributed after it already completed.
    RedistributedAfterCompletion {
        /// Offending job.
        job: JobId,
    },
    /// A placement lease expired even though the worker had already
    /// acknowledged the placement — the master ignored (or lost track
    /// of) an ack it logged, so the retransmission/lease timers kept
    /// running on a confirmed placement.
    LeaseExpiredAfterAck {
        /// Offending job.
        job: JobId,
        /// The worker whose acked placement was bounced.
        worker: WorkerId,
    },
    /// A placement lease expired for a job that had already completed:
    /// the master bounced work whose effects were final.
    LeaseExpiredAfterCompletion {
        /// Offending job.
        job: JobId,
    },
    /// A job was assigned or offered after its completion was logged —
    /// e.g. a lease bounce re-queued it just before its original
    /// holder's report landed, and the queue placed it anyway.
    PlacedAfterCompletion {
        /// Offending job.
        job: JobId,
        /// The worker it was placed on.
        worker: WorkerId,
    },
    /// Atomization: a job was assigned or offered after its
    /// `SpecCancel` committed — a losing replica still queued when its
    /// race was decided was placed (and would run) anyway.
    PlacedAfterCancel {
        /// The cancelled attempt's job id.
        job: JobId,
        /// The worker it was placed on.
        worker: WorkerId,
    },
    /// End of log: a submitted job neither completed nor is the run an
    /// acknowledged partial run.
    JobLost {
        /// The lost job.
        job: JobId,
    },
    /// Federated log: a job was handed off (`SpillOut`) but no shard
    /// ever recorded the matching `SpillIn` — the hand-off lost the
    /// job.
    SpillOutWithoutSpillIn {
        /// The handed-off job.
        job: JobId,
        /// Where the home shard claims it sent the job.
        to_shard: ShardId,
    },
    /// Federated log: a shard recorded receiving a spilled job
    /// (`SpillIn`) that no home shard ever handed off.
    SpillInWithoutSpillOut {
        /// The phantom job.
        job: JobId,
        /// The shard it claims to come from.
        from_shard: ShardId,
    },
    /// A job was handed off twice: the forwarder spilled a job it had
    /// already spilled (or kept re-spilling it).
    DoubleSpill {
        /// Offending job.
        job: JobId,
    },
    /// A spilled job completed outside its spill target — e.g. the
    /// forwarder kept (and ran) a job it had handed off.
    CompletedAfterSpillOut {
        /// Offending job.
        job: JobId,
        /// The worker that completed it outside the target shard.
        worker: WorkerId,
    },
    /// Two shards recorded `SpillIn` for one job: the hand-off was
    /// delivered more than once.
    DuplicateSpillIn {
        /// Offending job.
        job: JobId,
    },
    /// A job was placed on a worker after that worker began draining —
    /// a draining worker is out of the roster and takes no new work.
    AssignedWhileDraining {
        /// Offending job.
        job: JobId,
        /// The draining assignee.
        worker: WorkerId,
    },
    /// A job was placed on a worker after `WorkerRemoved` — the worker
    /// had permanently left the cluster.
    AssignedAfterRemoval {
        /// Offending job.
        job: JobId,
        /// The departed assignee.
        worker: WorkerId,
    },
    /// Atomization: a task was released (`TaskOffer`) before every
    /// predecessor had a committed `TaskDone` — the DAG gate was
    /// ignored.
    OfferBeforePredecessor {
        /// Root id of the DAG.
        root: JobId,
        /// The prematurely released task.
        task: u32,
    },
    /// Atomization: a second effective completion (`TaskDone`) was
    /// logged for one task — speculation failed to keep completion
    /// exactly-once.
    TaskCompletedTwice {
        /// Root id of the DAG.
        root: JobId,
        /// The doubly completed task.
        task: u32,
    },
    /// Atomization: a second `SpecLaunch` was committed for one task —
    /// the launched-once guard was bypassed.
    DuplicateSpeculation {
        /// Root id of the DAG.
        root: JobId,
        /// The doubly speculated task.
        task: u32,
    },
    /// Atomization: a `Completed` was logged for an attempt whose
    /// `SpecCancel` had already committed — cancellation is terminal.
    CompletedAfterCancel {
        /// The cancelled attempt's job id.
        job: JobId,
    },
    /// End of log: a task was released into allocation but never
    /// effectively completed.
    TaskNeverCompleted {
        /// Root id of the DAG.
        root: JobId,
        /// The incomplete task.
        task: u32,
    },
    /// End of log: a task of a registered DAG was never released at
    /// all — its stage was orphaned (e.g. a predecessor's completion
    /// never unlocked it).
    OrphanedStage {
        /// Root id of the DAG.
        root: JobId,
        /// The never-released task.
        task: u32,
    },
    /// Replicated data plane: an eviction (`replica_drop` with
    /// `evicted = true`) removed an object's last live copy. Cache
    /// pressure must never destroy data the cluster cannot re-create
    /// from a peer — the sole surviving copy is pinned.
    EvictedLastCopy {
        /// The object whose last copy was discarded.
        object: u64,
        /// The worker that evicted it.
        worker: WorkerId,
    },
    /// Replicated data plane, end of log: an object's last live copy
    /// was voluntarily discarded by eviction and never re-established —
    /// the data plane *ended* the run having thrown the artifact away.
    /// (Crash-caused losses are involuntary and re-creatable from the
    /// master; they do not trip this.)
    LostLastReplica {
        /// The object that ended the run with zero live copies.
        object: u64,
    },
    /// Replicated data plane, end of log: a re-replication was
    /// committed (`repair_start`) but its `repair_done` never arrived —
    /// commit-before-copy promises every committed repair completes.
    RepairNeverCompleted {
        /// The object whose repair was abandoned.
        object: u64,
    },
    /// Replicated data plane: a second `repair_start` was committed
    /// for an object whose previous repair had not completed, or a
    /// `repair_done` arrived with no open repair — the one-in-flight
    /// discipline (which is what makes failover resumption idempotent)
    /// was violated.
    DuplicateRepair {
        /// The doubly repaired object.
        object: u64,
    },
    /// Replicated data plane: a peer fetch was requested from a worker
    /// the log says no longer holds the object (its copy was dropped
    /// and never re-added) — the scheduler routed a transfer to a
    /// stale replica.
    FetchFromNonReplica {
        /// The requested object.
        object: u64,
        /// The stale source.
        from: WorkerId,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DuplicateSubmit { job } => write!(f, "job {} submitted twice", job.0),
            Violation::NonFiniteBid { job, worker } => {
                write!(f, "non-finite bid on job {} from w{}", job.0, worker.0)
            }
            Violation::BidAfterClose { job, worker } => {
                write!(
                    f,
                    "bid on job {} from w{} outside an open contest",
                    job.0, worker.0
                )
            }
            Violation::DuplicateBid { job, worker } => {
                write!(f, "duplicate bid on job {} from w{}", job.0, worker.0)
            }
            Violation::AssignmentWithoutBid { job, worker } => {
                write!(
                    f,
                    "job {} assigned to w{} without a winning bid",
                    job.0, worker.0
                )
            }
            Violation::AssignedWhilePlaced {
                job,
                worker,
                previous,
            } => write!(
                f,
                "job {} placed on w{} while still placed on w{}",
                job.0, worker.0, previous.0
            ),
            Violation::RejectWithoutOffer { job, worker } => {
                write!(
                    f,
                    "w{} rejected job {} it was never offered",
                    worker.0, job.0
                )
            }
            Violation::ReofferToRejector { job, worker } => {
                write!(
                    f,
                    "job {} re-offered straight back to rejector w{}",
                    job.0, worker.0
                )
            }
            Violation::CompletedUnknownJob { job } => {
                write!(f, "completion for never-submitted job {}", job.0)
            }
            Violation::CompletedTwice { job, worker } => {
                write!(
                    f,
                    "job {} completed twice (duplicate from w{})",
                    job.0, worker.0
                )
            }
            Violation::CompletedWithoutPlacement { job, worker } => {
                write!(
                    f,
                    "job {} completed by w{} without being placed there",
                    job.0, worker.0
                )
            }
            Violation::RedistributionWithLiveOwner { job, worker } => write!(
                f,
                "job {} redistributed from w{} which never held it while dead",
                job.0, worker.0
            ),
            Violation::RedistributedAfterCompletion { job } => {
                write!(f, "job {} redistributed after completing", job.0)
            }
            Violation::LeaseExpiredAfterAck { job, worker } => write!(
                f,
                "lease on job {} expired although w{} acked the placement",
                job.0, worker.0
            ),
            Violation::LeaseExpiredAfterCompletion { job } => {
                write!(f, "lease on job {} expired after it completed", job.0)
            }
            Violation::PlacedAfterCompletion { job, worker } => write!(
                f,
                "job {} placed on w{} after it completed",
                job.0, worker.0
            ),
            Violation::PlacedAfterCancel { job, worker } => {
                write!(f, "cancelled attempt {} placed on w{}", job.0, worker.0)
            }
            Violation::JobLost { job } => write!(f, "job {} submitted but never completed", job.0),
            Violation::SpillOutWithoutSpillIn { job, to_shard } => write!(
                f,
                "job {} spilled to shard {} but never received there",
                job.0, to_shard.0
            ),
            Violation::SpillInWithoutSpillOut { job, from_shard } => write!(
                f,
                "job {} received as a spill from shard {} that never handed it off",
                job.0, from_shard.0
            ),
            Violation::DoubleSpill { job } => write!(f, "job {} spilled twice", job.0),
            Violation::CompletedAfterSpillOut { job, worker } => write!(
                f,
                "job {} completed by w{} outside its spill target",
                job.0, worker.0
            ),
            Violation::DuplicateSpillIn { job } => {
                write!(f, "job {} received as a spill twice", job.0)
            }
            Violation::AssignedWhileDraining { job, worker } => {
                write!(f, "job {} placed on draining worker w{}", job.0, worker.0)
            }
            Violation::AssignedAfterRemoval { job, worker } => {
                write!(f, "job {} placed on removed worker w{}", job.0, worker.0)
            }
            Violation::OfferBeforePredecessor { root, task } => write!(
                f,
                "dag {} task {} offered before its predecessors completed",
                root.0, task
            ),
            Violation::TaskCompletedTwice { root, task } => write!(
                f,
                "dag {} task {} effectively completed twice",
                root.0, task
            ),
            Violation::DuplicateSpeculation { root, task } => {
                write!(f, "dag {} task {} speculated twice", root.0, task)
            }
            Violation::CompletedAfterCancel { job } => {
                write!(f, "cancelled attempt {} completed anyway", job.0)
            }
            Violation::TaskNeverCompleted { root, task } => {
                write!(
                    f,
                    "dag {} task {} offered but never completed",
                    root.0, task
                )
            }
            Violation::OrphanedStage { root, task } => {
                write!(
                    f,
                    "dag {} task {} never released (orphaned stage)",
                    root.0, task
                )
            }
            Violation::EvictedLastCopy { object, worker } => {
                write!(
                    f,
                    "w{} evicted the last copy of object {}",
                    worker.0, object
                )
            }
            Violation::LostLastReplica { object } => {
                write!(
                    f,
                    "object {object} ended the run with zero live copies after an eviction"
                )
            }
            Violation::RepairNeverCompleted { object } => {
                write!(f, "committed repair of object {object} never completed")
            }
            Violation::DuplicateRepair { object } => {
                write!(f, "overlapping or unmatched repair for object {object}")
            }
            Violation::FetchFromNonReplica { object, from } => {
                write!(
                    f,
                    "peer fetch of object {} requested from w{} which no longer holds it",
                    object, from.0
                )
            }
        }
    }
}

/// What the oracle should enforce beyond the always-on invariants.
#[derive(Debug, Clone, Copy)]
pub struct OracleOptions {
    /// Require every submitted job to have completed by end of log.
    /// Turn off for runs that legitimately end partial (e.g. the whole
    /// cluster dead with no recovery scheduled).
    pub expect_all_complete: bool,
    /// Enforce the Baseline's prefer-a-different-worker re-offer rule
    /// (reject-once routing): a job bouncing straight back to its last
    /// rejector is a violation *when another live worker was idle*
    /// (placement depth 0). Only sound without chaos: message
    /// reordering can make the master's idle view lag the log's.
    pub strict_reoffer: bool,
    /// Cluster size, when known. Lets the strict re-offer check count
    /// workers that are idle because they never appear in the log at
    /// all; `None` falls back to workers seen so far.
    pub workers: Option<u32>,
    /// The log is a merged multi-shard federation log: every `SpillIn`
    /// must pair with an earlier `SpillOut`, every `SpillOut` must
    /// eventually pair with a `SpillIn`, and a spilled job completes
    /// only in its spill-target shard (worker ids are shard-qualified
    /// in a merged log). Leave off for single-shard logs, where a
    /// `SpillIn` legitimately stands alone as the job's submission.
    pub federated: bool,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            expect_all_complete: true,
            strict_reoffer: false,
            workers: None,
            federated: false,
        }
    }
}

#[derive(Default)]
struct JobState {
    submitted: bool,
    completed: bool,
    redistributed: bool,
    /// A contest was ever opened for this job (distinguishes the
    /// bidding protocol from direct-assignment schedulers).
    had_contest: bool,
    contest_open: bool,
    /// Bids recorded in the currently open contest, by the bidders'
    /// dense slots: up to 64 workers the set allocates nothing.
    bids: WorkerSet,
    /// Set at `ContestClosed` (its fallback flag), consumed by the next
    /// `Assigned`, which must go to one of `closed_bids`.
    closed: Option<bool>,
    /// The bidders at the last close: `bids`, swapped out (and `bids`
    /// emptied) so both sets keep their words.
    closed_bids: WorkerSet,
    /// Where the job currently sits, per the log.
    placed: Option<u32>,
    /// The current placement was acknowledged (`AssignAcked`); reset
    /// on every new placement.
    acked: bool,
    /// Event index of the last placement, per worker.
    placed_at: HashMap<u32, usize>,
    /// Who rejected it last (Baseline).
    last_rejector: Option<u32>,
    /// The shard this job was handed off to (`SpillOut`).
    spilled_out: Option<ShardId>,
    /// A shard recorded receiving this job (`SpillIn`).
    spilled_in: bool,
    /// A `SpecCancel` committed for this job: the losing attempt of a
    /// speculated task. Terminal — exempt from `JobLost`, and any
    /// later `Completed` is a violation.
    cancelled: bool,
}

/// Per-DAG bookkeeping for atomized runs, keyed by root id.
#[derive(Default)]
struct DagCheck {
    /// Task count, from `TaskOffer`'s `total` field.
    total: u32,
    /// Tasks with a committed `TaskDone`.
    done: u64,
    /// Tasks released by a `TaskOffer`.
    offered: u64,
    /// Tasks with a committed `SpecLaunch`.
    spec_launched: u64,
}

/// The invariant oracle. Feed events in log order (or just call
/// [`check_log`]), then [`Oracle::finish`].
pub struct Oracle {
    opts: OracleOptions,
    jobs: HashMap<JobId, JobState>,
    /// Per worker: event index of the last crash.
    last_crash: HashMap<u32, usize>,
    /// Per worker: event indices of every recovery.
    recoveries: HashMap<u32, Vec<usize>>,
    /// Workers currently crashed (no recovery yet).
    dead: HashSet<u32>,
    /// Workers draining (out of the roster, finishing their queues).
    draining: HashSet<u32>,
    /// Workers permanently departed (`WorkerRemoved`).
    removed: HashSet<u32>,
    /// Per worker: net placements (placements − rejections −
    /// completions − reclaims).
    depth: HashMap<u32, i64>,
    /// Every worker id in the log → its dense slot, in order of first
    /// sight (federated ids carry their shard in the top bits).
    workers_seen: HashMap<u32, u32>,
    /// Atomized DAGs seen in the log, keyed by root id.
    dags: HashMap<JobId, DagCheck>,
    /// Replicated data plane: live holders per object, from
    /// `replica_add`/`replica_drop`. (Warm-seeded copies predate the
    /// log; a holder the oracle never saw is simply unknown, not
    /// stale.)
    replica_holders: HashMap<u64, HashSet<u32>>,
    /// Workers whose copy of an object was dropped and not re-added —
    /// the *known-stale* sources a fetch must not be routed to.
    replica_dropped: HashMap<u64, HashSet<u32>>,
    /// Whether each object's most recent drop was an eviction.
    last_drop_was_eviction: HashMap<u64, bool>,
    /// Objects with a committed `repair_start` awaiting `repair_done`.
    open_repairs: HashSet<u64>,
    idx: usize,
    violations: Vec<Violation>,
}

impl Oracle {
    /// Fresh oracle.
    pub fn new(opts: OracleOptions) -> Self {
        Oracle {
            opts,
            jobs: HashMap::new(),
            last_crash: HashMap::new(),
            recoveries: HashMap::new(),
            dead: HashSet::new(),
            draining: HashSet::new(),
            removed: HashSet::new(),
            depth: HashMap::new(),
            workers_seen: HashMap::new(),
            dags: HashMap::new(),
            replica_holders: HashMap::new(),
            replica_dropped: HashMap::new(),
            last_drop_was_eviction: HashMap::new(),
            open_repairs: HashSet::new(),
            idx: 0,
            violations: Vec::new(),
        }
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn place(&mut self, job: JobId, w: u32) {
        let idx = self.idx;
        let js = self.jobs.entry(job).or_default();
        js.placed = Some(w);
        js.acked = false;
        js.placed_at.insert(w, idx);
        *self.depth.entry(w).or_insert(0) += 1;
    }

    /// The job leaves the worker it was placed on. Each decrement
    /// undoes the increment of the [`place`](Self::place) that set
    /// `placed`, so no depth goes below zero.
    fn unplace(&mut self, job: JobId) {
        if let Some(w) = self.jobs.entry(job).or_default().placed.take() {
            *self.depth.entry(w).or_insert(0) -= 1;
        }
    }

    /// Feed one event.
    pub fn observe(&mut self, ev: &SchedEvent) {
        let job = ev.job;
        let worker = ev.worker;
        // The worker's dense slot, which indexes the bidder sets.
        let slot = worker.map(|w| {
            let next = self.workers_seen.len() as u32;
            WorkerId(*self.workers_seen.entry(w.0).or_insert(next))
        });
        match &ev.kind {
            SchedEventKind::Submitted => {
                let job = job.expect("submitted carries a job");
                let js = self.jobs.entry(job).or_default();
                if js.submitted {
                    self.violations.push(Violation::DuplicateSubmit { job });
                }
                js.submitted = true;
            }
            SchedEventKind::ContestOpened => {
                let job = job.expect("contest_opened carries a job");
                let js = self.jobs.entry(job).or_default();
                js.had_contest = true;
                // Re-opening (a parked contest, or re-entry after
                // redistribution) resets the bid set.
                js.contest_open = true;
                js.bids.clear();
                js.closed = None;
            }
            SchedEventKind::BidReceived { estimate_secs } => {
                let job = job.expect("bid carries a job");
                let w = worker.expect("bid carries a worker");
                if !estimate_secs.is_finite() {
                    self.violations
                        .push(Violation::NonFiniteBid { job, worker: w });
                }
                let slot = slot.expect("bid carries a worker");
                let js = self.jobs.entry(job).or_default();
                if !js.contest_open {
                    self.violations
                        .push(Violation::BidAfterClose { job, worker: w });
                } else if !js.bids.insert(slot) {
                    self.violations
                        .push(Violation::DuplicateBid { job, worker: w });
                }
            }
            SchedEventKind::ContestClosed { fallback, .. } => {
                let job = job.expect("contest_closed carries a job");
                let js = self.jobs.entry(job).or_default();
                js.contest_open = false;
                js.closed = Some(*fallback);
                std::mem::swap(&mut js.bids, &mut js.closed_bids);
                js.bids.clear();
            }
            SchedEventKind::Assigned => {
                let job = job.expect("assigned carries a job");
                let (w, slot) = worker.zip(slot).expect("assigned carries a worker");
                let js = self.jobs.entry(job).or_default();
                if let Some(prev) = js.placed {
                    self.violations.push(Violation::AssignedWhilePlaced {
                        job,
                        worker: w,
                        previous: WorkerId(prev),
                    });
                }
                if js.completed {
                    self.violations
                        .push(Violation::PlacedAfterCompletion { job, worker: w });
                }
                if js.cancelled {
                    self.violations
                        .push(Violation::PlacedAfterCancel { job, worker: w });
                }
                if js.had_contest {
                    match js.closed.take() {
                        Some(fallback) => {
                            if !fallback && !js.closed_bids.contains(slot) {
                                self.violations
                                    .push(Violation::AssignmentWithoutBid { job, worker: w });
                            }
                        }
                        // An assignment with no contest close at all —
                        // e.g. a late bid "reopening" the decision.
                        None => self
                            .violations
                            .push(Violation::AssignmentWithoutBid { job, worker: w }),
                    }
                }
                self.check_membership_placement(job, w);
                self.place(job, w.0);
            }
            SchedEventKind::Offered => {
                let job = job.expect("offered carries a job");
                let w = worker.expect("offered carries a worker");
                let js = self.jobs.entry(job).or_default();
                if let Some(prev) = js.placed {
                    self.violations.push(Violation::AssignedWhilePlaced {
                        job,
                        worker: w,
                        previous: WorkerId(prev),
                    });
                }
                if js.completed {
                    self.violations
                        .push(Violation::PlacedAfterCompletion { job, worker: w });
                }
                if js.cancelled {
                    self.violations
                        .push(Violation::PlacedAfterCancel { job, worker: w });
                }
                if self.opts.strict_reoffer && js.last_rejector == Some(w.0) {
                    // A bounce straight back is only a routing bug if
                    // the master had somewhere better to send it: a
                    // live worker with nothing placed on it.
                    let other_idle = |i: u32| {
                        i != w.0
                            && !self.dead.contains(&i)
                            && !self.draining.contains(&i)
                            && self.depth.get(&i).copied().unwrap_or(0) == 0
                    };
                    let had_alternative = match self.opts.workers {
                        Some(n) => (0..n).any(other_idle),
                        None => self.workers_seen.keys().copied().any(other_idle),
                    };
                    if had_alternative {
                        self.violations
                            .push(Violation::ReofferToRejector { job, worker: w });
                    }
                }
                self.check_membership_placement(job, w);
                self.place(job, w.0);
            }
            SchedEventKind::Rejected => {
                let job = job.expect("rejected carries a job");
                let w = worker.expect("rejected carries a worker");
                let js = self.jobs.entry(job).or_default();
                if js.placed != Some(w.0) {
                    self.violations
                        .push(Violation::RejectWithoutOffer { job, worker: w });
                } else {
                    self.unplace(job);
                }
                self.jobs.entry(job).or_default().last_rejector = Some(w.0);
            }
            SchedEventKind::Completed => {
                let job = job.expect("completed carries a job");
                let w = worker.expect("completed carries a worker");
                let js = self.jobs.entry(job).or_default();
                if !js.submitted {
                    self.violations.push(Violation::CompletedUnknownJob { job });
                }
                if js.completed {
                    self.violations
                        .push(Violation::CompletedTwice { job, worker: w });
                }
                if js.cancelled {
                    self.violations
                        .push(Violation::CompletedAfterCancel { job });
                }
                let ever_placed_here = js.placed_at.contains_key(&w.0);
                let placed_somewhere = js.placed.is_some() || js.redistributed;
                js.completed = true;
                if !ever_placed_here || !placed_somewhere {
                    self.violations
                        .push(Violation::CompletedWithoutPlacement { job, worker: w });
                }
                // A handed-off job belongs to its spill target: in a
                // merged log (shard-qualified worker ids) a completion
                // anywhere else means the forwarder kept the job.
                if self.opts.federated {
                    if let Some(to) = js.spilled_out {
                        if w.shard() != to {
                            self.violations
                                .push(Violation::CompletedAfterSpillOut { job, worker: w });
                        }
                    }
                }
                self.unplace(job);
            }
            SchedEventKind::Redistributed => {
                let job = job.expect("redistributed carries a job");
                let js = self.jobs.entry(job).or_default();
                if js.completed {
                    self.violations
                        .push(Violation::RedistributedAfterCompletion { job });
                }
                // The engine logs the reclaim without the owner (it
                // reclaims at the monitoring layer); the threaded
                // master names the dead owner — hold it to account.
                // Legal reclaims are (a) the owner crashed *after*
                // the placement (died holding the job), or (b) the
                // placement happened inside the owner's dead window —
                // the masking interval where the master schedules
                // against a stale roster until detection fires.
                if let Some(w) = worker {
                    let placed_idx = js.placed_at.get(&w.0).copied();
                    let crash_idx = self.last_crash.get(&w.0).copied();
                    let legal = match (placed_idx, crash_idx) {
                        (Some(p), Some(c)) => {
                            let recovered_between = self
                                .recoveries
                                .get(&w.0)
                                .is_some_and(|rs| rs.iter().any(|r| *r > c && *r <= p));
                            c > p || !recovered_between
                        }
                        _ => false,
                    };
                    if !legal {
                        self.violations
                            .push(Violation::RedistributionWithLiveOwner { job, worker: w });
                    }
                }
                self.unplace(job);
                let js = self.jobs.entry(job).or_default();
                js.redistributed = true;
                js.contest_open = false;
                js.closed = None;
            }
            SchedEventKind::AssignAcked => {
                let job = job.expect("assign_acked carries a job");
                let w = worker.expect("assign_acked carries a worker");
                let js = self.jobs.entry(job).or_default();
                // Only the current placement can be confirmed; a stale
                // ack (the placement already bounced or completed) is
                // simply late network news, not a protocol step.
                if js.placed == Some(w.0) {
                    js.acked = true;
                }
            }
            SchedEventKind::LeaseExpired => {
                let job = job.expect("lease_expired carries a job");
                let js = self.jobs.entry(job).or_default();
                if js.completed {
                    self.violations
                        .push(Violation::LeaseExpiredAfterCompletion { job });
                }
                // A lease exists to bound *silence*: once the worker
                // acked the placement, letting the timers run anyway
                // means the master is discarding confirmed state.
                if let Some(w) = worker {
                    if js.acked && js.placed == Some(w.0) {
                        self.violations
                            .push(Violation::LeaseExpiredAfterAck { job, worker: w });
                    }
                }
                // Effect mirrors `Redistributed` — the job is
                // reclaimed and re-enters scheduling through a fresh
                // contest — but with no dead-owner requirement: the
                // owner may be perfectly alive behind a lossy link.
                self.unplace(job);
                let js = self.jobs.entry(job).or_default();
                js.redistributed = true;
                js.contest_open = false;
                js.closed = None;
            }
            // Retransmissions are informational: the same placement
            // (same seq) going out again changes no protocol state.
            SchedEventKind::Resent { .. } => {}
            SchedEventKind::Crash => {
                let w = worker.expect("crash carries a worker");
                self.last_crash.insert(w.0, self.idx);
                self.dead.insert(w.0);
            }
            SchedEventKind::Recover => {
                if let Some(w) = worker {
                    self.recoveries.entry(w.0).or_default().push(self.idx);
                    self.dead.remove(&w.0);
                }
            }
            SchedEventKind::SpillOut { to_shard } => {
                let job = job.expect("spill_out carries a job");
                let js = self.jobs.entry(job).or_default();
                if js.spilled_out.is_some() {
                    self.violations.push(Violation::DoubleSpill { job });
                }
                js.spilled_out = Some(*to_shard);
            }
            SchedEventKind::SpillIn { from_shard } => {
                let job = job.expect("spill_in carries a job");
                let js = self.jobs.entry(job).or_default();
                if js.spilled_in {
                    self.violations.push(Violation::DuplicateSpillIn { job });
                }
                js.spilled_in = true;
                if self.opts.federated {
                    // Merged log: the home shard must have handed the
                    // job off before any shard can receive it.
                    if js.spilled_out.is_none() {
                        self.violations.push(Violation::SpillInWithoutSpillOut {
                            job,
                            from_shard: *from_shard,
                        });
                    }
                } else if js.submitted {
                    // Single-shard view: the spill-in *is* the job's
                    // submission in this shard.
                    self.violations.push(Violation::DuplicateSubmit { job });
                }
                js.submitted = true;
            }
            SchedEventKind::WorkerJoined => {
                if let Some(w) = worker {
                    self.dead.remove(&w.0);
                    self.draining.remove(&w.0);
                    self.removed.remove(&w.0);
                }
            }
            SchedEventKind::WorkerDraining => {
                let w = worker.expect("worker_draining carries a worker");
                self.draining.insert(w.0);
            }
            SchedEventKind::WorkerRemoved => {
                let w = worker.expect("worker_removed carries a worker");
                self.draining.remove(&w.0);
                self.removed.insert(w.0);
                // An administrative removal reclaims outstanding work
                // like a crash does: redistributions from the departed
                // owner are legal from here on.
                self.last_crash.insert(w.0, self.idx);
                self.dead.insert(w.0);
            }
            // Master failover markers. Every conservation and
            // exactly-once invariant above is *designed* to hold
            // across an election: the standby replays the same
            // committed prefix the oracle just consumed, so placements,
            // rejections and completions continue seamlessly in the
            // new term. The markers themselves change no job state.
            SchedEventKind::LeaderElected { .. } => {}
            SchedEventKind::FailoverReplayed { .. } => {}
            SchedEventKind::TaskOffer {
                root,
                task,
                preds,
                total,
            } => {
                let d = self.dags.entry(*root).or_default();
                d.total = d.total.max(*total);
                // Predecessor-before-successor: every pred bit must
                // already be in the root's done mask.
                if preds & !d.done != 0 {
                    self.violations.push(Violation::OfferBeforePredecessor {
                        root: *root,
                        task: *task,
                    });
                }
                d.offered |= 1 << task;
            }
            SchedEventKind::TaskDone { root, task } => {
                let d = self.dags.entry(*root).or_default();
                let bit = 1u64 << task;
                // At most one *effective* completion per task.
                if d.done & bit != 0 {
                    self.violations.push(Violation::TaskCompletedTwice {
                        root: *root,
                        task: *task,
                    });
                }
                d.done |= bit;
            }
            SchedEventKind::SpecLaunch { root, task } => {
                let d = self.dags.entry(*root).or_default();
                let bit = 1u64 << task;
                if d.spec_launched & bit != 0 {
                    self.violations.push(Violation::DuplicateSpeculation {
                        root: *root,
                        task: *task,
                    });
                }
                d.spec_launched |= bit;
            }
            SchedEventKind::SpecCancel { .. } => {
                let job = job.expect("spec_cancel carries the losing job");
                self.jobs.entry(job).or_default().cancelled = true;
            }
            SchedEventKind::FetchReq { object, from } => {
                if self
                    .replica_dropped
                    .get(object)
                    .is_some_and(|d| d.contains(&from.0))
                {
                    self.violations.push(Violation::FetchFromNonReplica {
                        object: *object,
                        from: *from,
                    });
                }
            }
            // Fetch outcomes change no replica state: an ok confirms a
            // transfer, a fail hands the attempt to the retry loop.
            SchedEventKind::FetchOk { .. } | SchedEventKind::FetchFail { .. } => {}
            SchedEventKind::ReplicaAdd { object } => {
                let w = worker.expect("replica_add carries a worker");
                self.replica_holders.entry(*object).or_default().insert(w.0);
                if let Some(d) = self.replica_dropped.get_mut(object) {
                    d.remove(&w.0);
                }
            }
            SchedEventKind::ReplicaDrop { object, evicted } => {
                let w = worker.expect("replica_drop carries a worker");
                let holders = self.replica_holders.entry(*object).or_default();
                holders.remove(&w.0);
                let emptied = holders.is_empty();
                self.replica_dropped.entry(*object).or_default().insert(w.0);
                self.last_drop_was_eviction.insert(*object, *evicted);
                if *evicted && emptied {
                    self.violations.push(Violation::EvictedLastCopy {
                        object: *object,
                        worker: w,
                    });
                }
            }
            SchedEventKind::RepairStart { object, .. } => {
                if !self.open_repairs.insert(*object) {
                    self.violations
                        .push(Violation::DuplicateRepair { object: *object });
                }
            }
            SchedEventKind::RepairDone { object } => {
                if !self.open_repairs.remove(object) {
                    self.violations
                        .push(Violation::DuplicateRepair { object: *object });
                }
            }
        }
        self.idx += 1;
    }

    /// End-of-log checks; returns all violations found.
    pub fn finish(mut self) -> Vec<Violation> {
        if self.opts.expect_all_complete {
            // In a *single-shard* log a spilled-out job legitimately
            // never completes here — it belongs to the target shard.
            // In a merged federated log it must complete somewhere.
            let mut lost: Vec<JobId> = self
                .jobs
                .iter()
                .filter(|(_, js)| {
                    js.submitted
                        && !js.completed
                        && !js.cancelled
                        && (self.opts.federated || js.spilled_out.is_none())
                })
                .map(|(id, _)| *id)
                .collect();
            lost.sort_by_key(|j| j.0);
            for job in lost {
                self.violations.push(Violation::JobLost { job });
            }
            // Per-task conservation: every task of every registered
            // DAG must have been released and effectively completed.
            let mut roots: Vec<JobId> = self.dags.keys().copied().collect();
            roots.sort_by_key(|r| r.0);
            for root in roots {
                let d = &self.dags[&root];
                for task in 0..d.total {
                    let bit = 1u64 << task;
                    if d.done & bit != 0 {
                        continue;
                    }
                    if d.offered & bit != 0 {
                        self.violations
                            .push(Violation::TaskNeverCompleted { root, task });
                    } else {
                        self.violations
                            .push(Violation::OrphanedStage { root, task });
                    }
                }
            }
        }
        if self.opts.expect_all_complete {
            // Commit-before-copy: every committed repair must land
            // within the run (the engines hold the run open until the
            // repair queue drains). Partial runs legitimately truncate
            // repairs, hence the gate.
            let mut abandoned: Vec<u64> = self.open_repairs.iter().copied().collect();
            abandoned.sort_unstable();
            for object in abandoned {
                self.violations
                    .push(Violation::RepairNeverCompleted { object });
            }
            // An object whose last copy was *evicted* (not crashed
            // away) and never restored ended the run discarded by
            // choice.
            let mut lost: Vec<u64> = self
                .replica_holders
                .iter()
                .filter(|(obj, holders)| {
                    holders.is_empty() && self.last_drop_was_eviction.get(*obj) == Some(&true)
                })
                .map(|(obj, _)| *obj)
                .collect();
            lost.sort_unstable();
            for object in lost {
                self.violations.push(Violation::LostLastReplica { object });
            }
        }
        if self.opts.federated {
            let mut unreceived: Vec<(JobId, ShardId)> = self
                .jobs
                .iter()
                .filter_map(|(id, js)| match js.spilled_out {
                    Some(to) if !js.spilled_in => Some((*id, to)),
                    _ => None,
                })
                .collect();
            unreceived.sort_by_key(|(j, _)| j.0);
            for (job, to_shard) in unreceived {
                self.violations
                    .push(Violation::SpillOutWithoutSpillIn { job, to_shard });
            }
        }
        self.violations
    }

    /// Placements onto draining or departed workers are membership
    /// violations regardless of scheduler.
    fn check_membership_placement(&mut self, job: JobId, w: WorkerId) {
        if self.removed.contains(&w.0) {
            self.violations
                .push(Violation::AssignedAfterRemoval { job, worker: w });
        } else if self.draining.contains(&w.0) {
            self.violations
                .push(Violation::AssignedWhileDraining { job, worker: w });
        }
    }
}

/// Run the oracle over a complete log.
pub fn check_log(log: &SchedLog, opts: OracleOptions) -> Vec<Violation> {
    check_events(log.events(), opts)
}

/// Run the oracle over every event of a complete run, from any source
/// (a stored log, a parsed stream).
pub fn check_events<E: Borrow<SchedEvent>>(
    events: impl IntoIterator<Item = E>,
    opts: OracleOptions,
) -> Vec<Violation> {
    let mut o = Oracle::new(opts);
    for ev in events {
        o.observe(ev.borrow());
    }
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbid_simcore::SimTime;

    fn ev(kind: SchedEventKind, worker: Option<u32>, job: Option<u64>) -> SchedEvent {
        SchedEvent {
            at: SimTime::ZERO,
            worker: worker.map(WorkerId),
            job: job.map(JobId),
            kind,
        }
    }

    fn clean_bidding_log() -> SchedLog {
        let mut log = SchedLog::new();
        log.push(ev(SchedEventKind::Submitted, None, Some(0)));
        log.push(ev(SchedEventKind::ContestOpened, None, Some(0)));
        log.push(ev(
            SchedEventKind::BidReceived { estimate_secs: 2.0 },
            Some(0),
            Some(0),
        ));
        log.push(ev(
            SchedEventKind::BidReceived { estimate_secs: 1.0 },
            Some(1),
            Some(0),
        ));
        log.push(ev(
            SchedEventKind::ContestClosed {
                timed_out: false,
                fallback: false,
            },
            None,
            Some(0),
        ));
        log.push(ev(SchedEventKind::Assigned, Some(1), Some(0)));
        log.push(ev(SchedEventKind::Completed, Some(1), Some(0)));
        log
    }

    #[test]
    fn clean_log_passes() {
        assert_eq!(
            check_log(&clean_bidding_log(), OracleOptions::default()),
            vec![]
        );
    }

    /// The clean log with `extra` inserted before entry `at`.
    fn clean_log_with(at: usize, extra: SchedEvent) -> SchedLog {
        let mut events: Vec<SchedEvent> = clean_bidding_log().events().collect();
        events.insert(at, extra);
        let mut log = SchedLog::new();
        for e in events {
            log.push(e);
        }
        log
    }

    #[test]
    fn a_job_submitted_twice_is_flagged() {
        let again = ev(SchedEventKind::Submitted, None, Some(0));
        let v = check_log(&clean_log_with(1, again), OracleOptions::default());
        assert_eq!(v, vec![Violation::DuplicateSubmit { job: JobId(0) }]);
    }

    #[test]
    fn a_spill_in_after_the_submission_is_a_second_submission() {
        // Outside a merged federation log a spill-in is the job's
        // submission here, so one after the submission is a second.
        let spill_in = SchedEventKind::SpillIn {
            from_shard: ShardId(1),
        };
        let v = check_log(
            &clean_log_with(1, ev(spill_in, None, Some(0))),
            OracleOptions::default(),
        );
        assert_eq!(v, vec![Violation::DuplicateSubmit { job: JobId(0) }]);
    }

    #[test]
    fn completing_a_job_never_submitted_is_flagged() {
        let mut log = SchedLog::new();
        log.push(ev(SchedEventKind::Completed, Some(2), Some(7)));
        let (job, worker) = (JobId(7), WorkerId(2));
        assert_eq!(
            check_log(&log, OracleOptions::default()),
            vec![
                Violation::CompletedUnknownJob { job },
                Violation::CompletedWithoutPlacement { job, worker },
            ]
        );
    }

    #[test]
    fn lost_job_is_flagged_only_when_expected_complete() {
        let mut log = SchedLog::new();
        log.push(ev(SchedEventKind::Submitted, None, Some(3)));
        let v = check_log(&log, OracleOptions::default());
        assert_eq!(v, vec![Violation::JobLost { job: JobId(3) }]);
        let v = check_log(
            &log,
            OracleOptions {
                expect_all_complete: false,
                ..OracleOptions::default()
            },
        );
        assert_eq!(v, vec![]);
    }

    #[test]
    fn non_finite_and_duplicate_bids_are_flagged() {
        let mut log = SchedLog::new();
        log.push(ev(SchedEventKind::Submitted, None, Some(0)));
        log.push(ev(SchedEventKind::ContestOpened, None, Some(0)));
        log.push(ev(
            SchedEventKind::BidReceived {
                estimate_secs: f64::NAN,
            },
            Some(0),
            Some(0),
        ));
        log.push(ev(
            SchedEventKind::BidReceived { estimate_secs: 1.0 },
            Some(1),
            Some(0),
        ));
        log.push(ev(
            SchedEventKind::BidReceived { estimate_secs: 0.5 },
            Some(1),
            Some(0),
        ));
        let v = check_log(
            &log,
            OracleOptions {
                expect_all_complete: false,
                ..OracleOptions::default()
            },
        );
        assert!(v.contains(&Violation::NonFiniteBid {
            job: JobId(0),
            worker: WorkerId(0)
        }));
        assert!(v.contains(&Violation::DuplicateBid {
            job: JobId(0),
            worker: WorkerId(1)
        }));
    }

    #[test]
    fn late_assignment_without_close_is_flagged() {
        let mut log = clean_bidding_log();
        // A second Assigned with no second close: the late-bid steal.
        log.push(ev(SchedEventKind::Assigned, Some(2), Some(0)));
        let v = check_log(
            &log,
            OracleOptions {
                expect_all_complete: false,
                ..OracleOptions::default()
            },
        );
        assert!(v.contains(&Violation::AssignmentWithoutBid {
            job: JobId(0),
            worker: WorkerId(2)
        }));
    }

    #[test]
    fn double_placement_and_double_completion_are_flagged() {
        let mut log = SchedLog::new();
        log.push(ev(SchedEventKind::Submitted, None, Some(0)));
        log.push(ev(SchedEventKind::Offered, Some(0), Some(0)));
        log.push(ev(SchedEventKind::Offered, Some(1), Some(0)));
        log.push(ev(SchedEventKind::Completed, Some(1), Some(0)));
        log.push(ev(SchedEventKind::Completed, Some(1), Some(0)));
        let v = check_log(&log, OracleOptions::default());
        assert!(v.contains(&Violation::AssignedWhilePlaced {
            job: JobId(0),
            worker: WorkerId(1),
            previous: WorkerId(0)
        }));
        assert!(v.contains(&Violation::CompletedTwice {
            job: JobId(0),
            worker: WorkerId(1)
        }));
    }

    #[test]
    fn reoffer_to_rejector_fires_only_when_an_alternative_was_idle() {
        // One job bounces straight back to its rejector while worker 1
        // (known from the cluster size, never in the log) sits idle.
        let mut log = SchedLog::new();
        log.push(ev(SchedEventKind::Submitted, None, Some(0)));
        log.push(ev(SchedEventKind::Offered, Some(0), Some(0)));
        log.push(ev(SchedEventKind::Rejected, Some(0), Some(0)));
        log.push(ev(SchedEventKind::Offered, Some(0), Some(0)));
        log.push(ev(SchedEventKind::Completed, Some(0), Some(0)));
        let relaxed = check_log(&log, OracleOptions::default());
        assert_eq!(relaxed, vec![]);
        let strict = |workers| OracleOptions {
            strict_reoffer: true,
            workers: Some(workers),
            ..OracleOptions::default()
        };
        assert!(
            check_log(&log, strict(2)).contains(&Violation::ReofferToRejector {
                job: JobId(0),
                worker: WorkerId(0)
            })
        );
        // A single-worker cluster has nowhere else to send it.
        assert_eq!(check_log(&log, strict(1)), vec![]);
        // Same bounce with the only other worker busy: legal.
        let mut busy = SchedLog::new();
        busy.push(ev(SchedEventKind::Submitted, None, Some(1)));
        busy.push(ev(SchedEventKind::Offered, Some(1), Some(1)));
        busy.push(ev(SchedEventKind::Submitted, None, Some(0)));
        busy.push(ev(SchedEventKind::Offered, Some(0), Some(0)));
        busy.push(ev(SchedEventKind::Rejected, Some(0), Some(0)));
        busy.push(ev(SchedEventKind::Offered, Some(0), Some(0)));
        busy.push(ev(SchedEventKind::Completed, Some(0), Some(0)));
        busy.push(ev(SchedEventKind::Completed, Some(1), Some(1)));
        assert_eq!(check_log(&busy, strict(2)), vec![]);
    }

    #[test]
    fn redistribution_requires_a_dead_owner() {
        let mut log = SchedLog::new();
        log.push(ev(SchedEventKind::Submitted, None, Some(0)));
        log.push(ev(SchedEventKind::ContestOpened, None, Some(0)));
        log.push(ev(
            SchedEventKind::BidReceived { estimate_secs: 1.0 },
            Some(0),
            Some(0),
        ));
        log.push(ev(
            SchedEventKind::ContestClosed {
                timed_out: false,
                fallback: false,
            },
            None,
            Some(0),
        ));
        log.push(ev(SchedEventKind::Assigned, Some(0), Some(0)));
        // Reclaim without a crash: violation.
        let mut bad = log.clone();
        bad.push(ev(SchedEventKind::Redistributed, Some(0), Some(0)));
        let v = check_log(
            &bad,
            OracleOptions {
                expect_all_complete: false,
                ..OracleOptions::default()
            },
        );
        assert!(v.contains(&Violation::RedistributionWithLiveOwner {
            job: JobId(0),
            worker: WorkerId(0)
        }));
        // Crash first: legitimate.
        log.push(ev(SchedEventKind::Crash, Some(0), None));
        log.push(ev(SchedEventKind::Redistributed, Some(0), Some(0)));
        let v = check_log(
            &log,
            OracleOptions {
                expect_all_complete: false,
                ..OracleOptions::default()
            },
        );
        assert_eq!(v, vec![]);
    }

    #[test]
    fn redistribution_tolerates_the_masking_window_but_not_a_recovered_owner() {
        let partial = OracleOptions {
            expect_all_complete: false,
            ..OracleOptions::default()
        };
        let assign = |log: &mut SchedLog, job: u64, w: u32| {
            log.push(ev(SchedEventKind::Submitted, None, Some(job)));
            log.push(ev(SchedEventKind::ContestOpened, None, Some(job)));
            log.push(ev(
                SchedEventKind::BidReceived { estimate_secs: 1.0 },
                Some(w),
                Some(job),
            ));
            log.push(ev(
                SchedEventKind::ContestClosed {
                    timed_out: false,
                    fallback: false,
                },
                None,
                Some(job),
            ));
            log.push(ev(SchedEventKind::Assigned, Some(w), Some(job)));
        };
        // Masking window: the crash precedes the assignment because
        // the master schedules against a stale roster until detection
        // fires — the reclaim is legitimate.
        let mut masked = SchedLog::new();
        masked.push(ev(SchedEventKind::Crash, Some(0), None));
        assign(&mut masked, 0, 0);
        masked.push(ev(SchedEventKind::Redistributed, Some(0), Some(0)));
        assert_eq!(check_log(&masked, partial), vec![]);
        // But a recovery between the crash and the assignment means
        // the owner was alive when it got the job: reclaiming it is a
        // violation.
        let mut recovered = SchedLog::new();
        recovered.push(ev(SchedEventKind::Crash, Some(0), None));
        recovered.push(ev(SchedEventKind::Recover, Some(0), None));
        assign(&mut recovered, 0, 0);
        recovered.push(ev(SchedEventKind::Redistributed, Some(0), Some(0)));
        assert!(
            check_log(&recovered, partial).contains(&Violation::RedistributionWithLiveOwner {
                job: JobId(0),
                worker: WorkerId(0)
            })
        );
    }

    #[test]
    fn lease_expiry_on_unacked_placement_is_legal_and_reclaims() {
        let partial = OracleOptions {
            expect_all_complete: false,
            ..OracleOptions::default()
        };
        // Assign is resent, never acked, the lease bounces it, and the
        // job re-enters through a fresh contest elsewhere: clean.
        let mut log = SchedLog::new();
        log.push(ev(SchedEventKind::Submitted, None, Some(0)));
        log.push(ev(SchedEventKind::ContestOpened, None, Some(0)));
        log.push(ev(
            SchedEventKind::BidReceived { estimate_secs: 1.0 },
            Some(0),
            Some(0),
        ));
        log.push(ev(
            SchedEventKind::ContestClosed {
                timed_out: false,
                fallback: false,
            },
            None,
            Some(0),
        ));
        log.push(ev(SchedEventKind::Assigned, Some(0), Some(0)));
        log.push(ev(SchedEventKind::Resent { attempt: 0 }, Some(0), Some(0)));
        log.push(ev(SchedEventKind::LeaseExpired, Some(0), Some(0)));
        log.push(ev(SchedEventKind::ContestOpened, None, Some(0)));
        log.push(ev(
            SchedEventKind::BidReceived { estimate_secs: 1.0 },
            Some(1),
            Some(0),
        ));
        log.push(ev(
            SchedEventKind::ContestClosed {
                timed_out: false,
                fallback: false,
            },
            None,
            Some(0),
        ));
        log.push(ev(SchedEventKind::Assigned, Some(1), Some(0)));
        log.push(ev(SchedEventKind::AssignAcked, Some(1), Some(0)));
        log.push(ev(SchedEventKind::Completed, Some(1), Some(0)));
        assert_eq!(check_log(&log, OracleOptions::default()), vec![]);
        // A late Completed from the *first* worker (it executed but
        // its ack was lost) is the at-least-once duplicate the master
        // must dedup — the log shows only one Completed, and the
        // bounced placement must not flag CompletedWithoutPlacement.
        let mut late = SchedLog::new();
        late.push(ev(SchedEventKind::Submitted, None, Some(0)));
        late.push(ev(SchedEventKind::Offered, Some(0), Some(0)));
        late.push(ev(SchedEventKind::LeaseExpired, Some(0), Some(0)));
        late.push(ev(SchedEventKind::Completed, Some(0), Some(0)));
        assert_eq!(check_log(&late, partial), vec![]);
    }

    #[test]
    fn lease_expiry_on_acked_placement_is_flagged() {
        let mut log = SchedLog::new();
        log.push(ev(SchedEventKind::Submitted, None, Some(0)));
        log.push(ev(SchedEventKind::Offered, Some(0), Some(0)));
        log.push(ev(SchedEventKind::AssignAcked, Some(0), Some(0)));
        log.push(ev(SchedEventKind::LeaseExpired, Some(0), Some(0)));
        let v = check_log(
            &log,
            OracleOptions {
                expect_all_complete: false,
                ..OracleOptions::default()
            },
        );
        assert!(v.contains(&Violation::LeaseExpiredAfterAck {
            job: JobId(0),
            worker: WorkerId(0)
        }));
        // The ack belongs to the placement: after a bounce and a fresh
        // unacked placement, expiry is legal again.
        let mut rebounced = SchedLog::new();
        rebounced.push(ev(SchedEventKind::Submitted, None, Some(0)));
        rebounced.push(ev(SchedEventKind::Offered, Some(0), Some(0)));
        rebounced.push(ev(SchedEventKind::AssignAcked, Some(0), Some(0)));
        rebounced.push(ev(SchedEventKind::Rejected, Some(0), Some(0)));
        rebounced.push(ev(SchedEventKind::Offered, Some(1), Some(0)));
        rebounced.push(ev(SchedEventKind::LeaseExpired, Some(1), Some(0)));
        let v = check_log(
            &rebounced,
            OracleOptions {
                expect_all_complete: false,
                ..OracleOptions::default()
            },
        );
        assert_eq!(v, vec![]);
    }

    #[test]
    fn lease_expiry_after_completion_is_flagged() {
        let mut log = SchedLog::new();
        log.push(ev(SchedEventKind::Submitted, None, Some(0)));
        log.push(ev(SchedEventKind::Offered, Some(0), Some(0)));
        log.push(ev(SchedEventKind::Completed, Some(0), Some(0)));
        log.push(ev(SchedEventKind::LeaseExpired, Some(0), Some(0)));
        let v = check_log(&log, OracleOptions::default());
        assert!(v.contains(&Violation::LeaseExpiredAfterCompletion { job: JobId(0) }));
    }

    #[test]
    fn placement_after_completion_is_flagged() {
        // A lease bounce re-queues job 0; its first holder's report
        // lands; the queue then places the completed job again — as
        // an offer or an assignment, the protocol's one completion is
        // being run twice.
        for place in [SchedEventKind::Offered, SchedEventKind::Assigned] {
            let mut log = SchedLog::new();
            log.push(ev(SchedEventKind::Submitted, None, Some(0)));
            log.push(ev(SchedEventKind::Offered, Some(0), Some(0)));
            log.push(ev(SchedEventKind::LeaseExpired, Some(0), Some(0)));
            log.push(ev(SchedEventKind::Completed, Some(0), Some(0)));
            let clean = check_log(&log, OracleOptions::default());
            assert_eq!(clean, vec![], "completing after a bounce is legal");
            log.push(ev(place, Some(1), Some(0)));
            let v = check_log(&log, OracleOptions::default());
            assert_eq!(
                v,
                vec![Violation::PlacedAfterCompletion {
                    job: JobId(0),
                    worker: WorkerId(1)
                }]
            );
        }
    }

    #[test]
    fn stale_ack_does_not_confirm_a_newer_placement() {
        // Ack from w0 arrives after the job bounced to w1: it must not
        // mark w1's placement acked, so w1's lease expiry stays legal.
        let mut log = SchedLog::new();
        log.push(ev(SchedEventKind::Submitted, None, Some(0)));
        log.push(ev(SchedEventKind::Offered, Some(0), Some(0)));
        log.push(ev(SchedEventKind::LeaseExpired, Some(0), Some(0)));
        log.push(ev(SchedEventKind::Offered, Some(1), Some(0)));
        log.push(ev(SchedEventKind::AssignAcked, Some(0), Some(0)));
        log.push(ev(SchedEventKind::LeaseExpired, Some(1), Some(0)));
        let v = check_log(
            &log,
            OracleOptions {
                expect_all_complete: false,
                ..OracleOptions::default()
            },
        );
        assert_eq!(v, vec![]);
    }

    #[test]
    fn task_gating_and_exactly_once_invariants() {
        let root = 1000u64;
        let offer = |task: u32, preds: u64, job: u64| {
            ev(
                SchedEventKind::TaskOffer {
                    root: JobId(root),
                    task,
                    preds,
                    total: 2,
                },
                None,
                Some(job),
            )
        };
        let done = |task: u32, job: u64, w: u32| {
            ev(
                SchedEventKind::TaskDone {
                    root: JobId(root),
                    task,
                },
                Some(w),
                Some(job),
            )
        };
        // Clean two-task chain: offer 0, complete it, offer 1 (pred 0
        // now done), complete it.
        let mut log = SchedLog::new();
        log.push(offer(0, 0, 1));
        log.push(ev(SchedEventKind::Submitted, None, Some(1)));
        log.push(ev(SchedEventKind::Offered, Some(0), Some(1)));
        log.push(ev(SchedEventKind::Completed, Some(0), Some(1)));
        log.push(done(0, 1, 0));
        log.push(offer(1, 0b1, 2));
        log.push(ev(SchedEventKind::Submitted, None, Some(2)));
        log.push(ev(SchedEventKind::Offered, Some(0), Some(2)));
        log.push(ev(SchedEventKind::Completed, Some(0), Some(2)));
        log.push(done(1, 2, 0));
        assert_eq!(check_log(&log, OracleOptions::default()), vec![]);

        // Offering task 1 before task 0 completed: gate violation.
        let mut bad = SchedLog::new();
        bad.push(offer(0, 0, 1));
        bad.push(offer(1, 0b1, 2));
        let v = check_log(
            &bad,
            OracleOptions {
                expect_all_complete: false,
                ..OracleOptions::default()
            },
        );
        assert!(v.contains(&Violation::OfferBeforePredecessor {
            root: JobId(root),
            task: 1
        }));

        // A second TaskDone for one task: exactly-once violation.
        let mut dup = log.clone();
        dup.push(done(1, 2, 0));
        let v = check_log(&dup, OracleOptions::default());
        assert!(v.contains(&Violation::TaskCompletedTwice {
            root: JobId(root),
            task: 1
        }));
    }

    #[test]
    fn speculation_invariants() {
        let root = JobId(1000);
        let mut log = SchedLog::new();
        log.push(ev(
            SchedEventKind::SpecLaunch { root, task: 3 },
            None,
            Some(9),
        ));
        log.push(ev(
            SchedEventKind::SpecLaunch { root, task: 3 },
            None,
            Some(10),
        ));
        let v = check_log(
            &log,
            OracleOptions {
                expect_all_complete: false,
                ..OracleOptions::default()
            },
        );
        assert!(v.contains(&Violation::DuplicateSpeculation { root, task: 3 }));

        // A cancelled loser is exempt from JobLost, but a Completed
        // after its SpecCancel is a violation.
        let mut c = SchedLog::new();
        c.push(ev(SchedEventKind::Submitted, None, Some(9)));
        c.push(ev(SchedEventKind::Offered, Some(0), Some(9)));
        c.push(ev(
            SchedEventKind::SpecCancel { root, task: 3 },
            None,
            Some(9),
        ));
        assert_eq!(check_log(&c, OracleOptions::default()), vec![]);
        c.push(ev(SchedEventKind::Completed, Some(0), Some(9)));
        let v = check_log(&c, OracleOptions::default());
        assert!(v.contains(&Violation::CompletedAfterCancel { job: JobId(9) }));

        // A loser still queued when its race was decided must not be
        // placed: as an offer or an assignment, it would run for
        // nothing.
        for place in [SchedEventKind::Offered, SchedEventKind::Assigned] {
            let mut q = SchedLog::new();
            q.push(ev(SchedEventKind::Submitted, None, Some(9)));
            q.push(ev(
                SchedEventKind::SpecCancel { root, task: 3 },
                None,
                Some(9),
            ));
            q.push(ev(place, Some(1), Some(9)));
            let v = check_log(&q, OracleOptions::default());
            assert_eq!(
                v,
                vec![Violation::PlacedAfterCancel {
                    job: JobId(9),
                    worker: WorkerId(1)
                }]
            );
        }
    }

    #[test]
    fn incomplete_dags_are_flagged_at_finish() {
        let root = JobId(1000);
        let mut log = SchedLog::new();
        // total=3: task 0 done, task 1 offered-but-never-done, task 2
        // never released at all.
        log.push(ev(
            SchedEventKind::TaskOffer {
                root,
                task: 0,
                preds: 0,
                total: 3,
            },
            None,
            Some(1),
        ));
        log.push(ev(
            SchedEventKind::TaskDone { root, task: 0 },
            Some(0),
            Some(1),
        ));
        log.push(ev(
            SchedEventKind::TaskOffer {
                root,
                task: 1,
                preds: 0b1,
                total: 3,
            },
            None,
            Some(2),
        ));
        let v = check_log(&log, OracleOptions::default());
        assert!(v.contains(&Violation::TaskNeverCompleted { root, task: 1 }));
        assert!(v.contains(&Violation::OrphanedStage { root, task: 2 }));
        // Partial runs don't demand DAG completion.
        let v = check_log(
            &log,
            OracleOptions {
                expect_all_complete: false,
                ..OracleOptions::default()
            },
        );
        assert_eq!(v, vec![]);
    }

    #[test]
    fn reject_without_offer_goes_negative() {
        let mut log = SchedLog::new();
        log.push(ev(SchedEventKind::Submitted, None, Some(0)));
        log.push(ev(SchedEventKind::Rejected, Some(0), Some(0)));
        let v = check_log(
            &log,
            OracleOptions {
                expect_all_complete: false,
                ..OracleOptions::default()
            },
        );
        assert!(v.contains(&Violation::RejectWithoutOffer {
            job: JobId(0),
            worker: WorkerId(0)
        }));
    }
}
