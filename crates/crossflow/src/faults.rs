//! Fault injection — the failure modes the paper defers to future
//! work.
//!
//! §5: "in the initial concept of the Bidding Scheduler, we did not
//! address the issue of fault tolerance. As a result, there are
//! currently no specific policies in place to handle situations such
//! as a worker dying after winning a bid or redistributing the
//! remaining jobs if a worker becomes unavailable."
//!
//! This module supplies exactly those situations, plus the minimal
//! recovery machinery any deployment would have:
//!
//! * a [`FaultPlan`] schedules worker crashes and (optionally)
//!   recoveries at virtual instants;
//! * a crashed worker loses its queue, its in-flight job and its local
//!   store (the disk dies with the instance);
//! * jobs stranded on a dead worker are *redistributed*: a monitoring
//!   layer returns them to the master after a detection delay and they
//!   re-enter allocation;
//! * an assignment addressed to a dead worker bounces back the same
//!   way;
//! * a contest opened against the old roster simply resolves via the
//!   1-second window with the bids that still arrive — the paper's
//!   timeout mechanism doubles as failure masking;
//! * recovered workers rejoin with a cold cache and announce
//!   themselves idle.

//!
//! PR 5 extends the model below whole-worker granularity: a
//! [`NetFaultPlan`] makes the master↔worker *links* lossy — dropped,
//! delayed and duplicated messages plus timed partition windows — and
//! a [`RetryPolicy`] parameterises the at-least-once countermeasures
//! (acked assignments with exponential-backoff retries, per-assignment
//! leases) that keep runs terminating correctly anyway.
//!
//! PR 7 closes the last single point of failure: a [`MasterFaultPlan`]
//! crashes the *master* at chosen committed-append indices of the
//! replicated scheduler log (see [`crate::replog`]) and an elected
//! standby takes over by replay. All three axes are carried by one
//! [`Faults`] aggregate with a single `validate()`, wired through
//! [`RunSpec::builder().faults(..)`](crate::spec::RunSpecBuilder::faults).

use std::fmt;

use crossbid_simcore::rng::splitmix64;
use crossbid_simcore::{SimDuration, SimTime};

use crossbid_storage::ObjectId;

use crate::job::{JobId, WorkerId};

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The worker crashes: queue, in-flight job and local store lost.
    Crash(WorkerId),
    /// The worker rejoins with a cold cache.
    Recover(WorkerId),
}

/// A deterministic schedule of worker faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultEvent)>,
    /// How long the monitoring layer takes to notice a dead worker and
    /// return its stranded jobs to the master.
    pub detection_delay: SimDuration,
}

impl FaultPlan {
    /// No faults (the paper's evaluated configuration).
    pub fn none() -> Self {
        Self::default()
    }

    /// Start building a plan with the default 2 s detection delay.
    pub fn new() -> Self {
        FaultPlan {
            events: Vec::new(),
            detection_delay: SimDuration::from_secs(2),
        }
    }

    /// Schedule a crash.
    pub fn crash_at(mut self, at: SimTime, worker: WorkerId) -> Self {
        self.events.push((at, FaultEvent::Crash(worker)));
        self
    }

    /// Schedule a recovery.
    pub fn recover_at(mut self, at: SimTime, worker: WorkerId) -> Self {
        self.events.push((at, FaultEvent::Recover(worker)));
        self
    }

    /// Override the detection delay.
    pub fn with_detection_delay(mut self, d: SimDuration) -> Self {
        self.detection_delay = d;
        self
    }

    /// All scheduled events.
    pub fn events(&self) -> &[(SimTime, FaultEvent)] {
        &self.events
    }

    /// True iff no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check the plan for internal contradictions.
    ///
    /// Scheduled instants are [`SimTime`]s and therefore already
    /// non-negative and finite by construction; what *can* go wrong is
    /// ordering: a recovery scheduled for a worker that is not crashed
    /// at that instant (recover-before-crash inversions included), or
    /// a second crash before the first recovery.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let mut sorted: Vec<&(SimTime, FaultEvent)> = self.events.iter().collect();
        sorted.sort_by_key(|(at, _)| *at);
        let mut crashed: Vec<WorkerId> = Vec::new();
        for (_, ev) in sorted {
            match *ev {
                FaultEvent::Crash(w) => {
                    if crashed.contains(&w) {
                        return Err(FaultPlanError::CrashWhileCrashed(w));
                    }
                    crashed.push(w);
                }
                FaultEvent::Recover(w) => {
                    if let Some(i) = crashed.iter().position(|&c| c == w) {
                        crashed.swap_remove(i);
                    } else {
                        return Err(FaultPlanError::RecoverWithoutCrash(w));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Why a [`FaultPlan`] or [`NetFaultPlan`] is rejected at
/// [`RunSpec::builder()`](crate::spec::RunSpec::builder) time instead
/// of misbehaving silently mid-run.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A recovery is scheduled while the worker is not crashed —
    /// including the crash-before-recovery inversion where the
    /// recovery instant precedes the crash instant.
    RecoverWithoutCrash(WorkerId),
    /// A second crash is scheduled before the worker's recovery.
    CrashWhileCrashed(WorkerId),
    /// A probability field is outside `[0, 1]` (or non-finite).
    ProbabilityOutOfRange { field: &'static str, value: f64 },
    /// A duration field is NaN or infinite.
    NonFiniteSeconds { field: &'static str, value: f64 },
    /// A duration field is negative.
    NegativeSeconds { field: &'static str, value: f64 },
    /// `delay_min_secs > delay_max_secs` on a link.
    DelayBoundsInverted { min_secs: f64, max_secs: f64 },
    /// A partition window with `until <= from` can never be active.
    EmptyPartitionWindow { index: usize },
    /// A [`RetryPolicy`] field is outside its valid range.
    RetryOutOfRange { field: &'static str, value: f64 },
    /// `MasterFaultPlan::crash_at` indices must be ≥ 1 and strictly
    /// increasing (they are 1-based committed-append indices).
    MasterCrashOrder { index: u64 },
    /// More master crashes are scheduled than the replica group can
    /// absorb while keeping an append quorum alive.
    MasterCrashBudget { crashes: usize, budget: u32 },
    /// Master crashes are armed but the replica group is too small to
    /// elect a successor (a quorum needs at least 3 replicas).
    InsufficientReplicas { replicas: u32 },
    /// A [`MembershipPlan`] event sequence is internally inconsistent
    /// for one worker (join-after-presence, drain-after-removal, …).
    MembershipOrder {
        /// The worker with the contradictory timeline.
        worker: WorkerId,
        /// What went wrong, in imperative-ordering terms.
        detail: &'static str,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::RecoverWithoutCrash(w) => {
                write!(f, "recovery scheduled for worker {} while it is not crashed (crash-before-recovery inversion?)", w.0)
            }
            FaultPlanError::CrashWhileCrashed(w) => {
                write!(
                    f,
                    "crash scheduled for worker {} while it is already crashed",
                    w.0
                )
            }
            FaultPlanError::ProbabilityOutOfRange { field, value } => {
                write!(f, "{field} = {value} is not a probability in [0, 1]")
            }
            FaultPlanError::NonFiniteSeconds { field, value } => {
                write!(f, "{field} = {value} is not finite")
            }
            FaultPlanError::NegativeSeconds { field, value } => {
                write!(f, "{field} = {value} is negative")
            }
            FaultPlanError::DelayBoundsInverted { min_secs, max_secs } => {
                write!(f, "delay bounds inverted: min {min_secs} > max {max_secs}")
            }
            FaultPlanError::EmptyPartitionWindow { index } => {
                write!(
                    f,
                    "partition window #{index} has until <= from and can never be active"
                )
            }
            FaultPlanError::RetryOutOfRange { field, value } => {
                write!(f, "retry policy field {field} = {value} is out of range")
            }
            FaultPlanError::MasterCrashOrder { index } => {
                write!(
                    f,
                    "master crash index {index} is not ≥ 1 and strictly increasing"
                )
            }
            FaultPlanError::MasterCrashBudget { crashes, budget } => {
                write!(
                    f,
                    "{crashes} master crashes exceed the replica group's budget of {budget} (a quorum must survive)"
                )
            }
            FaultPlanError::InsufficientReplicas { replicas } => {
                write!(
                    f,
                    "{replicas} master replicas cannot elect a successor; need at least 3"
                )
            }
            FaultPlanError::MembershipOrder { worker, detail } => {
                write!(f, "membership plan for worker {}: {detail}", worker.0)
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Lossy behaviour of one message direction of a master↔worker link.
///
/// Every probability is sampled independently per physical send;
/// extra delay is uniform over `[delay_min_secs, delay_max_secs]`
/// virtual seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkFault {
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered message arrives twice.
    pub dup_prob: f64,
    /// Lower bound of the extra per-message delay (virtual seconds).
    pub delay_min_secs: f64,
    /// Upper bound of the extra per-message delay (virtual seconds).
    pub delay_max_secs: f64,
}

impl LinkFault {
    /// A perfectly reliable direction (all zeros).
    pub fn none() -> Self {
        Self::default()
    }

    /// True iff this direction can drop, duplicate or delay anything.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0 || self.delay_max_secs > 0.0
    }

    fn validate(&self, dir: &'static str) -> Result<(), FaultPlanError> {
        let probs = [
            (
                if dir == "to_worker" {
                    "to_worker.drop_prob"
                } else {
                    "to_master.drop_prob"
                },
                self.drop_prob,
            ),
            (
                if dir == "to_worker" {
                    "to_worker.dup_prob"
                } else {
                    "to_master.dup_prob"
                },
                self.dup_prob,
            ),
        ];
        for (field, value) in probs {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(FaultPlanError::ProbabilityOutOfRange { field, value });
            }
        }
        for (field, value) in [
            ("delay_min_secs", self.delay_min_secs),
            ("delay_max_secs", self.delay_max_secs),
        ] {
            if !value.is_finite() {
                return Err(FaultPlanError::NonFiniteSeconds { field, value });
            }
            if value < 0.0 {
                return Err(FaultPlanError::NegativeSeconds { field, value });
            }
        }
        if self.delay_min_secs > self.delay_max_secs {
            return Err(FaultPlanError::DelayBoundsInverted {
                min_secs: self.delay_min_secs,
                max_secs: self.delay_max_secs,
            });
        }
        Ok(())
    }
}

/// A timed master↔worker partition window: both directions of the
/// link drop every message sent while `from <= now < until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// The partitioned worker, or `None` to cut off every worker.
    pub worker: Option<WorkerId>,
    /// Window start (inclusive), virtual time.
    pub from: SimTime,
    /// Window end (exclusive), virtual time.
    pub until: SimTime,
}

/// The at-least-once countermeasure parameters: seeded
/// exponential-backoff retries for unacked sends and per-assignment
/// leases that bounce a job back to the scheduler when neither an ack
/// nor a `Done` arrives in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First retransmission delay (virtual seconds).
    pub base_secs: f64,
    /// Ceiling on the exponential backoff (virtual seconds).
    pub cap_secs: f64,
    /// Jitter amplitude as a fraction of the capped delay: the delay
    /// is scaled by `1 + jitter_frac * (u - 0.5)` with `u` uniform in
    /// `[0, 1)`. Must stay in `[0, 0.5]` so delays remain positive.
    pub jitter_frac: f64,
    /// Retransmissions before giving up and letting the lease expire.
    pub max_attempts: u32,
    /// How long an unacked, un-`Done` assignment is honoured before
    /// the job is bounced back to the scheduler for re-offer.
    pub lease_secs: f64,
    /// Idle re-announcement period for workers (virtual seconds), so
    /// a dropped `Idle` only delays — never wedges — the pull loop.
    pub heartbeat_secs: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_secs: 0.25,
            cap_secs: 2.0,
            jitter_frac: 0.2,
            max_attempts: 4,
            lease_secs: 3.0,
            heartbeat_secs: 1.0,
        }
    }
}

impl RetryPolicy {
    /// The retransmission delay before attempt `attempt` (0-based), or
    /// `None` once the budget is exhausted — the caller escalates to a
    /// lease bounce.
    ///
    /// Deterministic per `(seed, attempt)`: the jitter draw hashes
    /// both through splitmix64, so a replayed run retries at the exact
    /// same instants.
    pub fn delay_secs(&self, seed: u64, attempt: u32) -> Option<f64> {
        if attempt >= self.max_attempts {
            return None;
        }
        let capped = (self.base_secs * 2f64.powi(attempt.min(62) as i32)).min(self.cap_secs);
        let mut s = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(attempt as u64 + 1);
        let u = (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
        Some(capped * (1.0 + self.jitter_frac * (u - 0.5)))
    }

    /// [`delay_secs`](Self::delay_secs) for a series that never gives
    /// up (`Done` reports, peer fetches): past the configured attempts
    /// the backoff stays at its last step.
    pub(crate) fn capped_delay_secs(&self, seed: u64, attempt: u32) -> Option<f64> {
        self.delay_secs(seed, attempt.min(self.max_attempts.saturating_sub(1)))
    }

    /// The jitter seed of one retransmission series: `base` mixed with
    /// the job and a salt naming the series (a placement seq, an
    /// object id). Both runtimes must agree on it for a replay tuple
    /// to mean anything.
    pub(crate) fn series_seed(base: u64, job: JobId, salt: u64) -> u64 {
        base.wrapping_add(job.0.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(salt)
    }

    fn validate(&self) -> Result<(), FaultPlanError> {
        for (field, value, min) in [
            ("base_secs", self.base_secs, f64::MIN_POSITIVE),
            ("cap_secs", self.cap_secs, f64::MIN_POSITIVE),
            ("lease_secs", self.lease_secs, f64::MIN_POSITIVE),
            ("heartbeat_secs", self.heartbeat_secs, f64::MIN_POSITIVE),
            ("jitter_frac", self.jitter_frac, 0.0),
        ] {
            if !value.is_finite() || value < min {
                return Err(FaultPlanError::RetryOutOfRange { field, value });
            }
        }
        if self.jitter_frac > 0.5 {
            return Err(FaultPlanError::RetryOutOfRange {
                field: "jitter_frac",
                value: self.jitter_frac,
            });
        }
        if self.max_attempts == 0 {
            return Err(FaultPlanError::RetryOutOfRange {
                field: "max_attempts",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// A deterministic plan of message-level link faults between the
/// master and its workers, plus the [`RetryPolicy`] that tolerates
/// them.
///
/// Both runtimes consume the same plan: the simulation engine samples
/// it at its virtual send instants, the threaded runtime through a
/// delivery shim around the crossbeam channels (against scaled
/// virtual time). When [`is_active`](NetFaultPlan::is_active) is
/// false the entire reliability layer stays out of the code path and
/// runs are byte-identical to a build without it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetFaultPlan {
    /// Master → worker direction (`Assign`/`Offer`/`BidRequest`/acks).
    pub to_worker: LinkFault,
    /// Worker → master direction (bids, `Idle`, `Reject`, `Done`).
    pub to_master: LinkFault,
    /// Timed partition windows; both directions drop inside a window.
    pub partitions: Vec<Partition>,
    /// The "net seed": all drop/dup/delay draws derive from it, so a
    /// failing (run seed, chaos seed, net seed) triple replays.
    pub seed: u64,
    /// Countermeasure parameters.
    pub retry: RetryPolicy,
}

impl NetFaultPlan {
    /// A perfectly reliable network (the paper's TCP assumption).
    pub fn none() -> Self {
        Self::default()
    }

    /// A symmetric lossy preset: `drop` loss and `dup` duplication in
    /// both directions plus up to 50 virtual milliseconds of extra
    /// delay per message.
    pub fn lossy(seed: u64, drop: f64, dup: f64) -> Self {
        let link = LinkFault {
            drop_prob: drop,
            dup_prob: dup,
            delay_min_secs: 0.0,
            delay_max_secs: 0.05,
        };
        NetFaultPlan {
            to_worker: link,
            to_master: link,
            seed,
            ..Self::default()
        }
    }

    /// Add a partition window (`worker = None` cuts off everyone).
    pub fn with_partition(
        mut self,
        worker: Option<WorkerId>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.partitions.push(Partition {
            worker,
            from,
            until,
        });
        self
    }

    /// Override the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// True iff the plan can affect any message. Gates the whole
    /// reliability layer: an inactive plan leaves both runtimes on
    /// their exact pre-existing code paths.
    pub fn is_active(&self) -> bool {
        self.to_worker.is_active() || self.to_master.is_active() || !self.partitions.is_empty()
    }

    /// Is `worker`'s link inside a partition window at `now`?
    /// Sampled at send time, in virtual time, for both directions.
    pub fn partitioned(&self, worker: WorkerId, now: SimTime) -> bool {
        self.partitions
            .iter()
            .any(|p| p.worker.is_none_or(|w| w == worker) && now >= p.from && now < p.until)
    }

    /// Is the worker→worker link between `a` and `b` cut at `at`?
    ///
    /// Peer data transfers traverse both endpoints' links, so a
    /// partition window on either side severs the pair.  Sampled at
    /// send time like [`Self::partitioned`].
    pub fn link_blocked(&self, a: WorkerId, b: WorkerId, at: SimTime) -> bool {
        self.partitioned(a, at) || self.partitioned(b, at)
    }

    /// Per-(job, series) retry jitter seed under this plan's net seed.
    pub(crate) fn retry_seed(&self, job: JobId, salt: u64) -> u64 {
        RetryPolicy::series_seed(self.seed, job, salt)
    }

    /// Seeded backoff before a worker rotates to the next replica
    /// after a lost peer fetch, keyed on (net seed, job, object,
    /// attempt).
    pub(crate) fn fetch_backoff_secs(&self, job: JobId, obj: ObjectId, attempt: u32) -> f64 {
        self.retry
            .capped_delay_secs(self.retry_seed(job, obj.0), attempt)
            .unwrap_or(self.retry.base_secs)
    }

    /// Deterministic data-plane loss for one peer transfer attempt.
    ///
    /// Sampled from a hash of (net seed, object, endpoint, attempt) —
    /// not from an rng stream — so the decision is independent of
    /// event timing and identical across both runtimes. Composes the
    /// replication plane's own `peer_drop_prob` with this plan's link
    /// loss as independent failures.
    pub(crate) fn peer_dropped(
        &self,
        peer_drop_prob: f64,
        obj: ObjectId,
        w: WorkerId,
        attempt: u32,
    ) -> bool {
        let keep = (1.0 - peer_drop_prob) * (1.0 - self.to_worker.drop_prob);
        let p = 1.0 - keep;
        if p <= 0.0 {
            return false;
        }
        let mut s = self
            .seed
            .wrapping_add(obj.0.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(((w.0 as u64) << 32) | attempt as u64);
        let u = (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// The instant the last partition window ends ([`SimTime::ZERO`]
    /// when there are none) — the stall detector's healing horizon.
    pub fn partitions_end(&self) -> SimTime {
        self.partitions
            .iter()
            .map(|p| p.until)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// How long, in virtual seconds, a run may go without progress
    /// before both runtimes call it stalled: past the last partition
    /// window plus ten leases, plus two minutes. Any live placement
    /// shows progress (a retry, an ack, a completion, a bounce) well
    /// within it.
    pub(crate) fn stall_horizon_secs(&self) -> f64 {
        self.partitions_end().as_secs_f64() + self.retry.lease_secs * 10.0 + 120.0
    }

    /// Check every probability, delay bound, partition window and
    /// retry parameter; returns the first problem found.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        self.to_worker.validate("to_worker")?;
        self.to_master.validate("to_master")?;
        for (index, p) in self.partitions.iter().enumerate() {
            if p.until <= p.from {
                return Err(FaultPlanError::EmptyPartitionWindow { index });
            }
        }
        self.retry.validate()
    }
}

/// A deterministic plan of *master* crashes, expressed in replicated-
/// log coordinates: the leader dies while performing its N-th append
/// to the [`crate::replog::ReplicatedLog`] (1-based, counting every
/// append attempt). Keying crashes to log indices instead of wall
/// instants makes a failover replayable bit-for-bit on both runtimes —
/// the log is the only clock the two share exactly.
///
/// The replica group is modeled, not simulated: `replicas` standby
/// followers ack every append (commit-before-act), so when the leader
/// dies the survivors hold every *committed* entry and one of them is
/// elected after `election_timeout_secs`. Validation enforces the
/// quorum arithmetic: with `r` replicas and quorum `r/2 + 1`, at most
/// `r - quorum` crashes can be scheduled (3 replicas → 1 crash,
/// 5 → 2).
#[derive(Debug, Clone, PartialEq)]
pub struct MasterFaultPlan {
    /// Size of the master replica group (leader + standbys).
    pub replicas: u32,
    /// 1-based committed-append indices at which the current leader
    /// crashes; must be strictly increasing.
    pub crash_at: Vec<u64>,
    /// Modeled election gap before the standby takes over (virtual
    /// seconds; must be finite and positive).
    pub election_timeout_secs: f64,
}

impl Default for MasterFaultPlan {
    fn default() -> Self {
        MasterFaultPlan {
            replicas: 3,
            crash_at: Vec::new(),
            election_timeout_secs: 0.5,
        }
    }
}

impl MasterFaultPlan {
    /// No master crashes (every prior PR's configuration).
    pub fn none() -> Self {
        Self::default()
    }

    /// Start building a plan (3 replicas, 0.5 s election timeout).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a leader crash at the given 1-based append index.
    pub fn crash_at(mut self, append_index: u64) -> Self {
        self.crash_at.push(append_index);
        self
    }

    /// Override the replica group size.
    pub fn with_replicas(mut self, replicas: u32) -> Self {
        self.replicas = replicas;
        self
    }

    /// Override the election timeout.
    pub fn with_election_timeout(mut self, secs: f64) -> Self {
        self.election_timeout_secs = secs;
        self
    }

    /// True iff no master crash is scheduled.
    pub fn is_empty(&self) -> bool {
        self.crash_at.is_empty()
    }

    /// Followers needed (leader included) to commit an append.
    pub fn quorum(&self) -> u32 {
        self.replicas / 2 + 1
    }

    /// How many leader crashes the group can absorb while an append
    /// quorum survives.
    pub fn crash_budget(&self) -> u32 {
        self.replicas.saturating_sub(self.quorum())
    }

    /// Check quorum arithmetic, crash ordering and the election gap.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let secs = self.election_timeout_secs;
        if !secs.is_finite() {
            return Err(FaultPlanError::NonFiniteSeconds {
                field: "election_timeout_secs",
                value: secs,
            });
        }
        if secs <= 0.0 {
            return Err(FaultPlanError::NegativeSeconds {
                field: "election_timeout_secs",
                value: secs,
            });
        }
        let mut prev = 0u64;
        for &index in &self.crash_at {
            if index <= prev {
                return Err(FaultPlanError::MasterCrashOrder { index });
            }
            prev = index;
        }
        if self.is_empty() {
            return Ok(());
        }
        if self.replicas < 3 {
            return Err(FaultPlanError::InsufficientReplicas {
                replicas: self.replicas,
            });
        }
        let budget = self.crash_budget();
        if self.crash_at.len() > budget as usize {
            return Err(FaultPlanError::MasterCrashBudget {
                crashes: self.crash_at.len(),
                budget,
            });
        }
        Ok(())
    }
}

/// One elastic-membership action (autoscaling vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipAction {
    /// The worker joins the roster at the scheduled instant. A worker
    /// with a `Join` event is *deferred*: it exists in the run's
    /// worker list but is dormant — out of the roster, the idle pool
    /// and every contest — until its join fires.
    Join,
    /// The worker stops accepting new placements but finishes its
    /// queue; once empty it is removed from the roster.
    Drain,
    /// The worker is removed immediately (administrative scale-down):
    /// its queue and in-flight job are reclaimed by the master and
    /// redistributed without a detection delay — unlike a
    /// [`FaultEvent::Crash`], the control plane *knows*.
    Remove,
}

/// One scheduled membership event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// Virtual instant the action fires.
    pub at: SimTime,
    /// The worker concerned (index into the run's worker list).
    pub worker: WorkerId,
    /// What happens.
    pub action: MembershipAction,
}

/// A deterministic schedule of elastic-membership changes — the
/// `AddWorker`/`DrainWorker`/`RemoveWorker` command vocabulary, so
/// scenarios can model autoscaling under diurnal load. Consumed by
/// both runtimes; an empty plan leaves them on their exact
/// pre-existing code paths.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MembershipPlan {
    events: Vec<MembershipEvent>,
}

impl MembershipPlan {
    /// Static membership (every prior PR's configuration).
    pub fn none() -> Self {
        Self::default()
    }

    /// Start building a plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `worker` to join the roster at `at`. The worker must
    /// be part of the run's worker list; it stays dormant until then.
    pub fn join_at(mut self, at: SimTime, worker: WorkerId) -> Self {
        self.events.push(MembershipEvent {
            at,
            worker,
            action: MembershipAction::Join,
        });
        self
    }

    /// Schedule `worker` to start draining at `at`.
    pub fn drain_at(mut self, at: SimTime, worker: WorkerId) -> Self {
        self.events.push(MembershipEvent {
            at,
            worker,
            action: MembershipAction::Drain,
        });
        self
    }

    /// Schedule `worker`'s immediate removal at `at`.
    pub fn remove_at(mut self, at: SimTime, worker: WorkerId) -> Self {
        self.events.push(MembershipEvent {
            at,
            worker,
            action: MembershipAction::Remove,
        });
        self
    }

    /// All scheduled events, in builder order.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// True iff membership is static.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Is `worker` deferred (dormant until a scheduled `Join`)?
    pub fn is_deferred(&self, worker: WorkerId) -> bool {
        self.events
            .iter()
            .any(|e| e.worker == worker && e.action == MembershipAction::Join)
    }

    /// Check each worker's timeline for contradictions: a `Join` must
    /// come before any other event for a deferred worker and must be
    /// its first event; at most one `Drain`; nothing after a `Remove`.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        use std::collections::BTreeMap;
        let mut per_worker: BTreeMap<WorkerId, Vec<&MembershipEvent>> = BTreeMap::new();
        for e in &self.events {
            per_worker.entry(e.worker).or_default().push(e);
        }
        for (worker, mut evs) in per_worker {
            evs.sort_by_key(|e| e.at);
            let mut present = !self.is_deferred(worker);
            let mut draining = false;
            let mut removed = false;
            for e in evs {
                if removed {
                    return Err(FaultPlanError::MembershipOrder {
                        worker,
                        detail: "event scheduled after the worker's removal",
                    });
                }
                match e.action {
                    MembershipAction::Join => {
                        if present {
                            return Err(FaultPlanError::MembershipOrder {
                                worker,
                                detail: "join scheduled while the worker is already present",
                            });
                        }
                        present = true;
                    }
                    MembershipAction::Drain => {
                        if !present {
                            return Err(FaultPlanError::MembershipOrder {
                                worker,
                                detail: "drain scheduled before the worker joined",
                            });
                        }
                        if draining {
                            return Err(FaultPlanError::MembershipOrder {
                                worker,
                                detail: "drain scheduled while the worker is already draining",
                            });
                        }
                        draining = true;
                    }
                    MembershipAction::Remove => {
                        if !present {
                            return Err(FaultPlanError::MembershipOrder {
                                worker,
                                detail: "removal scheduled before the worker joined",
                            });
                        }
                        removed = true;
                    }
                }
            }
        }
        Ok(())
    }
}

/// A scheduled change to one worker: a fault or a membership event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Change {
    Crash,
    Recover,
    Join,
    Drain,
    Remove,
}

/// Every scheduled change to a worker, as one timeline both runtimes
/// fire: `faults`' events, then `membership`'s, each in plan order.
pub(crate) fn changes<'a>(
    faults: &'a FaultPlan,
    membership: &'a MembershipPlan,
) -> impl Iterator<Item = (SimTime, (WorkerId, Change))> + 'a {
    let crashes = faults.events().iter().map(|&(at, e)| match e {
        FaultEvent::Crash(w) => (at, (w, Change::Crash)),
        FaultEvent::Recover(w) => (at, (w, Change::Recover)),
    });
    let members = membership.events().iter().map(|e| {
        let change = match e.action {
            MembershipAction::Join => Change::Join,
            MembershipAction::Drain => Change::Drain,
            MembershipAction::Remove => Change::Remove,
        };
        (e.at, (e.worker, change))
    });
    crashes.chain(members)
}

/// Every fault axis of one run — worker crashes, lossy links and
/// master crashes — behind a single builder and a single `validate()`.
///
/// [`RunSpec::builder().faults(..)`](crate::spec::RunSpecBuilder::faults)
/// takes `impl Into<Faults>`, so a lone [`FaultPlan`], [`NetFaultPlan`]
/// or [`MasterFaultPlan`] still reads naturally while combined plans
/// compose:
///
/// ```
/// use crossbid_crossflow::faults::{Faults, FaultPlan, MasterFaultPlan, NetFaultPlan};
///
/// let faults = Faults::new()
///     .net(NetFaultPlan::lossy(7, 0.1, 0.05))
///     .master(MasterFaultPlan::new().crash_at(40));
/// assert!(!faults.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Faults {
    /// Worker crash/recovery schedule.
    pub workers: FaultPlan,
    /// Link-level loss, duplication, delay and partitions.
    pub net: NetFaultPlan,
    /// Master crash schedule in replicated-log coordinates.
    pub master: MasterFaultPlan,
    /// Elastic-membership schedule (join/drain/remove).
    pub membership: MembershipPlan,
}

impl Faults {
    /// No faults on any axis.
    pub fn none() -> Self {
        Self::default()
    }

    /// Start building.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker crash/recovery plan.
    pub fn workers(mut self, plan: FaultPlan) -> Self {
        self.workers = plan;
        self
    }

    /// Set the link-fault plan.
    pub fn net(mut self, plan: NetFaultPlan) -> Self {
        self.net = plan;
        self
    }

    /// Set the master crash plan.
    pub fn master(mut self, plan: MasterFaultPlan) -> Self {
        self.master = plan;
        self
    }

    /// Set the elastic-membership plan.
    pub fn membership(mut self, plan: MembershipPlan) -> Self {
        self.membership = plan;
        self
    }

    /// True iff no axis can inject anything.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
            && !self.net.is_active()
            && self.master.is_empty()
            && self.membership.is_empty()
    }

    /// Validate all four axes, mapping each failure to its
    /// [`SpecError`](crate::spec::SpecError) variant.
    pub fn validate(&self) -> Result<(), crate::spec::SpecError> {
        use crate::spec::SpecError;
        self.workers.validate().map_err(SpecError::Faults)?;
        self.net.validate().map_err(SpecError::NetFaults)?;
        self.master.validate().map_err(SpecError::MasterFaults)?;
        self.membership.validate().map_err(SpecError::Membership)?;
        Ok(())
    }
}

impl From<FaultPlan> for Faults {
    fn from(plan: FaultPlan) -> Self {
        Faults::new().workers(plan)
    }
}

impl From<NetFaultPlan> for Faults {
    fn from(plan: NetFaultPlan) -> Self {
        Faults::new().net(plan)
    }
}

impl From<MasterFaultPlan> for Faults {
    fn from(plan: MasterFaultPlan) -> Self {
        Faults::new().master(plan)
    }
}

impl From<MembershipPlan> for Faults {
    fn from(plan: MembershipPlan) -> Self {
        Faults::new().membership(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events() {
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_secs(10), WorkerId(2))
            .recover_at(SimTime::from_secs(60), WorkerId(2))
            .with_detection_delay(SimDuration::from_secs(5));
        assert_eq!(plan.events().len(), 2);
        assert_eq!(plan.detection_delay, SimDuration::from_secs(5));
        assert!(!plan.is_empty());
        assert_eq!(
            plan.events()[0],
            (SimTime::from_secs(10), FaultEvent::Crash(WorkerId(2)))
        );
    }

    #[test]
    fn none_is_empty() {
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn ordered_crash_recover_pairs_validate() {
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_secs(10), WorkerId(2))
            .recover_at(SimTime::from_secs(60), WorkerId(2))
            .crash_at(SimTime::from_secs(70), WorkerId(2));
        assert_eq!(plan.validate(), Ok(()));
        assert_eq!(FaultPlan::none().validate(), Ok(()));
    }

    #[test]
    fn recovery_before_crash_is_an_inversion() {
        // Builder order is crash-then-recover but the instants are
        // inverted: at t=5 the worker is not crashed yet.
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_secs(10), WorkerId(1))
            .recover_at(SimTime::from_secs(5), WorkerId(1));
        assert_eq!(
            plan.validate(),
            Err(FaultPlanError::RecoverWithoutCrash(WorkerId(1)))
        );
    }

    #[test]
    fn recovery_without_any_crash_is_rejected() {
        let plan = FaultPlan::new().recover_at(SimTime::from_secs(5), WorkerId(0));
        assert_eq!(
            plan.validate(),
            Err(FaultPlanError::RecoverWithoutCrash(WorkerId(0)))
        );
    }

    #[test]
    fn double_crash_is_rejected() {
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_secs(1), WorkerId(3))
            .crash_at(SimTime::from_secs(2), WorkerId(3));
        assert_eq!(
            plan.validate(),
            Err(FaultPlanError::CrashWhileCrashed(WorkerId(3)))
        );
    }

    #[test]
    fn net_plan_rejects_out_of_range_probabilities() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let plan = NetFaultPlan {
                to_worker: LinkFault {
                    drop_prob: bad,
                    ..LinkFault::none()
                },
                ..NetFaultPlan::none()
            };
            assert!(
                matches!(
                    plan.validate(),
                    Err(FaultPlanError::ProbabilityOutOfRange {
                        field: "to_worker.drop_prob",
                        ..
                    })
                ),
                "drop_prob = {bad} must be rejected"
            );
            let plan = NetFaultPlan {
                to_master: LinkFault {
                    dup_prob: bad,
                    ..LinkFault::none()
                },
                ..NetFaultPlan::none()
            };
            assert!(
                matches!(
                    plan.validate(),
                    Err(FaultPlanError::ProbabilityOutOfRange {
                        field: "to_master.dup_prob",
                        ..
                    })
                ),
                "dup_prob = {bad} must be rejected"
            );
        }
    }

    #[test]
    fn net_plan_rejects_bad_delays() {
        let nan = NetFaultPlan {
            to_worker: LinkFault {
                delay_max_secs: f64::NAN,
                ..LinkFault::none()
            },
            ..NetFaultPlan::none()
        };
        assert!(matches!(
            nan.validate(),
            Err(FaultPlanError::NonFiniteSeconds {
                field: "delay_max_secs",
                ..
            })
        ));
        let negative = NetFaultPlan {
            to_master: LinkFault {
                delay_min_secs: -0.5,
                delay_max_secs: 1.0,
                ..LinkFault::none()
            },
            ..NetFaultPlan::none()
        };
        assert!(matches!(
            negative.validate(),
            Err(FaultPlanError::NegativeSeconds {
                field: "delay_min_secs",
                ..
            })
        ));
        let inverted = NetFaultPlan {
            to_worker: LinkFault {
                delay_min_secs: 2.0,
                delay_max_secs: 1.0,
                ..LinkFault::none()
            },
            ..NetFaultPlan::none()
        };
        assert_eq!(
            inverted.validate(),
            Err(FaultPlanError::DelayBoundsInverted {
                min_secs: 2.0,
                max_secs: 1.0
            })
        );
    }

    #[test]
    fn net_plan_rejects_empty_partition_windows() {
        let plan =
            NetFaultPlan::none().with_partition(None, SimTime::from_secs(5), SimTime::from_secs(5));
        assert_eq!(
            plan.validate(),
            Err(FaultPlanError::EmptyPartitionWindow { index: 0 })
        );
    }

    #[test]
    fn net_plan_rejects_degenerate_retry_policies() {
        for (field, retry) in [
            (
                "base_secs",
                RetryPolicy {
                    base_secs: 0.0,
                    ..RetryPolicy::default()
                },
            ),
            (
                "lease_secs",
                RetryPolicy {
                    lease_secs: f64::NAN,
                    ..RetryPolicy::default()
                },
            ),
            (
                "jitter_frac",
                RetryPolicy {
                    jitter_frac: 0.75,
                    ..RetryPolicy::default()
                },
            ),
            (
                "max_attempts",
                RetryPolicy {
                    max_attempts: 0,
                    ..RetryPolicy::default()
                },
            ),
        ] {
            let plan = NetFaultPlan {
                retry,
                ..NetFaultPlan::none()
            };
            match plan.validate() {
                Err(FaultPlanError::RetryOutOfRange { field: got, .. }) => {
                    assert_eq!(got, field)
                }
                other => panic!("{field}: expected RetryOutOfRange, got {other:?}"),
            }
        }
    }

    #[test]
    fn lossy_preset_is_active_and_valid() {
        let plan = NetFaultPlan::lossy(42, 0.3, 0.1);
        assert!(plan.is_active());
        assert_eq!(plan.validate(), Ok(()));
        assert!(!NetFaultPlan::none().is_active());
    }

    #[test]
    fn master_plan_defaults_are_quorate_and_empty() {
        let plan = MasterFaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.replicas, 3);
        assert_eq!(plan.quorum(), 2);
        assert_eq!(plan.crash_budget(), 1);
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn master_plan_rejects_non_increasing_crash_indices() {
        for bad in [
            MasterFaultPlan::new().crash_at(0),
            MasterFaultPlan::new()
                .crash_at(5)
                .crash_at(5)
                .with_replicas(5),
            MasterFaultPlan::new()
                .crash_at(9)
                .crash_at(3)
                .with_replicas(5),
        ] {
            assert!(
                matches!(bad.validate(), Err(FaultPlanError::MasterCrashOrder { .. })),
                "{:?} must be rejected",
                bad.crash_at
            );
        }
    }

    #[test]
    fn master_plan_enforces_quorum_arithmetic() {
        // 3 replicas (quorum 2) absorb exactly one leader crash.
        assert_eq!(MasterFaultPlan::new().crash_at(10).validate(), Ok(()));
        assert_eq!(
            MasterFaultPlan::new().crash_at(10).crash_at(20).validate(),
            Err(FaultPlanError::MasterCrashBudget {
                crashes: 2,
                budget: 1
            })
        );
        // 5 replicas (quorum 3) absorb two.
        assert_eq!(
            MasterFaultPlan::new()
                .with_replicas(5)
                .crash_at(10)
                .crash_at(20)
                .validate(),
            Ok(())
        );
        assert_eq!(
            MasterFaultPlan::new()
                .with_replicas(2)
                .crash_at(1)
                .validate(),
            Err(FaultPlanError::InsufficientReplicas { replicas: 2 })
        );
    }

    #[test]
    fn master_plan_rejects_degenerate_election_timeouts() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let plan = MasterFaultPlan::new().with_election_timeout(bad);
            assert!(
                matches!(
                    plan.validate(),
                    Err(FaultPlanError::NonFiniteSeconds { .. }
                        | FaultPlanError::NegativeSeconds { .. })
                ),
                "election_timeout_secs = {bad} must be rejected"
            );
        }
    }

    #[test]
    fn faults_aggregate_composes_and_converts() {
        assert!(Faults::none().is_empty());
        assert!(!Faults::from(NetFaultPlan::lossy(1, 0.1, 0.0)).is_empty());
        assert!(!Faults::from(MasterFaultPlan::new().crash_at(3)).is_empty());
        let from_workers: Faults = FaultPlan::new()
            .crash_at(SimTime::from_secs(1), WorkerId(0))
            .into();
        assert!(!from_workers.is_empty());
        assert!(from_workers.net.partitions.is_empty());
        let combined = Faults::new()
            .workers(FaultPlan::new().crash_at(SimTime::from_secs(1), WorkerId(0)))
            .net(NetFaultPlan::lossy(1, 0.1, 0.0))
            .master(MasterFaultPlan::new().crash_at(3));
        assert!(combined.validate().is_ok());
    }

    #[test]
    fn faults_aggregate_maps_each_axis_to_its_spec_error() {
        use crate::spec::SpecError;
        let bad_workers =
            Faults::new().workers(FaultPlan::new().recover_at(SimTime::from_secs(1), WorkerId(0)));
        assert!(matches!(
            bad_workers.validate(),
            Err(SpecError::Faults(FaultPlanError::RecoverWithoutCrash(_)))
        ));
        let bad_net = Faults::new().net(NetFaultPlan::lossy(0, 2.0, 0.0));
        assert!(matches!(
            bad_net.validate(),
            Err(SpecError::NetFaults(
                FaultPlanError::ProbabilityOutOfRange { .. }
            ))
        ));
        let bad_master = Faults::new().master(MasterFaultPlan::new().crash_at(0));
        assert!(matches!(
            bad_master.validate(),
            Err(SpecError::MasterFaults(
                FaultPlanError::MasterCrashOrder { .. }
            ))
        ));
    }

    #[test]
    fn membership_plan_validates_ordered_timelines() {
        let plan = MembershipPlan::new()
            .join_at(SimTime::from_secs(5), WorkerId(3))
            .drain_at(SimTime::from_secs(20), WorkerId(3))
            .drain_at(SimTime::from_secs(10), WorkerId(0))
            .remove_at(SimTime::from_secs(15), WorkerId(1));
        assert_eq!(plan.validate(), Ok(()));
        assert!(plan.is_deferred(WorkerId(3)));
        assert!(!plan.is_deferred(WorkerId(0)));
        assert!(!plan.is_empty());
        assert!(MembershipPlan::none().is_empty());
        assert_eq!(MembershipPlan::none().validate(), Ok(()));
    }

    #[test]
    fn membership_plan_rejects_contradictory_timelines() {
        // Drain before the worker's join instant.
        let early_drain = MembershipPlan::new()
            .join_at(SimTime::from_secs(10), WorkerId(2))
            .drain_at(SimTime::from_secs(5), WorkerId(2));
        assert!(matches!(
            early_drain.validate(),
            Err(FaultPlanError::MembershipOrder {
                worker: WorkerId(2),
                ..
            })
        ));
        // Join for a worker that is already present (no prior removal).
        let double_join = MembershipPlan::new()
            .join_at(SimTime::from_secs(1), WorkerId(0))
            .join_at(SimTime::from_secs(2), WorkerId(0));
        assert!(double_join.validate().is_err());
        // Anything after a removal.
        let after_removal = MembershipPlan::new()
            .remove_at(SimTime::from_secs(1), WorkerId(4))
            .drain_at(SimTime::from_secs(2), WorkerId(4));
        assert!(after_removal.validate().is_err());
        // Double drain.
        let double_drain = MembershipPlan::new()
            .drain_at(SimTime::from_secs(1), WorkerId(5))
            .drain_at(SimTime::from_secs(2), WorkerId(5));
        assert!(double_drain.validate().is_err());
    }

    #[test]
    fn membership_rides_the_faults_aggregate() {
        use crate::spec::SpecError;
        let churn: Faults = MembershipPlan::new()
            .drain_at(SimTime::from_secs(3), WorkerId(0))
            .into();
        assert!(!churn.is_empty());
        assert!(churn.validate().is_ok());
        let bad = Faults::new().membership(
            MembershipPlan::new()
                .join_at(SimTime::from_secs(2), WorkerId(1))
                .remove_at(SimTime::from_secs(1), WorkerId(1)),
        );
        assert!(matches!(
            bad.validate(),
            Err(SpecError::Membership(
                FaultPlanError::MembershipOrder { .. }
            ))
        ));
    }

    #[test]
    fn partition_windows_match_worker_and_time() {
        let plan = NetFaultPlan::none()
            .with_partition(
                Some(WorkerId(1)),
                SimTime::from_secs(2),
                SimTime::from_secs(4),
            )
            .with_partition(None, SimTime::from_secs(10), SimTime::from_secs(11));
        assert!(plan.partitioned(WorkerId(1), SimTime::from_secs(2)));
        assert!(
            !plan.partitioned(WorkerId(1), SimTime::from_secs(4)),
            "until is exclusive"
        );
        assert!(!plan.partitioned(WorkerId(0), SimTime::from_secs(3)));
        assert!(
            plan.partitioned(WorkerId(0), SimTime::from_secs(10)),
            "None matches everyone"
        );
        assert_eq!(plan.partitions_end(), SimTime::from_secs(11));
    }
}

#[cfg(test)]
mod backoff_properties {
    use proptest::prelude::*;

    use super::*;

    // `PROPTEST_CASES` overrides the configured case count (see the
    // vendored `test_runner::resolve_cases`), like the rest of the
    // suite's property sweeps.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Jitter is a pure function of (seed, attempt): a replayed
        /// run retries at the exact same virtual instants.
        #[test]
        fn delay_is_deterministic_per_seed_and_attempt(
            seed in 0u64..=u64::MAX,
            attempt in 0u32..16,
        ) {
            let p = RetryPolicy { max_attempts: 16, ..RetryPolicy::default() };
            prop_assert_eq!(p.delay_secs(seed, attempt), p.delay_secs(seed, attempt));
        }

        /// Every delay stays positive and below the jittered cap.
        #[test]
        fn delays_are_positive_and_capped(
            seed in 0u64..=u64::MAX,
            attempt in 0u32..16,
            jitter in 0.0f64..0.5,
        ) {
            let p = RetryPolicy { max_attempts: 16, jitter_frac: jitter, ..RetryPolicy::default() };
            let d = p.delay_secs(seed, attempt).unwrap();
            prop_assert!(d > 0.0);
            prop_assert!(d <= p.cap_secs * (1.0 + jitter / 2.0));
        }

        /// Without jitter the schedule is monotone non-decreasing and
        /// clamps at the cap.
        #[test]
        fn jitterless_delays_are_monotone_capped(seed in 0u64..=u64::MAX) {
            let p = RetryPolicy { max_attempts: 16, jitter_frac: 0.0, ..RetryPolicy::default() };
            let mut prev = 0.0f64;
            for attempt in 0..p.max_attempts {
                let d = p.delay_secs(seed, attempt).unwrap();
                prop_assert!(d >= prev, "attempt {}: {} < {}", attempt, d, prev);
                prop_assert!(d <= p.cap_secs);
                prev = d;
            }
        }

        /// Exhaustion happens at exactly `max_attempts`, where the
        /// caller escalates to a lease bounce.
        #[test]
        fn retries_exhaust_at_exactly_max_attempts(
            seed in 0u64..=u64::MAX,
            max in 1u32..12,
        ) {
            let p = RetryPolicy { max_attempts: max, ..RetryPolicy::default() };
            for attempt in 0..max {
                prop_assert!(p.delay_secs(seed, attempt).is_some());
            }
            prop_assert!(p.delay_secs(seed, max).is_none());
            prop_assert!(p.delay_secs(seed, max + 1).is_none());
        }
    }
}
