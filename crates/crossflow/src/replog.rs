//! The replicated scheduler log and its pure state machine — the
//! machinery that kills the master single point of failure.
//!
//! The design follows the Raft-on-the-coordinator shape: the master is
//! a *state machine* whose only durable truth is the [`SchedLog`].
//! Every scheduling **decision** (opening a contest, assigning,
//! offering, closing) must be appended — and acknowledged by a quorum
//! of standby replicas — *before* the master acts on it
//! (commit-before-act). Ingest facts (submissions, bids, completions,
//! crash notices) are appended as they are observed. When the leader
//! dies, an elected standby holds every committed entry by
//! construction; it rebuilds scheduler state with [`SchedState::replay`]
//! and resumes, re-offering whatever the log shows as submitted but
//! unplaced.
//!
//! Two consequences fall out of commit-before-act:
//!
//! * a decision the leader died *during* is simply never performed —
//!   the entry is truncated, no message was sent, and the job it
//!   concerned is still unplaced in the replayed state;
//! * a decision the log *does* hold was quorum-acked, so the successor
//!   honours it — in-flight assignments keep their leases, acks and
//!   retransmission timers instead of being double-issued.
//!
//! The replica group itself is modeled, not simulated: follower acks
//! are assumed instantaneous and the election gap is a configured
//! constant ([`MasterFaultPlan::election_timeout_secs`]). The
//! determinism axis that matters — *where in the decision stream the
//! leader dies* — is exact: crashes are keyed to 1-based append
//! indices, which both runtimes share bit-for-bit.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};

use crossbid_simcore::SimTime;

use crate::faults::MasterFaultPlan;
use crate::job::{JobId, ShardId, WorkerId};
use crate::trace::{SchedEvent, SchedEventKind, SchedLog};

/// Is this event a scheduler *decision* (commit-before-act: truncated
/// if the leader dies during the append) as opposed to an observed
/// *fact* (committed on arrival, survives the crash)? `SpillOut` is a
/// decision: the hand-off must not leave the shard unless the entry is
/// quorum-committed, or a leader crash could double-run the job (the
/// successor would re-offer it locally while the peer also runs it).
pub fn is_decision(kind: &SchedEventKind) -> bool {
    matches!(
        kind,
        SchedEventKind::ContestOpened
            | SchedEventKind::Assigned
            | SchedEventKind::ContestClosed { .. }
            | SchedEventKind::Offered
            | SchedEventKind::SpillOut { .. }
            | SchedEventKind::TaskOffer { .. }
            | SchedEventKind::SpecLaunch { .. }
            | SchedEventKind::SpecCancel { .. }
    )
}

/// What happened to one append attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// Quorum-acked; the caller may act on the entry.
    Committed,
    /// The leader died during this append. `truncated` tells the
    /// caller whether the entry was lost with it (a decision — do NOT
    /// act) or had already committed (an ingest fact — the fact
    /// stands, but the master is dead and a standby must take over).
    LeaderCrashed {
        /// True iff the entry is absent from the committed log.
        truncated: bool,
    },
}

/// Per-job state as reconstructed from the committed log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobState {
    /// A `Submitted` entry was committed.
    pub submitted: bool,
    /// A `Completed` entry was committed.
    pub completed: bool,
    /// The worker currently holding the job's placement (assignment or
    /// offer), if any.
    pub placed_on: Option<WorkerId>,
    /// The current placement was acked by the worker.
    pub acked: bool,
    /// A bidding contest for this job is open.
    pub contest_open: bool,
    /// Bids received for the currently/last open contest.
    pub bids: Vec<(WorkerId, f64)>,
    /// Last worker that rejected this job (drives the re-offer
    /// tie-break; cleared from relevance on completion).
    pub last_rejector: Option<WorkerId>,
    /// Times the job bounced off a dead worker.
    pub redistributions: u64,
    /// `Some(peer)` when this shard spilled the job to `peer` — the
    /// job's terminal state *here*; the peer's log owns it now.
    pub spilled_to: Option<ShardId>,
    /// `Some(home)` when the job entered this shard by spill-in.
    pub spilled_from: Option<ShardId>,
    /// A `SpecCancel` entry was committed: the job is the losing
    /// attempt of a speculated task — terminal here, never re-offered.
    pub cancelled: bool,
}

/// The pure scheduler state machine: `replay(log)` folds every
/// committed [`SchedEvent`] through [`apply`](Self::apply). The
/// failover path and the property tests share this single definition,
/// so "what the successor believes" is exactly "what the log says".
///
/// Maps are `BTree*` so iteration (and therefore re-offer order after
/// failover) is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedState {
    jobs: BTreeMap<JobId, JobState>,
    dead: BTreeSet<WorkerId>,
    /// Workers told to drain: finishing their queues, ineligible for
    /// new placements.
    draining: BTreeSet<WorkerId>,
    /// Workers removed from the roster for good.
    removed: BTreeSet<WorkerId>,
    /// Leadership term last seen in the log (0 before any election
    /// entry; the first leader is term 1).
    pub term: u32,
    /// Committed `Submitted` entries.
    pub submissions: u64,
    /// Committed `Completed` entries.
    pub completions: u64,
    /// Committed `SpillOut` entries (jobs handed to peer shards).
    pub spill_outs: u64,
    /// Committed `SpillIn` entries (jobs accepted from peer shards).
    pub spill_ins: u64,
    /// Data-plane replica sets as reconstructed from committed
    /// `ReplicaAdd`/`ReplicaDrop` entries: object → holders. Empty
    /// sets are dropped, so equality against a live replica map is
    /// exact. (Warm-cache seeding predates the log, so replay starts
    /// from the first logged add.)
    pub replicas: BTreeMap<u64, BTreeSet<WorkerId>>,
}

impl SchedState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold the committed log into a state.
    pub fn replay<E: Borrow<SchedEvent>>(events: impl IntoIterator<Item = E>) -> Self {
        let mut st = Self::new();
        for ev in events {
            st.apply(ev.borrow());
        }
        st
    }

    fn job_mut(&mut self, id: JobId) -> &mut JobState {
        self.jobs.entry(id).or_default()
    }

    /// Apply one committed entry.
    pub fn apply(&mut self, ev: &SchedEvent) {
        let worker = ev.worker;
        match ev.kind {
            SchedEventKind::Submitted => {
                if let Some(id) = ev.job {
                    self.job_mut(id).submitted = true;
                    self.submissions += 1;
                }
            }
            SchedEventKind::ContestOpened => {
                if let Some(id) = ev.job {
                    let j = self.job_mut(id);
                    j.contest_open = true;
                    j.bids.clear();
                }
            }
            SchedEventKind::BidReceived { estimate_secs } => {
                if let (Some(id), Some(w)) = (ev.job, worker) {
                    self.job_mut(id).bids.push((w, estimate_secs));
                }
            }
            SchedEventKind::ContestClosed { .. } => {
                if let Some(id) = ev.job {
                    self.job_mut(id).contest_open = false;
                }
            }
            SchedEventKind::Assigned | SchedEventKind::Offered => {
                if let Some(id) = ev.job {
                    let j = self.job_mut(id);
                    j.placed_on = worker;
                    j.acked = false;
                }
            }
            SchedEventKind::Rejected => {
                if let Some(id) = ev.job {
                    let j = self.job_mut(id);
                    j.placed_on = None;
                    j.acked = false;
                    j.last_rejector = worker;
                }
            }
            SchedEventKind::Completed => {
                if let Some(id) = ev.job {
                    let j = self.job_mut(id);
                    j.completed = true;
                    self.completions += 1;
                }
            }
            SchedEventKind::Crash => {
                if let Some(w) = worker {
                    self.dead.insert(w);
                }
            }
            SchedEventKind::Recover => {
                if let Some(w) = worker {
                    self.dead.remove(&w);
                }
            }
            SchedEventKind::Redistributed => {
                if let Some(id) = ev.job {
                    let j = self.job_mut(id);
                    j.placed_on = None;
                    j.acked = false;
                    j.redistributions += 1;
                }
            }
            SchedEventKind::AssignAcked => {
                if let Some(id) = ev.job {
                    self.job_mut(id).acked = true;
                }
            }
            SchedEventKind::LeaseExpired => {
                if let Some(id) = ev.job {
                    let j = self.job_mut(id);
                    j.placed_on = None;
                    j.acked = false;
                }
            }
            SchedEventKind::Resent { .. } => {}
            SchedEventKind::LeaderElected { term } => self.term = term,
            SchedEventKind::FailoverReplayed { .. } => {}
            SchedEventKind::SpillOut { to_shard } => {
                if let Some(id) = ev.job {
                    let j = self.job_mut(id);
                    j.spilled_to = Some(to_shard);
                    j.placed_on = None;
                    j.acked = false;
                    j.contest_open = false;
                    self.spill_outs += 1;
                }
            }
            SchedEventKind::SpillIn { from_shard } => {
                if let Some(id) = ev.job {
                    let j = self.job_mut(id);
                    // A spill-in is the receiving shard's submission:
                    // the job is now locally allocatable.
                    j.submitted = true;
                    j.spilled_from = Some(from_shard);
                    self.spill_ins += 1;
                }
            }
            SchedEventKind::WorkerJoined => {
                if let Some(w) = worker {
                    self.dead.remove(&w);
                    self.draining.remove(&w);
                    self.removed.remove(&w);
                }
            }
            SchedEventKind::WorkerDraining => {
                if let Some(w) = worker {
                    self.draining.insert(w);
                }
            }
            SchedEventKind::WorkerRemoved => {
                if let Some(w) = worker {
                    self.draining.remove(&w);
                    self.removed.insert(w);
                }
            }
            // Task release and speculation markers annotate the
            // ordinary entries of the task's job; the DAG
            // bookkeeping itself is rebuilt by the atomizer from the
            // same entries, so the generic job state needs no extra
            // fields for them.
            SchedEventKind::TaskOffer { .. }
            | SchedEventKind::TaskDone { .. }
            | SchedEventKind::SpecLaunch { .. } => {}
            SchedEventKind::SpecCancel { .. } => {
                if let Some(id) = ev.job {
                    // The losing attempt is terminal: strip any live
                    // placement and make sure a successor never
                    // re-offers it.
                    let j = self.job_mut(id);
                    j.cancelled = true;
                    j.placed_on = None;
                    j.acked = false;
                    j.contest_open = false;
                }
            }
            // Peer-fetch and repair traffic are observed facts about
            // the data plane; placement state is untouched.
            SchedEventKind::FetchReq { .. }
            | SchedEventKind::FetchOk { .. }
            | SchedEventKind::FetchFail { .. }
            | SchedEventKind::RepairStart { .. }
            | SchedEventKind::RepairDone { .. } => {}
            SchedEventKind::ReplicaAdd { object } => {
                if let Some(w) = worker {
                    self.replicas.entry(object).or_default().insert(w);
                }
            }
            SchedEventKind::ReplicaDrop { object, .. } => {
                if let Some(w) = worker {
                    if let Some(set) = self.replicas.get_mut(&object) {
                        set.remove(&w);
                        if set.is_empty() {
                            self.replicas.remove(&object);
                        }
                    }
                }
            }
        }
    }

    /// One job's reconstructed state.
    pub fn job(&self, id: JobId) -> Option<&JobState> {
        self.jobs.get(&id)
    }

    /// The worker currently holding `id`'s placement, if any.
    pub fn placed_on(&self, id: JobId) -> Option<WorkerId> {
        self.jobs.get(&id).and_then(|j| j.placed_on)
    }

    /// Last worker that rejected `id`, if any.
    pub fn last_rejector(&self, id: JobId) -> Option<WorkerId> {
        self.jobs.get(&id).and_then(|j| j.last_rejector)
    }

    /// Is `w` crashed (and not recovered) per the log?
    pub fn is_dead(&self, w: WorkerId) -> bool {
        self.dead.contains(&w)
    }

    /// Is `w` draining (finishing its queue, no new placements)?
    pub fn is_draining(&self, w: WorkerId) -> bool {
        self.draining.contains(&w)
    }

    /// Has `w` been removed from the roster?
    pub fn is_removed(&self, w: WorkerId) -> bool {
        self.removed.contains(&w)
    }

    /// Every submitted, uncompleted job with no current placement —
    /// exactly what a successor must re-enter into allocation. A job
    /// spilled out to a peer shard is *not* unplaced: the peer's log
    /// owns it. Sorted by job id (BTreeMap order) for deterministic
    /// re-offers.
    pub fn unplaced_jobs(&self) -> Vec<JobId> {
        self.jobs
            .iter()
            .filter(|(_, j)| {
                j.submitted
                    && !j.completed
                    && !j.cancelled
                    && j.placed_on.is_none()
                    && j.spilled_to.is_none()
            })
            .map(|(&id, _)| id)
            .collect()
    }

    /// Every live placement `(job, worker)` — what a successor must
    /// keep honouring (leases, retries) rather than re-issue.
    pub fn placements(&self) -> Vec<(JobId, WorkerId)> {
        self.jobs
            .iter()
            .filter(|(_, j)| !j.completed)
            .filter_map(|(&id, j)| j.placed_on.map(|w| (id, w)))
            .collect()
    }

    /// Last-rejector pairs for uncompleted jobs, for rebuilding the
    /// re-offer tie-break after failover.
    pub fn rejections(&self) -> Vec<(JobId, WorkerId)> {
        self.jobs
            .iter()
            .filter(|(_, j)| !j.completed)
            .filter_map(|(&id, j)| j.last_rejector.map(|w| (id, w)))
            .collect()
    }
}

/// A [`SchedLog`] behind a quorum-replication discipline plus the
/// [`MasterFaultPlan`] crash schedule. With no crashes armed, `append`
/// is a plain push — the hot path stays identical to a plain traced
/// run.
#[derive(Debug, Clone, Default)]
pub struct ReplicatedLog {
    log: SchedLog,
    crash_at: Vec<u64>,
    next_crash: usize,
    /// Total append *attempts* so far (1-based at comparison time).
    appends: u64,
    term: u32,
}

impl ReplicatedLog {
    /// A replicated log under `plan`'s crash schedule. The first
    /// leader owns term 1.
    pub fn new(plan: &MasterFaultPlan) -> Self {
        ReplicatedLog {
            log: SchedLog::new(),
            crash_at: plan.crash_at.clone(),
            next_crash: 0,
            appends: 0,
            term: 1,
        }
    }

    /// A replication-free log (tracing only; `append` never crashes).
    pub fn plain() -> Self {
        Self::new(&MasterFaultPlan::none())
    }

    /// Append one entry, replicating it to the standby quorum.
    ///
    /// If the crash schedule says the leader dies during this attempt:
    /// a *decision* entry is truncated (never committed — the caller
    /// must not act on it), while an *ingest* fact had already reached
    /// the quorum and commits. Either way the caller must stop acting
    /// as leader and run failover.
    pub fn append(&mut self, ev: SchedEvent) -> AppendOutcome {
        self.appends += 1;
        if self
            .crash_at
            .get(self.next_crash)
            .is_some_and(|&at| self.appends == at)
        {
            self.next_crash += 1;
            let truncated = is_decision(&ev.kind);
            if !truncated {
                self.log.push(ev);
            }
            return AppendOutcome::LeaderCrashed { truncated };
        }
        self.log.push(ev);
        AppendOutcome::Committed
    }

    /// Elect a standby and rebuild state by replay: returns the new
    /// term, the replayed [`SchedState`] and the number of committed
    /// entries replayed. Appends the `LeaderElected` /
    /// `FailoverReplayed` markers (election entries do not count
    /// toward the crash schedule's append indices).
    pub fn failover(&mut self, at: SimTime) -> (u32, SchedState, u64) {
        let entries = self.log.len() as u64;
        let state = SchedState::replay(self.log.events());
        self.term += 1;
        self.log.push(SchedEvent {
            at,
            worker: None,
            job: None,
            kind: SchedEventKind::LeaderElected { term: self.term },
        });
        self.log.push(SchedEvent {
            at,
            worker: None,
            job: None,
            kind: SchedEventKind::FailoverReplayed { entries },
        });
        (self.term, state, entries)
    }

    /// Current leadership term (the first leader is term 1).
    pub fn term(&self) -> u32 {
        self.term
    }

    /// Total append attempts so far.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// How many appends commit before the next armed crash: 0 when the
    /// very next one crashes, `None` when no crash is left to come.
    pub fn appends_before_crash(&self) -> Option<u64> {
        let at = *self.crash_at.get(self.next_crash)?;
        (at > self.appends).then(|| at - self.appends - 1)
    }

    /// The committed log.
    pub fn log(&self) -> &SchedLog {
        &self.log
    }

    /// Take the committed log out (end of run).
    pub fn into_log(mut self) -> SchedLog {
        self.log.shrink_to_fit();
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sev(at: u64, worker: Option<u32>, job: Option<u64>, kind: SchedEventKind) -> SchedEvent {
        SchedEvent {
            at: SimTime::from_secs(at),
            worker: worker.map(WorkerId),
            job: job.map(JobId),
            kind,
        }
    }

    #[test]
    fn plain_log_commits_everything() {
        let mut rlog = ReplicatedLog::plain();
        for i in 0..5u64 {
            let out = rlog.append(sev(i, None, Some(i), SchedEventKind::Submitted));
            assert_eq!(out, AppendOutcome::Committed);
        }
        assert_eq!(rlog.log().len(), 5);
        assert_eq!(rlog.term(), 1);
        assert_eq!(rlog.into_log().submissions(), 5);
    }

    #[test]
    fn decision_appends_truncate_at_the_crash_index() {
        let plan = MasterFaultPlan::new().crash_at(2);
        let mut rlog = ReplicatedLog::new(&plan);
        assert_eq!(
            rlog.append(sev(0, None, Some(1), SchedEventKind::Submitted)),
            AppendOutcome::Committed
        );
        // Append #2 is a decision: the leader dies mid-append and the
        // entry must not survive.
        assert_eq!(
            rlog.append(sev(0, Some(0), Some(1), SchedEventKind::Offered)),
            AppendOutcome::LeaderCrashed { truncated: true }
        );
        assert_eq!(rlog.log().len(), 1);
        assert_eq!(rlog.log().offers(), 0);
    }

    #[test]
    fn ingest_appends_commit_before_the_crash() {
        let plan = MasterFaultPlan::new().crash_at(1);
        let mut rlog = ReplicatedLog::new(&plan);
        assert_eq!(
            rlog.append(sev(0, None, Some(1), SchedEventKind::Submitted)),
            AppendOutcome::LeaderCrashed { truncated: false }
        );
        assert_eq!(rlog.log().submissions(), 1, "the fact stands");
    }

    #[test]
    fn failover_bumps_term_and_logs_markers() {
        let plan = MasterFaultPlan::new().crash_at(2);
        let mut rlog = ReplicatedLog::new(&plan);
        rlog.append(sev(0, None, Some(1), SchedEventKind::Submitted));
        rlog.append(sev(0, Some(0), Some(1), SchedEventKind::Offered));
        let (term, state, entries) = rlog.failover(SimTime::from_secs(1));
        assert_eq!(term, 2);
        assert_eq!(entries, 1, "only the committed Submitted replays");
        assert_eq!(state.unplaced_jobs(), vec![JobId(1)]);
        assert_eq!(rlog.log().failovers(), 1);
        assert_eq!(rlog.log().replayed_entries(), 1);
        // Election markers don't consume crash-schedule indices.
        assert_eq!(rlog.appends(), 2);
    }

    #[test]
    fn appends_before_crash_counts_down_to_each_armed_index() {
        let submit = || sev(0, None, Some(1), SchedEventKind::Submitted);
        let mut plain = ReplicatedLog::plain();
        assert_eq!(plain.appends_before_crash(), None, "none armed");
        plain.append(submit());
        assert_eq!(plain.appends_before_crash(), None);

        let plan = MasterFaultPlan::new().crash_at(1).crash_at(4);
        let mut rlog = ReplicatedLog::new(&plan);
        assert_eq!(rlog.appends_before_crash(), Some(0), "the very next append");
        rlog.append(submit());
        assert_eq!(rlog.appends_before_crash(), Some(2));
        rlog.append(submit());
        rlog.append(submit());
        assert_eq!(rlog.appends_before_crash(), Some(0));
        rlog.failover(SimTime::from_secs(1));
        assert_eq!(
            rlog.appends_before_crash(),
            Some(0),
            "markers count nothing"
        );
        assert!(matches!(
            rlog.append(submit()),
            AppendOutcome::LeaderCrashed { .. }
        ));
        assert_eq!(rlog.appends_before_crash(), None, "every crash passed");
        rlog.append(submit());
        assert_eq!(rlog.appends_before_crash(), None);
    }

    #[test]
    fn replay_reconstructs_placements_and_rejections() {
        let evs = [
            sev(0, None, Some(1), SchedEventKind::Submitted),
            sev(0, None, Some(2), SchedEventKind::Submitted),
            sev(0, None, Some(3), SchedEventKind::Submitted),
            sev(1, Some(0), Some(1), SchedEventKind::Offered),
            sev(1, Some(0), Some(1), SchedEventKind::Rejected),
            sev(1, Some(1), Some(1), SchedEventKind::Offered),
            sev(2, Some(2), Some(2), SchedEventKind::Offered),
            sev(2, Some(2), Some(2), SchedEventKind::AssignAcked),
            sev(3, Some(2), Some(2), SchedEventKind::Completed),
        ];
        let st = SchedState::replay(evs.iter());
        assert_eq!(st.submissions, 3);
        assert_eq!(st.completions, 1);
        assert_eq!(st.unplaced_jobs(), vec![JobId(3)]);
        assert_eq!(st.placements(), vec![(JobId(1), WorkerId(1))]);
        assert_eq!(st.rejections(), vec![(JobId(1), WorkerId(0))]);
        assert_eq!(st.last_rejector(JobId(1)), Some(WorkerId(0)));
        assert_eq!(st.placed_on(JobId(1)), Some(WorkerId(1)));
        assert!(st.job(JobId(2)).unwrap().acked);
    }

    #[test]
    fn replay_tracks_contests_and_dead_workers() {
        let evs = [
            sev(0, None, Some(1), SchedEventKind::Submitted),
            sev(0, None, Some(1), SchedEventKind::ContestOpened),
            sev(
                0,
                Some(0),
                Some(1),
                SchedEventKind::BidReceived { estimate_secs: 2.0 },
            ),
            sev(1, Some(0), None, SchedEventKind::Crash),
            sev(1, Some(1), None, SchedEventKind::Crash),
            sev(2, Some(1), None, SchedEventKind::Recover),
        ];
        let st = SchedState::replay(evs.iter());
        let j = st.job(JobId(1)).unwrap();
        assert!(j.contest_open);
        assert_eq!(j.bids, vec![(WorkerId(0), 2.0)]);
        assert!(st.is_dead(WorkerId(0)));
        assert!(!st.is_dead(WorkerId(1)));
        // A redistribution strips the placement.
        let mut st = st;
        st.apply(&sev(3, Some(0), Some(1), SchedEventKind::Assigned));
        st.apply(&sev(4, Some(0), Some(1), SchedEventKind::Redistributed));
        assert_eq!(st.placed_on(JobId(1)), None);
        assert_eq!(st.job(JobId(1)).unwrap().redistributions, 1);
        assert_eq!(st.unplaced_jobs(), vec![JobId(1)]);
    }

    #[test]
    fn replay_tracks_spills_and_membership() {
        let evs = [
            sev(0, None, Some(1), SchedEventKind::Submitted),
            sev(0, None, Some(2), SchedEventKind::Submitted),
            sev(
                1,
                None,
                Some(1),
                SchedEventKind::SpillOut {
                    to_shard: ShardId(3),
                },
            ),
            sev(
                2,
                None,
                Some(9),
                SchedEventKind::SpillIn {
                    from_shard: ShardId(2),
                },
            ),
            sev(3, Some(5), None, SchedEventKind::WorkerJoined),
            sev(4, Some(0), None, SchedEventKind::WorkerDraining),
            sev(5, Some(0), None, SchedEventKind::WorkerRemoved),
        ];
        let st = SchedState::replay(evs.iter());
        assert_eq!(st.spill_outs, 1);
        assert_eq!(st.spill_ins, 1);
        // Job 1 left the shard: not unplaced. Job 9 arrived by spill:
        // locally allocatable without a local Submitted. Job 2 is the
        // ordinary unplaced case.
        assert_eq!(st.unplaced_jobs(), vec![JobId(2), JobId(9)]);
        assert_eq!(st.job(JobId(1)).unwrap().spilled_to, Some(ShardId(3)));
        assert_eq!(st.job(JobId(9)).unwrap().spilled_from, Some(ShardId(2)));
        assert!(st.is_draining(WorkerId(0)) || st.is_removed(WorkerId(0)));
        assert!(st.is_removed(WorkerId(0)));
        assert!(!st.is_draining(WorkerId(0)), "removal clears draining");
        assert!(!st.is_removed(WorkerId(5)));
    }

    #[test]
    fn spill_out_appends_are_decisions() {
        let plan = MasterFaultPlan::new().crash_at(1);
        let mut rlog = ReplicatedLog::new(&plan);
        assert_eq!(
            rlog.append(sev(
                0,
                None,
                Some(1),
                SchedEventKind::SpillOut {
                    to_shard: ShardId(1),
                },
            )),
            AppendOutcome::LeaderCrashed { truncated: true },
            "an uncommitted hand-off must not leave the shard"
        );
        assert_eq!(rlog.log().len(), 0);
    }

    #[test]
    fn spec_cancel_is_a_terminal_decision() {
        // SpecCancel must truncate on a leader crash (an uncommitted
        // cancellation means the attempt is still live)…
        let plan = MasterFaultPlan::new().crash_at(1);
        let mut rlog = ReplicatedLog::new(&plan);
        assert_eq!(
            rlog.append(sev(
                0,
                None,
                Some(7),
                SchedEventKind::SpecCancel {
                    root: JobId(100),
                    task: 2,
                },
            )),
            AppendOutcome::LeaderCrashed { truncated: true }
        );
        // …and once committed, the losing attempt is terminal: a
        // successor must not re-offer it.
        let evs = [
            sev(0, None, Some(7), SchedEventKind::Submitted),
            sev(1, Some(1), Some(7), SchedEventKind::Assigned),
            sev(
                2,
                None,
                Some(7),
                SchedEventKind::SpecCancel {
                    root: JobId(100),
                    task: 2,
                },
            ),
        ];
        let st = SchedState::replay(evs.iter());
        assert!(st.job(JobId(7)).unwrap().cancelled);
        assert_eq!(st.placed_on(JobId(7)), None);
        assert!(st.unplaced_jobs().is_empty());
        assert!(st.placements().is_empty());
    }

    #[test]
    fn split_replay_equals_whole_replay() {
        // replay(prefix) then apply(suffix) must equal replay(whole)
        // at every split point — the property failover correctness
        // rides on, in miniature (the integration proptest sweeps real
        // run logs).
        let evs = [
            sev(0, None, Some(1), SchedEventKind::Submitted),
            sev(0, None, Some(1), SchedEventKind::ContestOpened),
            sev(
                0,
                Some(1),
                Some(1),
                SchedEventKind::BidReceived { estimate_secs: 1.5 },
            ),
            sev(
                1,
                Some(1),
                Some(1),
                SchedEventKind::ContestClosed {
                    timed_out: false,
                    fallback: false,
                },
            ),
            sev(1, Some(1), Some(1), SchedEventKind::Assigned),
            sev(2, Some(1), Some(1), SchedEventKind::AssignAcked),
            sev(3, Some(1), None, SchedEventKind::Crash),
            sev(5, Some(1), Some(1), SchedEventKind::Redistributed),
            sev(5, None, None, SchedEventKind::LeaderElected { term: 2 }),
            sev(
                5,
                None,
                None,
                SchedEventKind::FailoverReplayed { entries: 8 },
            ),
            sev(6, Some(0), Some(1), SchedEventKind::Offered),
            sev(7, Some(0), Some(1), SchedEventKind::Completed),
        ];
        let whole = SchedState::replay(evs.iter());
        for split in 0..=evs.len() {
            let mut st = SchedState::replay(evs[..split].iter());
            for ev in &evs[split..] {
                st.apply(ev);
            }
            assert_eq!(st, whole, "split at {split} diverged");
        }
        assert_eq!(whole.term, 2);
    }
}
