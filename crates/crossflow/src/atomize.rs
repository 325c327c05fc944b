//! Job atomization: task DAGs, per-task locality bidding, and
//! speculative straggler re-bidding.
//!
//! The unit of allocation elsewhere in this crate is a whole job.
//! JASDA-style scheduler-driven atomization splits an arriving job
//! into a [`TaskDag`] — tasks with input artifacts, output sizes and
//! precedence edges — and lets the *existing* bidding protocol price
//! each task separately: every released task becomes an ordinary
//! [`Job`](crate::job::Job) flowing through the unchanged
//! contest/offer machinery, so locality pricing (which predecessor
//! outputs a worker already holds) and backlog avoidance fall out for
//! free. What this module adds is the DAG bookkeeping both runtimes
//! share:
//!
//! * **gating** — a task is released into allocation only when every
//!   predecessor has a committed `TaskDone` (the `TaskOffer` decision
//!   is committed to the replicated log *before* the task's job is
//!   submitted);
//! * **output crediting** — an effective completion inserts the task's
//!   output artifact into the executing worker's store, so downstream
//!   bids see the new locality;
//! * **speculation** — a straggler detector compares each in-flight
//!   task's age against the median completed-task duration and
//!   re-offers the slowest one speculatively (`SpecLaunch`); the first
//!   completion wins (`TaskDone`), the loser is cancelled exactly once
//!   (`SpecCancel`) and its eventual completion report is swallowed.
//!
//! The runtimes own id allocation, logging and message dispatch;
//! [`DagState`] makes the pure decisions, so the sim engine and the
//! threaded master cannot drift.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::job::{JobId, JobSpec, Payload, ResourceRef, TaskId};
use crate::mutation::ProtocolMutation;

/// Hard cap on tasks per DAG: predecessor sets are logged as a `u64`
/// bitmask (`TaskOffer { preds, .. }`), which keeps the log
/// self-describing for the oracle.
pub const MAX_DAG_TASKS: usize = 64;

/// One task of a [`TaskDag`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskNode {
    /// Bitmask of predecessor task indices. Topological by
    /// construction: a predecessor's index must be smaller than this
    /// task's own index ([`TaskDag::validate`]).
    pub preds: u64,
    /// The dominant input artifact — either an external resource (a
    /// repository to clone) or a predecessor's output, in which case
    /// bidding prices the transfer unless the bidder already holds it.
    pub input: Option<ResourceRef>,
    /// The artifact this task produces, credited to the executing
    /// worker's store on effective completion.
    pub output: ResourceRef,
    /// Bytes the processing step scans.
    pub work_bytes: u64,
    /// Fixed CPU seconds on a nominal-speed worker.
    pub cpu_secs: f64,
}

/// Errors a malformed DAG can carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// More than [`MAX_DAG_TASKS`] tasks.
    TooManyTasks(usize),
    /// An empty DAG cannot complete.
    Empty,
    /// Task `task` lists itself or a higher index as predecessor —
    /// the topological numbering (and thus acyclicity) is broken.
    ForwardPred {
        /// The offending task index.
        task: u32,
    },
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::TooManyTasks(n) => {
                write!(f, "DAG has {n} tasks, cap is {MAX_DAG_TASKS}")
            }
            DagError::Empty => write!(f, "DAG has no tasks"),
            DagError::ForwardPred { task } => {
                write!(f, "task {task} names itself or a later task as predecessor")
            }
        }
    }
}

/// A job's task DAG: what the atomizer turns one arriving job into.
///
/// Indices are topological by construction — `tasks[i].preds` may only
/// set bits `< i` — so acyclicity is a local check, not a search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskDag {
    /// Tasks in topological order.
    pub tasks: Vec<TaskNode>,
}

impl TaskDag {
    /// Wrap a task list into a DAG, validating it.
    pub fn new(tasks: Vec<TaskNode>) -> Result<Self, DagError> {
        let dag = TaskDag { tasks };
        dag.validate()?;
        Ok(dag)
    }

    /// Check the structural invariants (size cap, topological preds).
    pub fn validate(&self) -> Result<(), DagError> {
        if self.tasks.is_empty() {
            return Err(DagError::Empty);
        }
        if self.tasks.len() > MAX_DAG_TASKS {
            return Err(DagError::TooManyTasks(self.tasks.len()));
        }
        for (i, t) in self.tasks.iter().enumerate() {
            // Bits at or above the task's own index would name itself
            // or a later task — a cycle under topological numbering.
            if t.preds >> i != 0 {
                return Err(DagError::ForwardPred { task: i as u32 });
            }
        }
        Ok(())
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True iff the DAG has no tasks (never true for a validated DAG).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Bitmask with one bit per task.
    pub fn full_mask(&self) -> u64 {
        if self.tasks.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.tasks.len()) - 1
        }
    }

    /// The [`JobSpec`] for task `idx`, targeting workflow stage
    /// `stage`. The payload carries the task index so traces stay
    /// attributable.
    pub fn task_spec(&self, stage: TaskId, idx: u32) -> JobSpec {
        let t = &self.tasks[idx as usize];
        JobSpec {
            task: stage,
            resource: t.input,
            work_bytes: t.work_bytes,
            cpu_secs: t.cpu_secs,
            payload: Payload::Index(idx as u64),
            origin: None,
            dag: None,
        }
    }

    /// Collapse the whole DAG into a single job — the whole-job
    /// allocation baseline the atomized run is compared against. Work
    /// is the sum over tasks; the resource is the first external input
    /// (predecessor outputs are internal hand-offs, not a resource the
    /// collapsed job could fetch).
    pub fn collapsed_spec(&self, stage: TaskId) -> JobSpec {
        let cpu: f64 = self.tasks.iter().map(|t| t.cpu_secs).sum();
        let work: u64 = self.tasks.iter().map(|t| t.work_bytes).sum();
        let resource = self
            .tasks
            .iter()
            .find(|t| t.preds == 0 && t.input.is_some())
            .and_then(|t| t.input);
        JobSpec {
            task: stage,
            resource,
            work_bytes: work,
            cpu_secs: cpu,
            payload: Payload::None,
            origin: None,
            dag: None,
        }
    }
}

/// Atomization knobs, embedded in
/// [`EngineConfig`](crate::engine::EngineConfig) so both runtimes read
/// the same values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomizeConfig {
    /// An in-flight task is a straggler when its age exceeds
    /// `spec_factor ×` the median completed-task duration.
    pub spec_factor: f64,
    /// Virtual seconds between straggler sweeps.
    pub spec_check_secs: f64,
    /// Minimum completed tasks before the median is trusted.
    pub min_completed_for_spec: usize,
}

impl Default for AtomizeConfig {
    fn default() -> Self {
        AtomizeConfig {
            spec_factor: 2.0,
            spec_check_secs: 2.0,
            min_completed_for_spec: 3,
        }
    }
}

/// What a completion report means for the DAG layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DoneOutcome {
    /// Not a task job — the ordinary whole-job path applies.
    NotTask,
    /// The report is from a cancelled losing attempt (or a duplicate
    /// completion of an already-done task): swallow it. The attempt
    /// was already accounted when its `SpecCancel` committed, so the
    /// caller must log nothing and bump nothing.
    Swallowed,
    /// First effective completion of the task.
    Effective {
        /// Root id of the DAG.
        root: JobId,
        /// Task index that completed.
        task: u32,
        /// Output artifact to credit to the executing worker's store.
        output: ResourceRef,
        /// Successor tasks this completion released, as
        /// `(task index, job spec)` — the caller commits a `TaskOffer`
        /// per entry, allocates an id, and submits it.
        released: Vec<(u32, JobSpec)>,
        /// Other live attempts of the same task to cancel
        /// (`SpecCancel` each, exactly once).
        losers: Vec<JobId>,
    },
}

/// A straggler the detector wants to speculate, returned by
/// [`DagState::straggler`]. The caller commits `SpecLaunch` first and
/// only then binds the replica ([`DagState::bind`]) — commit before
/// act.
#[derive(Debug, Clone, PartialEq)]
pub struct Speculation {
    /// Root id of the DAG.
    pub root: JobId,
    /// Task index to replicate.
    pub task: u32,
    /// Spec for the replica job (fresh id to be allocated by caller).
    pub spec: JobSpec,
}

/// An `f64` ordered by `total_cmp`, so instants and durations can key
/// ordered collections.
#[derive(Debug, Clone, Copy)]
struct Total(f64);

impl PartialEq for Total {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Total {}

impl PartialOrd for Total {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Total {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The upper median — `sorted[len / 2]` under `total_cmp` — of a
/// growing multiset, O(log n) per push and O(1) to read: `lo` holds
/// the `len / 2` smallest values, `hi` the rest.
#[derive(Debug, Default)]
struct UpperMedian {
    lo: BinaryHeap<Total>,
    hi: BinaryHeap<Reverse<Total>>,
}

impl UpperMedian {
    fn len(&self) -> usize {
        self.lo.len() + self.hi.len()
    }

    fn push(&mut self, x: f64) {
        let x = Total(x);
        if self.hi.peek().is_some_and(|Reverse(min_hi)| x >= *min_hi) {
            self.hi.push(Reverse(x));
        } else {
            self.lo.push(x);
        }
        // One push leaves `lo` at most one off its share.
        let share = self.len() / 2;
        if self.lo.len() > share {
            let max_lo = self.lo.pop().expect("lo is over its share");
            self.hi.push(Reverse(max_lo));
        } else if self.lo.len() < share {
            let Reverse(min_hi) = self.hi.pop().expect("hi is over its share");
            self.lo.push(min_hi);
        }
    }

    fn get(&self) -> Option<f64> {
        self.hi.peek().map(|Reverse(m)| m.0)
    }
}

/// One job bound to a task of a [`DagRun`].
#[derive(Debug)]
struct Attempt {
    job: JobId,
    task: u32,
    speculative: bool,
    /// Its completion report arrived (as the winner, or swallowed).
    reported: bool,
}

/// A registered DAG that still has a task to complete.
#[derive(Debug)]
struct DagRun {
    dag: TaskDag,
    /// Workflow stage the task jobs target.
    stage: TaskId,
    /// Completed-task bitmask.
    done: u64,
    /// Released-task bitmask.
    offered: u64,
    /// Tasks for which a `SpecLaunch` committed.
    spec_launched: u64,
    /// Every attempt bound so far, in bind order.
    attempts: Vec<Attempt>,
}

impl DagRun {
    /// The attempt that ages into a straggler: the task's first
    /// non-speculative one. A replica that straggles too is not
    /// re-replicated.
    fn primary(&self, task: u32) -> Option<JobId> {
        self.attempts
            .iter()
            .find(|a| a.task == task && !a.speculative)
            .map(|a| a.job)
    }
}

/// Shared DAG bookkeeping for both runtimes. Pure decisions only: the
/// caller owns the replicated log, id allocation and dispatch, and
/// must commit the corresponding decision entry *before* acting on
/// anything returned from here.
///
/// State is kept per DAG *in flight*: a DAG is retired when its last
/// task completes, and what survives it is one `task_of_job` row per
/// attempt still owing a completion report (a cancelled loser, or one
/// whose `SpecCancel` never committed), dropped when that report is
/// swallowed. The one thing that grows with the run is the multiset of
/// completed-task durations behind the straggler median (8 bytes a
/// task).
#[derive(Debug, Default)]
pub struct DagState {
    cfg: AtomizeConfig,
    /// `OfferBeforePredecessor` releases every task at registration;
    /// `DoubleSpeculate` skips the launched-once guard.
    mutation: ProtocolMutation,
    /// Incomplete DAGs by root id.
    dags: BTreeMap<JobId, DagRun>,
    /// job → (root, task index), for attempts of incomplete DAGs and
    /// for attempts that outlived theirs.
    task_of_job: HashMap<JobId, (JobId, u32)>,
    /// Losing attempts whose `SpecCancel` committed and whose
    /// completion report has not arrived yet: it will be swallowed.
    cancelled: HashSet<JobId>,
    /// Placement instants (virtual seconds) of the attempts of
    /// undecided tasks.
    placed_at: HashMap<JobId, f64>,
    /// What a sweep may speculate, oldest first: `(placed_at, root,
    /// task)` of every placed primary whose task is undecided and not
    /// yet speculated (all undecided ones under `DoubleSpeculate`).
    aging: BTreeSet<(Total, JobId, u32)>,
    /// Durations of effective completions, for the straggler median.
    durations: UpperMedian,
}

impl DagState {
    /// Fresh state under `cfg`.
    pub fn new(cfg: AtomizeConfig) -> Self {
        DagState::mutated(cfg, ProtocolMutation::None)
    }

    /// Fresh state under `cfg`, with `mutation` armed.
    pub(crate) fn mutated(cfg: AtomizeConfig, mutation: ProtocolMutation) -> Self {
        DagState {
            cfg,
            mutation,
            ..Default::default()
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AtomizeConfig {
        &self.cfg
    }

    /// True iff any registered DAG is incomplete — the straggler sweep
    /// keeps running while this holds. O(1).
    pub fn is_active(&self) -> bool {
        !self.dags.is_empty()
    }

    /// Did `job`'s `SpecCancel` commit, with its completion report
    /// still to come? (Nothing further may be logged for it.)
    pub fn is_cancelled(&self, job: JobId) -> bool {
        self.cancelled.contains(&job)
    }

    /// A completion report for `job` arrived: true iff it is a
    /// cancelled loser's, which the caller swallows whole (the attempt
    /// was accounted when its `SpecCancel` committed). That settles
    /// the attempt, so its bookkeeping is dropped; the caller's own
    /// at-least-once filter absorbs any duplicate delivery.
    pub fn take_cancelled(&mut self, job: JobId) -> bool {
        if !self.cancelled.remove(&job) {
            return false;
        }
        if let Some(&(root, _)) = self.task_of_job.get(&job) {
            self.settle(root, job);
        }
        true
    }

    /// `job`'s report arrived and does not count. Its row stays while
    /// its DAG is in flight and goes with it; a row that outlived the
    /// DAG goes now.
    fn settle(&mut self, root: JobId, job: JobId) {
        match self.dags.get_mut(&root) {
            Some(d) => {
                if let Some(a) = d.attempts.iter_mut().find(|a| a.job == job) {
                    a.reported = true;
                }
            }
            None => {
                self.task_of_job.remove(&job);
            }
        }
    }

    /// `(root, task)` for a task job, `None` for plain jobs (and for
    /// settled attempts of a retired DAG).
    pub fn task_of(&self, job: JobId) -> Option<(JobId, u32)> {
        self.task_of_job.get(&job).copied()
    }

    /// Predecessor mask and task count for a task of an incomplete
    /// DAG — what the caller logs on `TaskOffer`.
    pub fn offer_payload(&self, root: JobId, task: u32) -> (u64, u32) {
        let d = &self.dags[&root];
        (d.dag.tasks[task as usize].preds, d.dag.len() as u32)
    }

    /// Register an arriving DAG under the allocated `root` id and
    /// return the initially releasable tasks as `(index, spec)`.
    /// Source tasks (no predecessors) — or, under the
    /// `OfferBeforePredecessor` mutation, every task.
    pub fn register(&mut self, root: JobId, stage: TaskId, dag: TaskDag) -> Vec<(u32, JobSpec)> {
        debug_assert!(dag.validate().is_ok(), "unvalidated DAG reached register");
        let n = dag.len();
        let mut run = DagRun {
            stage,
            done: 0,
            offered: 0,
            spec_launched: 0,
            attempts: Vec::with_capacity(n),
            dag,
        };
        let mut released = Vec::new();
        for i in 0..n as u32 {
            let gate_open = run.dag.tasks[i as usize].preds == 0;
            if gate_open || self.mutation == ProtocolMutation::OfferBeforePredecessor {
                run.offered |= 1 << i;
                released.push((i, run.dag.task_spec(stage, i)));
            }
        }
        self.dags.insert(root, run);
        released
    }

    /// The `TaskOffer` of a task that [`register`](Self::register) or
    /// [`on_done`](Self::on_done) released never committed: the task
    /// is owed a release again ([`reopen_frontier`](Self::reopen_frontier)).
    pub(crate) fn unoffer(&mut self, root: JobId, task: u32) {
        if let Some(d) = self.dags.get_mut(&root) {
            d.offered &= !(1 << task);
        }
    }

    /// Every task of an in-flight DAG that is releasable — gate open,
    /// not done — and not offered, in `(root, task)` order, marked
    /// offered again: what a standby releases at takeover. Empty
    /// unless a release was [`unoffer`](Self::unoffer)ed.
    pub(crate) fn reopen_frontier(&mut self) -> Vec<(JobId, u32, JobSpec)> {
        let mut owed = Vec::new();
        let release_all = self.mutation == ProtocolMutation::OfferBeforePredecessor;
        for (&root, d) in &mut self.dags {
            for i in 0..d.dag.len() as u32 {
                let bit = 1u64 << i;
                let gate_open = d.dag.tasks[i as usize].preds & !d.done == 0;
                if (d.offered | d.done) & bit == 0 && (gate_open || release_all) {
                    d.offered |= bit;
                    owed.push((root, i, d.dag.task_spec(d.stage, i)));
                }
            }
        }
        owed
    }

    /// Bind the job id the caller allocated for a released task (or a
    /// speculative replica, after its `SpecLaunch` committed) of an
    /// incomplete DAG.
    pub fn bind(&mut self, root: JobId, task: u32, job: JobId, speculative: bool) {
        let d = self.dags.get_mut(&root).expect("bind for unknown DAG");
        d.attempts.push(Attempt {
            job,
            task,
            speculative,
            reported: false,
        });
        if speculative {
            d.spec_launched |= 1 << task;
            if self.mutation != ProtocolMutation::DoubleSpeculate {
                // Launched-once guard: the primary stops aging.
                let t0 = d.primary(task).and_then(|p| self.placed_at.get(&p));
                if let Some(&t0) = t0 {
                    self.aging.remove(&(Total(t0), root, task));
                }
            }
        }
        self.task_of_job.insert(job, (root, task));
    }

    /// Record a placement instant — the straggler clock for this
    /// attempt (re-placements after failover restart it). Instants
    /// need not be monotone; a plain job's placement is ignored.
    pub fn on_placed(&mut self, job: JobId, now_secs: f64) {
        let Some(&(root, task)) = self.task_of_job.get(&job) else {
            return;
        };
        // Nothing reads the clock of a decided task.
        let Some(d) = self.dags.get(&root).filter(|d| d.done >> task & 1 == 0) else {
            return;
        };
        let restarted = self.placed_at.insert(job, now_secs);
        if d.primary(task) == Some(job) {
            if let Some(t0) = restarted {
                self.aging.remove(&(Total(t0), root, task));
            }
            if d.spec_launched >> task & 1 == 0
                || self.mutation == ProtocolMutation::DoubleSpeculate
            {
                self.aging.insert((Total(now_secs), root, task));
            }
        }
    }

    /// Classify a completion report for `job`.
    pub fn on_done(&mut self, job: JobId, now_secs: f64) -> DoneOutcome {
        let Some(&(root, task)) = self.task_of_job.get(&job) else {
            return DoneOutcome::NotTask;
        };
        if self.take_cancelled(job) {
            return DoneOutcome::Swallowed;
        }
        let bit = 1u64 << task;
        let Some(d) = self.dags.get_mut(&root).filter(|d| d.done & bit == 0) else {
            // Already effectively complete (e.g. both attempts raced
            // to done in one instant, or the loser's `SpecCancel`
            // never committed): only the first one counts.
            self.settle(root, job);
            return DoneOutcome::Swallowed;
        };
        d.done |= bit;
        // The task is decided: every attempt's clock stops (the
        // primary's is the one `aging` may hold), the winner's as a
        // duration sample.
        let mut losers = Vec::new();
        for a in d.attempts.iter_mut().filter(|a| a.task == task) {
            let t0 = self.placed_at.remove(&a.job);
            if let Some(t0) = t0 {
                self.aging.remove(&(Total(t0), root, task));
            }
            if a.job == job {
                a.reported = true;
                if let Some(t0) = t0 {
                    self.durations.push((now_secs - t0).max(0.0));
                }
            } else if !self.cancelled.contains(&a.job) {
                losers.push(a.job);
            }
        }
        let mut released = Vec::new();
        if self.mutation != ProtocolMutation::OfferBeforePredecessor {
            for i in 0..d.dag.len() as u32 {
                let ibit = 1u64 << i;
                if d.offered & ibit == 0 && d.dag.tasks[i as usize].preds & !d.done == 0 {
                    d.offered |= ibit;
                    released.push((i, d.dag.task_spec(d.stage, i)));
                }
            }
        }
        let output = d.dag.tasks[task as usize].output;
        if d.done == d.dag.full_mask() {
            // Retire the DAG. Attempts still owing a report keep their
            // row, so that report is swallowed rather than taken for a
            // plain job's.
            let d = self.dags.remove(&root).expect("the DAG just completed");
            for a in d.attempts.iter().filter(|a| a.reported) {
                self.task_of_job.remove(&a.job);
            }
        }
        DoneOutcome::Effective {
            root,
            task,
            output,
            released,
            losers,
        }
    }

    /// Mark a losing attempt cancelled — call right after its
    /// `SpecCancel` committed.
    pub fn cancel(&mut self, job: JobId) {
        self.cancelled.insert(job);
    }

    /// Straggler sweep at `now_secs`: the single slowest in-flight
    /// task worth speculating, if any — the primary that has been
    /// placed longest, the smallest `(root, task)` among equal ages.
    /// O(1) plus the ties. Pure — the caller commits `SpecLaunch`,
    /// allocates the replica id, then [`bind`]s it (which sets the
    /// launched-once guard).
    ///
    /// [`bind`]: Self::bind
    pub fn straggler(&self, now_secs: f64) -> Option<Speculation> {
        if self.durations.len() < self.cfg.min_completed_for_spec {
            return None;
        }
        let threshold = self.cfg.spec_factor * self.durations.get()?;
        // `aging` runs oldest first and f64 subtraction is monotone,
        // so the first age is the largest. Distinct instants can still
        // round to one age, and then the smaller `(root, task)` wins.
        let mut best: Option<(f64, JobId, u32)> = None;
        for &(Total(t0), root, task) in &self.aging {
            let age = now_secs - t0;
            match best {
                None if age > threshold => best = Some((age, root, task)),
                Some((oldest, r, t)) if age == oldest => {
                    if (root, task) < (r, t) {
                        best = Some((age, root, task));
                    }
                }
                _ => break,
            }
        }
        let (_, root, task) = best?;
        let d = &self.dags[&root];
        Some(Speculation {
            root,
            task,
            spec: d.dag.task_spec(d.stage, task),
        })
    }

    /// Rows held per table: `[dags, task_of_job, cancelled, placed_at,
    /// aging]` — all zero once every DAG drained and every loser
    /// reported.
    #[cfg(test)]
    fn rows(&self) -> [usize; 5] {
        [
            self.dags.len(),
            self.task_of_job.len(),
            self.cancelled.len(),
            self.placed_at.len(),
            self.aging.len(),
        ]
    }
}

/// `DagState` as it was before its cost stopped growing with the run
/// — every DAG, attempt and duration kept forever, the sweep cloning
/// and sorting the durations and walking every DAG ever registered —
/// kept verbatim as the reference the indexed state is checked against.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug)]
    struct TaskRun {
        /// Live attempts: `(job id, speculative)`.
        attempts: Vec<(JobId, bool)>,
        /// Set once a `SpecLaunch` committed for this task.
        spec_launched: bool,
    }

    #[derive(Debug)]
    struct DagRun {
        dag: TaskDag,
        stage: TaskId,
        done: u64,
        offered: u64,
        tasks: Vec<TaskRun>,
    }

    #[derive(Debug, Default)]
    pub struct DagState {
        cfg: AtomizeConfig,
        mutation: ProtocolMutation,
        dags: BTreeMap<JobId, DagRun>,
        task_of_job: HashMap<JobId, (JobId, u32, bool)>,
        cancelled: HashSet<JobId>,
        placed_at: HashMap<JobId, f64>,
        durations: Vec<f64>,
    }

    impl DagState {
        pub fn new(cfg: AtomizeConfig, mutation: ProtocolMutation) -> Self {
            DagState {
                cfg,
                mutation,
                ..Default::default()
            }
        }

        pub fn is_active(&self) -> bool {
            self.dags.values().any(|d| d.done != d.dag.full_mask())
        }

        pub fn register(
            &mut self,
            root: JobId,
            stage: TaskId,
            dag: TaskDag,
        ) -> Vec<(u32, JobSpec)> {
            let n = dag.len();
            let mut run = DagRun {
                stage,
                done: 0,
                offered: 0,
                tasks: (0..n)
                    .map(|_| TaskRun {
                        attempts: Vec::new(),
                        spec_launched: false,
                    })
                    .collect(),
                dag,
            };
            let mut released = Vec::new();
            for i in 0..n as u32 {
                let gate_open = run.dag.tasks[i as usize].preds == 0;
                if gate_open || self.mutation == ProtocolMutation::OfferBeforePredecessor {
                    run.offered |= 1 << i;
                    released.push((i, run.dag.task_spec(stage, i)));
                }
            }
            self.dags.insert(root, run);
            released
        }

        pub fn bind(&mut self, root: JobId, task: u32, job: JobId, speculative: bool) {
            let d = self.dags.get_mut(&root).expect("bind for unknown DAG");
            let t = &mut d.tasks[task as usize];
            t.attempts.push((job, speculative));
            if speculative {
                t.spec_launched = true;
            }
            self.task_of_job.insert(job, (root, task, speculative));
        }

        pub fn on_placed(&mut self, job: JobId, now_secs: f64) {
            if self.task_of_job.contains_key(&job) {
                self.placed_at.insert(job, now_secs);
            }
        }

        pub fn on_done(&mut self, job: JobId, now_secs: f64) -> DoneOutcome {
            let Some(&(root, task, _spec)) = self.task_of_job.get(&job) else {
                return DoneOutcome::NotTask;
            };
            if self.cancelled.contains(&job) {
                return DoneOutcome::Swallowed;
            }
            let d = self.dags.get_mut(&root).expect("task of unknown DAG");
            let bit = 1u64 << task;
            if d.done & bit != 0 {
                return DoneOutcome::Swallowed;
            }
            d.done |= bit;
            if let Some(t0) = self.placed_at.remove(&job) {
                self.durations.push((now_secs - t0).max(0.0));
            }
            let losers: Vec<JobId> = d.tasks[task as usize]
                .attempts
                .iter()
                .map(|&(j, _)| j)
                .filter(|&j| j != job && !self.cancelled.contains(&j))
                .collect();
            for &l in &losers {
                self.placed_at.remove(&l);
            }
            let mut released = Vec::new();
            if self.mutation != ProtocolMutation::OfferBeforePredecessor {
                for i in 0..d.dag.len() as u32 {
                    let ibit = 1u64 << i;
                    if d.offered & ibit == 0 && d.dag.tasks[i as usize].preds & !d.done == 0 {
                        d.offered |= ibit;
                        released.push((i, d.dag.task_spec(d.stage, i)));
                    }
                }
            }
            let output = d.dag.tasks[task as usize].output;
            DoneOutcome::Effective {
                root,
                task,
                output,
                released,
                losers,
            }
        }

        pub fn cancel(&mut self, job: JobId) {
            self.cancelled.insert(job);
        }

        pub fn straggler(&self, now_secs: f64) -> Option<Speculation> {
            if self.durations.len() < self.cfg.min_completed_for_spec {
                return None;
            }
            let mut sorted = self.durations.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let median = sorted[sorted.len() / 2];
            let threshold = self.cfg.spec_factor * median;
            let mut best: Option<(f64, Speculation)> = None;
            for (&root, d) in &self.dags {
                for (i, t) in d.tasks.iter().enumerate() {
                    let bit = 1u64 << i;
                    if d.done & bit != 0 {
                        continue;
                    }
                    if t.spec_launched && self.mutation != ProtocolMutation::DoubleSpeculate {
                        continue;
                    }
                    // Only primaries age into stragglers; a replica that
                    // straggles too is not re-replicated.
                    let Some(&(job, _)) = t.attempts.iter().find(|&&(_, s)| !s) else {
                        continue;
                    };
                    let Some(&t0) = self.placed_at.get(&job) else {
                        continue;
                    };
                    let age = now_secs - t0;
                    if age <= threshold {
                        continue;
                    }
                    let cand = Speculation {
                        root,
                        task: i as u32,
                        spec: d.dag.task_spec(d.stage, i as u32),
                    };
                    if best.as_ref().is_none_or(|(a, _)| age > *a) {
                        best = Some((age, cand));
                    }
                }
            }
            best.map(|(_, s)| s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbid_storage::ObjectId;

    fn rr(id: u64, bytes: u64) -> ResourceRef {
        ResourceRef {
            id: ObjectId(id),
            bytes,
        }
    }

    fn node(preds: u64, input: Option<ResourceRef>, out: u64) -> TaskNode {
        TaskNode {
            preds,
            input,
            output: rr(out, 1000),
            work_bytes: input.map_or(0, |r| r.bytes),
            cpu_secs: 1.0,
        }
    }

    /// source → two mid tasks → sink.
    fn diamond() -> TaskDag {
        TaskDag::new(vec![
            node(0b0, Some(rr(1, 4000)), 100),
            node(0b1, Some(rr(100, 1000)), 101),
            node(0b1, Some(rr(100, 1000)), 102),
            node(0b110, Some(rr(101, 1000)), 103),
        ])
        .unwrap()
    }

    #[test]
    fn validate_rejects_malformed_dags() {
        assert_eq!(TaskDag::new(vec![]).unwrap_err(), DagError::Empty);
        let self_edge = TaskDag {
            tasks: vec![node(0b1, None, 1)],
        };
        assert_eq!(
            self_edge.validate().unwrap_err(),
            DagError::ForwardPred { task: 0 }
        );
        let forward = TaskDag {
            tasks: vec![node(0, None, 1), node(0b100, None, 2), node(0, None, 3)],
        };
        assert_eq!(
            forward.validate().unwrap_err(),
            DagError::ForwardPred { task: 1 }
        );
        let big = TaskDag {
            tasks: (0..65).map(|_| node(0, None, 9)).collect(),
        };
        assert_eq!(big.validate().unwrap_err(), DagError::TooManyTasks(65));
    }

    #[test]
    fn gating_releases_tasks_in_precedence_order() {
        let mut st = DagState::new(AtomizeConfig::default());
        let root = JobId(1000);
        let released = st.register(root, TaskId(0), diamond());
        assert_eq!(released.len(), 1, "only the source is gate-open");
        assert_eq!(released[0].0, 0);
        st.bind(root, 0, JobId(1), false);
        st.on_placed(JobId(1), 0.0);

        let out = st.on_done(JobId(1), 1.0);
        let DoneOutcome::Effective {
            released, losers, ..
        } = out
        else {
            panic!("expected effective completion, got {out:?}");
        };
        assert_eq!(
            released.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![1, 2],
            "both mid tasks unlock together"
        );
        assert!(losers.is_empty());

        st.bind(root, 1, JobId(2), false);
        st.bind(root, 2, JobId(3), false);
        match st.on_done(JobId(2), 2.0) {
            DoneOutcome::Effective { released, .. } => {
                assert!(released.is_empty(), "sink still gated on task 2")
            }
            other => panic!("{other:?}"),
        }
        match st.on_done(JobId(3), 2.0) {
            DoneOutcome::Effective { released, .. } => {
                assert_eq!(
                    released.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                    vec![3]
                )
            }
            other => panic!("{other:?}"),
        }
        st.bind(root, 3, JobId(4), false);
        assert!(st.is_active());
        st.on_done(JobId(4), 3.0);
        assert!(!st.is_active());
    }

    #[test]
    fn release_all_mutation_ignores_gating() {
        let mut st = DagState::mutated(
            AtomizeConfig::default(),
            ProtocolMutation::OfferBeforePredecessor,
        );
        let released = st.register(JobId(1000), TaskId(0), diamond());
        assert_eq!(released.len(), 4, "every task escapes the gate at once");
    }

    #[test]
    fn first_done_wins_and_the_loser_is_swallowed() {
        let mut st = DagState::new(AtomizeConfig::default());
        let root = JobId(1000);
        st.register(root, TaskId(0), diamond());
        st.bind(root, 0, JobId(1), false);
        st.on_placed(JobId(1), 0.0);
        // Speculative replica of task 0.
        st.bind(root, 0, JobId(9), true);
        st.on_placed(JobId(9), 5.0);

        // Replica completes first: it is the effective winner and the
        // primary is the loser.
        let out = st.on_done(JobId(9), 6.0);
        let DoneOutcome::Effective { losers, .. } = out else {
            panic!("{out:?}");
        };
        assert_eq!(losers, vec![JobId(1)]);
        st.cancel(JobId(1));
        assert!(st.is_cancelled(JobId(1)));
        assert_eq!(st.on_done(JobId(1), 7.0), DoneOutcome::Swallowed);
    }

    #[test]
    fn straggler_detection_picks_the_slowest_and_fires_once() {
        let cfg = AtomizeConfig {
            spec_factor: 2.0,
            min_completed_for_spec: 3,
            ..Default::default()
        };
        let mut st = DagState::new(cfg);
        let root = JobId(1000);
        // Four independent tasks.
        let dag = TaskDag::new(vec![
            node(0, None, 1),
            node(0, None, 2),
            node(0, None, 3),
            node(0, None, 4),
        ])
        .unwrap();
        st.register(root, TaskId(0), dag);
        for (i, j) in [(0u32, 1u64), (1, 2), (2, 3), (3, 4)] {
            st.bind(root, i, JobId(j), false);
            st.on_placed(JobId(j), 0.0);
        }
        // Three finish around 1s; task 3 lingers.
        st.on_done(JobId(1), 1.0);
        st.on_done(JobId(2), 1.1);
        st.on_done(JobId(3), 0.9);
        assert!(st.straggler(1.5).is_none(), "below spec_factor × median");
        let sp = st.straggler(10.0).expect("task 3 is a straggler");
        assert_eq!((sp.root, sp.task), (root, 3));
        // Launched-once guard.
        st.bind(root, 3, JobId(99), true);
        assert!(st.straggler(20.0).is_none());
        // …unless the DoubleSpeculate mutation removes it.
        let mut st2 = DagState::mutated(cfg, ProtocolMutation::DoubleSpeculate);
        st2.register(root, TaskId(0), diamond());
        st2.bind(root, 0, JobId(1), false);
        st2.on_placed(JobId(1), 0.0);
        for _ in 0..3 {
            st2.durations.push(1.0);
        }
        st2.bind(root, 0, JobId(9), true);
        assert!(
            st2.straggler(10.0).is_some(),
            "mutation re-speculates a launched task"
        );
    }

    #[test]
    fn collapsed_spec_sums_the_dag() {
        let d = diamond();
        let s = d.collapsed_spec(TaskId(7));
        assert_eq!(s.cpu_secs, 4.0);
        assert_eq!(s.work_bytes, 4000 + 1000 + 1000 + 1000);
        assert_eq!(s.resource, Some(rr(1, 4000)));
        assert_eq!(s.task, TaskId(7));
    }

    /// Four independent tasks under one root, every primary bound.
    fn four_wide(st: &mut DagState, root: JobId, first_job: u64) {
        let dag = TaskDag::new((1..=4).map(|o| node(0, None, o)).collect()).unwrap();
        for (i, _) in st.register(root, TaskId(0), dag) {
            st.bind(root, i, JobId(first_job + i as u64), false);
        }
    }

    #[test]
    fn upper_median_is_the_sorted_middle() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, -0.0, 0.0];
        let mut m = UpperMedian::default();
        assert_eq!(m.get(), None);
        for (n, &x) in xs.iter().enumerate() {
            m.push(x);
            let mut sorted = xs[..=n].to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let want = sorted[sorted.len() / 2];
            assert_eq!(m.get().map(f64::to_bits), Some(want.to_bits()), "n = {n}");
        }
    }

    #[test]
    fn ages_that_round_equal_tie_break_by_root_and_task() {
        // At 1e16 the f64 grid is 2 apart: placements at 0.25 and 0.5
        // both age to exactly 1e16, so the later-placed but
        // smaller-indexed task wins, as it did under the full walk.
        let cfg = AtomizeConfig {
            min_completed_for_spec: 1,
            ..Default::default()
        };
        let mut st = DagState::new(cfg);
        let mut old = reference::DagState::new(cfg, ProtocolMutation::None);
        let root = JobId(1000);
        four_wide(&mut st, root, 1);
        let dag = TaskDag::new((1..=4).map(|o| node(0, None, o)).collect()).unwrap();
        for (i, _) in old.register(root, TaskId(0), dag) {
            old.bind(root, i, JobId(1 + i as u64), false);
        }
        for (job, at) in [(1, 0.0), (2, 0.5), (3, 0.25), (4, 1e15)] {
            st.on_placed(JobId(job), at);
            old.on_placed(JobId(job), at);
        }
        st.on_done(JobId(1), 1.0);
        old.on_done(JobId(1), 1.0);
        let sp = st.straggler(1e16).expect("two stragglers");
        assert_eq!((sp.root, sp.task), (root, 1));
        assert_eq!(Some(sp), old.straggler(1e16));
    }

    #[test]
    fn re_placement_restarts_the_straggler_clock() {
        let cfg = AtomizeConfig {
            min_completed_for_spec: 1,
            ..Default::default()
        };
        let mut st = DagState::new(cfg);
        let root = JobId(1000);
        four_wide(&mut st, root, 1);
        for j in 1..=4 {
            st.on_placed(JobId(j), 0.0);
        }
        st.on_done(JobId(1), 1.0);
        assert_eq!(st.straggler(10.0).map(|s| s.task), Some(1));
        // Failover re-places task 1 later — and out of order: task 2
        // is then re-placed at an *earlier* instant than task 1.
        st.on_placed(JobId(2), 9.0);
        assert_eq!(st.straggler(10.0).map(|s| s.task), Some(2));
        st.on_placed(JobId(3), 8.5);
        assert_eq!(st.straggler(10.0).map(|s| s.task), Some(3));
        st.on_placed(JobId(4), 9.5);
        assert_eq!(st.straggler(10.0), None, "every clock restarted");
        assert_eq!(st.straggler(12.0).map(|s| s.task), Some(2));
    }

    #[test]
    fn a_finished_dag_is_retired_and_late_reports_stay_swallowed() {
        let mut st = DagState::new(AtomizeConfig::default());
        let root = JobId(1000);
        let single = || TaskDag::new(vec![node(0, None, 1)]).unwrap();
        st.register(root, TaskId(0), single());
        st.bind(root, 0, JobId(1), false);
        st.on_placed(JobId(1), 0.0);
        // Two replicas race the primary; the first replica wins.
        st.bind(root, 0, JobId(8), true);
        st.bind(root, 0, JobId(9), true);
        st.on_placed(JobId(8), 5.0);
        let DoneOutcome::Effective { losers, .. } = st.on_done(JobId(8), 6.0) else {
            panic!("the replica wins");
        };
        assert_eq!(losers, vec![JobId(1), JobId(9)]);
        // The DAG is gone; both losers still owe a report. Only the
        // primary's `SpecCancel` commits.
        assert!(!st.is_active());
        assert_eq!(st.rows(), [0, 2, 0, 0, 0]);
        st.cancel(JobId(1));
        assert_eq!(st.task_of(JobId(1)), Some((root, 0)));
        assert_eq!(st.task_of(JobId(8)), None, "the winner is settled");
        // A late placement of a loser starts no clock.
        st.on_placed(JobId(9), 7.0);
        assert_eq!(st.rows(), [0, 2, 1, 0, 0]);
        // The cancelled loser's report: swallowed at intake…
        assert!(st.is_cancelled(JobId(1)));
        assert!(st.take_cancelled(JobId(1)));
        assert!(!st.is_cancelled(JobId(1)));
        // …and the uncancelled one's — a duplicate `Done` of a decided
        // task — by `on_done`, never mistaken for a plain job's.
        assert_eq!(st.on_done(JobId(9), 8.0), DoneOutcome::Swallowed);
        assert_eq!(st.rows(), [0, 0, 0, 0, 0]);
    }

    #[test]
    fn a_drained_run_leaves_only_the_duration_samples() {
        let mut st = DagState::new(AtomizeConfig {
            min_completed_for_spec: 1,
            ..Default::default()
        });
        let mut next = 0u64;
        let mut id = || {
            next += 1;
            JobId(next)
        };
        let mut speculated = 0;
        for n in 0..50u64 {
            let root = id();
            let mut open: Vec<(u32, JobId)> = Vec::new();
            for (i, _) in st.register(root, TaskId(0), diamond()) {
                open.push((i, id()));
            }
            let mut t = n as f64;
            while let Some((task, job)) = open.pop() {
                st.bind(root, task, job, false);
                st.on_placed(job, t);
                // Every third DAG lets its source straggle, speculates
                // it, and lets the replica win.
                let (winner, placed) = match st.straggler(t + 100.0) {
                    Some(sp) if n % 3 == 0 && task == 0 => {
                        assert_eq!((sp.root, sp.task), (root, 0));
                        let replica = id();
                        st.bind(root, 0, replica, true);
                        st.on_placed(replica, t + 100.0);
                        speculated += 1;
                        (replica, t + 100.0)
                    }
                    _ => (job, t),
                };
                t = placed + 1.0;
                let DoneOutcome::Effective {
                    released, losers, ..
                } = st.on_done(winner, t)
                else {
                    panic!("first report of task {task}");
                };
                for l in losers {
                    st.cancel(l);
                    assert!(st.take_cancelled(l));
                }
                for (i, _) in released {
                    open.push((i, id()));
                }
            }
            assert!(!st.is_active(), "DAG {n} drained");
        }
        assert_eq!(speculated, 16);
        assert_eq!(st.rows(), [0, 0, 0, 0, 0]);
        assert_eq!(st.durations.len(), 200);
    }
}

/// Differential check of the indexed [`DagState`] against
/// [`reference::DagState`] over random protocol-shaped histories.
#[cfg(test)]
mod proptests {
    use super::*;
    use crossbid_storage::ObjectId;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// A DAG arrives: 0 = three independent tasks, 1 = a chain of
        /// three, 2 = a diamond.
        Register(u8),
        /// The oldest released task gets its primary.
        Bind,
        /// (Re-)place an unreported attempt at a grid instant — in any
        /// order, so clocks restart and instants collide.
        Place { attempt: usize, at: u8 },
        /// An attempt reports. Its losers' `SpecCancel`s commit or
        /// not; the report is pre-checked with `take_cancelled`, as
        /// the runtimes do, or handed straight to `on_done`.
        Done {
            attempt: usize,
            at: u8,
            cancel_losers: bool,
            pre_check: bool,
        },
        /// A straggler sweep, launching the replica it asks for or not.
        Sweep { at: u8, launch: bool },
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..15, 0usize..1000, 0u8..64, 0u8..4).prop_map(|(kind, attempt, at, flags)| {
            let (a, b) = (flags & 1 == 1, flags & 2 == 2);
            match kind {
                0 => Op::Register(at % 3),
                1..=3 => Op::Bind,
                4..=7 => Op::Place {
                    attempt,
                    at: at % 24,
                },
                8..=10 => Op::Done {
                    attempt,
                    at: at % 24,
                    cancel_losers: a,
                    pre_check: b,
                },
                _ => Op::Sweep { at, launch: a },
            }
        })
    }

    fn shape(kind: u8, root: JobId) -> TaskDag {
        let preds: &[u64] = match kind {
            0 => &[0, 0, 0],
            1 => &[0, 0b1, 0b10],
            _ => &[0, 0b1, 0b1, 0b110],
        };
        let nodes = preds.iter().enumerate().map(|(i, &preds)| TaskNode {
            preds,
            input: None,
            output: ResourceRef {
                id: ObjectId(root.0 * 8 + i as u64),
                bytes: 1000,
            },
            work_bytes: 0,
            cpu_secs: 1.0,
        });
        TaskDag::new(nodes.collect()).unwrap()
    }

    /// Both states side by side, plus what a runtime would remember.
    struct Twin {
        new: DagState,
        old: reference::DagState,
        next_id: u64,
        /// Released tasks waiting for their primary.
        unbound: std::collections::VecDeque<(JobId, u32)>,
        /// Bound attempts that have not reported.
        unreported: Vec<JobId>,
    }

    impl Twin {
        fn fresh_id(&mut self) -> JobId {
            self.next_id += 1;
            JobId(self.next_id)
        }

        fn apply(&mut self, op: &Op) {
            match *op {
                Op::Register(kind) => {
                    let root = self.fresh_id();
                    let released = self.new.register(root, TaskId(0), shape(kind, root));
                    prop_assert_eq!(
                        &released,
                        &self.old.register(root, TaskId(0), shape(kind, root))
                    );
                    self.unbound
                        .extend(released.iter().map(|(i, _)| (root, *i)));
                }
                Op::Bind => {
                    if let Some((root, task)) = self.unbound.pop_front() {
                        let job = self.fresh_id();
                        self.new.bind(root, task, job, false);
                        self.old.bind(root, task, job, false);
                        self.unreported.push(job);
                    }
                }
                Op::Place { attempt, at } => {
                    if !self.unreported.is_empty() {
                        let job = self.unreported[attempt % self.unreported.len()];
                        self.new.on_placed(job, at as f64 * 0.5);
                        self.old.on_placed(job, at as f64 * 0.5);
                    }
                }
                Op::Done {
                    attempt,
                    at,
                    cancel_losers,
                    pre_check,
                } => {
                    if self.unreported.is_empty() {
                        return;
                    }
                    let n = self.unreported.len();
                    let job = self.unreported.swap_remove(attempt % n);
                    let now = at as f64 * 0.5;
                    let outcome = if pre_check && self.new.take_cancelled(job) {
                        DoneOutcome::Swallowed
                    } else {
                        self.new.on_done(job, now)
                    };
                    prop_assert_eq!(&outcome, &self.old.on_done(job, now));
                    if let DoneOutcome::Effective {
                        root,
                        released,
                        losers,
                        ..
                    } = outcome
                    {
                        self.unbound
                            .extend(released.iter().map(|(i, _)| (root, *i)));
                        for l in losers.into_iter().filter(|_| cancel_losers) {
                            self.new.cancel(l);
                            self.old.cancel(l);
                        }
                    }
                }
                Op::Sweep { at, launch } => {
                    let pick = self.new.straggler(at as f64 * 0.5);
                    prop_assert_eq!(&pick, &self.old.straggler(at as f64 * 0.5));
                    if let Some(sp) = pick.filter(|_| launch) {
                        let job = self.fresh_id();
                        self.new.bind(sp.root, sp.task, job, true);
                        self.old.bind(sp.root, sp.task, job, true);
                        self.unreported.push(job);
                    }
                }
            }
            prop_assert_eq!(self.new.is_active(), self.old.is_active());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Same `Speculation` at every sweep and same `DoneOutcome`
        /// for every report as the reference, through re-placements,
        /// equal placement instants, replicas that win, uncommitted
        /// `SpecCancel`s and the `DoubleSpeculate` mutation; and once
        /// the history is played out to the end, nothing but the
        /// duration samples is left.
        #[test]
        fn indexed_state_decides_what_the_full_walk_decided(
            spec_factor in (0u32..3).prop_map(|i| [0.5, 1.0, 2.0][i as usize]),
            min_completed_for_spec in 0usize..4,
            double_speculate: bool,
            ops in proptest::collection::vec(op(), 1..250),
        ) {
            let cfg = AtomizeConfig {
                spec_factor,
                min_completed_for_spec,
                ..Default::default()
            };
            let mutation = if double_speculate {
                ProtocolMutation::DoubleSpeculate
            } else {
                ProtocolMutation::None
            };
            let mut twin = Twin {
                new: DagState::mutated(cfg, mutation),
                old: reference::DagState::new(cfg, mutation),
                next_id: 0,
                unbound: Default::default(),
                unreported: Vec::new(),
            };
            // The reference indexes an empty sample at zero
            // `min_completed_for_spec`; give both one first.
            twin.apply(&Op::Register(0));
            twin.apply(&Op::Bind);
            twin.apply(&Op::Place { attempt: 0, at: 0 });
            twin.apply(&Op::Done { attempt: 0, at: 2, cancel_losers: true, pre_check: true });
            for op in &ops {
                twin.apply(op);
            }
            while !twin.unbound.is_empty() || !twin.unreported.is_empty() {
                twin.apply(&Op::Bind);
                twin.apply(&Op::Sweep { at: 63, launch: false });
                twin.apply(&Op::Done { attempt: 0, at: 30, cancel_losers: true, pre_check: false });
            }
            prop_assert_eq!(twin.new.rows(), [0, 0, 0, 0, 0]);
        }
    }
}
