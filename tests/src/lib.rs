//! Test-support crate: the actual integration tests live in the
//! sibling `tests/` directory of this package and span every crate in
//! the workspace.

use std::collections::HashMap;

use crossbid_crossflow::{JobId, SchedEventKind, SchedLog, WorkerId};
use crossbid_simcore::SimTime;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `text`, continuing from `hash`.
fn fnv(hash: u64, text: &str) -> u64 {
    text.bytes()
        .fold(hash, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// What the golden files pin of a scheduler log: its event count and
/// FNV-1a over its debug rendering.
pub fn log_digest(log: &SchedLog) -> String {
    let hash = log
        .events()
        .fold(FNV_OFFSET, |h, e| fnv(h, &format!("{e:?}")));
    format!("{} events, fnv {hash:016x}", log.len())
}

/// FNV-1a of one rendered line, as the golden files spell it.
pub fn text_digest(text: &str) -> String {
    format!("fnv {:016x}", fnv(FNV_OFFSET, text))
}

/// One bid on, or one placement of, a DAG task's job, with the task
/// it was for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskEntry {
    /// Virtual instant of the bid or the placement.
    pub at: SimTime,
    /// The bidder, or the worker the job was placed on.
    pub worker: Option<WorkerId>,
    /// The task's job (a speculative replica has its own).
    pub job: Option<JobId>,
    /// Root id of the DAG.
    pub root: JobId,
    /// Task index within the DAG.
    pub task: u32,
    /// A bid or a placement.
    pub kind: TaskEntryKind,
}

/// What a [`TaskEntry`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskEntryKind {
    /// A committed bid and its estimate.
    Bid { estimate_secs: f64 },
    /// An `Assigned` or `Offered`; `speculative` iff the job is a
    /// replica.
    Placed { speculative: bool },
}

/// Every bid on, and every placement of, a DAG task's job in `log`, in
/// log order: a join of each `BidReceived`, `Assigned` and `Offered`
/// with the `TaskOffer` or `SpecLaunch` that gave its job to a task.
pub fn task_entries(log: &SchedLog) -> Vec<TaskEntry> {
    let mut task_of = HashMap::new();
    let mut entries = Vec::new();
    for e in log.events() {
        let Some(job) = e.job else { continue };
        match e.kind {
            SchedEventKind::TaskOffer { root, task, .. } => {
                task_of.insert(job, (root, task, false));
            }
            SchedEventKind::SpecLaunch { root, task } => {
                task_of.insert(job, (root, task, true));
            }
            SchedEventKind::BidReceived { .. }
            | SchedEventKind::Assigned
            | SchedEventKind::Offered => {
                let Some(&(root, task, speculative)) = task_of.get(&job) else {
                    continue;
                };
                let kind = match e.kind {
                    SchedEventKind::BidReceived { estimate_secs } => {
                        TaskEntryKind::Bid { estimate_secs }
                    }
                    _ => TaskEntryKind::Placed { speculative },
                };
                entries.push(TaskEntry {
                    at: e.at,
                    worker: e.worker,
                    job: e.job,
                    root,
                    task,
                    kind,
                });
            }
            _ => {}
        }
    }
    entries
}

/// What the golden files pin of a run's task entries: their count and
/// FNV-1a over their debug renderings, sorted. Sorted, because one
/// job's bids at one instant commute in the log, which stores them by
/// worker rather than in the order they were taken.
pub fn task_digest(entries: impl IntoIterator<Item = TaskEntry>) -> String {
    let mut lines: Vec<String> = entries.into_iter().map(|e| format!("{e:?}")).collect();
    lines.sort_unstable();
    let hash = lines.iter().fold(FNV_OFFSET, |h, line| fnv(h, line));
    format!("{} task entries, fnv {hash:016x}", lines.len())
}
