//! The Crossflow **Baseline** scheduler (§4 of the paper).
//!
//! "Crossflow currently deals with scheduling by enabling worker
//! nodes to pull jobs from the master. Before being executed, each
//! pulled job is internally evaluated by the worker to check if it
//! conforms to that worker's acceptance criteria. If it does, the job
//! is processed, otherwise, it is returned to the master so another
//! worker can consider it. ... workers are required to keep track of
//! any jobs they have previously declined. This enables them to accept
//! such jobs upon a second attempt."
//!
//! Concretely:
//! * idle workers register with the master (pull);
//! * the master offers the head of its ready queue to the
//!   longest-idle worker;
//! * the worker's acceptance criterion is **data locality**: accept if
//!   the resource is already in the local store — or if this worker
//!   has declined this very job before (the reject-once rule);
//! * a rejected job is immediately re-offered to the next idle worker.

use std::collections::{HashMap, VecDeque};

use crossbid_metrics::SchedulerKind;

use crate::idle::IdlePool;
use crate::job::{Job, JobId, WorkerId};
use crate::scheduler::{
    Allocator, JobView, MasterScheduler, SchedCtx, WorkerPolicy, WorkerToMaster, WorkerView,
};

/// Master side of the Baseline: a ready queue plus an [`IdlePool`] of
/// idle workers. Both runtimes run it.
#[derive(Debug, Default)]
pub struct BaselineMaster {
    ready: VecDeque<Job>,
    idle: IdlePool,
    /// Who last rejected each in-flight job: a re-offer prefers any
    /// *other* idle worker, so the rejection can route the job
    /// somewhere better. Entries clear when the job completes.
    rejected_by: HashMap<JobId, WorkerId>,
}

impl BaselineMaster {
    /// Fresh master state.
    pub fn new() -> Self {
        Self::default()
    }

    fn dispatch(&mut self, ctx: &mut SchedCtx) {
        while !self.ready.is_empty() && !self.idle.is_empty() {
            let job = self.ready.pop_front().expect("checked non-empty");
            let avoid = self.rejected_by.get(&job.id).map(|w| w.0);
            let worker = self
                .idle
                .pop_preferring_not(avoid)
                .expect("checked non-empty");
            ctx.offer(WorkerId(worker), job);
        }
    }
}

impl MasterScheduler for BaselineMaster {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Baseline
    }

    fn on_job(&mut self, job: Job, ctx: &mut SchedCtx) {
        self.ready.push_back(job);
        self.dispatch(ctx);
    }

    fn on_worker_message(&mut self, from: WorkerId, msg: WorkerToMaster, ctx: &mut SchedCtx) {
        match msg {
            WorkerToMaster::Idle => {
                self.idle.push(from.0);
                self.dispatch(ctx);
            }
            WorkerToMaster::Reject { job } => {
                // The worker stays idle — unless it left the roster: a
                // drainer bouncing its last offer must not re-enter
                // the pull pool. Remembering it as the rejector makes
                // dispatch consider every other idle node first.
                if ctx.workers().iter().any(|h| h.id == from) {
                    self.idle.push(from.0);
                }
                self.rejected_by.insert(job.id, from);
                self.ready.push_front(job);
                self.dispatch(ctx);
            }
            WorkerToMaster::Bid { .. } => {
                // The Baseline runs no contests; a stray bid is a
                // protocol error from a misconfigured worker. Ignore.
            }
        }
    }

    fn on_job_done(&mut self, _worker: WorkerId, job: &Job, _ctx: &mut SchedCtx) {
        self.rejected_by.remove(&job.id);
    }

    fn on_worker_failed(&mut self, worker: WorkerId, _ctx: &mut SchedCtx) {
        // Never offer to a dead worker again (until it re-registers by
        // announcing idleness after recovery).
        self.idle.remove(worker.0);
    }

    fn restore_rejection(&mut self, job: JobId, worker: WorkerId) {
        // Replayed after failover so a re-offered job still avoids the
        // worker the committed log says declined it.
        self.rejected_by.insert(job, worker);
    }
}

/// Worker side of the Baseline: the locality acceptance criterion plus
/// the reject-once obligation.
#[derive(Debug, Default, Clone, Copy)]
pub struct BaselinePolicy;

impl WorkerPolicy for BaselinePolicy {
    fn accept_offer(&mut self, view: &WorkerView, _job: &JobView) -> bool {
        view.has_data || view.declined_before
    }

    fn bid(&mut self, _view: &WorkerView, _job: &JobView) -> Option<f64> {
        None
    }
}

/// The bundled Baseline allocator.
#[derive(Debug, Default, Clone, Copy)]
pub struct BaselineAllocator;

impl Allocator for BaselineAllocator {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Baseline
    }

    fn master(&self) -> Box<dyn MasterScheduler> {
        Box::new(BaselineMaster::new())
    }

    fn worker_policy(&self) -> Box<dyn WorkerPolicy> {
        Box::new(BaselinePolicy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, Payload, TaskId};
    use crate::scheduler::{SchedAction, WorkerHandle};
    use crossbid_simcore::{RngStream, SimTime};

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

    fn drive<F: FnOnce(&mut BaselineMaster, &mut SchedCtx)>(
        m: &mut BaselineMaster,
        f: F,
    ) -> Vec<SchedAction> {
        let workers = handles(3);
        let mut rng = RngStream::from_seed(0);
        let mut token = 0;
        let mut ctx = SchedCtx::new(SimTime::ZERO, &workers, &mut rng, &mut token);
        f(m, &mut ctx);
        ctx.take_actions()
    }

    #[test]
    fn job_waits_until_a_worker_is_idle() {
        let mut m = BaselineMaster::new();
        let a = drive(&mut m, |m, ctx| m.on_job(mk_job(1), ctx));
        assert!(a.is_empty(), "no idle worker yet");
        let a = drive(&mut m, |m, ctx| {
            m.on_worker_message(WorkerId(2), WorkerToMaster::Idle, ctx)
        });
        assert_eq!(a.len(), 1);
        assert!(matches!(
            a[0],
            SchedAction::Offer {
                worker: WorkerId(2),
                ..
            }
        ));
    }

    #[test]
    fn idle_worker_gets_job_on_arrival() {
        let mut m = BaselineMaster::new();
        drive(&mut m, |m, ctx| {
            m.on_worker_message(WorkerId(0), WorkerToMaster::Idle, ctx)
        });
        let a = drive(&mut m, |m, ctx| m.on_job(mk_job(1), ctx));
        assert!(matches!(
            a[0],
            SchedAction::Offer {
                worker: WorkerId(0),
                ..
            }
        ));
    }

    #[test]
    fn reject_reoffers_to_next_idle_worker() {
        let mut m = BaselineMaster::new();
        drive(&mut m, |m, ctx| {
            m.on_worker_message(WorkerId(0), WorkerToMaster::Idle, ctx);
        });
        let a = drive(&mut m, |m, ctx| m.on_job(mk_job(1), ctx));
        assert_eq!(a.len(), 1);
        // Worker 1 becomes idle, then worker 0 rejects.
        drive(&mut m, |m, ctx| {
            m.on_worker_message(WorkerId(1), WorkerToMaster::Idle, ctx)
        });
        let a = drive(&mut m, |m, ctx| {
            m.on_worker_message(WorkerId(0), WorkerToMaster::Reject { job: mk_job(1) }, ctx)
        });
        assert_eq!(a.len(), 1);
        assert!(
            matches!(
                a[0],
                SchedAction::Offer {
                    worker: WorkerId(1),
                    ..
                }
            ),
            "other idle worker considered first: {a:?}"
        );
    }

    #[test]
    fn lone_rejecting_worker_gets_job_back() {
        let mut m = BaselineMaster::new();
        drive(&mut m, |m, ctx| {
            m.on_worker_message(WorkerId(0), WorkerToMaster::Idle, ctx)
        });
        drive(&mut m, |m, ctx| m.on_job(mk_job(7), ctx));
        let a = drive(&mut m, |m, ctx| {
            m.on_worker_message(WorkerId(0), WorkerToMaster::Reject { job: mk_job(7) }, ctx)
        });
        // Only idle worker: the job comes straight back — second offer,
        // which the policy must accept.
        assert!(matches!(
            a[0],
            SchedAction::Offer {
                worker: WorkerId(0),
                ..
            }
        ));
    }

    #[test]
    fn a_rejector_off_the_roster_is_not_repooled() {
        let mut m = BaselineMaster::new();
        drive(&mut m, |m, ctx| {
            m.on_worker_message(WorkerId(0), WorkerToMaster::Idle, ctx)
        });
        drive(&mut m, |m, ctx| m.on_job(mk_job(1), ctx));
        // Worker 0 drains — it leaves the roster — and bounces the
        // offer: the job waits for another worker, and worker 0 is
        // never offered it again.
        let all = handles(3);
        let (mut rng, mut token) = (RngStream::from_seed(0), 0);
        let mut ctx = SchedCtx::new(SimTime::ZERO, &all[1..], &mut rng, &mut token);
        m.on_worker_message(
            WorkerId(0),
            WorkerToMaster::Reject { job: mk_job(1) },
            &mut ctx,
        );
        assert!(ctx.take_actions().is_empty(), "nobody else is idle");
        let a = drive(&mut m, |m, ctx| {
            m.on_worker_message(WorkerId(1), WorkerToMaster::Idle, ctx)
        });
        assert!(matches!(
            a[0],
            SchedAction::Offer {
                worker: WorkerId(1),
                ..
            }
        ));
    }

    #[test]
    fn rejected_job_has_priority_over_queue() {
        let mut m = BaselineMaster::new();
        drive(&mut m, |m, ctx| m.on_job(mk_job(1), ctx));
        drive(&mut m, |m, ctx| m.on_job(mk_job(2), ctx));
        drive(&mut m, |m, ctx| {
            m.on_worker_message(WorkerId(0), WorkerToMaster::Idle, ctx)
        });
        // job 1 went to worker 0; reject it.
        let a = drive(&mut m, |m, ctx| {
            m.on_worker_message(WorkerId(0), WorkerToMaster::Reject { job: mk_job(1) }, ctx)
        });
        // Re-offered ahead of job 2.
        match &a[0] {
            SchedAction::Offer { job, .. } => assert_eq!(job.id, JobId(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_idle_messages_are_deduped() {
        let mut m = BaselineMaster::new();
        drive(&mut m, |m, ctx| {
            m.on_worker_message(WorkerId(0), WorkerToMaster::Idle, ctx);
            m.on_worker_message(WorkerId(0), WorkerToMaster::Idle, ctx);
        });
        let a = drive(&mut m, |m, ctx| {
            m.on_job(mk_job(1), ctx);
            m.on_job(mk_job(2), ctx);
        });
        assert_eq!(a.len(), 1, "one worker must not get two offers: {a:?}");
    }

    #[test]
    fn policy_accepts_local_or_second_offer() {
        let mut p = BaselinePolicy;
        let mut view = WorkerView {
            id: WorkerId(0),
            now: SimTime::ZERO,
            backlog_secs: 0.0,
            has_data: false,
            declined_before: false,
            est_fetch_secs: 5.0,
            est_proc_secs: 1.0,
            queue_len: 0,
        };
        let job = JobView {
            id: JobId(1),
            resource_bytes: 100,
        };
        assert!(!p.accept_offer(&view, &job), "no data, first offer");
        view.has_data = true;
        assert!(p.accept_offer(&view, &job), "data is local");
        view.has_data = false;
        view.declined_before = true;
        assert!(p.accept_offer(&view, &job), "second offer must be taken");
        assert!(p.bid(&view, &job).is_none());
    }

    #[test]
    fn allocator_bundles() {
        let alloc = BaselineAllocator;
        assert_eq!(alloc.kind(), SchedulerKind::Baseline);
        assert_eq!(alloc.master().kind(), SchedulerKind::Baseline);
    }
}
