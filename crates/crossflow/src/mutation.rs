//! Reintroduced protocol bugs, for checker self-validation.
//!
//! Each [`ProtocolMutation`] variant re-creates one bug the protocol
//! was fixed of, so the test suite can prove the invariant oracle
//! detects that class of bug. One value,
//! [`EngineConfig::mutation`](crate::EngineConfig::mutation), arms it
//! for every run entry — the sim's [`run_workflow`](crate::run_workflow),
//! the threaded runtime and [`run_federation`](crate::run_federation) —
//! and the shared cores (the master core, [`DagState`](crate::DagState),
//! the replica plane, the federation router) compare against it where
//! the bug lives. The `protocol-mutation` cargo feature decides only
//! whether a run may be armed: without it, every entry refuses a
//! mutation other than [`ProtocolMutation::None`].

use crossbid_metrics::SchedulerKind;

use crate::job::{Job, JobId, WorkerId};
use crate::scheduler::{MasterScheduler, SchedCtx, SchedStats, WorkerToMaster};

/// One reintroduced protocol bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolMutation {
    /// The correct protocol.
    #[default]
    None,
    /// Drop the intake guard on non-finite bid estimates: a NaN/∞ bid
    /// is recorded into the contest like any other.
    AcceptNonFiniteBids,
    /// Drop the duplicate-bid short-circuit: a second bid from the
    /// same worker is recorded again and can close the contest.
    AcceptDuplicateBids,
    /// Honor bids that arrive after their contest closed: the late
    /// bidder steals the job with a second assignment.
    AcceptLateBids,
    /// Re-offer a rejected job straight back to the worker that just
    /// rejected it, even when another idle worker exists.
    ReofferToRejector,
    /// Reliability layer: drop the master's completed-job dedup — a
    /// duplicated `Done` delivery counts (and runs the workflow's
    /// downstream logic) twice.
    DropDedup,
    /// Reliability layer: the master records incoming placement acks
    /// but its retry/lease machinery ignores them — leases expire and
    /// bounce placements the worker already confirmed.
    IgnoreAcks,
    /// Reliability layer: disable the placement lease — a lost,
    /// retries-exhausted Assign/Offer is never bounced back to the
    /// scheduler and its job is silently lost.
    NoLeases,
    /// Atomization: release every DAG task at registration, ignoring
    /// predecessor gating — successors are offered before the tasks
    /// they depend on have completed.
    OfferBeforePredecessor,
    /// Atomization: drop the launched-once guard on the straggler
    /// detector — a task that already has a speculative replica is
    /// speculated again on every sweep.
    DoubleSpeculate,
    /// Replicated data plane: commit `repair_start` but never perform
    /// the copy — the oracle must flag the unmatched start as
    /// `RepairNeverCompleted`.
    SkipRepair,
    /// Replicated data plane: never pin sole surviving copies, so
    /// cache pressure may destroy the last live replica — the oracle
    /// must flag an `EvictedLastCopy` violation.
    EvictLastCopy,
    /// Federation, on the run's first hand-off: the forwarder keeps the
    /// job *and* hands it off, so it runs in both shards — the merged
    /// log shows a completion after `SpillOut` in the home shard and a
    /// second completion in the target.
    DoubleSpill,
    /// Federation, on the run's first hand-off: the receiver drops it —
    /// the home log records `SpillOut` but no shard ever runs the job.
    LostSpill,
}

impl ProtocolMutation {
    /// Is this the unmutated protocol?
    pub fn is_none(self) -> bool {
        self == ProtocolMutation::None
    }
}

/// The check every run entry makes first.
///
/// # Panics
/// On a mutation other than [`ProtocolMutation::None`] in a build
/// without the `protocol-mutation` cargo feature.
pub(crate) fn assert_armable(mutation: ProtocolMutation) {
    assert!(
        mutation.is_none() || cfg!(feature = "protocol-mutation"),
        "protocol mutations require the `protocol-mutation` cargo feature, got {mutation:?}"
    );
}

/// The reintroduced [`ProtocolMutation::ReofferToRejector`] bug,
/// wrapped around any scheduler: a rejected job goes straight back to
/// the worker that rejected it, without the inner scheduler ever
/// seeing the reject. Everything else passes through.
struct ReofferToRejector(Box<dyn MasterScheduler>);

impl MasterScheduler for ReofferToRejector {
    fn kind(&self) -> SchedulerKind {
        self.0.kind()
    }

    fn on_job(&mut self, job: Job, ctx: &mut SchedCtx) {
        self.0.on_job(job, ctx);
    }

    fn on_worker_message(&mut self, from: WorkerId, msg: WorkerToMaster, ctx: &mut SchedCtx) {
        match msg {
            WorkerToMaster::Reject { job } => ctx.offer(from, job),
            msg => self.0.on_worker_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut SchedCtx) {
        self.0.on_timer(token, ctx);
    }

    fn on_job_done(&mut self, worker: WorkerId, job: &Job, ctx: &mut SchedCtx) {
        self.0.on_job_done(worker, job, ctx);
    }

    fn on_worker_failed(&mut self, worker: WorkerId, ctx: &mut SchedCtx) {
        self.0.on_worker_failed(worker, ctx);
    }

    fn on_worker_recovered(&mut self, worker: WorkerId, ctx: &mut SchedCtx) {
        self.0.on_worker_recovered(worker, ctx);
    }

    fn restore_rejection(&mut self, job: JobId, worker: WorkerId) {
        self.0.restore_rejection(job, worker);
    }

    fn stats(&self) -> SchedStats {
        self.0.stats()
    }
}

/// `master`, wrapped in the bug when `mutation` re-offers to the
/// rejector.
pub(crate) fn scheduler(
    mutation: ProtocolMutation,
    master: Box<dyn MasterScheduler>,
) -> Box<dyn MasterScheduler> {
    match mutation {
        ProtocolMutation::ReofferToRejector => Box::new(ReofferToRejector(master)),
        _ => master,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arming_tracks_the_cargo_feature() {
        assert!(ProtocolMutation::default().is_none());
        assert_armable(ProtocolMutation::None);
        let armed = std::panic::catch_unwind(|| assert_armable(ProtocolMutation::LostSpill));
        assert_eq!(armed.is_ok(), cfg!(feature = "protocol-mutation"));
    }

    /// Without the feature, each of the three run entries refuses a
    /// mutation before it runs anything.
    #[cfg(not(feature = "protocol-mutation"))]
    #[test]
    fn every_run_entry_refuses_a_mutation_without_the_feature() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        use crate::baseline::BaselineAllocator;
        use crate::federation::{run_federation, FederationSpec};
        use crate::spec::RunSpec;
        use crate::worker::WorkerSpec;
        use crate::workflow::Workflow;

        let spec = RunSpec::builder()
            .worker(WorkerSpec::builder("w0").build())
            .mutation(ProtocolMutation::DropDedup)
            .build();
        // No shards: the federation's own check must refuse first, since
        // a shard's run would refuse the mutation too.
        let mut fed = FederationSpec::new(Vec::new());
        fed.engine.mutation = ProtocolMutation::LostSpill;
        let sink = || {
            let mut wf = Workflow::new();
            wf.add_sink("scan");
            wf
        };
        let refuses = |entry: &str, run: &dyn Fn()| {
            let refused = catch_unwind(AssertUnwindSafe(run)).expect_err(entry);
            let msg = refused.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("`protocol-mutation`"), "{entry}: {msg}");
        };
        refuses("sim", &|| {
            spec.sim()
                .run_iteration(&mut sink(), &BaselineAllocator, Vec::new());
        });
        refuses("threaded", &|| {
            spec.threaded()
                .run_iteration(&mut sink(), &BaselineAllocator, Vec::new());
        });
        refuses("federation", &|| {
            run_federation(&fed, Vec::new(), &BaselineAllocator, |_| sink());
        });
    }
}
