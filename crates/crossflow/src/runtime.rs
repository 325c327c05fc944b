//! The unified [`Runtime`] abstraction over both executors.
//!
//! The paper evaluates the same protocols twice: in the deterministic
//! discrete-event simulation (§6.3) and on real threads (§6.4). The
//! [`Runtime`] trait makes that duality explicit — a [`Session`]
//! (simulation) and a [`ThreadedSession`] (threads) both take a
//! workflow, an [`Allocator`] and an arrival stream, keep caches warm
//! across iterations, and return the same [`RunOutput`] (record,
//! trace, scheduler log, metrics snapshot). Experiments and tests can
//! be written once against `dyn Runtime` and executed on either.

use std::sync::Arc;

use crossbid_metrics::SchedulerKind;
use crossbid_simcore::SeedSequence;
use parking_lot::Mutex;

use crate::engine::{RunMeta, RunOutput};
use crate::job::Arrival;
use crate::scheduler::Allocator;
use crate::session::Session;
use crate::spec::RunSpec;
use crate::threaded::{fresh_nodes, run_threaded_with_nodes, ThreadedConfig, ThreadedScheduler};
use crate::worker::WorkerNode;
use crate::workflow::Workflow;

/// A stateful executor of workflow iterations.
///
/// Implementations keep worker caches (and, where applicable, learned
/// speeds) warm across iterations — §6.3.1's reason for running
/// multiple iterations in the first place.
pub trait Runtime {
    /// Short stable name ("sim" or "threaded") for logs and output
    /// labels.
    fn name(&self) -> &'static str;

    /// Run one iteration of `arrivals` through `workflow` under
    /// `allocator`. Per-iteration seeds derive from the spec seed, so
    /// iterations differ but a session replays reproducibly.
    fn run_iteration(
        &mut self,
        workflow: &mut Workflow,
        allocator: &dyn Allocator,
        arrivals: Vec<Arrival>,
    ) -> RunOutput;

    /// Iterations run so far.
    fn iterations_run(&self) -> u32;
}

impl Runtime for Session {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run_iteration(
        &mut self,
        workflow: &mut Workflow,
        allocator: &dyn Allocator,
        arrivals: Vec<Arrival>,
    ) -> RunOutput {
        Session::run_iteration(self, workflow, allocator, arrivals)
    }

    fn iterations_run(&self) -> u32 {
        Session::iterations_run(self)
    }
}

/// A persistent-cache session on the threaded runtime — the
/// counterpart of [`Session`]. Worker caches, learned speeds and
/// cache statistics live in worker cores that survive across
/// iterations; each [`run_iteration`](Runtime::run_iteration) spins
/// up fresh threads over them.
pub struct ThreadedSession {
    spec: RunSpec,
    nodes: Vec<Arc<Mutex<WorkerNode>>>,
    iteration: u32,
}

impl ThreadedSession {
    /// Create a session over fresh (cold-cache) workers.
    pub fn from_spec(spec: RunSpec) -> Self {
        let nodes = fresh_nodes(&spec.workers, &spec.engine.noise);
        ThreadedSession {
            spec,
            nodes,
            iteration: 0,
        }
    }

    /// The spec this session runs.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// Iterations run so far.
    pub fn iterations_run(&self) -> u32 {
        self.iteration
    }

    /// Run one iteration (see [`Runtime::run_iteration`]).
    ///
    /// # Panics
    /// The threaded runtime implements the bidding and Baseline
    /// protocols only; any other [`Allocator`] kind panics.
    pub fn run_iteration(
        &mut self,
        workflow: &mut Workflow,
        allocator: &dyn Allocator,
        arrivals: Vec<Arrival>,
    ) -> RunOutput {
        if let Err(e) = workflow.validate() {
            panic!("{}", crate::spec::SpecError::Workflow(e));
        }
        let iter_seed = SeedSequence::new(self.spec.seed).seed_for(1000 + self.iteration as u64);
        let scheduler = match allocator.kind() {
            SchedulerKind::Bidding => ThreadedScheduler::Bidding {
                window_secs: self.spec.contest_window_secs,
            },
            SchedulerKind::Baseline => ThreadedScheduler::Baseline,
            other => panic!(
                "the threaded runtime implements bidding and baseline, not {}",
                other.name()
            ),
        };
        let cfg = ThreadedConfig {
            time_scale: self.spec.time_scale,
            noise: self.spec.engine.noise.clone(),
            speed_learning: self.spec.engine.speed_learning,
            scheduler,
            seed: iter_seed,
            min_real_window: self.spec.min_real_window,
            faults: self.spec.engine.faults.clone(),
            trace: self.spec.engine.trace,
            metrics: self.spec.engine.metrics.clone(),
            chaos: self.spec.chaos.clone(),
            mutation: self.spec.mutation,
            netfaults: self.spec.engine.netfaults.clone(),
            master_faults: self.spec.engine.master_faults.clone(),
            membership: self.spec.engine.membership.clone(),
            shard: self.spec.engine.shard,
            atomize: self.spec.engine.atomize,
            replication: self.spec.engine.replication,
        };
        let meta = RunMeta {
            worker_config: self.spec.worker_config.clone(),
            job_config: self.spec.job_config.clone(),
            iteration: self.iteration,
            seed: iter_seed,
        };
        self.iteration += 1;
        run_threaded_with_nodes(
            &self.spec.workers,
            &self.nodes,
            &cfg,
            &|| allocator.worker_policy(),
            workflow,
            arrivals,
            &meta,
        )
    }
}

impl Runtime for ThreadedSession {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn run_iteration(
        &mut self,
        workflow: &mut Workflow,
        allocator: &dyn Allocator,
        arrivals: Vec<Arrival>,
    ) -> RunOutput {
        ThreadedSession::run_iteration(self, workflow, allocator, arrivals)
    }

    fn iterations_run(&self) -> u32 {
        self.iteration
    }
}
