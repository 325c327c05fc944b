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

use crossbid_simcore::SeedSequence;
use parking_lot::Mutex;

use crate::engine::{RunMeta, RunOutput};
use crate::job::Arrival;
use crate::scheduler::Allocator;
use crate::session::Session;
use crate::spec::RunSpec;
use crate::threaded::{fresh_nodes, run_threaded};
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

    /// Run one iteration (see [`Runtime::run_iteration`]): the
    /// allocator's scheduler, or Listing 1 with serialized contests and
    /// the spec's window for a bidding allocator, on real threads.
    pub fn run_iteration(
        &mut self,
        workflow: &mut Workflow,
        allocator: &dyn Allocator,
        arrivals: Vec<Arrival>,
    ) -> RunOutput {
        if let Err(e) = workflow.validate() {
            panic!("{}", crate::spec::SpecError::Workflow(e));
        }
        let meta = RunMeta {
            worker_config: self.spec.worker_config.clone(),
            job_config: self.spec.job_config.clone(),
            iteration: self.iteration,
            seed: SeedSequence::new(self.spec.seed).seed_for(1000 + self.iteration as u64),
        };
        self.iteration += 1;
        run_threaded(
            &self.spec,
            &self.nodes,
            allocator,
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
