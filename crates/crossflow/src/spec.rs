//! One specification for both runtimes.
//!
//! [`RunSpec`] is the one way to configure a run: a single builder
//! covering the engine configuration, the cluster shape, the run
//! names, the seed, the fault plan and the trace/metrics sinks.  From
//! one spec you get either runtime:
//!
//! ```
//! use crossbid_crossflow::prelude::*;
//!
//! let spec = RunSpec::builder()
//!     .workers((0..3).map(|i| WorkerSpec::builder(format!("w{i}")).build()))
//!     .engine(EngineConfig::ideal())
//!     .seed(7)
//!     .build();
//! let sim = spec.sim();            // deterministic discrete-event engine
//! let threaded = spec.threaded();  // real threads, scaled time
//! assert_eq!(sim.iterations_run(), 0);
//! assert_eq!(threaded.iterations_run(), 0);
//! ```

use std::time::Duration;

use crossbid_metrics::Registry;
use crossbid_net::NoiseModel;

use crate::engine::EngineConfig;
use crate::faults::{FaultPlanError, Faults};
use crate::mutation::ProtocolMutation;
use crate::runtime::ThreadedSession;
use crate::session::Session;
use crate::threaded::ChaosConfig;
use crate::worker::WorkerSpec;
use crate::workflow::WorkflowError;

/// Everything needed to run a scenario on either runtime.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The cluster shape.
    pub workers: Vec<WorkerSpec>,
    /// Engine parameters (noise, latency, faults, trace/metrics
    /// sinks). The threaded runtime derives its configuration from
    /// the shared fields (noise, speed learning, faults, trace,
    /// metrics).
    pub engine: EngineConfig,
    /// Worker-configuration preset name for the records.
    pub worker_config: String,
    /// Job-configuration preset name for the records.
    pub job_config: String,
    /// Session root seed; per-iteration seeds derive from it.
    pub seed: u64,
    /// Threaded runtime: real seconds per virtual second.
    pub time_scale: f64,
    /// Threaded runtime: floor on the real duration of every scheduler
    /// timer, the bidding window included. Aggressive time compression
    /// can shrink a scaled window below OS scheduling jitter, making
    /// every contest "time out" before the bids physically arrive; the
    /// floor keeps the contest mechanism meaningful. Contests still
    /// normally close on the full bid set long before it.
    pub min_real_window: Duration,
    /// Threaded runtime: contest window in virtual seconds (the
    /// paper's 1 s) of the Listing 1 master it runs for a bidding
    /// allocator, with serialized contests. The sim engine takes the
    /// allocator's own master, window included.
    pub contest_window_secs: f64,
    /// Threaded runtime, test-only: seeded delivery-order perturbation
    /// at the master's intake. The sim engine ignores it (its event
    /// order is already fully determined by the seed).
    pub chaos: Option<ChaosConfig>,
}

impl RunSpec {
    /// Start building a spec.
    pub fn builder() -> RunSpecBuilder {
        RunSpecBuilder::default()
    }

    /// A simulation session over this spec (cold caches; they warm
    /// across iterations).
    pub fn sim(&self) -> Session {
        Session::from_spec(self.clone())
    }

    /// A threaded session over this spec (cold caches; they warm
    /// across iterations, like the sim cluster).
    pub fn threaded(&self) -> ThreadedSession {
        ThreadedSession::from_spec(self.clone())
    }
}

/// Builder for [`RunSpec`].
#[derive(Debug, Clone)]
pub struct RunSpecBuilder {
    workers: Vec<WorkerSpec>,
    engine: EngineConfig,
    worker_config: String,
    job_config: String,
    seed: u64,
    time_scale: f64,
    min_real_window: Duration,
    contest_window_secs: f64,
    chaos: Option<ChaosConfig>,
}

impl Default for RunSpecBuilder {
    fn default() -> Self {
        RunSpecBuilder {
            workers: Vec::new(),
            engine: EngineConfig::default(),
            worker_config: "custom".into(),
            job_config: "custom".into(),
            seed: 0,
            time_scale: 1e-3,
            min_real_window: Duration::from_millis(2),
            contest_window_secs: 1.0,
            chaos: None,
        }
    }
}

impl RunSpecBuilder {
    /// Set the cluster shape (replaces any workers set before).
    pub fn workers(mut self, specs: impl IntoIterator<Item = WorkerSpec>) -> Self {
        self.workers = specs.into_iter().collect();
        self
    }

    /// Append one worker.
    pub fn worker(mut self, spec: WorkerSpec) -> Self {
        self.workers.push(spec);
        self
    }

    /// Set the full engine configuration (the convenience setters
    /// below tweak individual fields of it afterwards).
    pub fn engine(mut self, cfg: EngineConfig) -> Self {
        self.engine = cfg;
        self
    }

    /// Noise scheme on actual speeds (both runtimes).
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.engine.noise = noise;
        self
    }

    /// §6.4 speed learning (both runtimes).
    pub fn speed_learning(mut self, on: bool) -> Self {
        self.engine.speed_learning = on;
        self
    }

    /// Set every fault axis at once (both runtimes). Takes the unified
    /// [`Faults`] aggregate — or, via `Into`, a lone
    /// [`FaultPlan`](crate::faults::FaultPlan),
    /// [`NetFaultPlan`](crate::faults::NetFaultPlan) or
    /// [`MasterFaultPlan`](crate::faults::MasterFaultPlan).
    ///
    /// **Replace semantics:** all four engine fault fields are
    /// overwritten, so `.faults(worker_plan)` alone resets any
    /// previously set net, master or membership plan. Compose axes
    /// through the aggregate:
    /// `.faults(Faults::new().workers(..).net(..))`.
    pub fn faults(mut self, faults: impl Into<Faults>) -> Self {
        let f = faults.into();
        self.engine.faults = f.workers;
        self.engine.netfaults = f.net;
        self.engine.master_faults = f.master;
        self.engine.membership = f.membership;
        self
    }

    /// Arm the replicated data plane (both runtimes): replica-aware
    /// stores, worker→worker peer fetch, and crash-triggered
    /// re-replication toward `cfg.factor` copies. See
    /// [`ReplicationConfig`](crate::engine::ReplicationConfig).
    pub fn replication(mut self, cfg: crate::engine::ReplicationConfig) -> Self {
        self.engine.replication = cfg;
        self
    }

    /// Record per-job lifecycle traces (both runtimes).
    pub fn trace(mut self, on: bool) -> Self {
        self.engine.trace = on;
        self
    }

    /// Publish each run's metrics into the caller's registry (both
    /// runtimes). A run records into tallies of its own and the sink
    /// receives them when the run ends, not while it runs.
    pub fn metrics(mut self, sink: Registry) -> Self {
        self.engine.metrics = Some(sink);
        self
    }

    /// Worker- and job-configuration preset names for the records.
    pub fn names(
        mut self,
        worker_config: impl Into<String>,
        job_config: impl Into<String>,
    ) -> Self {
        self.worker_config = worker_config.into();
        self.job_config = job_config.into();
        self
    }

    /// Session root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Threaded runtime: real seconds per virtual second.
    pub fn time_scale(mut self, scale: f64) -> Self {
        self.time_scale = scale;
        self
    }

    /// Threaded runtime: floor on the real bidding-window duration.
    pub fn min_real_window(mut self, floor: Duration) -> Self {
        self.min_real_window = floor;
        self
    }

    /// Threaded runtime: contest window in virtual seconds.
    pub fn contest_window_secs(mut self, secs: f64) -> Self {
        self.contest_window_secs = secs;
        self
    }

    /// Threaded runtime, test-only: perturb message delivery order at
    /// the master's intake (see [`ChaosConfig`]).
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Test-only: reintroduce one protocol bug (both runtimes; a run
    /// refuses one without the `protocol-mutation` cargo feature).
    pub fn mutation(mut self, mutation: ProtocolMutation) -> Self {
        self.engine.mutation = mutation;
        self
    }

    /// Finish the spec, surfacing configuration mistakes as a typed
    /// error instead of silent misbehavior mid-run: an empty cluster,
    /// a non-positive `time_scale`, or any invalid axis of the
    /// [`Faults`] aggregate (crash/recovery inversions, out-of-range
    /// link probabilities, a master crash schedule exceeding the
    /// replica quorum budget, ...).
    pub fn try_build(self) -> Result<RunSpec, SpecError> {
        if self.workers.is_empty() {
            return Err(SpecError::NoWorkers);
        }
        if !(self.time_scale.is_finite() && self.time_scale > 0.0) {
            return Err(SpecError::BadTimeScale(self.time_scale));
        }
        Faults::new()
            .workers(self.engine.faults.clone())
            .net(self.engine.netfaults.clone())
            .master(self.engine.master_faults.clone())
            .membership(self.engine.membership.clone())
            .validate()?;
        // A deferred or drained/removed worker must exist in the
        // cluster; out-of-range indices would silently no-op mid-run.
        if let Some(e) = self
            .engine
            .membership
            .events()
            .iter()
            .find(|e| e.worker.0 as usize >= self.workers.len())
        {
            return Err(SpecError::Membership(FaultPlanError::MembershipOrder {
                worker: e.worker,
                detail: "membership event targets a worker outside the cluster",
            }));
        }
        if let Err((field, value)) = self.engine.replication.validate() {
            return Err(SpecError::Replication { field, value });
        }
        Ok(RunSpec {
            workers: self.workers,
            engine: self.engine,
            worker_config: self.worker_config,
            job_config: self.job_config,
            seed: self.seed,
            time_scale: self.time_scale,
            min_real_window: self.min_real_window,
            contest_window_secs: self.contest_window_secs,
            chaos: self.chaos,
        })
    }

    /// Finish the spec.
    ///
    /// # Panics
    /// On any [`try_build`](Self::try_build) error: no workers, a
    /// non-positive `time_scale`, or an invalid fault/net-fault plan.
    pub fn build(self) -> RunSpec {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Why [`RunSpecBuilder::try_build`] rejected a spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The cluster is empty.
    NoWorkers,
    /// `time_scale` is zero, negative or NaN.
    BadTimeScale(f64),
    /// The crash/recovery schedule contradicts itself.
    Faults(FaultPlanError),
    /// The network-fault plan has out-of-range fields.
    NetFaults(FaultPlanError),
    /// The master crash plan breaks quorum arithmetic or ordering.
    MasterFaults(FaultPlanError),
    /// The elastic-membership plan contradicts itself or targets a
    /// worker outside the cluster.
    Membership(FaultPlanError),
    /// The workflow's channel graph is malformed (dangling endpoint,
    /// self-edge, duplicate channel, or a precedence cycle). Raised
    /// by the run-entry validation of both runtimes — the workflow
    /// itself arrives at [`run_iteration`](crate::Runtime), after the
    /// builder.
    Workflow(WorkflowError),
    /// The replication config has an out-of-range field (zero factor,
    /// non-positive timeout, probability outside `[0, 1]`, ...).
    Replication {
        /// Which [`ReplicationConfig`](crate::engine::ReplicationConfig)
        /// field was rejected.
        field: &'static str,
        /// The offending value, lossily cast to `f64`.
        value: f64,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoWorkers => write!(f, "RunSpec needs at least one worker"),
            SpecError::BadTimeScale(v) => write!(f, "time_scale must be positive, got {v}"),
            SpecError::Faults(e) => write!(f, "invalid fault plan: {e}"),
            SpecError::NetFaults(e) => write!(f, "invalid net-fault plan: {e}"),
            SpecError::MasterFaults(e) => write!(f, "invalid master fault plan: {e}"),
            SpecError::Membership(e) => write!(f, "invalid membership plan: {e}"),
            SpecError::Workflow(e) => write!(f, "invalid workflow: {e}"),
            SpecError::Replication { field, value } => {
                write!(f, "invalid replication config: {field} = {value}")
            }
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Faults(e)
            | SpecError::NetFaults(e)
            | SpecError::MasterFaults(e)
            | SpecError::Membership(e) => Some(e),
            SpecError::Workflow(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::NetFaultPlan;

    #[test]
    fn builder_defaults_are_sane() {
        let spec = RunSpec::builder()
            .worker(WorkerSpec::builder("w0").build())
            .build();
        assert_eq!(spec.workers.len(), 1);
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.contest_window_secs, 1.0);
        assert_eq!(spec.worker_config, "custom");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_cluster_is_rejected() {
        let _ = RunSpec::builder().build();
    }

    #[test]
    fn try_build_surfaces_typed_errors() {
        use crossbid_simcore::SimTime;

        use crate::faults::{FaultPlan, FaultPlanError, LinkFault, NetFaultPlan};
        use crate::job::WorkerId;

        assert_eq!(
            RunSpec::builder().try_build().unwrap_err(),
            SpecError::NoWorkers
        );
        assert_eq!(
            RunSpec::builder()
                .worker(WorkerSpec::builder("w0").build())
                .time_scale(0.0)
                .try_build()
                .unwrap_err(),
            SpecError::BadTimeScale(0.0)
        );
        let inverted = RunSpec::builder()
            .worker(WorkerSpec::builder("w0").build())
            .faults(
                FaultPlan::new()
                    .crash_at(SimTime::from_secs(10), WorkerId(0))
                    .recover_at(SimTime::from_secs(5), WorkerId(0)),
            )
            .try_build()
            .unwrap_err();
        assert_eq!(
            inverted,
            SpecError::Faults(FaultPlanError::RecoverWithoutCrash(WorkerId(0)))
        );
        let lossy = RunSpec::builder()
            .worker(WorkerSpec::builder("w0").build())
            .faults(NetFaultPlan {
                to_worker: LinkFault {
                    drop_prob: 1.5,
                    ..LinkFault::none()
                },
                ..NetFaultPlan::none()
            })
            .try_build()
            .unwrap_err();
        assert!(matches!(lossy, SpecError::NetFaults(_)), "{lossy:?}");
        let master = RunSpec::builder()
            .worker(WorkerSpec::builder("w0").build())
            .faults(
                crate::faults::MasterFaultPlan::new()
                    .crash_at(3)
                    .crash_at(3),
            )
            .try_build()
            .unwrap_err();
        assert!(matches!(master, SpecError::MasterFaults(_)), "{master:?}");
        assert!(RunSpec::builder()
            .worker(WorkerSpec::builder("w0").build())
            .faults(NetFaultPlan::lossy(7, 0.3, 0.1))
            .try_build()
            .is_ok());
    }

    #[test]
    fn membership_axis_is_validated_and_bounded() {
        use crossbid_simcore::SimTime;

        use crate::faults::MembershipPlan;
        use crate::job::WorkerId;

        let ok = RunSpec::builder()
            .workers((0..3).map(|i| WorkerSpec::builder(format!("w{i}")).build()))
            .faults(
                MembershipPlan::new()
                    .join_at(SimTime::from_secs(5), WorkerId(2))
                    .drain_at(SimTime::from_secs(9), WorkerId(0)),
            )
            .try_build();
        assert!(ok.is_ok());
        assert!(!ok.unwrap().engine.membership.is_empty());

        // Contradictory timeline → Membership error.
        let bad = RunSpec::builder()
            .worker(WorkerSpec::builder("w0").build())
            .faults(
                MembershipPlan::new()
                    .drain_at(SimTime::from_secs(1), WorkerId(0))
                    .drain_at(SimTime::from_secs(2), WorkerId(0)),
            )
            .try_build()
            .unwrap_err();
        assert!(matches!(bad, SpecError::Membership(_)), "{bad:?}");

        // Out-of-cluster worker index → Membership error.
        let oob = RunSpec::builder()
            .worker(WorkerSpec::builder("w0").build())
            .faults(MembershipPlan::new().drain_at(SimTime::from_secs(1), WorkerId(7)))
            .try_build()
            .unwrap_err();
        assert!(matches!(oob, SpecError::Membership(_)), "{oob:?}");
    }

    #[test]
    fn faults_aggregate_replaces_every_axis() {
        use crossbid_simcore::SimTime;

        use crate::faults::{FaultPlan, MasterFaultPlan};
        use crate::job::WorkerId;

        let combined = RunSpec::builder()
            .worker(WorkerSpec::builder("w0").build())
            .faults(
                Faults::new()
                    .workers(FaultPlan::new().crash_at(SimTime::from_secs(5), WorkerId(0)))
                    .net(NetFaultPlan::lossy(7, 0.1, 0.0))
                    .master(MasterFaultPlan::new().crash_at(12)),
            )
            .build();
        assert!(!combined.engine.faults.is_empty());
        assert!(combined.engine.netfaults.is_active());
        assert_eq!(combined.engine.master_faults.crash_at, vec![12]);

        // Replace semantics: a later lone-axis call resets the others.
        let reset = RunSpec::builder()
            .worker(WorkerSpec::builder("w0").build())
            .faults(
                Faults::new()
                    .net(NetFaultPlan::lossy(7, 0.1, 0.0))
                    .master(MasterFaultPlan::new().crash_at(12)),
            )
            .faults(FaultPlan::new().crash_at(SimTime::from_secs(5), WorkerId(0)))
            .build();
        assert!(!reset.engine.faults.is_empty());
        assert!(!reset.engine.netfaults.is_active());
        assert!(reset.engine.master_faults.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid workflow")]
    fn run_entry_rejects_a_cyclic_workflow() {
        use crate::workflow::Workflow;

        let spec = RunSpec::builder()
            .worker(WorkerSpec::builder("w0").build())
            .build();
        let mut wf = Workflow::new();
        let a = wf.add_sink("a");
        let b = wf.add_sink("b");
        wf.connect(a, b);
        wf.connect(b, a);
        let _ = spec
            .sim()
            .run_iteration(&mut wf, &crate::BaselineAllocator, Vec::new());
    }

    #[test]
    fn convenience_setters_reach_the_engine_config() {
        let reg = Registry::new();
        let spec = RunSpec::builder()
            .worker(WorkerSpec::builder("w0").build())
            .noise(NoiseModel::None)
            .speed_learning(true)
            .trace(true)
            .metrics(reg)
            .names("all-equal", "80pct_large")
            .seed(42)
            .build();
        assert!(spec.engine.trace);
        assert!(spec.engine.speed_learning);
        assert!(spec.engine.metrics.is_some());
        assert_eq!(spec.worker_config, "all-equal");
        assert_eq!(spec.seed, 42);
    }
}
