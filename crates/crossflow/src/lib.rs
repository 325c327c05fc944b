//! # crossbid-crossflow
//!
//! A from-scratch implementation of the substrate the paper builds
//! on: **Crossflow**, "a distributed stream-processing engine ...
//! designed specifically to cope with resource-intensive workflows"
//! (§4). Like the original, this framework:
//!
//! * follows the **master/worker** paradigm — the master routes jobs,
//!   workers execute them;
//! * processes **streams of expensive jobs** (each job names a data
//!   resource it must have locally, e.g. a cloned Git repository);
//! * features **"opinionated" worker nodes** that participate in the
//!   allocation decision — either by accepting/rejecting offered jobs
//!   (the Baseline of §4) or by bidding on them (the paper's
//!   contribution, implemented in `crossbid-core`);
//! * lets applications define **workflows** of tasks connected by
//!   typed channels (Figure 1's MSR pipeline is built on this API in
//!   `crossbid-msr`).
//!
//! Two runtimes execute a workflow:
//!
//! * [`engine`] — a deterministic discrete-event simulation of the
//!   whole cluster (network, caches, queues), used for §6.3's
//!   controlled experiments;
//! * [`threaded`] — a real multithreaded runtime (one OS thread per
//!   worker, crossbeam channels as the messaging fabric, scaled
//!   virtual durations) used for §6.4's "non-simulated" experiments.
//!
//! Scheduling is pluggable through the [`Allocator`] trait pair:
//! a master-side [`MasterScheduler`] and a worker-side
//! [`WorkerPolicy`]. The Crossflow Baseline (pull + reject-once) ships
//! here because the paper treats it as part of Crossflow itself.

//! ```
//! use crossbid_crossflow::{
//!     run_workflow, Arrival, BaselineAllocator, Cluster, EngineConfig, JobSpec,
//!     Payload, ResourceRef, RunMeta, WorkerSpec, Workflow,
//! };
//! use crossbid_simcore::SimTime;
//! use crossbid_storage::ObjectId;
//!
//! // Two workers, one task, two jobs over the same 50 MB repository.
//! let specs: Vec<WorkerSpec> =
//!     (0..2).map(|i| WorkerSpec::builder(format!("w{i}")).build()).collect();
//! let mut workflow = Workflow::new();
//! let scan = workflow.add_sink("scan");
//! let repo = ResourceRef { id: ObjectId(1), bytes: 50_000_000 };
//! let arrivals = vec![
//!     Arrival { at: SimTime::ZERO, spec: JobSpec::scanning(scan, repo, Payload::Index(1)) },
//!     Arrival { at: SimTime::from_secs(30), spec: JobSpec::scanning(scan, repo, Payload::Index(1)) },
//! ];
//!
//! let cfg = EngineConfig::ideal();
//! let mut cluster = Cluster::new(&specs, &cfg);
//! let out = run_workflow(
//!     &mut cluster, &mut workflow, &BaselineAllocator, arrivals, &cfg,
//!     &RunMeta::default(),
//! );
//! assert_eq!(out.record.jobs_completed, 2);
//! assert_eq!(out.record.cache_misses, 1, "second job hits the clone");
//! ```

pub mod atomize;
pub mod baseline;
pub mod bidding;
pub mod bids;
pub mod engine;
pub mod export;
pub mod faults;
pub mod federation;
pub mod idle;
pub mod job;
mod master_core;
mod mutation;
pub mod obs;
pub mod prelude;
mod replica;
pub mod replog;
pub mod runtime;
pub mod scheduler;
pub mod session;
pub mod spec;
pub mod task;
pub mod threaded;
pub mod trace;
pub mod worker;
pub mod workflow;

pub use atomize::{
    AtomizeConfig, DagError, DagState, DoneOutcome, Speculation, TaskDag, TaskNode, MAX_DAG_TASKS,
};
pub use baseline::BaselineAllocator;
pub use bids::{BidSet, WorkerSet};
pub use engine::{run_workflow, Cluster, EngineConfig, ReplicationConfig, RunMeta, RunOutput};
pub use export::{
    parse_run_stream, run_stream_lines, sched_kind_name, write_run_stream, RunStreamLine,
    RunStreamMeta, SCHEMA_VERSION,
};
pub use faults::{
    FaultEvent, FaultPlan, FaultPlanError, Faults, LinkFault, MasterFaultPlan, MembershipAction,
    MembershipEvent, MembershipPlan, NetFaultPlan, Partition, RetryPolicy,
};
pub use federation::{
    run_federation, FedArrival, FedRuntimeKind, FederationOutput, FederationSpec, ShardSpec,
    SpillRecord,
};
pub use job::{
    Arrival, FedIdentity, Job, JobId, JobSpec, Payload, ResourceRef, ShardId, TaskId, WorkerId,
};
pub use mutation::ProtocolMutation;
pub use obs::RuntimeMetrics;
pub use replog::{AppendOutcome, ReplicatedLog, SchedState};
pub use runtime::{Runtime, ThreadedSession};
pub use scheduler::{
    Allocator, JobView, MasterScheduler, ObedientPolicy, SchedAction, SchedCtx, SchedStats,
    WorkerPolicy, WorkerToMaster, WorkerView,
};
pub use session::Session;
pub use spec::{RunSpec, RunSpecBuilder, SpecError};
pub use task::{CollectedOutputs, SinkTask, TaskCtx, TaskLogic};
pub use threaded::{ChaosConfig, DeliveryEntry, DeliveryLog, DeliveryLogHandle};
pub use trace::{JobPhases, SchedEvent, SchedEventKind, SchedLog, Trace, TraceEvent, TraceKind};
pub use worker::{WorkerSpec, WorkerSpecBuilder};
pub use workflow::{Workflow, WorkflowError};
