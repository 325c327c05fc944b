//! One-stop imports for writing experiments against either runtime.
//!
//! ```
//! use crossbid_crossflow::prelude::*;
//! ```
//!
//! pulls in the [`RunSpec`] builder, the [`Runtime`] trait with both
//! sessions, the workflow/job vocabulary, the Baseline allocator, the
//! trace/export types and the metrics registry.

pub use crate::baseline::BaselineAllocator;
pub use crate::engine::{Cluster, EngineConfig, ReplicationConfig, RunMeta, RunOutput};
pub use crate::export::{
    parse_run_stream, write_run_stream, RunStreamLine, RunStreamMeta, SCHEMA_VERSION,
};
pub use crate::faults::{
    FaultEvent, FaultPlan, Faults, MasterFaultPlan, MembershipAction, MembershipEvent,
    MembershipPlan, NetFaultPlan,
};
pub use crate::federation::{
    run_federation, FedArrival, FedRuntimeKind, FederationOutput, FederationSpec, ShardSpec,
    SpillRecord,
};
pub use crate::job::{
    Arrival, FedIdentity, Job, JobId, JobSpec, Payload, ResourceRef, ShardId, TaskId, WorkerId,
};
pub use crate::obs::RuntimeMetrics;
pub use crate::runtime::{Runtime, ThreadedSession};
pub use crate::scheduler::Allocator;
pub use crate::session::Session;
pub use crate::spec::{RunSpec, RunSpecBuilder};
pub use crate::threaded::ChaosConfig;
pub use crate::trace::{
    JobPhases, SchedEvent, SchedEventKind, SchedLog, Trace, TraceEvent, TraceKind,
};
pub use crate::worker::{WorkerSpec, WorkerSpecBuilder};
pub use crate::workflow::{Workflow, WorkflowError};

pub use crossbid_metrics::{Registry, RegistrySnapshot, RunRecord, SchedulerKind};
