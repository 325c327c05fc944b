//! # crossbid-checker
//!
//! The correctness backstop for both crossflow runtimes: a **protocol
//! invariant oracle** plus a **controlled-interleaving explorer**.
//!
//! The paper's protocols make conservation promises — every submitted
//! job completes exactly once or is accounted to a crash, a contested
//! job goes only to a worker that bid before the contest closed,
//! redistribution reclaims only from the dead (§5, §6.2) — but
//! neither runtime *checks* them; they just behave. This crate closes
//! the loop:
//!
//! * [`oracle`] is a pure state machine over the shared control-plane
//!   event log ([`crossbid_crossflow::SchedLog`], also reconstructible
//!   from an exported JSONL stream). It knows nothing about either
//!   runtime's internals, so the same invariants hold the simulation
//!   engine and the threaded runtime to one standard.
//! * [`scenario`] defines small, fully-specified workloads as *data*:
//!   one [`Scenario`] type whose optional axes (replicated data plane,
//!   task DAGs, sharded federation) are read off the value itself, one
//!   [`Run`] naming the runtime, seeds and perturbations, and one
//!   [`Scenario::run`] from the pair to an [`Outcome`] — the logs to
//!   check with the oracle options that fit each, completions
//!   observed vs expected, and the activity the run showed.
//! * [`explorer`] sweeps one scenario across seed tuples on either
//!   runtime ([`explore`]): threaded intake chaos
//!   ([`crossbid_crossflow::ChaosConfig`]), lossy links, master
//!   crashes and membership churn each draw from their own stream of
//!   the root seed. It runs the oracle on every log after every run,
//!   checks conservation against the scenario's own expected count
//!   and (threaded) against the deterministic simulation, and on
//!   failure reports the [`ReplayTuple`] — plus, for a job list on one
//!   master, the shrunk scenario and the recorded delivery schedule.
//!
//! The checker validates *itself*: each
//! [`crossbid_crossflow::ProtocolMutation`] variant re-introduces one
//! protocol bug — in the master core, the DAG state, the replica plane
//! or the federation's hand-off — on whichever runtime
//! [`Run::mutation`] names it for (a run refuses one unless
//! `crossbid-crossflow` is built with its `protocol-mutation` cargo
//! feature), and the test suite asserts the explorer finds a
//! violation for every one.

pub mod explorer;
pub mod oracle;
pub mod scenario;

pub use explorer::{explore, explore_builtins, ExploreConfig, ExploreReport, Failure, ReplayTuple};
pub use oracle::{check_events, check_log, Oracle, OracleOptions, Violation};
pub use scenario::{
    Activity, Demand, FaultDef, Federation, Forcing, JobDef, Outcome, Protocol, Replication, Run,
    Scenario, Workload,
};
