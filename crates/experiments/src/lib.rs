//! # crossbid-experiments
//!
//! The evaluation harness. One module per paper artifact:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig2`] | Figure 2 — MSR times: Spark vs Crossflow Baseline, four column groups |
//! | [`fig3`] | Figure 3a/b/c — avg execution time / cache misses / data load per workload, Bidding vs Baseline |
//! | [`fig4`] | Figure 4 — avg execution time per workload per worker configuration |
//! | [`tables`] | Tables 1–3 — three "non-simulated" MSR runs on the threaded runtime |
//! | [`summary`] | The headline aggregates (≈24.5 % speedup, ≈49 % fewer misses, ≈45.3 % less data, up to 3.57×) |
//! | [`crash_sweep`] | Extension — threaded-runtime crash sweep: masked failures under 0/1/2 dead workers |
//! | [`sweep`] | The six checker sweeps (`check`, `netfault`, `failover`, `federate`, `atomize`, `replicate`): one table-driven driver over `crossbid-checker`'s scenarios and explorer, each with its headline comparison |
//! | [`trace_run`] | `repro trace` — one fully-observed run, phase table + JSONL stream |
//!
//! [`runner`] executes the (worker cfg × job cfg × scheduler) grid —
//! every cell is an independent 3-iteration warm-cache session —
//! in parallel across OS threads; everything is seeded and the
//! simulated cells are bit-reproducible. Throughput and allocation
//! measurements live in the repo benchmark (`benchmark/`, a package of
//! its own); the `bench-alloc` feature only installs `allocmeter` for
//! the allocation-budget regression test.

#[cfg(feature = "bench-alloc")]
pub mod allocmeter;
pub mod config;
pub mod crash_sweep;
pub mod crossover;
pub mod extensions;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod runner;
pub mod seed_study;
pub mod summary;
pub mod sweep;
pub mod tables;
pub mod trace_run;

pub use config::ExperimentConfig;
pub use runner::{run_cell, run_grid, Cell};
