//! # crossbid-metrics
//!
//! The paper's §6.1 defines three headline metrics:
//!
//! 1. **End-to-end execution time** — workflow makespan;
//! 2. **Data load** — megabytes of non-local data transferred to
//!    workers;
//! 3. **Cache miss** — how often workers lacked the necessary data
//!    locally.
//!
//! This crate defines the [`RunRecord`] produced by every engine run,
//! grouping/aggregation across iterations ([`Aggregator`]), the
//! derived comparison quantities the paper reports (speedups,
//! percentage reductions), and plain-text table / CSV rendering used
//! by `EXPERIMENTS.md` and the `repro` binary.

//! ```
//! use crossbid_metrics::{percent_reduction, speedup};
//!
//! // Table 1, run 3: Baseline 4183.5 s vs Bidding 3116.52 s.
//! assert!((speedup(4183.5, 3116.52) - 1.342).abs() < 1e-3);
//! assert!((percent_reduction(4183.5, 3116.52) - 25.5).abs() < 0.05);
//! ```

pub mod aggregate;
pub mod json;
pub mod jsonl;
pub mod record;
pub mod registry;
pub mod table;

pub use aggregate::{percent_reduction, speedup, Aggregate, Aggregator};
pub use json::{Json, JsonError};
pub use jsonl::JsonlWriter;
pub use record::{RunRecord, SchedulerKind};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, LocalCounter, LocalHistogram, Registry,
    RegistrySnapshot,
};
pub use table::{render_csv, Table};
