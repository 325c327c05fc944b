//! # crossbid-simcore
//!
//! Deterministic discrete-event simulation (DES) substrate used by the
//! whole `crossbid` workspace.
//!
//! The paper evaluates its schedulers on a geographically distributed
//! AWS cluster. This crate replaces that hardware with a virtual-time
//! simulation engine whose behaviour is a pure function of its inputs
//! and a `u64` seed:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual
//!   clock with exact integer arithmetic (no floating-point drift in
//!   event ordering).
//! * [`EventQueue`] — priority queue of timestamped events with a
//!   deterministic FIFO tie-break for simultaneous events.
//! * [`IdMap`] / [`IdSet`] — hash tables for the integer ids the
//!   simulation mints itself, without SipHash's per-lookup cost.
//! * [`rng`] — per-stream seeded random number generators so that
//!   adding a consumer of randomness never perturbs other streams.
//! * [`stats`] — online statistics (Welford mean/variance, EWMA,
//!   time-weighted averages) used by the metrics layer.
//!
//! The engine is *polymorphic over the event payload*: higher layers
//! define their own event enum `E` and drive a
//! [`EventQueue<E>`] in a dispatch loop. This keeps the core free of
//! trait-object dispatch on the hot path.
//!
//! ```
//! use crossbid_simcore::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32), Stop }
//!
//! let mut q = EventQueue::new();
//! q.schedule_in(SimDuration::from_millis(5), Ev::Ping(1));
//! q.schedule_in(SimDuration::from_millis(1), Ev::Ping(0));
//! q.schedule_in(SimDuration::from_secs(1), Ev::Stop);
//!
//! let mut seen = Vec::new();
//! while let Some((t, ev)) = q.pop() {
//!     if ev == Ev::Stop { break; }
//!     seen.push((t, ev));
//! }
//! assert_eq!(seen[0].0, SimTime::from_millis(1));
//! assert_eq!(q.now(), SimTime::from_secs(1));
//! ```

pub mod hash;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use hash::{IdHasher, IdMap, IdSet};
pub use queue::EventQueue;
pub use rng::{RngStream, SeedSequence};
pub use stats::{Ewma, TimeWeighted, Welford};
pub use time::{SimDuration, SimTime};
