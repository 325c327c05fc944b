//! The real-threaded runtime — the paper's §6.4 "non-simulated"
//! configuration.
//!
//! Where [`engine`](crate::engine) replays the distributed system on a
//! virtual clock, this runtime actually *is* a concurrent system:
//!
//! * one **master thread** running the sim's decision path — the
//!   run's `MasterScheduler` behind the shared master core — with real
//!   wall-clock deadlines for its timers;
//! * per worker, an **executor thread** that processes jobs serially
//!   (transfer and scan durations are realized as scaled
//!   `thread::sleep`s) and a **bidder thread** that answers bid
//!   requests and offers concurrently — the paper: "we envision the
//!   bidding process to be handled by a separate thread";
//! * crossbeam channels as the messaging fabric.
//!
//! Durations are *virtual seconds* scaled by
//! [`RunSpec::time_scale`](crate::RunSpec::time_scale) into real
//! sleeps, so a 3000-virtual-
//! second MSR run takes ~3 real seconds at the default scale. Races,
//! message interleavings and late bids are real, which is exactly what
//! this runtime exists to exercise; workers learn their speeds from
//! observed transfers (historic averages, §6.4).

mod chaos;
mod master;
mod worker;

pub use chaos::{ChaosConfig, DeliveryEntry, DeliveryLog, DeliveryLogHandle};
pub(crate) use master::{fresh_nodes, run_threaded};

use std::time::{Duration, Instant};

use crossbid_simcore::{SimDuration, SimTime};

use crate::job::Job;
pub(crate) use crate::master_core::ToWorker;

/// The run's virtual clock: seconds since `start`, scaled.
#[derive(Clone, Copy)]
pub(crate) struct Clock {
    pub start: Instant,
    /// Real seconds per virtual second.
    pub scale: f64,
}

impl Clock {
    pub fn now(&self) -> SimTime {
        self.at(Instant::now())
    }

    pub fn at(&self, t: Instant) -> SimTime {
        let real = t.saturating_duration_since(self.start).as_secs_f64();
        SimTime::from_secs_f64(real / self.scale)
    }

    pub fn real(&self, virtual_secs: f64) -> Duration {
        Duration::from_secs_f64((virtual_secs * self.scale).max(0.0))
    }

    pub fn sleep(&self, d: SimDuration) {
        let real = d.as_secs_f64() * self.scale;
        if real > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(real.min(30.0)));
        }
    }
}

/// Messages workers send to the threaded master. `Clone` exists for
/// the chaos layer's duplicate-delivery injection.
#[derive(Debug, Clone)]
pub(crate) enum ToMaster {
    /// A bid for an open contest.
    Bid {
        /// Bidding worker.
        worker: u32,
        /// Contested job.
        job: crate::job::JobId,
        /// Estimated completion seconds (virtual).
        estimate_secs: f64,
    },
    /// Baseline: the worker declined the offered job.
    Reject {
        /// Declining worker.
        worker: u32,
        /// The job, returned for someone else.
        job: Job,
        /// Placement sequence number of the Offer being declined (0
        /// when the reliability layer is off), so a stale reject
        /// cannot cancel a newer placement.
        seq: u64,
    },
    /// The worker's executor has drained its queue.
    Idle {
        /// Idle worker.
        worker: u32,
    },
    /// A job finished; results flow back through the master. The
    /// phase breakdown rides along so the master can synthesize the
    /// same per-job trace the simulation engine records.
    Done {
        /// Executing worker.
        worker: u32,
        /// The finished job.
        job: Job,
        /// Virtual seconds the job waited in the worker queue.
        wait_secs: f64,
        /// Virtual seconds spent transferring the resource (0 when
        /// the data was already local).
        fetch_secs: f64,
        /// Virtual seconds spent processing.
        proc_secs: f64,
    },
    /// Reliability layer: the worker confirms it received (and queued
    /// or already holds) placement `seq` of `job`. Stops the master's
    /// retransmission timer and satisfies the lease.
    AckAssign {
        /// Acking worker.
        worker: u32,
        /// Placed job.
        job: crate::job::JobId,
        /// Placement sequence number being confirmed.
        seq: u64,
    },
}
