//! The bundled Bidding allocator.
//!
//! Listing 1's master lives beside the [`MasterScheduler`] trait in
//! `crossbid-crossflow`, so the threaded runtime can run it without an
//! allocator from this crate; it is re-exported here unchanged.
//!
//! [`MasterScheduler`]: crossbid_crossflow::MasterScheduler

pub use crossbid_crossflow::bidding::{BiddingConfig, BiddingMaster, Contest, ContestStatus};
use crossbid_crossflow::{Allocator, MasterScheduler, WorkerPolicy};
use crossbid_metrics::SchedulerKind;
use crossbid_simcore::SimDuration;

use crate::estimator::BiddingPolicy;

/// The bundled Bidding allocator.
#[derive(Debug, Clone, Default)]
pub struct BiddingAllocator {
    /// Protocol tunables.
    pub cfg: BiddingConfig,
    /// §7 bid learning: workers adjust future bids by the historic
    /// actual/estimated ratio of their completed work.
    pub bid_learning: bool,
}

impl BiddingAllocator {
    /// With the paper's defaults (1 s window, no short-circuit).
    pub fn new() -> Self {
        Self::default()
    }

    /// With a custom window.
    pub fn with_window(window: SimDuration) -> Self {
        BiddingAllocator {
            cfg: BiddingConfig {
                window,
                ..BiddingConfig::default()
            },
            ..Self::default()
        }
    }

    /// With the §7 local short-circuit optimisation enabled.
    pub fn with_short_circuit(threshold_secs: f64) -> Self {
        BiddingAllocator {
            cfg: BiddingConfig {
                short_circuit_below: Some(threshold_secs),
                ..BiddingConfig::default()
            },
            ..Self::default()
        }
    }

    /// With serialized contests (one at a time; see
    /// [`BiddingConfig::serialize_contests`]).
    pub fn with_serialized_contests() -> Self {
        BiddingAllocator {
            cfg: BiddingConfig {
                serialize_contests: true,
                ..BiddingConfig::default()
            },
            ..Self::default()
        }
    }

    /// With §7 bid learning enabled (workers correct future bids by
    /// their observed actual/estimated ratios).
    pub fn with_bid_learning() -> Self {
        BiddingAllocator {
            bid_learning: true,
            ..Self::default()
        }
    }
}

impl Allocator for BiddingAllocator {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Bidding
    }

    fn master(&self) -> Box<dyn MasterScheduler> {
        Box::new(BiddingMaster::new(self.cfg.clone()))
    }

    fn worker_policy(&self) -> Box<dyn WorkerPolicy> {
        if self.bid_learning {
            Box::new(crate::learning::AdaptiveBiddingPolicy::new())
        } else {
            Box::new(BiddingPolicy)
        }
    }
}
