//! Worker-side bid estimation (Listing 2 of the paper).
//!
//! The Listing 2 policy lives beside the [`WorkerPolicy`] trait in
//! `crossbid-crossflow`, so both runtimes can run it without an
//! allocator from this crate; it is re-exported here unchanged.
//!
//! [`WorkerPolicy`]: crossbid_crossflow::WorkerPolicy

pub use crossbid_crossflow::scheduler::{estimate_bid, BidBreakdown, BiddingPolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use crossbid_crossflow::{JobId, JobView, WorkerId, WorkerPolicy, WorkerView};
    use crossbid_simcore::SimTime;

    fn view(backlog: f64, fetch: f64, proc: f64) -> WorkerView {
        WorkerView {
            id: WorkerId(0),
            now: SimTime::ZERO,
            backlog_secs: backlog,
            has_data: fetch == 0.0,
            declined_before: false,
            est_fetch_secs: fetch,
            est_proc_secs: proc,
            queue_len: 0,
        }
    }

    fn jv() -> JobView {
        JobView {
            id: JobId(1),
            resource_bytes: 1000,
        }
    }

    #[test]
    fn bid_is_sum_of_components() {
        let b = estimate_bid(&view(10.0, 5.0, 2.0));
        assert_eq!(b.total(), 17.0);
        assert!(!b.is_local());
    }

    #[test]
    fn local_job_skips_transfer() {
        let b = estimate_bid(&view(3.0, 0.0, 2.0));
        assert_eq!(b.total(), 5.0);
        assert!(b.is_local());
    }

    #[test]
    fn idle_local_worker_bids_minimum() {
        // "Minimum expenses are incurred when the worker possesses the
        // data stored locally, which leads to lower time estimates and
        // subsequently increases the chances of winning the bid."
        let local_idle = estimate_bid(&view(0.0, 0.0, 2.0)).total();
        let remote_idle = estimate_bid(&view(0.0, 8.0, 2.0)).total();
        let local_busy = estimate_bid(&view(20.0, 0.0, 2.0)).total();
        assert!(local_idle < remote_idle);
        assert!(remote_idle < local_busy, "backlog can outweigh locality");
    }

    #[test]
    fn policy_always_bids_and_accepts() {
        let mut p = BiddingPolicy;
        let v = view(1.0, 2.0, 3.0);
        assert_eq!(p.bid(&v, &jv()), Some(6.0));
        assert!(p.accept_offer(&v, &jv()));
    }
}
