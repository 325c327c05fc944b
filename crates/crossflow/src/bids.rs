//! The bids of one contest.
//!
//! Two tables record who bid on an open contest — the bidding
//! master's and the master core's log gate, which both runtimes share
//! — and each must refuse a second bid from the same worker (at-least-
//! once delivery and failover re-solicitation both repeat bids). They
//! share this one set: the duplicate test is a bit of a membership
//! bitmap over dense worker ids, not a scan of the bids, which at 256
//! bidders was most of a contest's cost. The gate needs only who bid,
//! so it holds the bitmap ([`WorkerSet`]) without the bids.

use crate::job::WorkerId;

/// A set of workers: bit `id % 64` of word `id / 64`. Word 0 is
/// inline, so a set over at most 64 workers allocates nothing.
///
/// Worker ids are expected to be dense (indices into the roster).
#[derive(Debug, Clone, Default)]
pub struct WorkerSet {
    low: u64,
    high: Vec<u64>,
}

impl WorkerSet {
    /// An empty set sized for a roster of `workers`, so that inserting
    /// them never regrows it.
    pub fn with_capacity(workers: usize) -> Self {
        WorkerSet {
            low: 0,
            high: vec![0; workers.saturating_sub(1) / 64],
        }
    }

    /// The word and bit of `worker` (grown on demand for an id beyond
    /// the roster the set was sized for).
    fn member(&mut self, worker: WorkerId) -> (&mut u64, u64) {
        let bit = 1 << (worker.0 % 64);
        match (worker.0 / 64) as usize {
            0 => (&mut self.low, bit),
            word => {
                if self.high.len() < word {
                    self.high.resize(word, 0);
                }
                (&mut self.high[word - 1], bit)
            }
        }
    }

    /// Add `worker`; `false` if it was already in the set.
    pub fn insert(&mut self, worker: WorkerId) -> bool {
        let (word, bit) = self.member(worker);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Take `worker` out; `false` if it was not in the set.
    pub fn remove(&mut self, worker: WorkerId) -> bool {
        let (word, bit) = self.member(worker);
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Is `worker` in the set?
    pub fn contains(&self, worker: WorkerId) -> bool {
        let word = match (worker.0 / 64) as usize {
            0 => self.low,
            word => self.high.get(word - 1).copied().unwrap_or(0),
        };
        word & (1 << (worker.0 % 64)) != 0
    }

    /// Empty the set, keeping its words for the next use.
    pub fn clear(&mut self) {
        self.low = 0;
        self.high.fill(0);
    }
}

/// Bids in arrival order, at most one per worker.
#[derive(Debug, Clone, Default)]
pub struct BidSet {
    bids: Vec<(WorkerId, f64)>,
    bidders: WorkerSet,
}

impl BidSet {
    /// An empty set sized for a roster of `workers`, so that recording
    /// their bids never regrows it.
    pub fn with_capacity(workers: usize) -> Self {
        BidSet {
            bids: Vec::with_capacity(workers),
            bidders: WorkerSet::with_capacity(workers),
        }
    }

    pub fn len(&self) -> usize {
        self.bids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bids.is_empty()
    }

    /// `(worker, estimate_secs)` in arrival order.
    pub fn bids(&self) -> &[(WorkerId, f64)] {
        &self.bids
    }

    /// Record `worker`'s bid. A worker bids at most once per contest:
    /// a duplicate is refused (`false`) and changes nothing.
    pub fn record(&mut self, worker: WorkerId, estimate_secs: f64) -> bool {
        let fresh = self.bidders.insert(worker);
        if fresh {
            self.bids.push((worker, estimate_secs));
        }
        fresh
    }

    /// Empty the set, keeping its storage for the next contest.
    pub fn clear(&mut self) {
        self.bids.clear();
        self.bidders.clear();
    }

    /// Forget `worker`'s bid (it crashed or left the roster; it may
    /// bid again after a recovery). O(n), off the healthy path.
    pub fn remove(&mut self, worker: WorkerId) {
        if self.bidders.remove(worker) {
            self.bids.retain(|(w, _)| *w != worker);
        }
    }

    /// `getPreferredWorker`: the lowest estimate wins, ties broken by
    /// worker id for determinism.
    pub fn preferred(&self) -> Option<WorkerId> {
        self.preferred_among(|_| true)
    }

    /// [`preferred`](Self::preferred) over the bids of workers that
    /// are still `eligible` when the contest closes.
    pub fn preferred_among(&self, eligible: impl Fn(WorkerId) -> bool) -> Option<WorkerId> {
        // total_cmp keeps the ordering total even if a non-finite
        // estimate slips into the recorded set (NaN sorts above every
        // finite value, so it can never displace a real bid).
        self.bids
            .iter()
            .filter(|(w, _)| eligible(*w))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(w, _)| *w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_is_refused_and_arrival_order_kept() {
        let mut b = BidSet::with_capacity(4);
        assert!(b.record(WorkerId(2), 5.0));
        assert!(b.record(WorkerId(0), 7.0));
        assert!(!b.record(WorkerId(2), 1.0), "second bid from worker 2");
        assert!(b.record(WorkerId(3), 6.0));
        assert_eq!(
            b.bids(),
            [(WorkerId(2), 5.0), (WorkerId(0), 7.0), (WorkerId(3), 6.0)]
        );
        assert_eq!(b.len(), 3);
        assert_eq!(b.preferred(), Some(WorkerId(2)), "the refused 1.0 is gone");
    }

    #[test]
    fn lowest_estimate_wins_and_ties_break_by_id() {
        let mut b = BidSet::default();
        assert_eq!(b.preferred(), None);
        assert!(b.is_empty());
        b.record(WorkerId(5), 3.0);
        b.record(WorkerId(1), 3.0);
        b.record(WorkerId(9), 4.0);
        assert_eq!(b.preferred(), Some(WorkerId(1)));
        assert_eq!(b.preferred_among(|w| w != WorkerId(1)), Some(WorkerId(5)));
        assert_eq!(b.preferred_among(|_| false), None);
    }

    #[test]
    fn nan_is_never_preferred_over_a_real_bid() {
        let mut b = BidSet::default();
        b.record(WorkerId(0), f64::NAN);
        b.record(WorkerId(1), 4.0);
        b.record(WorkerId(2), f64::INFINITY);
        assert_eq!(b.preferred(), Some(WorkerId(1)));
    }

    #[test]
    fn ids_beyond_the_inline_word_and_beyond_the_capacity() {
        // Sized for 7 workers: nothing allocated for the bitmap, and
        // ids 64, 200 and 4 000 still dedup.
        let mut b = BidSet::with_capacity(7);
        for id in [63, 64, 65, 127, 128, 200, 4_000] {
            assert!(b.record(WorkerId(id), f64::from(id)), "first bid of {id}");
            assert!(!b.record(WorkerId(id), 0.0), "second bid of {id}");
        }
        assert_eq!(b.len(), 7);
        assert_eq!(b.preferred(), Some(WorkerId(63)));
        // Sized for 256: every word is there up front.
        let mut b = BidSet::with_capacity(256);
        for id in 0..256 {
            assert!(b.record(WorkerId(id), 1.0));
        }
        assert!((0..256).all(|id| !b.record(WorkerId(id), 0.0)));
        assert_eq!(b.len(), 256);
    }

    #[test]
    fn a_cleared_set_is_empty_and_keeps_its_storage() {
        let mut b = BidSet::with_capacity(200);
        for id in [0, 63, 64, 199, 300] {
            b.record(WorkerId(id), 1.0);
        }
        assert!(b.bidders.contains(WorkerId(300)));
        assert!(!b.bidders.contains(WorkerId(301)));
        let (bids, words) = (b.bids.capacity(), b.bidders.high.len());
        b.clear();
        assert!(b.is_empty());
        assert!([0, 63, 64, 199, 300, 4_000]
            .iter()
            .all(|&id| !b.bidders.contains(WorkerId(id))));
        assert_eq!((b.bids.capacity(), b.bidders.high.len()), (bids, words));
        assert!(b.record(WorkerId(64), 2.0), "bids again after the clear");
    }

    #[test]
    fn a_removed_worker_may_bid_again() {
        let mut b = BidSet::with_capacity(3);
        b.record(WorkerId(0), 2.0);
        b.record(WorkerId(1), 1.0);
        b.remove(WorkerId(1));
        b.remove(WorkerId(70)); // never bid: no-op
        assert_eq!(b.bids(), [(WorkerId(0), 2.0)]);
        assert!(b.record(WorkerId(1), 9.0), "bids again after recovering");
        assert_eq!(b.preferred(), Some(WorkerId(0)));
    }
}
