//! Eviction policies for [`LocalStore`](crate::store::LocalStore).
//!
//! The paper leaves cache management to the worker ("they are
//! responsible for maintaining their cache memories and local
//! resources", §7) without prescribing a policy; we implement the
//! standard family so the `ablation_cache` bench can quantify how the
//! choice interacts with each scheduler.

use serde::{Deserialize, Serialize};

/// Which resident object to evict when space is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Least recently used (default: matches "keep what you just
    /// worked on", the behaviour the paper's workers rely on).
    #[default]
    Lru,
    /// Least frequently used, with recency as tie-break.
    Lfu,
    /// First in, first out (insertion order, ignores use).
    Fifo,
    /// Largest object first — frees the most space per eviction, at
    /// the cost of discarding exactly the objects that are most
    /// expensive to re-download.
    LargestFirst,
}

impl EvictionPolicy {
    /// All policies, for sweeps.
    pub const ALL: [EvictionPolicy; 4] = [
        EvictionPolicy::Lru,
        EvictionPolicy::Lfu,
        EvictionPolicy::Fifo,
        EvictionPolicy::LargestFirst,
    ];

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Lfu => "lfu",
            EvictionPolicy::Fifo => "fifo",
            EvictionPolicy::LargestFirst => "largest-first",
        }
    }
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{LocalStore, ObjectId};
    use crossbid_simcore::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = EvictionPolicy::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EvictionPolicy::ALL.len());
    }

    #[test]
    fn default_is_lru() {
        assert_eq!(EvictionPolicy::default(), EvictionPolicy::Lru);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", EvictionPolicy::LargestFirst), "largest-first");
    }

    /// LRU evicts in strict recency order across a longer history than
    /// the two-object store tests: touch order, not insert order, is
    /// what decides.
    #[test]
    fn lru_eviction_order_follows_touches() {
        let mut s = LocalStore::new(30, EvictionPolicy::Lru);
        for i in 0..3u64 {
            s.insert(ObjectId(i), 10, t(i));
        }
        // Recency now 0 < 1 < 2; touch 0 so the order becomes 1 < 2 < 0.
        s.lookup(ObjectId(0), t(3));
        let mut gone = Vec::<ObjectId>::new();
        gone.extend(s.insert(ObjectId(10), 10, t(4)));
        gone.extend(s.insert(ObjectId(11), 10, t(5)));
        gone.extend(s.insert(ObjectId(12), 10, t(6)));
        assert_eq!(gone, vec![ObjectId(1), ObjectId(2), ObjectId(0)]);
    }

    /// Under every policy, arbitrary insert pressure never pushes the
    /// store past capacity.
    #[test]
    fn capacity_never_exceeded_under_any_policy() {
        for policy in EvictionPolicy::ALL {
            let mut s = LocalStore::new(100, policy);
            for i in 0..50u64 {
                s.insert(ObjectId(i), 1 + (i * 13) % 40, t(i));
                assert!(s.used() <= s.capacity(), "{policy:?} exceeded capacity");
            }
        }
    }

    /// Pinned (last-copy) entries are skipped by victim selection
    /// under every policy, even when the policy would otherwise pick
    /// them first.
    #[test]
    fn pinned_entries_are_never_victims() {
        for policy in EvictionPolicy::ALL {
            let mut s = LocalStore::new(100, policy);
            // Object 1 is simultaneously the least recent, least
            // frequent, first inserted, and largest — every policy's
            // preferred victim.
            s.insert(ObjectId(1), 60, t(0));
            s.insert(ObjectId(2), 20, t(1));
            s.lookup(ObjectId(2), t(2));
            assert!(s.pin(ObjectId(1)));
            let evicted = s.insert(ObjectId(3), 30, t(3));
            assert_eq!(evicted, vec![ObjectId(2)], "{policy:?} evicted a pin");
            assert!(s.peek(ObjectId(1)), "{policy:?} dropped the last copy");
        }
    }
}
