//! The capacity-bounded local store.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crossbid_simcore::{IdMap, SimTime};
use serde::{Deserialize, Serialize};

use crate::eviction::EvictionPolicy;

/// Identifier of a stored object (a repository in the MSR scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

/// Accounting the paper's §6.1 metrics are computed from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Lookups that found the object locally.
    pub hits: u64,
    /// Lookups that did not ("the number of times workers did not
    /// have the necessary data locally", §6.1 metric 3) and were
    /// served by a master fetch — true *cold* misses.
    pub misses: u64,
    /// Lookups that missed locally but were satisfied from a peer
    /// replica instead of the master. These are locality wins of the
    /// replicated data plane, not cold misses, so they are accounted
    /// separately — `merge`/`hit_ratio` must not lump them into
    /// `misses` or cluster-level miss counts inflate as soon as
    /// replication is enabled.
    pub peer_fetches: u64,
    /// Objects evicted to make room.
    pub evictions: u64,
    /// Total bytes admitted into the store — for objects fetched over
    /// the network this equals the paper's **data load** contribution.
    pub bytes_admitted: u64,
    /// Total bytes evicted.
    pub bytes_evicted: u64,
}

impl StoreStats {
    /// Hit ratio in `[0, 1]`; 0 when no lookups happened. Peer-fetch
    /// hits count toward the numerator: the data stayed inside the
    /// cluster, which is what the locality metric measures. Only cold
    /// (master-served) misses count against it.
    pub fn hit_ratio(&self) -> f64 {
        let local = self.hits + self.peer_fetches;
        let total = local + self.misses;
        if total == 0 {
            0.0
        } else {
            local as f64 / total as f64
        }
    }

    /// Merge another worker's stats into this one (cluster totals).
    pub fn merge(&mut self, other: &StoreStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.peer_fetches += other.peer_fetches;
        self.evictions += other.evictions;
        self.bytes_admitted += other.bytes_admitted;
        self.bytes_evicted += other.bytes_evicted;
    }
}

#[derive(Debug, Clone)]
struct Entry {
    size: u64,
    last_used: SimTime,
    /// Monotonic recency counter (ties in `last_used` are possible
    /// when several touches happen at the same virtual instant).
    last_seq: u64,
    inserted_seq: u64,
    uses: u64,
    /// Pinned entries are never picked as eviction victims. The
    /// replica manager pins an object on the node holding its last
    /// surviving copy, so local cache pressure can never destroy data
    /// the cluster cannot re-create.
    pinned: bool,
}

/// Where an entry stands in the eviction order: the entry with the
/// smallest `(key, id)` among the unpinned ones is the next victim.
type OrderKey = (u64, u64);

fn order_key(policy: EvictionPolicy, e: &Entry) -> OrderKey {
    match policy {
        EvictionPolicy::Lru => (e.last_seq, 0),
        EvictionPolicy::Lfu => (e.uses, e.last_seq),
        EvictionPolicy::Fifo => (e.inserted_seq, 0),
        EvictionPolicy::LargestFirst => (!e.size, 0),
    }
}

/// Rows the eviction order may carry on top of twice the resident
/// count before it is rebuilt from the entries.
const ORDER_SLACK: usize = 64;

/// A worker's local resource store.
///
/// Objects have sizes; the store holds at most `capacity` bytes and
/// evicts according to its [`EvictionPolicy`] when an insertion would
/// overflow. An object larger than the whole capacity is *passed
/// through*: it is downloaded (counted in `bytes_admitted`) but not
/// retained — mirroring a worker whose disk simply cannot keep the
/// clone.
#[derive(Debug, Clone)]
pub struct LocalStore {
    capacity: u64,
    used: u64,
    /// Bytes held by pinned entries — kept incrementally so insert's
    /// "can this ever fit" check stays O(1).
    pinned_bytes: u64,
    policy: EvictionPolicy,
    entries: IdMap<ObjectId, Entry>,
    /// The eviction order, kept so that an eviction costs O(log n)
    /// instead of a scan: a min-heap with lazy updates. Every unpinned
    /// entry has a row whose key is at most its current
    /// [`order_key`] — written when the entry was inserted or
    /// unpinned; a use only grows the key and leaves the row alone —
    /// so a row that surfaces with its entry's current key is the
    /// minimum; any other is re-keyed or dropped on the spot. Ties on
    /// the key break by `ObjectId`, so the victim is deterministic.
    order: BinaryHeap<Reverse<(OrderKey, ObjectId)>>,
    seq: u64,
    stats: StoreStats,
    /// The victims of the last insert, in eviction order; the buffer
    /// is kept so an evicting insert allocates nothing.
    evicted: Vec<ObjectId>,
}

impl LocalStore {
    /// Create an empty store.
    pub fn new(capacity: u64, policy: EvictionPolicy) -> Self {
        LocalStore {
            capacity,
            used: 0,
            pinned_bytes: 0,
            policy,
            entries: IdMap::default(),
            order: BinaryHeap::new(),
            seq: 0,
            stats: StoreStats::default(),
            evicted: Vec::new(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of resident objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no objects are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The eviction policy in force.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Reset statistics (e.g. between measured iterations) without
    /// touching the resident set — the paper's multi-iteration runs
    /// keep caches warm across iterations.
    pub fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
    }

    /// Non-mutating membership check used when *estimating* bids —
    /// checking "the contents of local cache memory" must not perturb
    /// recency or hit/miss accounting. Inlined: every bid takes one.
    #[inline]
    pub fn peek(&self, id: ObjectId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Size of a resident object, if present.
    pub fn size_of(&self, id: ObjectId) -> Option<u64> {
        self.entries.get(&id).map(|e| e.size)
    }

    /// Look up `id` for actual use at time `now`. A hit refreshes
    /// recency/frequency and is counted; a miss is counted and the
    /// caller is expected to fetch and then [`insert`](Self::insert).
    pub fn lookup(&mut self, id: ObjectId, now: SimTime) -> bool {
        self.seq += 1;
        if let Some(e) = self.entries.get_mut(&id) {
            e.last_used = now;
            e.last_seq = self.seq;
            e.uses += 1;
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Admit `id` with `size` bytes at time `now`, evicting as needed.
    /// Returns the evicted object ids (possibly empty), which stay
    /// readable as [`evicted`](Self::evicted) until the next insert.
    /// Re-inserting a resident object only refreshes its metadata.
    pub fn insert(&mut self, id: ObjectId, size: u64, now: SimTime) -> &[ObjectId] {
        self.evicted.clear();
        self.seq += 1;
        self.stats.bytes_admitted += size;
        if let Some(e) = self.entries.get_mut(&id) {
            // Refresh; size is immutable per object in our model.
            debug_assert_eq!(e.size, size, "object size changed");
            e.last_used = now;
            e.last_seq = self.seq;
            e.uses += 1;
            return &self.evicted;
        }
        if size > self.capacity.saturating_sub(self.pinned_bytes) {
            // Pass-through: downloaded but cannot be retained, either
            // because the object exceeds the whole capacity or because
            // pinned last-copy entries leave too little evictable
            // room. Evicting nothing (rather than partially) keeps the
            // resident set intact when admission is impossible.
            return &self.evicted;
        }
        while self.used + size > self.capacity {
            let victim = self
                .pop_victim()
                .expect("unpinned bytes cover the shortfall");
            let e = self.entries.remove(&victim).expect("victim resident");
            self.used -= e.size;
            self.stats.evictions += 1;
            self.stats.bytes_evicted += e.size;
            self.evicted.push(victim);
        }
        self.used += size;
        let e = Entry {
            size,
            last_used: now,
            last_seq: self.seq,
            inserted_seq: self.seq,
            uses: 1,
            pinned: false,
        };
        let key = order_key(self.policy, &e);
        self.entries.insert(id, e);
        self.push_order(key, id);
        &self.evicted
    }

    /// What the last [`insert`](Self::insert) evicted.
    pub fn evicted(&self) -> &[ObjectId] {
        &self.evicted
    }

    /// Remove an object explicitly (fault injection / manual cache
    /// management). Returns true if it was resident. Removal ignores
    /// pins — a crash destroys pinned copies too.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        if let Some(e) = self.entries.remove(&id) {
            self.used -= e.size;
            if e.pinned {
                self.pinned_bytes -= e.size;
            }
            true
        } else {
            false
        }
    }

    /// Drop everything (cold restart of a worker).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.used = 0;
        self.pinned_bytes = 0;
    }

    /// Pin a resident object: it will never be picked as an eviction
    /// victim until [`unpin`](Self::unpin)ned. Returns true if the
    /// object is resident (and is now pinned).
    pub fn pin(&mut self, id: ObjectId) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                if !e.pinned {
                    e.pinned = true;
                    self.pinned_bytes += e.size;
                }
                true
            }
            None => false,
        }
    }

    /// Release a pin. Returns true if the object was resident and
    /// pinned.
    pub fn unpin(&mut self, id: ObjectId) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) if e.pinned => {
                e.pinned = false;
                self.pinned_bytes -= e.size;
                // Its row was dropped if it surfaced while pinned.
                let key = order_key(self.policy, e);
                self.push_order(key, id);
                true
            }
            _ => false,
        }
    }

    /// True iff `id` is resident and pinned.
    pub fn is_pinned(&self, id: ObjectId) -> bool {
        self.entries.get(&id).is_some_and(|e| e.pinned)
    }

    /// Reclassify the most recent miss as a peer fetch: the lookup
    /// did miss locally, but a peer replica (not the master) served
    /// the bytes. Call after a [`lookup`](Self::lookup) miss once the
    /// peer transfer succeeds.
    pub fn note_peer_fetch(&mut self) {
        self.stats.misses = self.stats.misses.saturating_sub(1);
        self.stats.peer_fetches += 1;
    }

    /// Resident object ids in unspecified order.
    pub fn resident(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.entries.keys().copied()
    }

    /// Add a row to the eviction order, rebuilding it from the entries
    /// once dead rows (of removed, pinned or replaced entries)
    /// outnumber live ones, so churn cannot grow it past O(residents).
    fn push_order(&mut self, key: OrderKey, id: ObjectId) {
        self.order.push(Reverse((key, id)));
        if self.order.len() > 2 * self.entries.len() + ORDER_SLACK {
            let mut rows = std::mem::take(&mut self.order).into_vec();
            rows.clear();
            rows.extend(
                self.entries
                    .iter()
                    .filter(|(_, e)| !e.pinned)
                    .map(|(id, e)| Reverse((order_key(self.policy, e), *id))),
            );
            self.order = BinaryHeap::from(rows);
        }
    }

    /// The next eviction victim: the unpinned entry with the smallest
    /// `(order_key, id)`. Pinned entries (last surviving copies) are
    /// never candidates. The caller evicts it.
    fn pop_victim(&mut self) -> Option<ObjectId> {
        loop {
            let mut top = self.order.peek_mut()?;
            let Reverse((key, id)) = *top;
            let current = self
                .entries
                .get(&id)
                .filter(|e| !e.pinned)
                .map(|e| order_key(self.policy, e));
            match current {
                Some(current) if current == key => {
                    PeekMut::pop(top);
                    return Some(id);
                }
                // Used since the row was written. A key only ever
                // grows, so the row surfaced no later than its entry
                // is due: move it to where the entry stands now.
                Some(current) if current > key => *top = Reverse((current, id)),
                // The entry is gone or pinned, or the row is left over
                // from an earlier residency of the same object.
                _ => {
                    PeekMut::pop(top);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lru);
        assert!(!s.lookup(ObjectId(1), t(0)));
        s.insert(ObjectId(1), 40, t(0));
        assert!(s.lookup(ObjectId(1), t(1)));
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.stats().bytes_admitted, 40);
        assert!((s.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn peek_does_not_count() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lru);
        s.insert(ObjectId(1), 10, t(0));
        assert!(s.peek(ObjectId(1)));
        assert!(!s.peek(ObjectId(2)));
        assert_eq!(s.stats().hits, 0);
        assert_eq!(s.stats().misses, 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lru);
        s.insert(ObjectId(1), 40, t(0));
        s.insert(ObjectId(2), 40, t(1));
        s.lookup(ObjectId(1), t(2)); // 1 now more recent than 2
        let evicted = s.insert(ObjectId(3), 40, t(3));
        assert_eq!(evicted, vec![ObjectId(2)]);
        assert!(s.peek(ObjectId(1)) && s.peek(ObjectId(3)));
    }

    #[test]
    fn lfu_evicts_least_frequently_used() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lfu);
        s.insert(ObjectId(1), 40, t(0));
        s.insert(ObjectId(2), 40, t(1));
        for i in 0..5 {
            s.lookup(ObjectId(2), t(2 + i));
        }
        let evicted = s.insert(ObjectId(3), 40, t(10));
        assert_eq!(evicted, vec![ObjectId(1)]);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut s = LocalStore::new(100, EvictionPolicy::Fifo);
        s.insert(ObjectId(1), 40, t(0));
        s.insert(ObjectId(2), 40, t(1));
        s.lookup(ObjectId(1), t(2)); // would save 1 under LRU
        let evicted = s.insert(ObjectId(3), 40, t(3));
        assert_eq!(evicted, vec![ObjectId(1)]);
    }

    #[test]
    fn largest_first_frees_most_space() {
        let mut s = LocalStore::new(100, EvictionPolicy::LargestFirst);
        s.insert(ObjectId(1), 60, t(0));
        s.insert(ObjectId(2), 30, t(1));
        let evicted = s.insert(ObjectId(3), 50, t(2));
        assert_eq!(evicted, vec![ObjectId(1)]);
        assert_eq!(s.used(), 80);
    }

    #[test]
    fn multiple_evictions_for_one_insert() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lru);
        s.insert(ObjectId(1), 30, t(0));
        s.insert(ObjectId(2), 30, t(1));
        s.insert(ObjectId(3), 30, t(2));
        let evicted = s.insert(ObjectId(4), 90, t(3));
        assert_eq!(evicted.len(), 3);
        assert_eq!(s.len(), 1);
        assert_eq!(s.used(), 90);
        assert_eq!(s.stats().evictions, 3);
        assert_eq!(s.stats().bytes_evicted, 90);
    }

    #[test]
    fn oversized_object_passes_through() {
        let mut s = LocalStore::new(50, EvictionPolicy::Lru);
        s.insert(ObjectId(1), 30, t(0));
        let evicted = s.insert(ObjectId(2), 500, t(1));
        assert!(evicted.is_empty());
        assert!(!s.peek(ObjectId(2)));
        assert!(s.peek(ObjectId(1)), "resident set untouched");
        // Download still counted as data load.
        assert_eq!(s.stats().bytes_admitted, 530);
    }

    #[test]
    fn reinsert_refreshes_without_duplication() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lru);
        s.insert(ObjectId(1), 40, t(0));
        s.insert(ObjectId(1), 40, t(5));
        assert_eq!(s.len(), 1);
        assert_eq!(s.used(), 40);
    }

    #[test]
    fn remove_and_clear() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lru);
        s.insert(ObjectId(1), 40, t(0));
        s.insert(ObjectId(2), 40, t(0));
        assert!(s.remove(ObjectId(1)));
        assert!(!s.remove(ObjectId(1)));
        assert_eq!(s.used(), 40);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.used(), 0);
    }

    #[test]
    fn reset_stats_keeps_residents() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lru);
        s.insert(ObjectId(1), 40, t(0));
        s.lookup(ObjectId(1), t(1));
        s.reset_stats();
        assert_eq!(s.stats(), &StoreStats::default());
        assert!(s.peek(ObjectId(1)), "warm cache survives stat reset");
    }

    #[test]
    fn stats_merge() {
        let mut a = StoreStats {
            hits: 1,
            misses: 2,
            peer_fetches: 6,
            evictions: 3,
            bytes_admitted: 4,
            bytes_evicted: 5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.hits, 2);
        assert_eq!(a.peer_fetches, 12, "peer fetches merge separately");
        assert_eq!(a.bytes_evicted, 10);
    }

    #[test]
    fn peer_fetch_is_not_a_cold_miss() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lru);
        assert!(!s.lookup(ObjectId(1), t(0))); // miss, then peer serves it
        s.note_peer_fetch();
        s.insert(ObjectId(1), 40, t(0));
        assert!(s.lookup(ObjectId(1), t(1))); // warm hit
        assert_eq!(s.stats().misses, 0, "peer fetch reclassified the miss");
        assert_eq!(s.stats().peer_fetches, 1);
        // Both the hit and the peer fetch count as locality wins.
        assert!((s.stats().hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pinned_entry_survives_eviction_pressure() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lru);
        s.insert(ObjectId(1), 40, t(0));
        s.insert(ObjectId(2), 40, t(1));
        assert!(s.pin(ObjectId(1)));
        // Object 1 is the LRU victim, but it is pinned: 2 goes instead.
        let evicted = s.insert(ObjectId(3), 40, t(2));
        assert_eq!(evicted, vec![ObjectId(2)]);
        assert!(s.peek(ObjectId(1)), "pinned last copy survives");
        assert!(s.is_pinned(ObjectId(1)));
    }

    #[test]
    fn insert_passes_through_when_pins_block_admission() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lru);
        s.insert(ObjectId(1), 80, t(0));
        assert!(s.pin(ObjectId(1)));
        let evicted = s.insert(ObjectId(2), 50, t(1));
        assert!(evicted.is_empty(), "nothing evicted when admission fails");
        assert!(!s.peek(ObjectId(2)), "pass-through: not retained");
        assert!(s.peek(ObjectId(1)), "pinned copy untouched");
        // Unpinning restores normal admission.
        assert!(s.unpin(ObjectId(1)));
        let evicted = s.insert(ObjectId(2), 50, t(2));
        assert_eq!(evicted, vec![ObjectId(1)]);
        assert!(s.peek(ObjectId(2)));
    }

    #[test]
    fn remove_and_clear_release_pins() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lru);
        s.insert(ObjectId(1), 60, t(0));
        s.pin(ObjectId(1));
        assert!(s.remove(ObjectId(1)), "crash removal ignores the pin");
        // Pinned-byte accounting released: a 90-byte object fits again.
        let evicted = s.insert(ObjectId(2), 90, t(1));
        assert!(evicted.is_empty());
        assert!(s.peek(ObjectId(2)));
        s.pin(ObjectId(2));
        s.clear();
        assert!(s.insert(ObjectId(3), 100, t(2)).is_empty());
        assert!(s.peek(ObjectId(3)), "clear released pinned bytes");
    }

    #[test]
    fn same_instant_lru_ties_break_by_sequence() {
        let mut s = LocalStore::new(100, EvictionPolicy::Lru);
        // All inserted at the same virtual instant.
        s.insert(ObjectId(1), 40, t(0));
        s.insert(ObjectId(2), 40, t(0));
        let evicted = s.insert(ObjectId(3), 40, t(0));
        assert_eq!(evicted, vec![ObjectId(1)], "earliest-touched evicted");
    }
}

/// Named promotions of the seeds in `proptest-regressions/store.txt`:
/// the minimal inputs proptest shrank to, replayed deterministically
/// so the historical failures stay covered even when a proptest run
/// only generates fresh cases.
#[cfg(test)]
mod regression_seeds {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// `cc d27ae44d…` shrank to `ops = [(19, 1), (19, 2)]`: the same
    /// object looked up and re-inserted back to back. Per-object sizes
    /// are stable in our model (the property test pins the second op's
    /// size to the first), so the re-insert must only refresh metadata
    /// — `used` stays at one copy, the resident-size sum matches, and
    /// the second lookup is a hit. Replayed under every policy.
    #[test]
    fn immediate_reinsert_does_not_double_count() {
        for policy in EvictionPolicy::ALL {
            let mut s = LocalStore::new(100, policy);
            for (i, (id, size)) in [(19u64, 1u64), (19, 1)].iter().enumerate() {
                s.lookup(ObjectId(*id), t(i as u64));
                s.insert(ObjectId(*id), *size, t(i as u64));
                assert!(s.used() <= s.capacity(), "{policy:?}");
                let sum: u64 = s.resident().map(|o| s.size_of(o).unwrap()).sum();
                assert_eq!(sum, s.used(), "{policy:?}: sum of sizes == used");
                assert!(s.peek(ObjectId(*id)), "{policy:?}: fresh object resident");
            }
            assert_eq!(s.used(), 1, "{policy:?}: one copy, not two");
            assert_eq!(s.len(), 1, "{policy:?}");
            assert_eq!(s.stats().hits, 1, "{policy:?}: second lookup hits");
            assert_eq!(s.stats().misses, 1, "{policy:?}: first lookup misses");
        }
    }
}

/// The eviction this store shipped with before its order was indexed —
/// one scan of every resident entry per victim — kept verbatim as the
/// reference the indexed order is checked against.
#[cfg(test)]
mod reference {
    use super::*;

    fn pick_victim(s: &LocalStore) -> Option<ObjectId> {
        // Deterministic: ties broken by (key metric, ObjectId).
        // Pinned entries (last surviving copies) are never candidates.
        let candidates = s.entries.iter().filter(|(_, e)| !e.pinned);
        match s.policy {
            EvictionPolicy::Lru => candidates
                .min_by_key(|(id, e)| (e.last_seq, **id))
                .map(|(id, _)| *id),
            EvictionPolicy::Lfu => candidates
                .min_by_key(|(id, e)| (e.uses, e.last_seq, **id))
                .map(|(id, _)| *id),
            EvictionPolicy::Fifo => candidates
                .min_by_key(|(id, e)| (e.inserted_seq, **id))
                .map(|(id, _)| *id),
            EvictionPolicy::LargestFirst => candidates
                .max_by_key(|(id, e)| (e.size, std::cmp::Reverse(**id)))
                .map(|(id, _)| *id),
        }
    }

    /// `LocalStore::insert` as it was, choosing victims by scan.
    pub fn insert(s: &mut LocalStore, id: ObjectId, size: u64, now: SimTime) -> Vec<ObjectId> {
        s.seq += 1;
        s.stats.bytes_admitted += size;
        if let Some(e) = s.entries.get_mut(&id) {
            e.last_used = now;
            e.last_seq = s.seq;
            e.uses += 1;
            return Vec::new();
        }
        if size > s.capacity.saturating_sub(s.pinned_bytes) {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while s.used + size > s.capacity {
            let victim = pick_victim(s).expect("unpinned bytes cover the shortfall");
            let e = s.entries.remove(&victim).expect("victim resident");
            s.used -= e.size;
            s.stats.evictions += 1;
            s.stats.bytes_evicted += e.size;
            evicted.push(victim);
        }
        s.used += size;
        s.entries.insert(
            id,
            Entry {
                size,
                last_used: now,
                last_seq: s.seq,
                inserted_seq: s.seq,
                uses: 1,
                pinned: false,
            },
        );
        evicted
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// The indexed eviction order picks exactly the victims the
        /// scan picked: same evicted ids in the same order, same
        /// statistics and residents after every operation, under every
        /// policy — and the lazy-deletion heap stays O(residents).
        #[test]
        fn indexed_order_evicts_what_the_scan_evicted(
            policy_idx in 0usize..4,
            capacity in 1u64..600,
            ops in proptest::collection::vec((0u8..24, 0u64..24, 1u64..120), 1..400)
        ) {
            let policy = EvictionPolicy::ALL[policy_idx];
            let mut new = LocalStore::new(capacity, policy);
            let mut old = LocalStore::new(capacity, policy);
            let mut sizes: HashMap<ObjectId, u64> = HashMap::new();
            for (i, (kind, id, size)) in ops.iter().enumerate() {
                let id = ObjectId(*id);
                // Several touches share one virtual instant.
                let now = SimTime::from_secs(i as u64 / 3);
                match kind {
                    0..=9 => {
                        let size = *sizes.entry(id).or_insert(*size);
                        prop_assert_eq!(
                            new.insert(id, size, now),
                            reference::insert(&mut old, id, size, now)
                        );
                    }
                    10..=16 => prop_assert_eq!(new.lookup(id, now), old.lookup(id, now)),
                    17..=18 => prop_assert_eq!(new.remove(id), old.remove(id)),
                    19..=20 => prop_assert_eq!(new.pin(id), old.pin(id)),
                    21..=22 => prop_assert_eq!(new.unpin(id), old.unpin(id)),
                    _ if id.0 < 4 => {
                        new.clear();
                        old.clear();
                    }
                    _ => {}
                }
                prop_assert_eq!(new.stats(), old.stats());
                prop_assert_eq!(new.used(), old.used());
                let mut a: Vec<_> = new.resident().map(|o| (o, new.is_pinned(o))).collect();
                let mut b: Vec<_> = old.resident().map(|o| (o, old.is_pinned(o))).collect();
                a.sort();
                b.sort();
                prop_assert_eq!(a, b);
                prop_assert!(new.order.len() <= 2 * new.len() + ORDER_SLACK);
            }
        }

        /// Capacity is never exceeded and `used` always equals the sum
        /// of resident sizes, for arbitrary operation sequences under
        /// every policy.
        #[test]
        fn capacity_invariant(
            policy_idx in 0usize..4,
            capacity in 1u64..500,
            ops in proptest::collection::vec((0u64..30, 1u64..200), 1..200)
        ) {
            let policy = EvictionPolicy::ALL[policy_idx];
            let mut s = LocalStore::new(capacity, policy);
            let mut sizes: std::collections::HashMap<ObjectId, u64> = Default::default();
            for (i, (id, size)) in ops.iter().enumerate() {
                // Per-object stable size (the model's assumption).
                let id = ObjectId(*id);
                let size = *sizes.entry(id).or_insert(*size);
                s.lookup(id, SimTime::from_secs(i as u64));
                s.insert(id, size, SimTime::from_secs(i as u64));
                prop_assert!(s.used() <= s.capacity());
                let sum: u64 = s.resident().map(|o| s.size_of(o).unwrap()).sum();
                prop_assert_eq!(sum, s.used());
            }
        }

        /// Lookups + inserts keep hit+miss == lookups, and an object
        /// just inserted (and small enough) is always resident.
        #[test]
        fn accounting_invariant(ops in proptest::collection::vec((0u64..20, 1u64..50), 1..100)) {
            let mut s = LocalStore::new(100, EvictionPolicy::Lru);
            let mut sizes: std::collections::HashMap<ObjectId, u64> = Default::default();
            let mut lookups = 0;
            for (i, (id, size)) in ops.iter().enumerate() {
                let id = ObjectId(*id);
                let size = *sizes.entry(id).or_insert(*size);
                let now = SimTime::from_secs(i as u64);
                s.lookup(id, now);
                lookups += 1;
                s.insert(id, size, now);
                prop_assert!(s.peek(id), "freshly inserted object resident");
            }
            prop_assert_eq!(s.stats().hits + s.stats().misses, lookups);
        }
    }
}
