//! Cluster-wide replica registry for the self-healing data plane.
//!
//! The paper's workers each hold a private cache; nothing in the
//! original model survives a worker crash — every artifact the dead
//! node held must be re-fetched from the master. [`ReplicaMap`] is the
//! master-side registry that turns those private caches into a
//! *replicated* data plane: it records, per artifact, the set of nodes
//! currently holding a live copy, plus the target `replication_factor`
//! the control plane tries to maintain. The scheduler consults it to
//! price peer-to-peer fetches into bids, and the repair path diffs a
//! dead worker's resident set against it to find artifacts that fell
//! below target.
//!
//! Node ids are plain `u32` here (the storage crate sits below the
//! runtime crates and does not know about `WorkerId`).

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::store::ObjectId;

/// Artifact → replica-holder registry with a target replication factor.
///
/// Deterministic by construction: replica sets are ordered
/// (`BTreeSet`), so iteration order — and therefore source/destination
/// selection in the repair path — is stable across runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaMap {
    factor: u32,
    replicas: BTreeMap<ObjectId, BTreeSet<u32>>,
    sizes: BTreeMap<ObjectId, u64>,
}

impl ReplicaMap {
    /// Create an empty map with the given target replication factor
    /// (clamped to at least 1).
    pub fn new(factor: u32) -> Self {
        ReplicaMap {
            factor: factor.max(1),
            replicas: BTreeMap::new(),
            sizes: BTreeMap::new(),
        }
    }

    /// The target number of live copies per artifact.
    pub fn factor(&self) -> u32 {
        self.factor
    }

    /// Record that `node` now holds a live copy of `id` (`bytes`
    /// large). Returns true if this is a new replica.
    pub fn add(&mut self, id: ObjectId, node: u32, bytes: u64) -> bool {
        self.sizes.entry(id).or_insert(bytes);
        self.replicas.entry(id).or_default().insert(node)
    }

    /// Record that `node` no longer holds `id` (eviction or crash).
    /// Returns true if the replica was registered. The artifact stays
    /// known (with an empty set) so loss of the last copy remains
    /// observable.
    pub fn drop_replica(&mut self, id: ObjectId, node: u32) -> bool {
        self.replicas
            .get_mut(&id)
            .map(|s| s.remove(&node))
            .unwrap_or(false)
    }

    /// Remove `node` from every replica set, returning the artifacts
    /// it held (sorted). This is the crash/remove diff: the returned
    /// list is exactly the set of artifacts whose replica count just
    /// dropped.
    pub fn drop_node(&mut self, node: u32) -> Vec<ObjectId> {
        let mut affected = Vec::new();
        for (id, set) in self.replicas.iter_mut() {
            if set.remove(&node) {
                affected.push(*id);
            }
        }
        affected
    }

    /// Live replica holders of `id`, in ascending node order.
    pub fn replicas(&self, id: ObjectId) -> impl Iterator<Item = u32> + '_ {
        self.replicas.get(&id).into_iter().flatten().copied()
    }

    /// Holders of `id` other than `node` that are `live`, in ascending
    /// node order: the sources a peer fetch by `node` may use.
    pub fn live_peers<'a>(
        &'a self,
        id: ObjectId,
        node: u32,
        live: impl Fn(u32) -> bool + 'a,
    ) -> impl Iterator<Item = u32> + 'a {
        self.replicas(id).filter(move |&h| h != node && live(h))
    }

    /// True iff a `live` node other than `node` holds `id`.
    pub fn has_live_peer(&self, id: ObjectId, node: u32, live: impl Fn(u32) -> bool) -> bool {
        self.live_peers(id, node, live).next().is_some()
    }

    /// The `live` holder of `id` with the lowest node id: a repair's
    /// source.
    pub fn first_live(&self, id: ObjectId, live: impl Fn(u32) -> bool) -> Option<u32> {
        self.replicas(id).find(|&h| live(h))
    }

    /// Number of live copies of `id`.
    pub fn count(&self, id: ObjectId) -> usize {
        self.replicas.get(&id).map_or(0, |s| s.len())
    }

    /// True iff `node` holds a live copy of `id`.
    pub fn holds(&self, id: ObjectId, node: u32) -> bool {
        self.replicas.get(&id).is_some_and(|s| s.contains(&node))
    }

    /// Size in bytes of `id`, if the artifact has ever been registered.
    pub fn bytes(&self, id: ObjectId) -> Option<u64> {
        self.sizes.get(&id).copied()
    }

    /// The sole holder of `id`, if exactly one live copy remains.
    pub fn sole_holder(&self, id: ObjectId) -> Option<u32> {
        let set = self.replicas.get(&id)?;
        if set.len() == 1 {
            set.iter().next().copied()
        } else {
            None
        }
    }

    /// Artifacts with at least one live copy but fewer than the target
    /// factor — the repair work list, sorted by id.
    pub fn under_replicated(&self) -> Vec<ObjectId> {
        self.replicas
            .iter()
            .filter(|(_, s)| !s.is_empty() && s.len() < self.factor as usize)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Every artifact ever registered, sorted by id (live or lost).
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.replicas.keys().copied()
    }

    /// Number of artifacts ever registered.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// True iff no artifact was ever registered.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_drop_round_trip() {
        let mut m = ReplicaMap::new(2);
        assert!(m.add(ObjectId(1), 0, 100));
        assert!(!m.add(ObjectId(1), 0, 100), "re-add is idempotent");
        assert!(m.add(ObjectId(1), 3, 100));
        assert_eq!(m.count(ObjectId(1)), 2);
        assert_eq!(m.bytes(ObjectId(1)), Some(100));
        assert!(m.holds(ObjectId(1), 3));
        assert!(m.drop_replica(ObjectId(1), 0));
        assert!(!m.drop_replica(ObjectId(1), 0), "double drop is a no-op");
        assert_eq!(m.sole_holder(ObjectId(1)), Some(3));
    }

    #[test]
    fn drop_node_returns_the_resident_diff() {
        let mut m = ReplicaMap::new(2);
        m.add(ObjectId(1), 0, 10);
        m.add(ObjectId(2), 0, 20);
        m.add(ObjectId(2), 1, 20);
        m.add(ObjectId(3), 1, 30);
        let affected = m.drop_node(0);
        assert_eq!(affected, vec![ObjectId(1), ObjectId(2)]);
        assert_eq!(m.count(ObjectId(1)), 0, "last copy lost");
        assert_eq!(m.sole_holder(ObjectId(2)), Some(1));
    }

    #[test]
    fn under_replicated_lists_live_but_below_target() {
        let mut m = ReplicaMap::new(2);
        m.add(ObjectId(1), 0, 10); // 1 copy < 2: under-replicated
        m.add(ObjectId(2), 0, 20);
        m.add(ObjectId(2), 1, 20); // at target
        m.add(ObjectId(3), 2, 30);
        m.drop_replica(ObjectId(3), 2); // 0 copies: lost, not repairable
        assert_eq!(m.under_replicated(), vec![ObjectId(1)]);
    }

    #[test]
    fn replicas_iterate_in_node_order() {
        let mut m = ReplicaMap::new(3);
        m.add(ObjectId(7), 5, 1);
        m.add(ObjectId(7), 1, 1);
        m.add(ObjectId(7), 3, 1);
        let nodes: Vec<u32> = m.replicas(ObjectId(7)).collect();
        assert_eq!(nodes, vec![1, 3, 5]);
    }

    #[test]
    fn holder_queries_skip_the_asker_and_the_dead() {
        let mut m = ReplicaMap::new(3);
        for node in [4, 1, 3, 6] {
            m.add(ObjectId(7), node, 1);
        }
        let live = |h: u32| h != 3;
        let peers: Vec<u32> = m.live_peers(ObjectId(7), 1, live).collect();
        assert_eq!(peers, vec![4, 6]);
        assert!(m.has_live_peer(ObjectId(7), 1, live));
        assert!(
            !m.has_live_peer(ObjectId(7), 1, |h| h == 1),
            "only the asker is up"
        );
        assert!(!m.has_live_peer(ObjectId(8), 1, live), "never registered");
        assert_eq!(m.first_live(ObjectId(7), live), Some(1));
        assert_eq!(m.first_live(ObjectId(7), |h| h > 4), Some(6));
        assert_eq!(m.first_live(ObjectId(7), |_| false), None);
    }

    #[test]
    fn factor_is_clamped_to_one() {
        assert_eq!(ReplicaMap::new(0).factor(), 1);
    }
}
