//! The replica plane, written once under both runtimes (DESIGN §4j).
//!
//! A bid prices where a job's input lives, so the rules that keep
//! those copies are protocol, not transport. [`ReplicaPlane`] owns the
//! cluster-wide [`ReplicaMap`], the repairs in flight, the pins each
//! holder's store must carry and the run's mutation. Like
//! [`MasterCore`] it owns no clock and performs no I/O: each rule is
//! one method, and what the driver must do comes back as a small value
//! ([`Landing`], a dirty holder) or through the callback that makes a
//! copy. The drivers keep the store inserts, the copy timer and, on
//! threads, the mutex the plane sits behind (taken after any
//! `WorkerNode` lock).
//!
//! Events are journaled in order into one reused buffer that
//! [`flush`](ReplicaPlane::flush) commits: the sim right after each
//! call, the threaded master once per wakeup. A pin directive waits in
//! its holder's queue until the driver hands that store to
//! [`pin`](ReplicaPlane::pin) — the sim at once, the threaded master
//! once per wakeup, and both before any insert into it, the only moment
//! a store can evict. `repair_start` commits before its copy is made.

use std::collections::HashMap;

use crossbid_simcore::SimTime;
use crossbid_storage::{LocalStore, ObjectId, ReplicaMap};

use crate::engine::ReplicationConfig;
use crate::job::{JobId, WorkerId};
use crate::master_core::MasterCore;
use crate::mutation::ProtocolMutation;
use crate::trace::SchedEventKind;

/// What a repair copy reaching its destination means
/// ([`ReplicaPlane::land`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Landing {
    /// Nothing: the repair was re-routed, or is no longer in flight.
    Stale,
    /// The destination is gone: copy the bytes to this worker instead,
    /// under the same committed start.
    Reroute(WorkerId, u64),
    /// The destination is gone and nobody can take the copy: try the
    /// same destination again later.
    Park,
    /// The copy lands: [`insert`](ReplicaPlane::insert) this many
    /// bytes into the destination's store.
    Insert(u64),
}

/// The cluster's replicas and the rules that keep them.
pub(crate) struct ReplicaPlane {
    map: ReplicaMap,
    /// Repairs in flight: object → destination. Committed before the
    /// copy begins, removed when it lands; the run does not end while
    /// one is in flight.
    repairs: HashMap<ObjectId, WorkerId>,
    /// Pin directives per holder, `(object, pin?)`, applied before the
    /// holder's next insert at the latest.
    pins: Vec<Vec<(ObjectId, bool)>>,
    /// Holders whose directives may wait.
    dirty: Vec<WorkerId>,
    /// Up and in the cluster: a possible source of a peer fetch or a
    /// repair, and a destination whose copy can land.
    alive: Vec<bool>,
    capacity: Vec<u64>,
    /// Bytes of the copies each worker holds: its store's `used()`
    /// while it is up.
    held: Vec<u64>,
    /// Events awaiting commit, in order.
    events: Vec<(WorkerId, Option<JobId>, SchedEventKind)>,
    /// Objects to consider for a repair at the next [`repair`](Self::repair).
    wanted: Vec<ObjectId>,
    /// `SkipRepair` commits a repair and never copies; `EvictLastCopy`
    /// pins no sole copy.
    mutation: ProtocolMutation,
}

impl ReplicaPlane {
    /// Start of run: each worker's store as earlier iterations of the
    /// session left it, and whether the worker is up (not waiting to
    /// join). Those copies enter the map without log events — pre-run
    /// state, not a decision — and every sole copy is pinned.
    pub(crate) fn new<'a>(
        cfg: ReplicationConfig,
        mutation: ProtocolMutation,
        stores: impl IntoIterator<Item = (&'a LocalStore, bool)>,
    ) -> Self {
        let mut plane = ReplicaPlane {
            map: ReplicaMap::new(cfg.factor),
            repairs: HashMap::new(),
            pins: Vec::new(),
            dirty: Vec::new(),
            alive: Vec::new(),
            capacity: Vec::new(),
            held: Vec::new(),
            events: Vec::new(),
            wanted: Vec::new(),
            mutation,
        };
        for (w, (store, alive)) in (0..).zip(stores) {
            plane.pins.push(Vec::new());
            plane.alive.push(alive);
            plane.capacity.push(store.capacity());
            plane.held.push(store.used());
            for obj in store.resident() {
                plane.map.add(obj, w, store.size_of(obj).unwrap_or(0));
                plane.sync_pins(obj);
            }
        }
        plane
    }

    /// The replica map: which workers hold each object.
    pub(crate) fn map(&self) -> &ReplicaMap {
        &self.map
    }

    /// Live holders of `obj` other than `w`, into `out`: the sources a
    /// peer fetch by `w` may use, lowest id first.
    pub(crate) fn peers(&self, obj: ObjectId, w: WorkerId, out: &mut Vec<WorkerId>) {
        let live = |h: u32| self.alive[h as usize];
        out.extend(self.map.live_peers(obj, w.0, live).map(WorkerId));
    }

    /// Would `w` find `obj` on a live peer?
    pub(crate) fn has_peer(&self, obj: ObjectId, w: WorkerId) -> bool {
        self.map.has_live_peer(obj, w.0, |h| self.alive[h as usize])
    }

    /// Journal a data-plane fact that is not the plane's own (a peer
    /// fetch's request, success or failure).
    pub(crate) fn fact(&mut self, w: WorkerId, job: JobId, kind: SchedEventKind) {
        self.events.push((w, Some(job), kind));
    }

    /// A holder whose pin directives may wait: the driver passes its
    /// store to [`pin`](Self::pin) as soon as it can.
    pub(crate) fn dirty(&mut self) -> Option<WorkerId> {
        self.dirty.pop()
    }

    /// Apply `w`'s pending pin directives to its store. Call before
    /// every insert into it.
    pub(crate) fn pin(&mut self, w: WorkerId, store: &mut LocalStore) {
        for (obj, pin) in self.pins[w.0 as usize].drain(..) {
            if pin {
                store.pin(obj);
            } else {
                store.unpin(obj);
            }
        }
    }

    /// `obj` (`bytes` large) lands in `w`'s store: its pins first, then
    /// the insert, then [`inserted`](Self::inserted).
    pub(crate) fn insert(
        &mut self,
        w: WorkerId,
        store: &mut LocalStore,
        obj: ObjectId,
        bytes: u64,
        now: SimTime,
    ) {
        self.pin(w, store);
        store.insert(obj, bytes, now);
        self.inserted(w, store, obj, bytes);
    }

    /// After an insert of `obj` into `w`'s store: a `replica_drop` for
    /// each copy it evicted and a `replica_add` if it kept a new copy,
    /// with the pins re-derived after each; a new copy is wanted for a
    /// top-up.
    pub(crate) fn inserted(&mut self, w: WorkerId, store: &LocalStore, obj: ObjectId, bytes: u64) {
        for &gone in store.evicted() {
            if self.map.drop_replica(gone, w.0) {
                self.held[w.0 as usize] -= self.map.bytes(gone).unwrap_or(0);
                let drop = SchedEventKind::ReplicaDrop {
                    object: gone.0,
                    evicted: true,
                };
                self.events.push((w, None, drop));
                self.sync_pins(gone);
            }
        }
        // An insert that passed through (pins or capacity blocked
        // admission) made no copy.
        if store.peek(obj) && self.map.add(obj, w.0, bytes) {
            self.held[w.0 as usize] += bytes;
            let add = SchedEventKind::ReplicaAdd { object: obj.0 };
            self.events.push((w, None, add));
            self.sync_pins(obj);
            self.wanted.push(obj);
        }
        debug_assert!(
            !self.alive[w.0 as usize] || self.held[w.0 as usize] == store.used(),
            "the map's copies on w{} disagree with its store",
            w.0
        );
    }

    /// `w` crashed, was removed or departed: its copies leave the map,
    /// one `replica_drop` each (a failure, not cache pressure), and
    /// everything under its factor is wanted.
    pub(crate) fn drop_worker(&mut self, w: WorkerId) {
        self.alive[w.0 as usize] = false;
        self.held[w.0 as usize] = 0;
        for obj in self.map.drop_node(w.0) {
            let drop = SchedEventKind::ReplicaDrop {
                object: obj.0,
                evicted: false,
            };
            self.events.push((w, None, drop));
            self.sync_pins(obj);
        }
        self.rescan();
    }

    /// `w` is up again (a recovery with an empty store, or a join).
    pub(crate) fn up(&mut self, w: WorkerId) {
        self.alive[w.0 as usize] = true;
    }

    /// Want every object under its factor (after a master takeover).
    pub(crate) fn rescan(&mut self) {
        self.wanted.extend(self.map.under_replicated());
    }

    /// Commit the journaled events, in order.
    pub(crate) fn flush(&mut self, core: &mut MasterCore, now: SimTime) {
        for (w, job, kind) in self.events.drain(..) {
            if matches!(kind, SchedEventKind::RepairDone { .. }) {
                core.m.repairs_completed.inc();
            }
            core.commit(now, Some(w), job, kind);
        }
    }

    /// [`flush`](Self::flush), then start a repair for each wanted
    /// object still under its factor with none in flight and a live
    /// source and an eligible destination: `repair_start` commits,
    /// then `copy(object, destination, bytes)` makes the copy.
    pub(crate) fn repair(
        &mut self,
        core: &mut MasterCore,
        now: SimTime,
        mut copy: impl FnMut(ObjectId, WorkerId, u64),
    ) {
        self.flush(core, now);
        for i in 0..self.wanted.len() {
            let obj = self.wanted[i];
            if self.repairs.contains_key(&obj) || self.map.count(obj) >= self.map.factor() as usize
            {
                continue;
            }
            let Some(bytes) = self.map.bytes(obj) else {
                continue;
            };
            // No live source: the copy cannot be made. If a fetch or a
            // repair needed it, the oracle reports the loss.
            let Some(src) = self.map.first_live(obj, |h| self.alive[h as usize]) else {
                continue;
            };
            let Some(dest) = self.dest(core, obj) else {
                continue;
            };
            let start = SchedEventKind::RepairStart {
                object: obj.0,
                from: WorkerId(src),
            };
            if !core.commit(now, Some(dest), None, start) {
                continue;
            }
            core.m.repairs_started.inc();
            if self.mutation == ProtocolMutation::SkipRepair {
                // Sabotage: the start is committed, the copy never
                // made — the oracle must flag the unmatched start.
                continue;
            }
            self.repairs.insert(obj, dest);
            copy(obj, dest, bytes);
        }
        self.wanted.clear();
    }

    /// A repair copy of `obj` reaches `dest`. `core` names the
    /// workers that may take a re-routed copy.
    pub(crate) fn land(&mut self, core: &MasterCore, obj: ObjectId, dest: WorkerId) -> Landing {
        if self.repairs.get(&obj) != Some(&dest) {
            return Landing::Stale;
        }
        if !self.alive[dest.0 as usize] {
            // No second `repair_start`: that would count the decision
            // twice.
            return match (self.dest(core, obj), self.map.bytes(obj)) {
                (Some(nd), Some(bytes)) => {
                    self.repairs.insert(obj, nd);
                    Landing::Reroute(nd, bytes)
                }
                _ => Landing::Park,
            };
        }
        self.repairs.remove(&obj);
        let done = SchedEventKind::RepairDone { object: obj.0 };
        self.events.push((dest, None, done));
        self.wanted.push(obj);
        Landing::Insert(self.map.bytes(obj).unwrap_or(0))
    }

    /// No repair in flight and nothing awaiting commit.
    pub(crate) fn settled(&self) -> bool {
        self.repairs.is_empty() && self.events.is_empty()
    }

    /// Where a new copy of `obj` goes: the eligible worker with the
    /// most free store bytes that does not hold it, lowest id on a tie.
    fn dest(&self, core: &MasterCore, obj: ObjectId) -> Option<WorkerId> {
        (0..self.alive.len() as u32)
            .map(WorkerId)
            .filter(|&w| core.eligible(w) && !self.map.holds(obj, w.0))
            .max_by_key(|&w| {
                let i = w.0 as usize;
                let free = self.capacity[i].saturating_sub(self.held[i]);
                (free, std::cmp::Reverse(w.0))
            })
    }

    /// Re-derive the pins of `obj`: its sole copy is pinned (unless
    /// `EvictLastCopy`), and once it has two copies none is.
    fn sync_pins(&mut self, obj: ObjectId) {
        let (pins, dirty) = (&mut self.pins, &mut self.dirty);
        let mut direct = |h: u32, pin| {
            if pins[h as usize].is_empty() {
                dirty.push(WorkerId(h));
            }
            pins[h as usize].push((obj, pin));
        };
        match self.map.sole_holder(obj) {
            Some(h) if self.mutation != ProtocolMutation::EvictLastCopy => direct(h, true),
            Some(_) => {}
            None => self.map.replicas(obj).for_each(|h| direct(h, false)),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use crossbid_simcore::{RngStream, SimDuration};
    use crossbid_storage::EvictionPolicy;
    use proptest::prelude::*;

    use super::*;
    use crate::atomize::AtomizeConfig;
    use crate::baseline::BaselineMaster;
    use crate::faults::{MasterFaultPlan, NetFaultPlan};
    use crate::job::ShardId;
    use crate::obs::RuntimeMetrics;
    use crate::replog::{ReplicatedLog, SchedState};
    use crate::scheduler::WorkerHandle;

    const WORKERS: u32 = 4;

    /// Three sizes, so that a 4 000-byte store evicts, and sole copies
    /// pinned in it can turn an insert into a pass-through.
    fn size(obj: u64) -> u64 {
        1000 + 500 * (obj % 3)
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A live worker's store takes an object (a fetch or an output).
        Insert {
            w: u32,
            obj: u64,
        },
        Crash(u32),
        Recover(u32),
        /// The copy at this index (modulo those in flight) arrives.
        Land(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..9, 0..WORKERS, 0u64..8).prop_map(|(op, w, pick)| match op {
            0..=3 => Op::Insert { w, obj: pick },
            4 => Op::Crash(w),
            5 => Op::Recover(w),
            _ => Op::Land(pick as usize),
        })
    }

    /// A driver with no runtime: the stores, a core whose leader may
    /// crash at some append, and the copies in flight.
    struct Rig {
        core: MasterCore,
        plane: ReplicaPlane,
        stores: Vec<LocalStore>,
        up: Vec<bool>,
        copies: Vec<(ObjectId, WorkerId)>,
        evict_last_copy: bool,
        now: SimTime,
        /// Log entries already checked, and the objects whose
        /// `repair_start` has no `repair_done` yet.
        seen: usize,
        open: BTreeSet<u64>,
    }

    impl Rig {
        fn new(factor: u32, evict_last_copy: bool, crash_at: Option<u64>) -> Self {
            let plan = crash_at.map_or_else(MasterFaultPlan::none, |k| {
                MasterFaultPlan::new().crash_at(k)
            });
            let roster = (0..WORKERS)
                .map(|i| WorkerHandle {
                    id: WorkerId(i),
                    name: format!("w{i}"),
                })
                .collect();
            let core = MasterCore::new(
                Some(ReplicatedLog::new(&plan)),
                ShardId(0),
                AtomizeConfig::default(),
                true,
                Some(&NetFaultPlan::none()),
                RuntimeMetrics::from_sink(None),
                Box::new(BaselineMaster::new()),
                roster,
                RngStream::from_seed(3),
                ProtocolMutation::None,
            );
            let stores: Vec<LocalStore> = (0..WORKERS)
                .map(|_| LocalStore::new(4000, EvictionPolicy::Lru))
                .collect();
            let mutation = if evict_last_copy {
                ProtocolMutation::EvictLastCopy
            } else {
                ProtocolMutation::None
            };
            let cfg = ReplicationConfig::with_factor(factor);
            let plane = ReplicaPlane::new(cfg, mutation, stores.iter().map(|s| (s, true)));
            Rig {
                core,
                plane,
                stores,
                up: vec![true; WORKERS as usize],
                copies: Vec::new(),
                evict_last_copy,
                now: SimTime::ZERO,
                seen: 0,
                open: BTreeSet::new(),
            }
        }

        fn step(&mut self, op: Op) -> Result<(), String> {
            self.now += SimDuration::from_millis(1);
            match op {
                Op::Insert { w, obj } if self.up[w as usize] => {
                    self.insert(WorkerId(w), ObjectId(obj), size(obj))?;
                }
                Op::Insert { .. } => {}
                Op::Crash(w) if self.up[w as usize] => {
                    let w = WorkerId(w);
                    self.up[w.0 as usize] = false;
                    self.stores[w.0 as usize].clear();
                    self.core.crash(self.now, w);
                    self.core.lose(self.now, w);
                    self.plane.drop_worker(w);
                }
                Op::Crash(_) => {}
                Op::Recover(w) if !self.up[w as usize] => {
                    let w = WorkerId(w);
                    self.up[w.0 as usize] = true;
                    self.core.recover(self.now, w);
                    self.plane.up(w);
                }
                Op::Recover(_) => {}
                Op::Land(k) => self.land(k)?,
            }
            self.repair()?;
            while self.core.failover_pending() {
                self.core
                    .takeover(self.now, Box::new(BaselineMaster::new()));
                self.plane.rescan();
                self.repair()?;
            }
            self.check()
        }

        /// Land the `k`-th copy in flight.
        fn land(&mut self, k: usize) -> Result<(), String> {
            if self.copies.is_empty() {
                return Ok(());
            }
            let (obj, dest) = self.copies.remove(k % self.copies.len());
            match self.plane.land(&self.core, obj, dest) {
                Landing::Stale => Err(format!("the copy of {obj:?} to w{} went stale", dest.0)),
                Landing::Reroute(to, _) => {
                    self.eligible_dest(obj, to)?;
                    self.copies.push((obj, to));
                    Ok(())
                }
                Landing::Park => {
                    self.copies.push((obj, dest));
                    Ok(())
                }
                Landing::Insert(bytes) => self.insert(dest, obj, bytes),
            }
        }

        /// An insert into `w`'s store, as a driver makes it, holding the
        /// plane to the pin rule at the one moment it matters.
        fn insert(&mut self, w: WorkerId, obj: ObjectId, bytes: u64) -> Result<(), String> {
            let map = self.plane.map();
            let sole: Vec<ObjectId> = map
                .objects()
                .filter(|&o| map.sole_holder(o) == Some(w.0))
                .collect();
            let held: Vec<ObjectId> = map.objects().filter(|&o| map.holds(o, w.0)).collect();
            let store = &mut self.stores[w.0 as usize];
            self.plane.pin(w, store);
            for o in held {
                let want = !self.evict_last_copy && sole.contains(&o);
                if store.is_pinned(o) != want {
                    return Err(format!("w{}: {o:?} pinned is {}, want {want}", w.0, !want));
                }
            }
            store.insert(obj, bytes, self.now);
            if let Some(o) = store.evicted().iter().find(|o| sole.contains(o)) {
                if !self.evict_last_copy {
                    return Err(format!("w{}: the sole copy of {o:?} was evicted", w.0));
                }
            }
            self.plane.inserted(w, store, obj, bytes);
            Ok(())
        }

        /// Start what the plane wants repaired; each copy goes to an
        /// eligible worker that does not hold it.
        fn repair(&mut self) -> Result<(), String> {
            let mut started = Vec::new();
            let plane = &mut self.plane;
            plane.repair(&mut self.core, self.now, |obj, dest, _| {
                started.push((obj, dest));
            });
            for (obj, dest) in started {
                self.eligible_dest(obj, dest)?;
                self.copies.push((obj, dest));
            }
            Ok(())
        }

        fn eligible_dest(&self, obj: ObjectId, dest: WorkerId) -> Result<(), String> {
            if !self.core.eligible(dest) || self.plane.map().holds(obj, dest.0) {
                return Err(format!("a copy of {obj:?} sent to w{}", dest.0));
            }
            Ok(())
        }

        /// The log's repairs pair up with the copies in flight, and its
        /// replica events rebuild the plane's map.
        fn check(&mut self) -> Result<(), String> {
            let log = self.core.log();
            for e in log.events().skip(self.seen) {
                match e.kind {
                    SchedEventKind::RepairStart { object, .. } if !self.open.insert(object) => {
                        return Err(format!("a second repair_start of object {object}"));
                    }
                    SchedEventKind::RepairDone { object } if !self.open.remove(&object) => {
                        return Err(format!("a repair_done of object {object} with no start"));
                    }
                    _ => {}
                }
            }
            self.seen = log.len();
            let flying: BTreeSet<u64> = self.copies.iter().map(|(o, _)| o.0).collect();
            if flying.len() != self.copies.len() {
                return Err(format!(
                    "two repairs of one object in flight: {:?}",
                    self.copies
                ));
            }
            if flying != self.open {
                return Err(format!(
                    "starts without a done {:?}, copies in flight {flying:?}",
                    self.open
                ));
            }
            let map = self.plane.map();
            let mut want: BTreeMap<u64, BTreeSet<WorkerId>> = BTreeMap::new();
            for obj in map.objects() {
                let holders: BTreeSet<WorkerId> = map.replicas(obj).map(WorkerId).collect();
                if !holders.is_empty() {
                    want.insert(obj.0, holders);
                }
            }
            if SchedState::replay(log.events()).replicas != want {
                return Err("replaying the log does not rebuild the replica map".into());
            }
            Ok(())
        }
    }

    proptest! {
        /// Random inserts (evicting, and passing through where pins
        /// leave no room), crashes, recoveries and repair landings,
        /// with the leader crashing at a random append and a standby
        /// taking over: a sole copy is pinned and an insert never
        /// evicts it (unless `evict_last_copy`), and no other copy is
        /// pinned; at most one repair per object is in flight, and it
        /// goes to an eligible worker that does not hold the object;
        /// every committed `repair_start` has exactly one copy in
        /// flight until its one `repair_done`, and a re-routed copy
        /// commits no second start; replaying the log rebuilds the
        /// replica map.
        #[test]
        fn the_replica_plane_keeps_its_rules(
            factor in 1u32..=3,
            evict_last_copy in proptest::bool::ANY,
            crash_at in proptest::option::of(1u64..80),
            ops in proptest::collection::vec(op(), 1..120),
        ) {
            let mut rig = Rig::new(factor, evict_last_copy, crash_at);
            for op in ops {
                let kept = rig.step(op.clone());
                prop_assert!(kept.is_ok(), "{op:?}: {}", kept.unwrap_err());
            }
        }
    }
}
