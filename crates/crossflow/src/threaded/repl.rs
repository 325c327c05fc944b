//! Shared state of the replicated data plane in the threaded runtime.
//!
//! The simulation engine owns every structure and mutates them inline;
//! here the plane is concurrent. A single [`ReplState`] behind a mutex
//! carries the cluster-wide replica registry, a journal of data-plane
//! events awaiting commit, the pin directives each worker applies to
//! its own store, and the in-flight repair set.
//!
//! **Lock order** (deadlock freedom): a thread that needs both locks
//! takes its own `WorkerNode` *first*, then `ReplState`. The master
//! only ever holds one worker's shared state at a time and never takes
//! a shared lock while holding the repl lock — free-byte snapshots for
//! repair-destination choice are collected before locking `ReplState`.
//!
//! **Event ordering**: every registry mutation and its matching
//! journal entry happen in the same critical section, so the journal
//! is a faithful serialization of the data plane. The master drains it
//! each loop iteration and commits the entries through the replicated
//! scheduler log in order — the oracle's stale-source check and the
//! replay property both ride on that order being exact.

use std::collections::HashMap;

use crossbid_storage::{LocalStore, ObjectId, ReplicaMap};

use crate::engine::ReplicationConfig;
use crate::faults::NetFaultPlan;
use crate::job::JobId;
use crate::trace::SchedEventKind;

/// One journaled data-plane event awaiting commit by the master:
/// `(worker, job, kind)`.
pub(crate) type JournalEntry = (u32, Option<JobId>, SchedEventKind);

pub(crate) struct ReplState {
    /// Effective config (mutation sabotage flags already folded in).
    pub cfg: ReplicationConfig,
    /// Cluster-wide artifact → live replica set; the source of truth.
    pub map: ReplicaMap,
    /// Data-plane events produced under this lock, committed in order
    /// by the master loop.
    pub journal: Vec<JournalEntry>,
    /// Pin directives per worker `(object, pin?)`. A worker (or the
    /// master inserting a repair copy on its behalf) drains its own
    /// queue under both locks immediately before any store insert —
    /// the only moment that store can evict — so a queued pin always
    /// lands before the eviction it must prevent.
    pin_ops: Vec<Vec<(ObjectId, bool)>>,
    /// In-flight re-replication copies: object → destination worker.
    /// Committed (`repair_start`) before the copy begins; removed on
    /// `repair_done`; the run does not end while one is in flight.
    pub repairs: HashMap<ObjectId, u32>,
    /// Liveness mirror maintained by the master (crashes, recoveries,
    /// joins, removals) for source filtering on the worker side.
    pub alive: Vec<bool>,
    /// Net-fault plan: its link loss composes into a repair copy's
    /// loss sample.
    pub netfaults: NetFaultPlan,
}

impl ReplState {
    pub fn new(cfg: ReplicationConfig, netfaults: NetFaultPlan, n: usize) -> Self {
        ReplState {
            map: ReplicaMap::new(cfg.factor),
            cfg,
            journal: Vec::new(),
            pin_ops: vec![Vec::new(); n],
            repairs: HashMap::new(),
            alive: vec![true; n],
            netfaults,
        }
    }

    /// Apply every pending pin directive for worker `me` to its store.
    /// Callers hold `me`'s `WorkerNode` lock and this lock together,
    /// and call this *before* the insert the directives must protect.
    pub fn apply_pin_ops(&mut self, me: u32, store: &mut LocalStore) {
        for (obj, pin) in self.pin_ops[me as usize].drain(..) {
            if pin {
                store.pin(obj);
            } else {
                store.unpin(obj);
            }
        }
    }

    /// Re-derive eviction pins for `obj`: its sole surviving copy is
    /// pinned (eviction must never destroy data the cluster cannot
    /// re-create); once a second copy exists the pins are released.
    /// Directives are queued per holder and land before that holder's
    /// next insert — its earliest eviction opportunity.
    pub fn sync_pins(&mut self, obj: ObjectId) {
        match self.map.sole_holder(obj) {
            Some(h) if !self.cfg.evict_last_copy => self.pin_ops[h as usize].push((obj, true)),
            Some(_) => {}
            None => {
                for h in self.map.replicas(obj) {
                    self.pin_ops[h as usize].push((obj, false));
                }
            }
        }
    }

    /// Post-insert replica bookkeeping, mirroring the engine's
    /// `note_replica_insert`: journal a `replica_drop` for every
    /// eviction `store`'s last insert caused, a `replica_add` if the
    /// object was retained and is a new copy, and re-derive pins.
    /// Top-up repairs are the master's job — its under-replication scan
    /// runs after every journal drain that changed a replica set.
    pub fn note_insert(&mut self, me: u32, store: &LocalStore, obj: ObjectId, bytes: u64) {
        for &gone in store.evicted() {
            if self.map.drop_replica(gone, me) {
                self.journal.push((
                    me,
                    None,
                    SchedEventKind::ReplicaDrop {
                        object: gone.0,
                        evicted: true,
                    },
                ));
                self.sync_pins(gone);
            }
        }
        // An insert that passed through (pins or capacity blocked
        // admission) did not create a copy.
        if store.peek(obj) && self.map.add(obj, me, bytes) {
            self.journal
                .push((me, None, SchedEventKind::ReplicaAdd { object: obj.0 }));
            self.sync_pins(obj);
        }
    }

    /// Crash/removal/drain-departure hook: `w`'s copies leave the
    /// replica set. Journals one `replica_drop` per object
    /// (`evicted: false` — a failure, not cache pressure) and
    /// re-derives pins. The master's scan schedules the repairs.
    pub fn drop_worker(&mut self, w: u32) {
        self.alive[w as usize] = false;
        self.pin_ops[w as usize].clear();
        for obj in self.map.drop_node(w) {
            self.journal.push((
                w,
                None,
                SchedEventKind::ReplicaDrop {
                    object: obj.0,
                    evicted: false,
                },
            ));
            self.sync_pins(obj);
        }
    }
}
