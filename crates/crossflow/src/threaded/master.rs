//! The threaded master: the sim's decision path — [`MasterCore`]
//! driving the run's `dyn MasterScheduler` — carried over channels and
//! real deadlines, plus job injection, completion routing, and fault
//! injection with detection-delayed redistribution.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use crossbid_metrics::SchedulerKind;
use crossbid_net::NoiseModel;
use crossbid_simcore::{RngStream, SeedSequence, SimDuration, SimTime, Welford};
use parking_lot::Mutex;

use crossbid_storage::ObjectId;

use crate::atomize::DoneOutcome;
use crate::bidding::{BiddingConfig, BiddingMaster};
use crate::engine::{ReplicationConfig, RunMeta, RunOutput};
use crate::faults::{FaultEvent, MembershipAction, MembershipEvent, NetFaultPlan};
use crate::job::{Arrival, Job, JobId, JobSpec, WorkerId};
use crate::master_core::{
    warm_seed, Admitted, Completion, Delivery, Effect, MasterCore, RunTotals, Settle, Takeover,
};
use crate::obs::RuntimeMetrics;
use crate::replog::ReplicatedLog;
use crate::scheduler::{Allocator, MasterScheduler, SchedCtx, WorkerHandle, WorkerToMaster};
use crate::spec::RunSpec;
use crate::task::TaskCtx;
use crate::trace::{SchedEventKind, Trace, TraceEvent, TraceKind};
use crate::worker::{WorkerNode, WorkerRules, WorkerSpec};
use crate::workflow::Workflow;

use super::chaos::{Intake, NetIntake, ReofferToRejector};
use super::repl::ReplState;
use super::worker::spawn_worker;
use super::{Clock, ToMaster, ToWorker};

/// Master→worker half of the lossy link plus the reliability-layer
/// sequencing state. Present only while a [`NetFaultPlan`] is active.
struct NetMaster {
    plan: NetFaultPlan,
    rng: RngStream,
    /// Messages the link has delayed: `(due, worker, msg)`. Drained
    /// by the main loop; the earliest due feeds the wait deadline.
    delayed: Vec<(Instant, u32, ToWorker)>,
}

struct MasterState {
    // Fault masking. `known_live` is the master's *belief*: it only
    // flips to `false` once the detection delay has elapsed after a
    // crash, so for a while the master keeps scheduling against a
    // stale roster — exactly the masking window the contest timeout
    // covers. Deferred-join workers start out `false` and flip on
    // their membership event.
    known_live: Vec<bool>,
    /// Gracefully draining: still live (queued work finishes) but out
    /// of the allocation roster; new bids and idle pulls are ignored.
    draining: Vec<bool>,
    /// Permanently departed (drain completed, or removed outright):
    /// never returns, unlike a crashed worker awaiting recovery.
    departed: Vec<bool>,
    /// The master shared with the simulation engine: the scheduler and
    /// its roster (believed-live, non-draining workers), the replicated
    /// log (every entry is quorum-committed before the master acts on
    /// it; an elected standby rebuilds from it), ids, counts, DAG
    /// bookkeeping, the placement ledger with its retry and lease
    /// deadlines, retained payloads and the master's metrics tallies
    /// (the worker threads and the net intake record into forks).
    core: MasterCore,
    /// Lossy-link state; `None` leaves every send untouched.
    net: Option<NetMaster>,
    txs: Vec<Sender<ToWorker>>,
    clock: Clock,
    /// Floor on the real duration of a scheduler timer. Aggressive
    /// time compression can shrink a scaled bidding window below OS
    /// scheduling jitter, making every contest "time out" before the
    /// bids physically arrive; the floor keeps the contest mechanism
    /// meaningful under compression. Contests still normally close on
    /// the full bid set long before it.
    min_window: Duration,
    /// The scheduler's armed timers, earliest first: `(due, token)`.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
}

impl MasterState {
    fn live_count(&self) -> usize {
        self.known_live.iter().filter(|l| **l).count()
    }

    /// Put `w` on the roster while it is believed live and not
    /// draining.
    fn sync_roster(&mut self, w: usize) {
        let on = self.known_live[w] && !self.draining[w];
        self.core.set_eligible(WorkerId(w as u32), on);
    }

    /// Send `msg` to worker `w` across the (possibly lossy) link: the
    /// message can be eaten by a partition or a drop, duplicated, or
    /// parked in the delay queue the main loop drains.
    fn send_worker(&mut self, w: u32, msg: ToWorker) {
        let Some(net) = &mut self.net else {
            let _ = self.txs[w as usize].send(msg);
            return;
        };
        let link = net.plan.to_worker;
        if net.plan.partitioned(WorkerId(w), self.clock.now()) || net.rng.chance(link.drop_prob) {
            self.core.m.net_dropped.inc();
            return;
        }
        let copies = if net.rng.chance(link.dup_prob) {
            self.core.m.net_duplicated.inc();
            2
        } else {
            1
        };
        for _ in 0..copies {
            let d = if link.delay_max_secs > 0.0 {
                net.rng.uniform(link.delay_min_secs, link.delay_max_secs)
            } else {
                0.0
            };
            if d > 0.0 {
                let due = Instant::now() + self.clock.real(d);
                net.delayed.push((due, w, msg.clone()));
            } else {
                let _ = self.txs[w as usize].send(msg.clone());
            }
        }
    }

    /// Put a placement on the wire.
    fn deliver(&mut self, d: Delivery) {
        self.core.m.control_messages.inc();
        let (w, msg) = (d.worker.0, ToWorker::placement(d));
        self.send_worker(w, msg);
    }

    /// Run one scheduler callback through the core and carry out what
    /// it decided.
    fn decide<F: FnOnce(&mut dyn MasterScheduler, &mut SchedCtx)>(&mut self, f: F) {
        self.core.decide(self.clock.now(), f);
        self.apply();
    }

    /// One worker message through the core's intake.
    fn receive(&mut self, w: u32, msg: WorkerToMaster, seq: u64) {
        self.core.receive(self.clock.now(), WorkerId(w), msg, seq);
        self.apply();
    }

    /// A new (or reclaimed) job enters allocation.
    fn submit(&mut self, job: Job) {
        self.decide(|m, ctx| m.on_job(job, ctx));
    }

    /// Release one DAG task into allocation; a truncated release is
    /// dropped with the leader.
    fn release(&mut self, root: JobId, idx: u32, spec: JobSpec) {
        let now = self.clock.now();
        if let Some(job) = self.core.release_task(now, root, idx, spec, false) {
            self.submit(job);
        }
    }

    /// `job` comes back from `owner` (`None`: from the monitoring
    /// layer) and re-enters allocation.
    fn redistribute(&mut self, owner: Option<WorkerId>, job: Job) {
        self.core.m.jobs_redistributed.inc();
        let kind = SchedEventKind::Redistributed;
        self.core
            .commit(self.clock.now(), owner, Some(job.id), kind);
        self.submit(job);
    }

    /// A crashed or removed worker's placements made before `cut` (all
    /// of them on `None`) come off the ledger and re-enter allocation.
    fn reclaim(&mut self, w: WorkerId, cut: Option<SimTime>) {
        for job in self.core.reclaim(w, cut) {
            self.redistribute(Some(w), job);
        }
    }

    /// Carry out the core's effects: channel sends, and timers with
    /// real deadlines. A placement for a worker the master believes
    /// dead bounces back into allocation, as the sim's monitoring layer
    /// returns one; a repooled worker announces itself idle. Both feed
    /// the scheduler again, so they wait until the buffer is handed
    /// back.
    fn apply(&mut self) {
        let mut fx = self.core.take_effects();
        let mut later = Vec::new();
        for e in fx.drain(..) {
            match e {
                Effect::Send(d) if !self.known_live[d.worker.0 as usize] => {
                    later.push(Effect::Send(d))
                }
                Effect::Send(d) => self.deliver(d),
                Effect::Solicit { worker, job } => {
                    // Bid requests are fire-and-forget even on a lossy
                    // link: a lost one costs only optimality (the
                    // contest resolves by timeout or fallback).
                    self.core.m.control_messages.inc();
                    self.send_worker(worker.0, ToWorker::BidRequest(job));
                }
                Effect::Timer { delay, token } => {
                    let real = self.clock.real(delay.as_secs_f64()).max(self.min_window);
                    self.timers.push(Reverse((Instant::now() + real, token)));
                }
                Effect::Repool(w) => later.push(Effect::Repool(w)),
            }
        }
        self.core.put_effects(fx);
        for e in later {
            match e {
                Effect::Send(d) => {
                    if self.core.settle(d.job.id, Settle::Bounced(d.worker, d.seq)) {
                        self.redistribute(None, d.job);
                    }
                }
                Effect::Repool(w) => self.receive(w.0, WorkerToMaster::Idle, 0),
                Effect::Solicit { .. } | Effect::Timer { .. } => unreachable!("carried out above"),
            }
        }
    }
}

/// Cold worker cores for the threaded runtime, which prices no
/// per-transfer setup latency.
pub(crate) fn fresh_nodes(specs: &[WorkerSpec], noise: &NoiseModel) -> Vec<Arc<Mutex<WorkerNode>>> {
    specs
        .iter()
        .map(|s| {
            Arc::new(Mutex::new(WorkerNode::new(
                s.clone(),
                SimDuration::ZERO,
                noise,
            )))
        })
        .collect()
}

/// The scheduler a threaded run (or its elected standby) drafts:
/// Listing 1 with serialized contests and the spec's window for a
/// bidding allocator, the allocator's own master for any other.
fn draft(spec: &RunSpec, allocator: &dyn Allocator) -> Box<dyn MasterScheduler> {
    let master: Box<dyn MasterScheduler> = match allocator.kind() {
        SchedulerKind::Bidding => Box::new(BiddingMaster::new(BiddingConfig {
            window: SimDuration::from_secs_f64(spec.contest_window_secs),
            serialize_contests: true,
            ..BiddingConfig::default()
        })),
        _ => allocator.master(),
    };
    if spec.mutation.reoffers_to_rejector() {
        Box::new(ReofferToRejector(master))
    } else {
        master
    }
}

/// Run `arrivals` through `workflow` on real threads, over caller-owned
/// worker cores whose bids and accepts go through a fresh
/// `allocator.worker_policy()` each. [`crate::runtime::ThreadedSession`]
/// passes the same `nodes` across iterations so caches and learned
/// speeds stay warm, exactly like the engine's persistent
/// [`crate::engine::Cluster`]. Returns the same [`RunOutput`] shape as
/// the simulation engine: record, scheduler log, synthesized trace
/// (when the spec traces), per-job placements (in completion order)
/// and a metrics snapshot. `meta.seed` seeds the run.
///
/// Unlike the simulated engine this function is *not* deterministic:
/// thread interleavings, late bids and real queueing are part of what
/// it measures (§6.4's role in the paper).
pub(crate) fn run_threaded(
    spec: &RunSpec,
    nodes: &[Arc<Mutex<WorkerNode>>],
    allocator: &dyn Allocator,
    workflow: &mut Workflow,
    arrivals: Vec<Arrival>,
    meta: &RunMeta,
) -> RunOutput {
    let (specs, cfg) = (&spec.workers, &spec.engine);
    assert!(!specs.is_empty(), "need at least one worker");
    assert_eq!(specs.len(), nodes.len(), "one worker core per spec");
    assert!(spec.time_scale > 0.0, "time_scale must be positive");
    let mutation = spec.mutation;
    assert!(
        mutation.is_none() || cfg!(feature = "protocol-mutation"),
        "protocol mutations require the `protocol-mutation` cargo feature"
    );
    let n = specs.len();
    let seq = SeedSequence::new(meta.seed);
    let net_active = cfg.netfaults.is_active();
    // The master core owns these tallies; every other recording thread
    // owns a fork.
    let metrics = RuntimeMetrics::from_sink(cfg.metrics.clone());

    // Replicated data plane, shared with every worker thread when
    // armed. The mutation sabotage flags fold into the effective
    // config so both runtimes misbehave identically under test.
    let repl: Option<Arc<Mutex<ReplState>>> = {
        let mut rcfg = cfg.replication;
        rcfg.skip_repair |= mutation.skips_repair();
        rcfg.evict_last_copy |= mutation.evicts_last_copy();
        rcfg.enabled.then(|| {
            let mut rs = ReplState::new(rcfg, cfg.netfaults.clone(), n);
            for i in 0..n {
                rs.alive[i] = !cfg.membership.is_deferred(WorkerId(i as u32));
            }
            // Warm seeding: copies persisted by earlier iterations of
            // the session enter the registry without log events (the
            // log narrates this run only), then pins are re-derived.
            let resident = nodes.iter().enumerate().flat_map(|(i, node)| {
                let s = node.lock();
                let sized = |o| (i as u32, o, s.store.size_of(o).unwrap_or(0));
                s.store.resident().map(sized).collect::<Vec<_>>()
            });
            for obj in warm_seed(&mut rs.map, resident) {
                rs.sync_pins(obj);
            }
            Arc::new(Mutex::new(rs))
        })
    };

    let (to_master_tx, to_master_rx): (Sender<ToMaster>, Receiver<ToMaster>) = unbounded();
    let mut worker_txs: Vec<Sender<ToWorker>> = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    // Workers and master share one virtual clock.
    let start = Instant::now();
    let clock = Clock {
        start,
        scale: spec.time_scale,
    };
    let rules = WorkerRules {
        learning: cfg.speed_learning,
        reliable: net_active,
        net: cfg.netfaults.clone(),
        repl: cfg.replication,
    };
    let bid_delay = spec
        .chaos
        .as_ref()
        .map(|c| c.max_bid_delay)
        .unwrap_or(Duration::ZERO);
    for (i, node) in nodes.iter().enumerate() {
        let id = WorkerId(i as u32);
        let worker_seed = seq.seed_for(100 + i as u64);
        let rng = RngStream::from_seed(worker_seed);
        node.lock()
            .begin_run(id, rules.clone(), allocator.worker_policy(), rng, true);
        let (tx, rx) = unbounded::<ToWorker>();
        let threads = spawn_worker(
            id.0,
            Arc::clone(node),
            rx,
            to_master_tx.clone(),
            clock,
            worker_seed,
            metrics.clone(),
            bid_delay,
            net_active.then_some(cfg.netfaults.retry),
            repl.clone(),
        );
        worker_txs.push(tx);
        handles.push(threads);
    }
    drop(to_master_tx);
    // In-flight re-replication copies: `(due, object, dest, bytes)`.
    // One entry per `ReplState::repairs` entry; fired by the main loop.
    let mut repair_timers: Vec<(Instant, ObjectId, u32, u64)> = Vec::new();
    // The worker→master half of the lossy link lives in the intake,
    // beneath the chaos layer.
    let net_intake = net_active.then(|| {
        NetIntake::new(
            cfg.netfaults.clone(),
            start,
            spec.time_scale,
            metrics.clone(),
        )
    });
    let mut intake = Intake::new(to_master_rx, spec.chaos.clone(), net_intake);
    // Arrival schedule in real time.
    let mut pending_arrivals: VecDeque<(Instant, JobSpec)> = arrivals
        .into_iter()
        .map(|a| (start + clock.real(a.at.as_secs_f64()), a.spec))
        .collect();
    let total_arrivals = pending_arrivals.len() as u64;
    let mut arrivals_seen = 0u64;

    // Fault schedule in real time. The master doubles as the fault
    // injector: it flips the worker's shared liveness flag (the
    // "instance dies") and, `detection_delay` later, acts on it (the
    // "monitoring layer notices").
    let mut fault_events: VecDeque<(Instant, FaultEvent)> = {
        let mut evs: Vec<(Instant, FaultEvent)> = cfg
            .faults
            .events()
            .iter()
            .map(|(at, ev)| (start + clock.real(at.as_secs_f64()), *ev))
            .collect();
        evs.sort_by_key(|(at, _)| *at);
        evs.into()
    };
    let detection_real = clock.real(cfg.faults.detection_delay.as_secs_f64());
    // Elastic-membership schedule in real time, same treatment as the
    // fault schedule.
    let mut membership_events: VecDeque<(Instant, MembershipEvent)> = {
        let mut evs: Vec<(Instant, MembershipEvent)> = cfg
            .membership
            .events()
            .iter()
            .map(|e| (start + clock.real(e.at.as_secs_f64()), *e))
            .collect();
        evs.sort_by_key(|(at, _)| *at);
        evs.into()
    };
    // (fire_at, worker, flip instant of the crash being detected)
    let mut detections: VecDeque<(Instant, u32, Instant)> = VecDeque::new();
    let mut down_since: Vec<Option<Instant>> = vec![None; n];
    let mut last_recover: Vec<Option<Instant>> = vec![None; n];
    let mut downtime_real = 0.0f64;

    let roster: Vec<WorkerHandle> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| WorkerHandle {
            id: WorkerId(i as u32),
            name: s.name.clone(),
        })
        .collect();
    let mut st = MasterState {
        // A deferred worker is dormant until its join fires: its
        // initial Idle announcement is dropped by the liveness filter
        // and no bid request reaches it.
        known_live: (0..n)
            .map(|i| !cfg.membership.is_deferred(WorkerId(i as u32)))
            .collect(),
        draining: vec![false; n],
        departed: vec![false; n],
        core: {
            // The protocol mutations route through the shared DAG
            // config and the core's sabotage switches so both runtimes
            // misbehave identically.
            let mut acfg = cfg.atomize;
            acfg.release_all |= mutation.ignores_dag_gating();
            acfg.double_speculate |= mutation.double_speculates();
            let mut core = MasterCore::new(
                Some(ReplicatedLog::new(&cfg.master_faults)),
                cfg.shard,
                acfg,
                !cfg.master_faults.is_empty(),
                Some(&cfg.netfaults),
                metrics,
                draft(spec, allocator),
                roster,
                seq.stream(1),
            );
            core.drops_dedup = mutation.drops_dedup();
            core.ignores_acks = mutation.ignores_acks();
            core.no_leases = mutation.no_leases();
            core.accepts_non_finite = mutation.accepts_non_finite();
            core.accepts_duplicates = mutation.accepts_duplicates();
            core.accepts_late = mutation.accepts_late_bids();
            core
        },
        net: net_active.then(|| NetMaster {
            plan: cfg.netfaults.clone(),
            rng: SeedSequence::new(cfg.netfaults.seed).stream(0x4E37),
            delayed: Vec::new(),
        }),
        txs: worker_txs,
        clock,
        min_window: spec.min_real_window,
        timers: BinaryHeap::new(),
    };
    for w in 0..n {
        st.sync_roster(w);
    }
    let mut wait_stats = Welford::new();
    let mut last_completion = start;
    // Per-job lifecycle trace, synthesized from the phase breakdown
    // each completion carries (the engine records the same vocabulary
    // live; here the events are reconstructed at completion time).
    let mut trace: Option<Trace> = if cfg.trace { Some(Trace::new()) } else { None };
    // Placements in completion order (the threaded master only learns
    // a placement authoritatively when the worker reports it done).
    let mut assignments: Vec<(JobId, WorkerId)> = Vec::new();

    // Graceful-drain completion: once a draining worker has nothing
    // outstanding it departs for good (`WorkerRemoved`) and leaves the
    // scheduler's bookkeeping. A drainer that is currently crashed
    // departs at its recovery instead — its stranded jobs must be
    // reclaimed first.
    let finish_drain = |st: &mut MasterState, down_since: &[Option<Instant>], w: u32| {
        let i = w as usize;
        if !st.draining[i] || st.departed[i] || down_since[i].is_some() {
            return;
        }
        if st.core.holds_placements(WorkerId(w)) {
            return;
        }
        st.core.commit(
            clock.now(),
            Some(WorkerId(w)),
            None,
            SchedEventKind::WorkerRemoved,
        );
        st.draining[i] = false;
        st.departed[i] = true;
        st.known_live[i] = false;
        st.sync_roster(i);
        if let Some(r) = &repl {
            // The departed worker's copies leave the replica set (its
            // store survives on disk but the cluster cannot reach it).
            r.lock().drop_worker(w);
        }
        st.decide(|m, ctx| m.on_worker_failed(WorkerId(w), ctx));
    };

    // Real duration of one repair copy of `bytes` to `dest`
    // ([`ReplicationConfig::repair_copy`]).
    let repair_copy = |rs: &ReplState, obj: ObjectId, dest: u32, bytes: u64| {
        let full = specs[dest as usize].net.time_for(bytes);
        let copy = rs.cfg.repair_copy(&rs.netfaults, obj, WorkerId(dest), full);
        clock.real(copy.as_secs_f64())
    };

    // Drain the data plane's journal into the replicated log, in the
    // order the critical sections produced it. Returns `true` when a
    // replica set changed — the signal to re-scan for repairs.
    let drain_repl = |st: &mut MasterState| -> bool {
        let Some(r) = &repl else {
            return false;
        };
        let entries = std::mem::take(&mut r.lock().journal);
        let mut changed = false;
        for (w, job, kind) in entries {
            changed |= matches!(
                kind,
                SchedEventKind::ReplicaAdd { .. } | SchedEventKind::ReplicaDrop { .. }
            );
            st.core.commit(clock.now(), Some(WorkerId(w)), job, kind);
        }
        changed
    };

    // Free store bytes per worker, one shared lock at a time — taken
    // *before* the repl lock, per the lock order.
    let free_bytes = || -> Vec<u64> {
        nodes
            .iter()
            .map(|s| {
                let s = s.lock();
                s.store.capacity().saturating_sub(s.store.used())
            })
            .collect()
    };

    // Under-replication scan: for every artifact below its factor with
    // no repair in flight, pick the live source and the eligible
    // destination with the most free store bytes, commit the
    // `repair_start` decision (commit-before-copy), and arm the copy
    // timer.
    let scan_repairs = |st: &mut MasterState, timers: &mut Vec<(Instant, ObjectId, u32, u64)>| {
        let Some(r) = &repl else {
            return;
        };
        if st.core.failover_pending() {
            return;
        }
        let free = free_bytes();
        let picks: Vec<(ObjectId, u32, u32, u64)> = {
            let rs = r.lock();
            rs.map
                .under_replicated()
                .into_iter()
                .filter(|obj| !rs.repairs.contains_key(obj))
                .filter_map(|obj| {
                    let src = rs.map.replicas(obj).find(|&h| rs.alive[h as usize])?;
                    let bytes = rs.map.bytes(obj)?;
                    let dest = ReplicationConfig::repair_dest(
                        &rs.map,
                        obj,
                        n as u32,
                        |w| st.core.eligible(WorkerId(w)),
                        |w| free[w as usize],
                    )?;
                    Some((obj, src, dest, bytes))
                })
                .collect()
        };
        for (obj, src, dest, bytes) in picks {
            if !st.core.commit(
                clock.now(),
                Some(WorkerId(dest)),
                None,
                SchedEventKind::RepairStart {
                    object: obj.0,
                    from: WorkerId(src),
                },
            ) {
                continue;
            }
            st.core.m.repairs_started.inc();
            let mut rs = r.lock();
            if rs.cfg.skip_repair {
                // Sabotage: the decision is committed but the copy
                // never happens — the oracle must flag the unmatched
                // start.
                continue;
            }
            rs.repairs.insert(obj, dest);
            timers.push((
                Instant::now() + repair_copy(&rs, obj, dest, bytes),
                obj,
                dest,
                bytes,
            ));
        }
    };

    // Leader crash takeover: an elected standby replays the committed
    // log into a pure state, pauses for the (scaled) election timeout,
    // seats a fresh scheduler and re-enters what the replay says is
    // owed. The transport substrate — worker threads, channels,
    // liveness beliefs, net-layer sequencing and exactly-once memory —
    // survives in place: it models the replica group's shared view of
    // the cluster, not the leader's private decisions.
    let do_failover = |st: &mut MasterState,
                       down: &[Option<Instant>],
                       timers: &mut Vec<(Instant, ObjectId, u32, u64)>| {
        let Takeover {
            state,
            unplaced,
            frontier,
        } = st.core.takeover(clock.now(), draft(spec, allocator));
        let pause = clock.real(cfg.master_faults.election_timeout_secs);
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
        // Jobs the log proves submitted-but-unplaced (queued, mid-
        // contest, or whose assignment truncated) re-enter allocation
        // exactly once each.
        for job in unplaced {
            st.submit(job);
        }
        // Tasks whose release truncated with the dead leader are
        // released afresh (new term, fresh ids).
        for (root, idx, tspec) in frontier {
            st.release(root, idx, tspec);
        }
        // The takeover may have emptied a draining worker's ledger
        // entries; it must notice the drain is done.
        for w in 0..n as u32 {
            finish_drain(st, down, w);
        }
        // Commit-before-copy pays off here: repairs the log proves
        // started but not finished resume without a second
        // `repair_start` — in-flight copies keep their timers, only
        // the ones whose timer died with the leader are re-armed.
        if let Some(r) = &repl {
            let mut rs = r.lock();
            if !rs.cfg.skip_repair {
                let resumed: Vec<(ObjectId, u32)> = state
                    .repairs_pending
                    .iter()
                    .map(|(obj, dest)| (ObjectId(*obj), dest.0))
                    .filter(|(obj, _)| !rs.repairs.contains_key(obj))
                    .collect();
                for (obj, dest) in resumed {
                    let Some(bytes) = rs.map.bytes(obj) else {
                        continue;
                    };
                    rs.repairs.insert(obj, dest);
                    timers.push((
                        Instant::now() + repair_copy(&rs, obj, dest, bytes),
                        obj,
                        dest,
                        bytes,
                    ));
                }
            }
        }
        // Idle live workers re-announce themselves to the fresh
        // scheduler, so the pull loop restarts under the new leader.
        for w in 0..n {
            if st.core.eligible(WorkerId(w as u32)) && nodes[w].lock().idle() {
                st.receive(w as u32, WorkerToMaster::Idle, 0);
            }
        }
    };

    // Stall detection, armed only under an active net-fault plan: a
    // mutated reliability layer (e.g. no leases) can lose a job with
    // nothing left to time out, and the run must still terminate so
    // the oracle can flag the loss. The threshold is generous — past
    // every partition window plus several leases, with a large real-
    // time floor against scheduler jitter — so a healthy run never
    // trips it: any live placement produces a log event (retry, ack,
    // completion, bounce) well within it.
    let stall_limit: Option<Duration> = net_active.then(|| {
        let plan = &cfg.netfaults;
        let horizon = plan.partitions_end().as_secs_f64() + plan.retry.lease_secs * 10.0 + 120.0;
        clock.real(horizon).max(Duration::from_secs(2))
    });
    let mut last_progress = start;
    let mut seen_log_len = 0usize;
    // Straggler sweep cadence (real time). The clock keeps advancing
    // while no DAG is active so the first sweep after an atomized
    // arrival is at most one interval away.
    let spec_check_real = clock
        .real(cfg.atomize.spec_check_secs)
        .max(Duration::from_millis(1));
    let mut next_spec_check = start + spec_check_real;
    // Reused across wakeups: one blocking receive drains the whole
    // channel into this batch, so the deadline scan runs once per
    // wakeup instead of once per message.
    let mut batch: VecDeque<ToMaster> = VecDeque::new();

    loop {
        let now = Instant::now();

        // Deliver matured link-delayed master→worker messages.
        // Removal must be order-stable (`remove`, not `swap_remove`):
        // equally-due messages have to go out in the order the link
        // delayed them, or a (run, chaos, net) seed triple stops
        // replaying the same delivery schedule.
        if let Some(net) = &mut st.net {
            let mut i = 0;
            while i < net.delayed.len() {
                if net.delayed[i].0 <= now {
                    let (_, w, msg) = net.delayed.remove(i);
                    let _ = st.txs[w as usize].send(msg);
                } else {
                    i += 1;
                }
            }
        }
        // Fire due arrivals.
        while pending_arrivals.front().is_some_and(|(at, _)| *at <= now) {
            let (_, arriving) = pending_arrivals.pop_front().expect("non-empty");
            arrivals_seen += 1;
            match st.core.admit(clock.now(), arriving) {
                Admitted::Job(job) => st.submit(job),
                Admitted::Dag { root, released } => {
                    for (idx, tspec) in released {
                        st.release(root, idx, tspec);
                    }
                }
            }
        }

        // Straggler sweep: replicate the slowest in-flight task once
        // enough siblings have completed to price "slow" (the sweep is
        // committed as SpecLaunch before the replica exists).
        if now >= next_spec_check {
            if let Some(job) = st.core.launch_straggler(clock.now()) {
                st.submit(job);
            }
            next_spec_check = now + spec_check_real;
        }

        // Fire due faults: flip the worker's shared state on the spot,
        // schedule the detection for later.
        while fault_events.front().is_some_and(|(at, _)| *at <= now) {
            let (_, ev) = fault_events.pop_front().expect("non-empty");
            match ev {
                FaultEvent::Crash(wid) => {
                    let w = wid.0 as usize;
                    if w >= n || down_since[w].is_some() || st.departed[w] {
                        continue;
                    }
                    // The instance dies, and everything it remembered
                    // with it; its threads drop whatever they were
                    // doing. The ledger reclaims its jobs at detection.
                    nodes[w].lock().crash(clock.now());
                    st.core.m.worker_crashes.inc();
                    down_since[w] = Some(now);
                    st.core
                        .commit(clock.now(), Some(wid), None, SchedEventKind::Crash);
                    if let Some(r) = &repl {
                        // The disk dies with the instance: diff its
                        // resident set out of the registry. The
                        // under-replication scan below re-replicates.
                        r.lock().drop_worker(wid.0);
                    }
                    detections.push_back((now + detection_real, wid.0, now));
                }
                FaultEvent::Recover(wid) => {
                    let w = wid.0 as usize;
                    if w >= n || down_since[w].is_none() {
                        continue;
                    }
                    nodes[w].lock().recover();
                    st.core.m.worker_recoveries.inc();
                    if let Some(since) = down_since[w].take() {
                        downtime_real += now.saturating_duration_since(since).as_secs_f64();
                    }
                    last_recover[w] = Some(now);
                    st.known_live[w] = true;
                    st.sync_roster(w);
                    if let Some(r) = &repl {
                        // Back in the data plane: an empty store (the
                        // crash cleared it), but a valid repair
                        // destination and peer endpoint again.
                        r.lock().alive[w] = true;
                    }
                    st.core
                        .commit(clock.now(), Some(wid), None, SchedEventKind::Recover);
                    if st.draining[w] {
                        // A drainer that crashed mid-drain: its queue
                        // died with the instance, so once its stranded
                        // jobs are reclaimed the drain completes here.
                        finish_drain(&mut st, &down_since, wid.0);
                    } else {
                        // The rejoined worker's queue is empty but its
                        // executor has no reason to say so; the master
                        // announces it.
                        st.decide(|m, ctx| m.on_worker_recovered(wid, ctx));
                        st.receive(wid.0, WorkerToMaster::Idle, 0);
                    }
                }
            }
        }

        // Fire due membership events: joins open the roster, drains
        // close it gracefully, removals reclaim on the spot.
        while membership_events.front().is_some_and(|(at, _)| *at <= now) {
            let (_, ev) = membership_events.pop_front().expect("non-empty");
            let w = ev.worker.0 as usize;
            if w >= n {
                continue;
            }
            match ev.action {
                MembershipAction::Join => {
                    if st.known_live[w] || st.departed[w] || down_since[w].is_some() {
                        continue;
                    }
                    st.core.commit(
                        clock.now(),
                        Some(ev.worker),
                        None,
                        SchedEventKind::WorkerJoined,
                    );
                    st.known_live[w] = true;
                    st.draining[w] = false;
                    st.sync_roster(w);
                    if let Some(r) = &repl {
                        r.lock().alive[w] = true;
                    }
                    // The dormant worker's initial Idle announcement
                    // was dropped by the liveness filter; to the
                    // scheduler a join is a fresh worker's first
                    // appearance, announced the way a recovery is.
                    st.decide(|m, ctx| m.on_worker_recovered(ev.worker, ctx));
                    st.receive(ev.worker.0, WorkerToMaster::Idle, 0);
                }
                MembershipAction::Drain => {
                    if st.draining[w] || st.departed[w] {
                        continue;
                    }
                    st.core.commit(
                        clock.now(),
                        Some(ev.worker),
                        None,
                        SchedEventKind::WorkerDraining,
                    );
                    st.draining[w] = true;
                    st.sync_roster(w);
                    finish_drain(&mut st, &down_since, ev.worker.0);
                }
                MembershipAction::Remove => {
                    if st.departed[w] {
                        continue;
                    }
                    // Administrative removal: the instance is reclaimed
                    // on the spot — queue and store die with it, its
                    // unfinished jobs re-enter allocation immediately
                    // (no detection delay), and it never returns.
                    st.core.commit(
                        clock.now(),
                        Some(ev.worker),
                        None,
                        SchedEventKind::WorkerRemoved,
                    );
                    st.draining[w] = false;
                    st.departed[w] = true;
                    st.known_live[w] = false;
                    st.sync_roster(w);
                    nodes[w].lock().crash(clock.now());
                    if let Some(r) = &repl {
                        // Reclaimed disk and all: same data-plane diff
                        // as a crash, but the worker never returns.
                        r.lock().drop_worker(ev.worker.0);
                    }
                    if let Some(since) = down_since[w].take() {
                        downtime_real += now.saturating_duration_since(since).as_secs_f64();
                    }
                    st.decide(|m, ctx| m.on_worker_failed(ev.worker, ctx));
                    st.reclaim(ev.worker, None);
                }
            }
        }

        // Fire matured detections: the monitoring layer reports on a
        // crash `detection_delay` after it happened.
        while detections.front().is_some_and(|(at, _, _)| *at <= now) {
            let (_, dw, crashed_at) = detections.pop_front().expect("non-empty");
            let w = dw as usize;
            // Did the worker come back between the crash and now?
            let recovered_since = last_recover[w].filter(|r| *r >= crashed_at);
            if recovered_since.is_none() {
                // Still down: declare it dead. It leaves the roster
                // and the scheduler's bookkeeping; its recorded bids
                // stay, and a placement it wins bounces back.
                st.known_live[w] = false;
                st.sync_roster(w);
                st.decide(|m, ctx| m.on_worker_failed(WorkerId(dw), ctx));
            }
            // Reclaim what the worker lost: everything placed on it
            // before its latest recovery — or everything, if it has
            // not recovered. (Jobs placed after a recovery live on the
            // rejoined worker and stay put.)
            st.reclaim(WorkerId(dw), recovered_since.map(|t| clock.at(t)));
            // Reclaiming may have emptied a recovered drainer's
            // ledger entries.
            finish_drain(&mut st, &down_since, dw);
        }

        // The ledger's timers: retransmit unacked placements on their
        // backoff, and bounce those whose lease expired back to the
        // scheduler — *not* `Redistributed`: the worker may be alive,
        // the link is suspect.
        let v = clock.at(now);
        for (id, seq) in st.core.due(v) {
            if let Some(d) = st.core.resend(v, id, seq) {
                st.deliver(d);
            }
            if let Some((w, job)) = st.core.expire(v, id, seq) {
                if let Some(job) = job {
                    st.submit(job);
                }
                finish_drain(&mut st, &down_since, w.0);
            }
        }

        // The scheduler's timers (contest windows).
        while let Some(&Reverse((at, token))) = st.timers.peek() {
            if at > now {
                break;
            }
            st.timers.pop();
            st.decide(|m, ctx| m.on_timer(token, ctx));
        }

        // Replicated data plane: land matured repair copies, commit
        // the journal, and re-scan whenever a replica set changed.
        if let Some(r) = &repl {
            let mut i = 0;
            while i < repair_timers.len() {
                if repair_timers[i].0 > now {
                    i += 1;
                    continue;
                }
                let (_, obj, dest, bytes) = repair_timers.remove(i);
                // Stale timer: the repair was re-routed or superseded.
                if r.lock().repairs.get(&obj) != Some(&dest) {
                    continue;
                }
                let d = dest as usize;
                if down_since[d].is_some() || st.departed[d] {
                    // The destination died mid-copy. Re-route the same
                    // committed repair to a fresh destination — no
                    // second `repair_start` (that would double-count
                    // the decision) — or park until somebody recovers.
                    let free = free_bytes();
                    let mut rs = r.lock();
                    let nd = ReplicationConfig::repair_dest(
                        &rs.map,
                        obj,
                        n as u32,
                        |w| st.core.eligible(WorkerId(w)),
                        |w| free[w as usize],
                    );
                    match nd {
                        Some(nd) => {
                            rs.repairs.insert(obj, nd);
                            let copy = repair_copy(&rs, obj, nd, bytes);
                            drop(rs);
                            repair_timers.push((now + copy, obj, nd, bytes));
                        }
                        None => {
                            let wait = rs.cfg.fetch_timeout_secs;
                            drop(rs);
                            repair_timers.push((now + clock.real(wait), obj, dest, bytes));
                        }
                    }
                    continue;
                }
                // The copy lands: insert on the destination (its pins
                // applied first), journal `repair_done` before the
                // replica bookkeeping, and let the scan below top up.
                let mut s = nodes[d].lock();
                let mut rs = r.lock();
                rs.apply_pin_ops(dest, &mut s.store);
                rs.repairs.remove(&obj);
                let evicted = s.store.insert(obj, bytes, clock.now());
                rs.journal
                    .push((dest, None, SchedEventKind::RepairDone { object: obj.0 }));
                st.core.m.repairs_completed.inc();
                rs.note_insert(dest, &s.store, obj, bytes, evicted);
            }
            if drain_repl(&mut st) {
                scan_repairs(&mut st, &mut repair_timers);
            }
        }

        // A leader crash observed anywhere above (or while processing
        // the previous message) elects a standby before the loop can
        // block, break, or take further decisions. Each iteration
        // handles at most one message, so one check per pass suffices.
        if st.core.failover_pending() {
            do_failover(&mut st, &down_since, &mut repair_timers);
        }

        // Are we done? (`>=`: the DropDedup mutation can double-count
        // a completion past `created`; the run must still terminate so
        // the oracle can flag it.)
        if arrivals_seen == total_arrivals
            && st.core.created() > 0
            && st.core.completed() >= st.core.created()
            && repl.as_ref().is_none_or(|r| {
                // The run does not end while a committed repair is in
                // flight or a data-plane event awaits commit.
                repair_timers.is_empty() && {
                    let rs = r.lock();
                    rs.repairs.is_empty() && rs.journal.is_empty()
                }
            })
        {
            break;
        }
        if total_arrivals == 0 {
            break;
        }
        // Liveness: with every worker believed dead and no recovery
        // left in the schedule, remaining jobs can never complete —
        // report the partial run rather than deadlock.
        if st.live_count() == 0
            && !fault_events
                .iter()
                .any(|(_, e)| matches!(e, FaultEvent::Recover(_)))
            && !membership_events
                .iter()
                .any(|(_, e)| matches!(e.action, MembershipAction::Join))
        {
            break;
        }
        // Stall detection (net-fault runs only): every state change
        // appends to the scheduler log, so a frozen log past the
        // stall horizon means no placement, retry, lease or
        // completion can still fire — report the partial run and let
        // the oracle name the lost jobs.
        if let Some(limit) = stall_limit {
            if st.core.log_len() != seen_log_len {
                seen_log_len = st.core.log_len();
                last_progress = now;
            } else if arrivals_seen == total_arrivals
                && now.saturating_duration_since(last_progress) > limit
            {
                break;
            }
        }

        // Wait for the next event. The deadline scan and the blocking
        // receive run only once the previous wakeup's batch is fully
        // processed; batched messages ride through the (cheap)
        // bookkeeping at the top of the loop without re-arming timers.
        if batch.is_empty() {
            let next_deadline = pending_arrivals
                .front()
                .map(|(at, _)| *at)
                .into_iter()
                .chain(st.timers.peek().map(|Reverse((at, _))| *at))
                .chain(fault_events.front().map(|(at, _)| *at))
                .chain(membership_events.front().map(|(at, _)| *at))
                .chain(detections.front().map(|(at, _, _)| *at))
                .chain(st.net.iter().flat_map(|n| n.delayed.iter().map(|d| d.0)))
                .chain(
                    st.core
                        .next_deadline()
                        .map(|t| start + clock.real(t.as_secs_f64())),
                )
                .chain(stall_limit.map(|l| last_progress + l))
                .chain(st.core.dag().is_active().then_some(next_spec_check))
                .chain(repair_timers.iter().map(|t| t.0))
                .min();
            match intake.recv(next_deadline) {
                Ok(m) => {
                    batch.push_back(m);
                    // Batched intake: everything already deliverable
                    // rides the same wakeup.
                    while let Some(more) = intake.try_recv() {
                        batch.push_back(more);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let Some(msg) = batch.pop_front() else {
            continue;
        };
        // A worker the master has declared dead cannot talk: any of
        // its messages still sitting in the channel predate the
        // detection and are dropped. (Messages from a *crashed but
        // undetected* worker are in-flight traffic of the masking
        // window and are processed normally.)
        let from = match &msg {
            ToMaster::Bid { worker, .. }
            | ToMaster::Reject { worker, .. }
            | ToMaster::Idle { worker }
            | ToMaster::Done { worker, .. }
            | ToMaster::AckAssign { worker, .. } => *worker,
        };
        if !st.known_live[from as usize] {
            continue;
        }
        // A draining worker no longer pulls or bids; its in-flight
        // completions, rejections and placement acks still count.
        if st.draining[from as usize] && matches!(msg, ToMaster::Idle { .. } | ToMaster::Bid { .. })
        {
            continue;
        }
        st.core.m.control_messages.inc();
        match msg {
            ToMaster::Bid {
                worker,
                job,
                estimate_secs,
            } => st.receive(worker, WorkerToMaster::Bid { job, estimate_secs }, 0),
            ToMaster::Reject { worker, job, seq } => {
                st.receive(worker, WorkerToMaster::Reject { job }, seq);
                // A drainer that bounced its last offer departs.
                finish_drain(&mut st, &down_since, worker);
            }
            ToMaster::Idle { worker } => st.receive(worker, WorkerToMaster::Idle, 0),
            ToMaster::Done {
                worker,
                job,
                wait_secs,
                fetch_secs,
                proc_secs,
            } => {
                if st.net.is_some() {
                    // Ack *every* delivery — retransmitted and
                    // duplicated copies included — so the worker stops
                    // resending even when the first ack was lost.
                    st.core.m.control_messages.inc();
                    st.send_worker(worker, ToWorker::AckDone(job.id));
                }
                st.core.settle(job.id, Settle::Done);
                finish_drain(&mut st, &down_since, worker);
                let outcome = match st.core.complete(clock.now(), WorkerId(worker), job.id) {
                    // A redistributed copy already finished elsewhere,
                    // or an at-least-once duplicate of a completion
                    // already applied: side effects happen once.
                    Completion::Duplicate => continue,
                    // Losing speculation replica: its cancellation was
                    // already committed and accounted — the eventual
                    // completion is swallowed without side effects,
                    // and so is any at-least-once duplicate of it.
                    Completion::Cancelled => continue,
                    Completion::Counted(outcome) => outcome,
                };
                last_completion = Instant::now();
                wait_stats.push(wait_secs.max(0.0));
                assignments.push((job.id, WorkerId(worker)));
                if let Some(t) = &mut trace {
                    // Reconstruct the lifecycle from the phase
                    // breakdown: the completion instant is authoritative
                    // and the phases are laid out backwards from it.
                    let finished = clock.now();
                    let total = (wait_secs + fetch_secs + proc_secs).max(0.0);
                    let queued = SimTime::from_secs_f64((finished.as_secs_f64() - total).max(0.0));
                    let started = queued + SimDuration::from_secs_f64(wait_secs.max(0.0));
                    let w = WorkerId(worker);
                    t.push(TraceEvent {
                        job: job.id,
                        worker: w,
                        kind: TraceKind::Queued,
                        at: queued,
                    });
                    t.push(TraceEvent {
                        job: job.id,
                        worker: w,
                        kind: TraceKind::Started,
                        at: started,
                    });
                    if fetch_secs > 0.0 {
                        t.push(TraceEvent {
                            job: job.id,
                            worker: w,
                            kind: TraceKind::Fetched,
                            at: started + SimDuration::from_secs_f64(fetch_secs),
                        });
                    }
                    t.push(TraceEvent {
                        job: job.id,
                        worker: w,
                        kind: TraceKind::Finished,
                        at: finished,
                    });
                }
                match outcome {
                    DoneOutcome::NotTask => {
                        let mut out: Vec<JobSpec> = Vec::new();
                        let ctx = TaskCtx {
                            now: clock.now(),
                            worker: WorkerId(worker),
                        };
                        workflow.logic_mut(job.task).process(&job, &ctx, &mut out);
                        for spec in out {
                            let spawned = st.core.spawn(clock.now(), spec);
                            st.submit(spawned);
                        }
                    }
                    DoneOutcome::Swallowed => {}
                    DoneOutcome::Effective {
                        root,
                        task,
                        output,
                        released,
                        losers,
                    } => {
                        // The winner's output is born on its executor:
                        // downstream task bids see it as local state —
                        // and, under replication, as a fresh replica.
                        {
                            let mut s = nodes[worker as usize].lock();
                            if let Some(r) = &repl {
                                let mut rs = r.lock();
                                rs.apply_pin_ops(worker, &mut s.store);
                                let evicted = s.store.insert(output.id, output.bytes, clock.now());
                                rs.note_insert(worker, &s.store, output.id, output.bytes, evicted);
                            } else {
                                s.store.insert(output.id, output.bytes, clock.now());
                            }
                        }
                        for loser in losers {
                            // Exactly-once accounting: the loser is
                            // retired at cancellation, and its eventual
                            // Done is swallowed at intake above.
                            st.core.cancel_loser(clock.now(), loser, root, task);
                        }
                        for (idx, tspec) in released {
                            st.release(root, idx, tspec);
                        }
                    }
                }
                st.decide(|m, ctx| m.on_job_done(WorkerId(worker), &job, ctx));
            }
            ToMaster::AckAssign { worker, job, seq } => {
                st.core.ack(clock.now(), WorkerId(worker), job, seq);
            }
        }
    }
    let end = Instant::now();

    // Shutdown and join.
    for tx in &st.txs {
        let _ = tx.send(ToWorker::Shutdown);
    }
    st.txs.clear();
    // A worker thread's panic is re-raised here with its payload; a
    // thread that returned has flushed its tallies.
    for h in handles {
        for thread in [h.bidder, h.executor] {
            thread
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        }
    }
    intake.flush_metrics();
    // A partial run (stall or all-dead break) can exit the loop with
    // data-plane events still journaled; commit them so the log stays
    // a complete serialization of the plane. Workers are joined — no
    // entry can race this drain.
    drain_repl(&mut st);

    // A run that completed nothing has no makespan: report explicit
    // zeros instead of clock residue.
    let makespan_secs = if st.core.completed() > 0 {
        last_completion
            .saturating_duration_since(start)
            .as_secs_f64()
            / spec.time_scale
    } else {
        0.0
    };
    // Downtime of workers still dead at the end runs to end-of-run.
    for since in down_since.iter().flatten() {
        downtime_real += end.saturating_duration_since(*since).as_secs_f64();
    }
    let stats = st.core.sched_stats();
    let totals = RunTotals {
        scheduler: allocator.kind(),
        makespan_secs,
        contests_timed_out: stats.contests_timed_out,
        contests_fallback: stats.contests_fallback,
        mean_queue_wait_secs: wait_stats.mean(),
        recovery_secs: downtime_real / spec.time_scale,
    };
    let makespan = SimTime::from_secs_f64(makespan_secs);
    let workers = nodes.iter().map(|s| {
        let s = s.lock();
        let frac = if makespan_secs > 0.0 {
            s.busy.average(makespan).min(1.0)
        } else {
            0.0
        };
        (*s.store.stats(), frac)
    });
    RunOutput {
        record: st.core.record(meta, totals, workers),
        events: 0,
        assignments,
        trace: trace.take().unwrap_or_default(),
        sched_log: st.core.take_log(),
        metrics: st.core.m.snapshot(),
        anomalies: Vec::new(),
        replicas: repl.as_ref().map(|r| r.lock().map.clone()),
    }
}
