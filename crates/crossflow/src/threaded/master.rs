//! The threaded master: the sim's decision path — [`MasterCore`]
//! driving the run's `dyn MasterScheduler` — carried over channels and
//! real deadlines, plus job injection, completion routing, and fault
//! injection with detection-delayed redistribution.
//!
//! [`run_threaded`] spawns the worker threads and runs one wakeup loop:
//! fire whatever is due ([`MasterState::fire_due`]), elect a standby
//! if the leader died, stop when the run is over, else wait for the
//! next message or deadline and handle it. Every rule lives in a
//! [`MasterState`] method; membership itself lives in the core, and
//! what stays here is physical or timed — the worker instances, the
//! repair copy timers, the downtime clocks, and *when* a crash is
//! noticed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, RecvTimeoutError, Sender};
use crossbid_metrics::SchedulerKind;
use crossbid_net::NoiseModel;
use crossbid_simcore::{RngStream, SeedSequence, SimDuration, SimTime, Welford};
use parking_lot::Mutex;

use crossbid_storage::ObjectId;

use crate::atomize::DoneOutcome;
use crate::bidding::{BiddingConfig, BiddingMaster};
use crate::engine::{EngineConfig, RunMeta, RunOutput};
use crate::faults::{changes, Change, NetFaultPlan};
use crate::job::{Arrival, Job, JobId, JobSpec, WorkerId};
use crate::master_core::{
    Completion, Delivery, Effect, MasterCore, RunTotals, Settle, Stage, Takeover,
};
use crate::mutation;
use crate::obs::RuntimeMetrics;
use crate::replica::{Landing, ReplicaPlane};
use crate::replog::ReplicatedLog;
use crate::scheduler::{Allocator, MasterScheduler, SchedCtx, WorkerHandle, WorkerToMaster};
use crate::spec::RunSpec;
use crate::trace::{SchedEventKind, Trace, TraceEvent, TraceKind};
use crate::worker::{WorkerNode, WorkerRules, WorkerSpec};
use crate::workflow::Workflow;

use super::chaos::{Intake, NetIntake};
use super::worker::{spawn_worker, WorkerThreads};
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

/// One repair copy on its way: `(due, object, dest)`.
type RepairTimer = (Instant, ObjectId, WorkerId);

/// A crash the monitoring layer reports `detection_delay` after it
/// happened.
struct Detection {
    due: Instant,
    worker: WorkerId,
    /// When the instance died.
    crashed: Instant,
    /// What the instance held when it died, in queue order.
    stranded: Vec<Job>,
}

/// The run's timed inputs, in real time.
struct Schedule {
    arrivals: VecDeque<(Instant, JobSpec)>,
    arrivals_total: u64,
    arrivals_seen: u64,
    /// Faults and membership events, earliest first. The master
    /// doubles as the fault injector: it kills a worker's instance on
    /// the spot and, `detection` later, acts on it.
    changes: VecDeque<(Instant, (WorkerId, Change))>,
    detection: Duration,
    detections: VecDeque<Detection>,
    /// Straggler sweep cadence. The clock keeps advancing while no
    /// DAG is active so the first sweep after an atomized arrival is
    /// at most one interval away.
    spec_check: Duration,
    next_spec_check: Instant,
}

impl Schedule {
    /// `arrivals` and `cfg`'s worker changes, on `clock`'s real time.
    fn new(cfg: &EngineConfig, clock: Clock, arrivals: Vec<Arrival>) -> Self {
        let arrivals = in_real_time(clock, arrivals.into_iter().map(|a| (a.at, a.spec)));
        let spec_check = clock
            .real(cfg.atomize.spec_check_secs)
            .max(Duration::from_millis(1));
        Schedule {
            arrivals_total: arrivals.len() as u64,
            arrivals_seen: 0,
            arrivals,
            changes: in_real_time(clock, changes(&cfg.faults, &cfg.membership)),
            detection: clock.real(cfg.faults.detection_delay.as_secs_f64()),
            detections: VecDeque::new(),
            spec_check,
            next_spec_check: clock.start + spec_check,
        }
    }
}

/// Stall detection, armed only under an active net-fault plan: a
/// mutated reliability layer (e.g. no leases) can lose a job with
/// nothing left to time out, and the run must still terminate so the
/// oracle can flag the loss. The threshold is generous — past every
/// partition window plus several leases, with a large real-time floor
/// against scheduler jitter — so a healthy run never trips it: any
/// live placement produces a log event (retry, ack, completion,
/// bounce) well within it.
struct Stall {
    limit: Duration,
    last_progress: Instant,
    seen_log_len: usize,
}

impl Stall {
    fn new(cfg: &EngineConfig, clock: Clock) -> Option<Self> {
        let plan = &cfg.netfaults;
        plan.is_active().then(|| Stall {
            limit: clock
                .real(plan.stall_horizon_secs())
                .max(Duration::from_secs(2)),
            last_progress: clock.start,
            seen_log_len: 0,
        })
    }
}

/// What the run reports that only completions tell.
#[derive(Default)]
struct Tally {
    wait: Welford,
    last_completion: Option<Instant>,
    /// Per-job lifecycle trace, synthesized from the phase breakdown
    /// each completion carries (the engine records the same vocabulary
    /// live; here the events are reconstructed at completion time).
    trace: Option<Trace>,
    /// Placements in completion order (the threaded master only learns
    /// a placement authoritatively when the worker reports it done).
    assignments: Vec<(JobId, WorkerId)>,
}

/// Everything the master thread owns for one run.
struct MasterState<'r> {
    spec: &'r RunSpec,
    allocator: &'r dyn Allocator,
    workflow: &'r mut Workflow,
    nodes: &'r [Arc<Mutex<WorkerNode>>],
    /// The master shared with the simulation engine: the scheduler and
    /// its roster — what it believes of every worker, where a crash is
    /// believed only once the detection delay has elapsed, so for a
    /// while the master keeps scheduling against a stale roster
    /// (exactly the masking window the contest timeout covers) — the
    /// replicated log (every entry is quorum-committed before the
    /// master acts on it; an elected standby rebuilds from it), ids,
    /// counts, DAG bookkeeping, the placement ledger with its retry and
    /// lease deadlines, retained payloads and the master's metrics
    /// tallies (the worker threads and the net intake record into
    /// forks).
    core: MasterCore,
    /// Lossy-link state; `None` leaves every send untouched.
    net: Option<NetMaster>,
    txs: Vec<Sender<ToWorker>>,
    clock: Clock,
    /// The scheduler's armed timers, earliest first: `(due, token)`.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    /// The replica plane, shared with every worker thread when armed.
    /// Lock order: a thread that needs a worker's `WorkerNode` too
    /// takes that first.
    repl: Option<Arc<Mutex<ReplicaPlane>>>,
    /// The repair copies on their way, fired by the loop.
    repair_timers: Vec<RepairTimer>,
    sched: Schedule,
    /// When each worker's instance died (the planned instant), while it
    /// is down.
    down_since: Vec<Option<Instant>>,
    /// When each worker's latest incarnation came up.
    last_recover: Vec<Option<Instant>>,
    downtime_real: f64,
    stall: Option<Stall>,
    tally: Tally,
}

impl MasterState<'_> {
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

    /// `job` comes back from `owner` (`None`: from the monitoring
    /// layer) and re-enters allocation.
    fn redistribute(&mut self, owner: Option<WorkerId>, job: Job) {
        self.core.m.jobs_redistributed.inc();
        let kind = SchedEventKind::Redistributed;
        self.core
            .commit(self.clock.now(), owner, Some(job.id), kind);
        self.submit(job);
    }

    /// What a crashed or removed worker owed re-enters allocation:
    /// `stranded` is what its instance held, `cut` the instant its
    /// current incarnation came up (`None`: it is down or gone).
    fn reclaim(&mut self, w: WorkerId, cut: Option<SimTime>, stranded: Vec<Job>) {
        for job in self.core.reclaim(w, cut, stranded) {
            self.redistribute(Some(w), job);
        }
    }

    /// Carry out the core's effects: channel sends, and timers with
    /// real deadlines floored at [`RunSpec::min_real_window`] (a
    /// scaled bidding window below OS scheduling jitter would make
    /// every contest "time out" before the bids physically arrive). A
    /// placement for a worker the master believes dead bounces back
    /// into allocation, as the sim's monitoring layer returns one; a
    /// repooled or freshly up worker announces itself idle. Both feed
    /// the scheduler again, so they wait until the buffer is handed
    /// back.
    fn apply(&mut self) {
        let mut fx = self.core.take_effects();
        let mut later = Vec::new();
        for e in fx.drain(..) {
            match e {
                Effect::Send(d) if !self.core.member(d.worker).live => later.push(Effect::Send(d)),
                Effect::Send(d) => self.deliver(d),
                Effect::Solicit { job, to } => {
                    // Bid requests are fire-and-forget even on a lossy
                    // link: a lost one costs only optimality (the
                    // contest resolves by timeout or fallback).
                    for i in to {
                        let worker = self.core.solicited()[i];
                        self.core.m.control_messages.inc();
                        self.send_worker(worker.0, ToWorker::BidRequest(job.clone()));
                    }
                }
                Effect::Timer { delay, token } => {
                    let real = self.clock.real(delay.as_secs_f64());
                    let real = real.max(self.spec.min_real_window);
                    self.timers.push(Reverse((Instant::now() + real, token)));
                }
                Effect::Repool(w) | Effect::Announce(w) => later.push(Effect::Repool(w)),
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
                Effect::Solicit { .. } | Effect::Timer { .. } | Effect::Announce(_) => {
                    unreachable!("carried out above")
                }
            }
        }
    }

    /// Everything due at `now`, in a fixed order: the link's delayed
    /// sends, arrivals with faults and membership events, the straggler
    /// sweep, crash detections, the ledger's deadlines, the scheduler's
    /// timers and the replica plane.
    fn fire_due(&mut self, now: Instant) {
        self.flush_link(now);
        self.fire_planned(now);
        if now >= self.sched.next_spec_check {
            // Straggler sweep: replicate the slowest in-flight task
            // once enough siblings have completed to price "slow" (the
            // sweep is committed as SpecLaunch before the replica
            // exists).
            if let Some(job) = self.core.launch_straggler(self.clock.now()) {
                self.submit(job);
            }
            self.sched.next_spec_check = now + self.sched.spec_check;
        }
        while self.sched.detections.front().is_some_and(|d| d.due <= now) {
            let d = self.sched.detections.pop_front().expect("non-empty");
            self.detect(d);
        }
        self.fire_ledger(now);
        while let Some(&Reverse((at, token))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            self.decide(|m, ctx| m.on_timer(token, ctx));
        }
        self.land_repairs(now);
    }

    /// Deliver matured link-delayed master→worker messages. Removal
    /// must be order-stable (`remove`, not `swap_remove`):
    /// equally-due messages have to go out in the order the link
    /// delayed them, or a (run, chaos, net) seed triple stops
    /// replaying the same delivery schedule.
    fn flush_link(&mut self, now: Instant) {
        let Some(net) = &mut self.net else {
            return;
        };
        let mut i = 0;
        while i < net.delayed.len() {
            if net.delayed[i].0 <= now {
                let (_, w, msg) = net.delayed.remove(i);
                let _ = self.txs[w as usize].send(msg);
            } else {
                i += 1;
            }
        }
    }

    /// The arrivals and the faults and membership events due at `now`,
    /// in their planned order — an arrival first at an equal instant,
    /// as in the sim — however late the loop gets to them: a drain
    /// planned before an arrival has taken effect when its contest
    /// opens.
    fn fire_planned(&mut self, now: Instant) {
        loop {
            let due = |at: Instant| (at <= now).then_some(at);
            let arrival = self.sched.arrivals.front().and_then(|(at, _)| due(*at));
            let change = self.sched.changes.front().and_then(|(at, _)| due(*at));
            let arrival_next = match (arrival, change) {
                (None, None) => break,
                (Some(a), Some(c)) => a <= c,
                (a, _) => a.is_some(),
            };
            if arrival_next {
                let (_, arriving) = self.sched.arrivals.pop_front().expect("due");
                self.sched.arrivals_seen += 1;
                self.core.arrive(self.clock.now(), arriving);
                self.apply();
            } else {
                let (at, (w, change)) = self.sched.changes.pop_front().expect("due");
                if (w.0 as usize) < self.nodes.len() {
                    self.change(w, change, now, at);
                }
            }
        }
    }

    /// Joins open the roster, drains close it gracefully, removals
    /// reclaim on the spot; a crash is acted on only at its detection.
    /// Downtime runs between the planned instants (`at`), as in the sim,
    /// however late the loop gets to them.
    fn change(&mut self, w: WorkerId, change: Change, now: Instant, at: Instant) {
        match change {
            Change::Crash => self.crash(w, now, at),
            Change::Recover => self.recover(w, now, at),
            Change::Join => self.join(w),
            Change::Drain => {
                if self.core.drain(self.clock.now(), w) {
                    self.apply();
                    self.finish_drain(w);
                }
            }
            Change::Remove => self.remove(w, at),
        }
    }

    /// The instance dies, and everything it remembered with it; its
    /// threads drop whatever they were doing. The master notices, and
    /// reclaims what it held, only at detection.
    fn crash(&mut self, w: WorkerId, now: Instant, at: Instant) {
        let i = w.0 as usize;
        if self.down_since[i].is_some() || !self.core.crash(self.clock.now(), w) {
            return;
        }
        let stranded = self.nodes[i].lock().crash(self.clock.now());
        self.down_since[i] = Some(at);
        if let Some(r) = &self.repl {
            // The disk dies with the instance.
            r.lock().drop_worker(w);
        }
        self.sched.detections.push_back(Detection {
            due: now + self.sched.detection,
            worker: w,
            crashed: now,
            stranded,
        });
    }

    fn recover(&mut self, w: WorkerId, now: Instant, at: Instant) {
        let i = w.0 as usize;
        if self.down_since[i].is_none() || !self.core.recover(self.clock.now(), w) {
            return;
        }
        self.nodes[i].lock().recover();
        self.stop_downtime(i, at);
        self.last_recover[i] = Some(now);
        if let Some(r) = &self.repl {
            // Back in the data plane with an empty store.
            r.lock().up(w);
        }
        // The rejoined worker's queue is empty but its executor has no
        // reason to say so; the master announces it.
        self.apply();
        // A drainer that crashed mid-drain: its queue died with the
        // instance, so once its stranded jobs are reclaimed the drain
        // completes here.
        self.finish_drain(w);
    }

    /// A worker's downtime clock stops at `now`.
    fn stop_downtime(&mut self, i: usize, now: Instant) {
        if let Some(since) = self.down_since[i].take() {
            self.downtime_real += now.saturating_duration_since(since).as_secs_f64();
        }
    }

    /// The monitoring layer reports on a crash. A worker still down is
    /// declared dead: it leaves the roster and the scheduler's
    /// bookkeeping; its recorded bids stay, and a placement it wins
    /// bounces back. Either way what it lost is reclaimed: everything
    /// placed on it before its latest recovery — or everything, if it
    /// has not recovered (jobs placed after a recovery live on the
    /// rejoined worker and stay put).
    fn detect(&mut self, d: Detection) {
        let recovered = self.last_recover[d.worker.0 as usize].filter(|r| *r >= d.crashed);
        if recovered.is_none() {
            self.core.lose(self.clock.now(), d.worker);
            self.apply();
        }
        let cut = recovered.map(|t| self.clock.at(t));
        self.reclaim(d.worker, cut, d.stranded);
        // Reclaiming may have emptied a recovered drainer's ledger
        // entries.
        self.finish_drain(d.worker);
    }

    fn join(&mut self, w: WorkerId) {
        let i = w.0 as usize;
        if self.down_since[i].is_some() || !self.core.join(self.clock.now(), w) {
            return;
        }
        if let Some(r) = &self.repl {
            r.lock().up(w);
        }
        // The dormant worker's initial Idle announcement was dropped by
        // the liveness filter; the master announces it.
        self.apply();
    }

    /// Administrative removal: the instance is reclaimed on the spot —
    /// queue and store die with it, its unfinished jobs re-enter
    /// allocation immediately (no detection delay), and it never
    /// returns.
    fn remove(&mut self, w: WorkerId, at: Instant) {
        if !self.core.remove(self.clock.now(), w) {
            return;
        }
        let stranded = self.nodes[w.0 as usize].lock().crash(self.clock.now());
        if let Some(r) = &self.repl {
            // Reclaimed disk and all.
            r.lock().drop_worker(w);
        }
        self.stop_downtime(w.0 as usize, at);
        self.apply();
        self.reclaim(w, None, stranded);
    }

    /// Graceful-drain completion: once a draining worker holds no
    /// placement it departs for good. Its messages are dropped from
    /// then on, so only an empty ledger says it owes nothing. A drainer
    /// that is currently crashed departs at its recovery instead — its
    /// stranded jobs must be reclaimed first.
    fn finish_drain(&mut self, w: WorkerId) {
        if self.core.member(w).stage != Stage::Draining
            || self.down_since[w.0 as usize].is_some()
            || self.core.holds_placements(w)
        {
            return;
        }
        self.core.remove(self.clock.now(), w);
        if let Some(r) = &self.repl {
            // Its store survives on disk, out of the cluster's reach.
            r.lock().drop_worker(w);
        }
        self.apply();
    }

    /// The ledger's timers: retransmit unacked placements on their
    /// backoff, and bounce those whose lease expired back to the
    /// scheduler — *not* `Redistributed`: the worker may be alive, the
    /// link is suspect.
    fn fire_ledger(&mut self, now: Instant) {
        let v = self.clock.at(now);
        for (id, seq) in self.core.due(v) {
            if let Some(d) = self.core.resend(v, id, seq) {
                self.deliver(d);
            }
            if let Some((w, job)) = self.core.expire(v, id, seq) {
                if let Some(job) = job {
                    self.submit(job);
                }
                self.finish_drain(w);
            }
        }
    }

    /// Land the repair copies now due ([`ReplicaPlane::land`]), then
    /// [`replicate`](Self::replicate).
    fn land_repairs(&mut self, now: Instant) {
        let Some(r) = self.repl.clone() else {
            return;
        };
        let mut i = 0;
        while i < self.repair_timers.len() {
            if self.repair_timers[i].0 > now {
                i += 1;
                continue;
            }
            let (_, obj, dest) = self.repair_timers.remove(i);
            let mut node = self.nodes[dest.0 as usize].lock();
            let mut plane = r.lock();
            match plane.land(&self.core, obj, dest) {
                Landing::Stale => {}
                Landing::Reroute(to, bytes) => {
                    let due = copy_due(self.spec, self.clock, obj, to, bytes);
                    self.repair_timers.push((due, obj, to));
                }
                Landing::Park => {
                    let wait = self.spec.engine.replication.fetch_timeout_secs;
                    let due = now + self.clock.real(wait);
                    self.repair_timers.push((due, obj, dest));
                }
                Landing::Insert(bytes) => {
                    plane.insert(dest, &mut node.store, obj, bytes, self.clock.now());
                }
            }
        }
        self.replicate();
    }

    /// Commit what the replica plane journaled, arm the copies it
    /// starts ([`ReplicaPlane::repair`]) and apply its pins.
    fn replicate(&mut self) {
        let Some(r) = &self.repl else {
            return;
        };
        let (spec, clock, timers) = (self.spec, self.clock, &mut self.repair_timers);
        r.lock()
            .repair(&mut self.core, clock.now(), |obj, dest, bytes| {
                timers.push((copy_due(spec, clock, obj, dest, bytes), obj, dest));
            });
        // The pins land now, each store's lock taken before the plane's.
        loop {
            let Some(w) = r.lock().dirty() else { break };
            let mut node = self.nodes[w.0 as usize].lock();
            r.lock().pin(w, &mut node.store);
        }
    }

    /// Leader crash takeover: an elected standby replays the committed
    /// log into a pure state, pauses for the (scaled) election timeout,
    /// seats a fresh scheduler and re-enters what the replay says is
    /// owed. The transport substrate — worker threads, channels,
    /// liveness beliefs, net-layer sequencing and exactly-once memory —
    /// survives in place: it models the replica group's shared view of
    /// the cluster, not the leader's private decisions.
    fn take_over(&mut self) {
        let fresh = draft(self.spec, self.allocator);
        let Takeover { unplaced, frontier } = self.core.takeover(self.clock.now(), fresh);
        let pause = self
            .clock
            .real(self.spec.engine.master_faults.election_timeout_secs);
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
        // Jobs the log proves submitted-but-unplaced (queued, mid-
        // contest, or whose assignment truncated) re-enter allocation
        // exactly once each.
        let now = self.clock.now();
        for job in unplaced {
            self.core.decide(now, |m, ctx| m.on_job(job, ctx));
        }
        // Tasks whose release truncated with the dead leader are
        // released afresh (new term, fresh ids).
        for (root, idx, tspec) in frontier {
            self.core.offer_task(now, root, idx, tspec);
        }
        self.apply();
        // The takeover may have emptied a draining worker's ledger
        // entries; it must notice the drain is done.
        for w in 0..self.nodes.len() as u32 {
            self.finish_drain(WorkerId(w));
        }
        // The new leader rescans for repairs; copies in flight keep
        // going under their committed starts.
        if let Some(r) = &self.repl {
            r.lock().rescan();
        }
        self.replicate();
        // Idle live workers re-announce themselves to the fresh
        // scheduler, so the pull loop restarts under the new leader.
        let nodes = self.nodes;
        for (w, node) in (0..).zip(nodes) {
            if self.core.eligible(WorkerId(w)) && node.lock().idle() {
                self.receive(w, WorkerToMaster::Idle, 0);
            }
        }
    }

    /// Is the run over? It is when every arrival is in and every job
    /// completed with no committed repair in flight; when nothing
    /// arrives at all; when every worker is believed dead and no
    /// recovery or join is left in the schedule (the remaining jobs can
    /// never complete — report the partial run rather than deadlock);
    /// or when the log froze past the stall horizon (no placement,
    /// retry, lease or completion can still fire — report the partial
    /// run and let the oracle name the lost jobs).
    fn over(&mut self, now: Instant) -> bool {
        let all_in = self.sched.arrivals_seen == self.sched.arrivals_total;
        // `>=`: the DropDedup mutation can double-count a completion
        // past `created`; the run must still terminate so the oracle
        // can flag it.
        let done = self.core.created() > 0 && self.core.completed() >= self.core.created();
        let settled = || self.repl.as_ref().is_none_or(|r| r.lock().settled());
        if (all_in && done && settled()) || self.sched.arrivals_total == 0 {
            return true;
        }
        let revival = (self.sched.changes.iter())
            .any(|(_, (_, c))| matches!(c, Change::Recover | Change::Join));
        if !self.core.any_live() && !revival {
            return true;
        }
        let log_len = self.core.log_len();
        let Some(stall) = &mut self.stall else {
            return false;
        };
        if log_len != stall.seen_log_len {
            stall.seen_log_len = log_len;
            stall.last_progress = now;
            return false;
        }
        all_in && now.saturating_duration_since(stall.last_progress) > stall.limit
    }

    /// The earliest instant anything is due.
    fn next_deadline(&self) -> Option<Instant> {
        let s = &self.sched;
        let ledger = self.core.next_deadline();
        let sweep = self.core.dag().is_active().then_some(s.next_spec_check);
        let stall = self.stall.as_ref().map(|s| s.last_progress + s.limit);
        s.arrivals
            .front()
            .map(|(at, _)| *at)
            .into_iter()
            .chain(self.timers.peek().map(|Reverse((at, _))| *at))
            .chain(s.changes.front().map(|(at, _)| *at))
            .chain(s.detections.front().map(|d| d.due))
            .chain(self.net.iter().flat_map(|n| n.delayed.iter().map(|d| d.0)))
            .chain(ledger.map(|t| self.clock.start + self.clock.real(t.as_secs_f64())))
            .chain(stall)
            .chain(sweep)
            .chain(self.repair_timers.iter().map(|t| t.0))
            .min()
    }

    /// One message off the channel. A worker the master has declared
    /// dead cannot talk: any of its messages still sitting in the
    /// channel predate the detection and are dropped. (Messages from a
    /// *crashed but undetected* worker are in-flight traffic of the
    /// masking window and are processed normally.)
    fn handle(&mut self, msg: ToMaster) {
        let from = match &msg {
            ToMaster::Bid { worker, .. }
            | ToMaster::Reject { worker, .. }
            | ToMaster::Idle { worker }
            | ToMaster::Done { worker, .. }
            | ToMaster::AckAssign { worker, .. } => *worker,
        };
        if !self.core.member(WorkerId(from)).live {
            return;
        }
        self.core.m.control_messages.inc();
        match msg {
            ToMaster::Bid {
                worker,
                job,
                estimate_secs,
            } => self.receive(worker, WorkerToMaster::Bid { job, estimate_secs }, 0),
            ToMaster::Reject { worker, job, seq } => {
                self.receive(worker, WorkerToMaster::Reject { job }, seq);
                // A drainer that bounced its last offer departs.
                self.finish_drain(WorkerId(worker));
            }
            ToMaster::Idle { worker } => self.receive(worker, WorkerToMaster::Idle, 0),
            ToMaster::Done {
                worker,
                job,
                wait_secs,
                fetch_secs,
                proc_secs,
            } => self.done(WorkerId(worker), job, [wait_secs, fetch_secs, proc_secs]),
            ToMaster::AckAssign { worker, job, seq } => {
                self.core.ack(self.clock.now(), WorkerId(worker), job, seq);
            }
        }
    }

    /// `worker` reports `job` done, with its wait, fetch and processing
    /// seconds.
    fn done(&mut self, worker: WorkerId, job: Job, phases: [f64; 3]) {
        if self.net.is_some() {
            // Ack *every* delivery — retransmitted and duplicated
            // copies included — so the worker stops resending even
            // when the first ack was lost.
            self.core.m.control_messages.inc();
            self.send_worker(worker.0, ToWorker::AckDone(job.id));
        }
        self.core.settle(job.id, Settle::Done);
        self.finish_drain(worker);
        // A redistributed copy already finished elsewhere, an
        // at-least-once duplicate of a completion already applied, or
        // a losing speculation replica whose cancellation was already
        // committed and accounted: side effects happen once.
        let Completion::Counted(outcome) = self.core.complete(self.clock.now(), worker, job.id)
        else {
            return;
        };
        let t = &mut self.tally;
        t.last_completion = Some(Instant::now());
        t.wait.push(phases[0].max(0.0));
        t.assignments.push((job.id, worker));
        if let Some(trace) = &mut t.trace {
            synthesize(trace, job.id, worker, self.clock.now(), phases);
        }
        if let DoneOutcome::Effective { output, .. } = &outcome {
            // The winner's output is born on its executor: downstream
            // task bids see it as local state — and, under
            // replication, as a fresh replica.
            let mut s = self.nodes[worker.0 as usize].lock();
            let now = self.clock.now();
            match &self.repl {
                Some(r) => r
                    .lock()
                    .insert(worker, &mut s.store, output.id, output.bytes, now),
                None => {
                    s.store.insert(output.id, output.bytes, now);
                }
            }
            drop(s);
            self.replicate();
        }
        let now = self.clock.now();
        self.core
            .follow_up(now, worker, &job, outcome, self.workflow);
        self.apply();
    }

    /// End of run, workers joined: commit what the data plane still
    /// journaled — a partial run (stall or all-dead break) can exit the
    /// loop with events pending, and the log must stay a complete
    /// serialization of the plane — and write the record.
    fn finish(mut self, end: Instant, meta: &RunMeta) -> RunOutput {
        if let Some(r) = &self.repl {
            r.lock().flush(&mut self.core, self.clock.now());
        }
        let scale = self.spec.time_scale;
        // A run that completed nothing has no makespan: report explicit
        // zeros instead of clock residue.
        let makespan_secs = match self.tally.last_completion {
            Some(t) if self.core.completed() > 0 => {
                t.saturating_duration_since(self.clock.start).as_secs_f64() / scale
            }
            _ => 0.0,
        };
        // Downtime of workers still dead at the end runs to end-of-run.
        for i in 0..self.down_since.len() {
            self.stop_downtime(i, end);
        }
        let stats = self.core.sched_stats();
        let totals = RunTotals {
            scheduler: self.allocator.kind(),
            makespan_secs,
            contests_timed_out: stats.contests_timed_out,
            contests_fallback: stats.contests_fallback,
            mean_queue_wait_secs: self.tally.wait.mean(),
            recovery_secs: self.downtime_real / scale,
        };
        let makespan = SimTime::from_secs_f64(makespan_secs);
        let workers = self.nodes.iter().map(|s| {
            let s = s.lock();
            let frac = if makespan_secs > 0.0 {
                s.busy.average(makespan).min(1.0)
            } else {
                0.0
            };
            (*s.store.stats(), frac)
        });
        RunOutput {
            record: self.core.record(meta, totals, workers),
            events: 0,
            assignments: self.tally.assignments,
            trace: self.tally.trace.unwrap_or_default(),
            sched_log: self.core.take_log(),
            metrics: self.core.m.snapshot(),
            anomalies: Vec::new(),
            replicas: self.repl.as_ref().map(|r| r.lock().map().clone()),
        }
    }
}

/// Reconstruct one job's lifecycle from its phase breakdown: the
/// completion instant is authoritative and the phases are laid out
/// backwards from it.
fn synthesize(
    trace: &mut Trace,
    job: JobId,
    worker: WorkerId,
    finished: SimTime,
    phases: [f64; 3],
) {
    let [wait, fetch, proc] = phases;
    let total = (wait + fetch + proc).max(0.0);
    let queued = SimTime::from_secs_f64((finished.as_secs_f64() - total).max(0.0));
    let started = queued + SimDuration::from_secs_f64(wait.max(0.0));
    let fetched = (fetch > 0.0).then(|| started + SimDuration::from_secs_f64(fetch));
    let phases = [
        (TraceKind::Queued, Some(queued)),
        (TraceKind::Started, Some(started)),
        (TraceKind::Fetched, fetched),
        (TraceKind::Finished, Some(finished)),
    ];
    for (kind, at) in phases {
        if let Some(at) = at {
            trace.push(TraceEvent {
                job,
                worker,
                kind,
                at,
            });
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
    match allocator.kind() {
        SchedulerKind::Bidding => Box::new(BiddingMaster::new(BiddingConfig {
            window: SimDuration::from_secs_f64(spec.contest_window_secs),
            serialize_contests: true,
            ..BiddingConfig::default()
        })),
        _ => allocator.master(),
    }
}

/// The replica plane, shared with every worker thread when armed.
fn replica_plane(
    spec: &RunSpec,
    nodes: &[Arc<Mutex<WorkerNode>>],
) -> Option<Arc<Mutex<ReplicaPlane>>> {
    let cfg = &spec.engine;
    cfg.replication.enabled.then(|| {
        let held: Vec<_> = nodes.iter().map(|n| n.lock()).collect();
        let up = |i| !cfg.membership.is_deferred(WorkerId(i));
        let stores = (0..).zip(&held).map(|(i, s)| (&s.store, up(i)));
        Arc::new(Mutex::new(ReplicaPlane::new(
            cfg.replication,
            cfg.mutation,
            stores,
        )))
    })
}

/// When a repair copy of `bytes` of `obj`, starting now, reaches `dest`
/// ([`ReplicationConfig::repair_copy`](crate::ReplicationConfig::repair_copy)).
fn copy_due(spec: &RunSpec, clock: Clock, obj: ObjectId, dest: WorkerId, bytes: u64) -> Instant {
    let cfg = &spec.engine;
    let full = spec.workers[dest.0 as usize].net.time_for(bytes);
    let copy = cfg.replication.repair_copy(&cfg.netfaults, obj, dest, full);
    Instant::now() + clock.real(copy.as_secs_f64())
}

/// Start each worker's run and its bidder and executor threads, all
/// reporting to `to_master`.
#[allow(clippy::too_many_arguments)]
fn spawn_workers(
    spec: &RunSpec,
    nodes: &[Arc<Mutex<WorkerNode>>],
    allocator: &dyn Allocator,
    seeds: &SeedSequence,
    clock: Clock,
    metrics: &RuntimeMetrics,
    repl: &Option<Arc<Mutex<ReplicaPlane>>>,
    to_master: Sender<ToMaster>,
) -> (Vec<Sender<ToWorker>>, Vec<WorkerThreads>) {
    let cfg = &spec.engine;
    let net_active = cfg.netfaults.is_active();
    let rules = WorkerRules {
        learning: cfg.speed_learning,
        reliable: net_active,
        net: cfg.netfaults.clone(),
        repl: cfg.replication,
    };
    let bid_delay = spec
        .chaos
        .as_ref()
        .map_or(Duration::ZERO, |c| c.max_bid_delay);
    let mut txs = Vec::with_capacity(nodes.len());
    let mut threads = Vec::with_capacity(nodes.len());
    for (i, node) in nodes.iter().enumerate() {
        let id = WorkerId(i as u32);
        let worker_seed = seeds.seed_for(100 + i as u64);
        let rng = RngStream::from_seed(worker_seed);
        node.lock()
            .begin_run(id, rules.clone(), allocator.worker_policy(), rng, true);
        let (tx, rx) = unbounded::<ToWorker>();
        threads.push(spawn_worker(
            id.0,
            Arc::clone(node),
            rx,
            to_master.clone(),
            clock,
            worker_seed,
            metrics.clone(),
            bid_delay,
            net_active.then_some(cfg.netfaults.retry),
            repl.clone(),
        ));
        txs.push(tx);
    }
    (txs, threads)
}

/// `events`, at their virtual instants, as real deadlines, earliest
/// first (a stable sort: simultaneous events keep their order).
fn in_real_time<T>(
    clock: Clock,
    events: impl Iterator<Item = (SimTime, T)>,
) -> VecDeque<(Instant, T)> {
    let mut evs: Vec<(Instant, T)> = events
        .map(|(at, ev)| (clock.start + clock.real(at.as_secs_f64()), ev))
        .collect();
    evs.sort_by_key(|(at, _)| *at);
    evs.into()
}

/// The run's core: the spec's log, shard, DAG config, ledger and
/// mutation.
fn core_for(
    spec: &RunSpec,
    allocator: &dyn Allocator,
    seeds: &SeedSequence,
    metrics: RuntimeMetrics,
) -> MasterCore {
    let cfg = &spec.engine;
    let roster = (0..)
        .zip(&spec.workers)
        .map(|(i, s)| WorkerHandle {
            id: WorkerId(i),
            name: s.name.clone(),
        })
        .collect();
    let mut core = MasterCore::new(
        Some(ReplicatedLog::new(&cfg.master_faults)),
        cfg.shard,
        cfg.atomize,
        !cfg.master_faults.is_empty(),
        Some(&cfg.netfaults),
        metrics,
        draft(spec, allocator),
        roster,
        seeds.stream(1),
        cfg.mutation,
    );
    // A deferred worker is dormant until its join fires: its initial
    // Idle announcement is dropped by the liveness filter and no bid
    // request reaches it.
    core.defer(&cfg.membership);
    core
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
    let cfg = &spec.engine;
    mutation::assert_armable(cfg.mutation);
    assert!(!spec.workers.is_empty(), "need at least one worker");
    assert_eq!(spec.workers.len(), nodes.len(), "one worker core per spec");
    assert!(spec.time_scale > 0.0, "time_scale must be positive");
    let n = nodes.len();
    let seeds = SeedSequence::new(meta.seed);
    let net_active = cfg.netfaults.is_active();
    // The master core owns these tallies; every other recording thread
    // owns a fork.
    let metrics = RuntimeMetrics::from_sink(cfg.metrics.clone());
    let repl = replica_plane(spec, nodes);
    // Workers and master share one virtual clock.
    let clock = Clock {
        start: Instant::now(),
        scale: spec.time_scale,
    };
    let (to_master, from_workers) = unbounded();
    let (txs, threads) = spawn_workers(
        spec, nodes, allocator, &seeds, clock, &metrics, &repl, to_master,
    );
    // The worker→master half of the lossy link lives in the intake,
    // beneath the chaos layer.
    let net_intake = net_active.then(|| {
        NetIntake::new(
            cfg.netfaults.clone(),
            clock.start,
            spec.time_scale,
            metrics.clone(),
        )
    });
    let mut intake = Intake::new(from_workers, spec.chaos.clone(), net_intake);
    let mut st = MasterState {
        spec,
        allocator,
        workflow,
        nodes,
        core: core_for(spec, allocator, &seeds, metrics),
        net: net_active.then(|| NetMaster {
            plan: cfg.netfaults.clone(),
            rng: SeedSequence::new(cfg.netfaults.seed).stream(0x4E37),
            delayed: Vec::new(),
        }),
        txs,
        clock,
        timers: BinaryHeap::new(),
        repl,
        repair_timers: Vec::new(),
        sched: Schedule::new(cfg, clock, arrivals),
        down_since: vec![None; n],
        last_recover: vec![None; n],
        downtime_real: 0.0,
        stall: Stall::new(cfg, clock),
        tally: Tally {
            trace: cfg.trace.then(Trace::new),
            ..Tally::default()
        },
    };
    // Reused across wakeups: one blocking receive drains the whole
    // channel into this batch, so the deadline scan runs once per
    // wakeup instead of once per message.
    let mut batch: VecDeque<ToMaster> = VecDeque::new();
    loop {
        let now = Instant::now();
        st.fire_due(now);
        // A leader crash observed anywhere above (or while handling the
        // previous message) elects a standby before the loop can
        // block, break, or take further decisions. Each iteration
        // handles at most one message, so one check per pass suffices.
        if st.core.failover_pending() {
            st.take_over();
        }
        if st.over(now) {
            break;
        }
        // The deadline scan and the blocking receive run only once the
        // previous wakeup's batch is fully handled; batched messages
        // ride through the (cheap) bookkeeping at the top of the loop
        // without re-arming timers.
        if batch.is_empty() {
            match intake.recv(st.next_deadline()) {
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
        if let Some(msg) = batch.pop_front() {
            st.handle(msg);
        }
    }
    let end = Instant::now();
    for tx in st.txs.drain(..) {
        let _ = tx.send(ToWorker::Shutdown);
    }
    // A worker thread's panic is re-raised here with its payload; a
    // thread that returned has flushed its tallies.
    for h in threads {
        for thread in [h.bidder, h.executor] {
            thread
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        }
    }
    intake.flush_metrics();
    st.finish(end, meta)
}
