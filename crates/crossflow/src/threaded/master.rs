//! The threaded master: job injection, scheduling, completion routing,
//! and — mirroring the simulation engine — fault injection with
//! detection-delayed redistribution.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use crossbid_metrics::{Registry, SchedulerKind};
use crossbid_net::NoiseModel;
use crossbid_simcore::{RngStream, SeedSequence, SimDuration, SimTime, Welford};
use parking_lot::Mutex;

use crossbid_storage::ObjectId;

use crate::atomize::{AtomizeConfig, DoneOutcome};
use crate::baseline::BaselinePolicy;
use crate::bids::BidSet;
use crate::engine::{ReplicationConfig, RunMeta, RunOutput};
use crate::faults::{
    FaultEvent, FaultPlan, MasterFaultPlan, MembershipAction, MembershipEvent, MembershipPlan,
    NetFaultPlan,
};
use crate::idle::IdlePool;
use crate::job::{Arrival, Job, JobId, JobSpec, ShardId, WorkerId};
use crate::master_core::{
    warm_seed, Admitted, Completion, Delivery, MasterCore, Placed, RunTotals, Settle, Takeover,
};
use crate::obs::RuntimeMetrics;
use crate::replog::ReplicatedLog;
use crate::scheduler::{BiddingPolicy, WorkerPolicy};
use crate::task::TaskCtx;
use crate::trace::{SchedEventKind, Trace, TraceEvent, TraceKind};
use crate::worker::{WorkerNode, WorkerRules, WorkerSpec};
use crate::workflow::Workflow;

use super::chaos::{ChaosConfig, Intake, NetIntake, ProtocolMutation};
use super::repl::ReplState;
use super::worker::spawn_worker;
use super::{Clock, ToMaster, ToWorker};

/// Which allocation protocol the threaded runtime runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThreadedScheduler {
    /// The Bidding Scheduler with the given contest window in
    /// *virtual* seconds (the paper's 1 s).
    Bidding {
        /// Contest window, virtual seconds.
        window_secs: f64,
    },
    /// The Crossflow Baseline (pull + reject-once).
    Baseline,
}

/// Configuration of the threaded runtime.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Real seconds per virtual second. The default `1e-3` compresses
    /// the paper's ~3500 s MSR runs into a few real seconds.
    pub time_scale: f64,
    /// Noise scheme on actual speeds.
    pub noise: NoiseModel,
    /// §6.4 speed learning (historic averages); the non-simulated
    /// experiments have it on.
    pub speed_learning: bool,
    /// The protocol under test.
    pub scheduler: ThreadedScheduler,
    /// Root seed (workload noise etc.).
    pub seed: u64,
    /// Floor on the *real* duration of a bidding window. Aggressive
    /// time compression can shrink the scaled window below OS
    /// scheduling jitter, making every contest "time out" before the
    /// bids physically arrive; the floor keeps the contest mechanism
    /// meaningful under compression. Contests still normally close on
    /// the full bid set long before either limit.
    pub min_real_window: Duration,
    /// Scheduled worker crashes/recoveries, with the monitoring
    /// layer's detection delay. Instants are virtual seconds from run
    /// start, like arrivals. Default: no faults.
    pub faults: FaultPlan,
    /// Synthesize a per-job lifecycle [`Trace`] from the phase
    /// breakdowns workers report with each completion, matching the
    /// engine's trace vocabulary. The scheduler event log is always
    /// collected regardless.
    pub trace: bool,
    /// Shared metrics sink: receives the run's instruments when the
    /// run ends, not live. When `None` the runtime collects into a
    /// private [`Registry`]; a snapshot is returned in
    /// [`RunOutput::metrics`] either way.
    pub metrics: Option<Registry>,
    /// Test-only seeded delivery-order perturbation of the master's
    /// intake (hold/reorder/duplicate). `None` delivers in arrival
    /// order, as before.
    pub chaos: Option<ChaosConfig>,
    /// Test-only reintroduction of one PR 1 protocol bug, for checker
    /// self-validation. Only effective under the `protocol-mutation`
    /// cargo feature; selecting a mutation without it panics at run
    /// start.
    pub mutation: ProtocolMutation,
    /// Lossy-link fault plan on the master↔worker channels. When
    /// inactive (the default) the reliability layer — acks, retries,
    /// leases, heartbeats — is fully disabled and the runtime behaves
    /// exactly as before.
    pub netfaults: NetFaultPlan,
    /// Scheduled *master* crashes at replicated-log append indices; an
    /// elected standby rebuilds the scheduler state in place by log
    /// replay (workers and channels keep running). Empty by default.
    pub master_faults: MasterFaultPlan,
    /// Elastic-membership schedule: deferred joins, graceful drains
    /// and administrative removals, mirroring the engine's semantics.
    /// Empty by default.
    pub membership: MembershipPlan,
    /// Home shard of this master: freshly allocated job ids carry it
    /// in their top bits. `ShardId(0)` reproduces the historical
    /// single-master ids bit-for-bit.
    pub shard: ShardId,
    /// Job atomization (task DAGs, per-task bidding, speculative
    /// straggler re-bidding — see [`crate::atomize`]). Consulted only
    /// for arrivals whose [`JobSpec::dag`] is set.
    pub atomize: AtomizeConfig,
    /// Replicated, self-healing data plane (replica registry, peer
    /// fetch, crash-triggered re-replication), mirroring the engine's
    /// semantics. Disabled by default.
    pub replication: ReplicationConfig,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            time_scale: 1e-3,
            noise: NoiseModel::evaluation_default(),
            speed_learning: true,
            scheduler: ThreadedScheduler::Bidding { window_secs: 1.0 },
            seed: 0,
            min_real_window: Duration::from_millis(2),
            faults: FaultPlan::none(),
            trace: false,
            metrics: None,
            chaos: None,
            mutation: ProtocolMutation::None,
            netfaults: NetFaultPlan::none(),
            master_faults: MasterFaultPlan::none(),
            membership: MembershipPlan::none(),
            shard: ShardId(0),
            atomize: AtomizeConfig::default(),
            replication: ReplicationConfig::default(),
        }
    }
}

struct Contest {
    job: Job,
    bids: BidSet,
    opened: Instant,
    deadline: Instant,
}

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
    // Bidding. Contests run one at a time: a burst of simultaneous
    // contests would let one worker win them all with the same stale
    // backlog (its bids cannot reflect wins it has not learned about
    // yet). Serializing matches Listing 1's per-job contest and lets
    // each Assign reach the winner's bidder (FIFO channel) before the
    // next contest's bid request does.
    contests: HashMap<JobId, Contest>,
    contest_queue: VecDeque<Job>,
    timed_out: u64,
    fallback: u64,
    // Baseline.
    ready: VecDeque<Job>,
    idle: IdlePool,
    /// Who rejected a job last (Baseline): the next offer prefers a
    /// different idle worker when one exists.
    rejected_by: HashMap<JobId, u32>,
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
    /// The ledger shared with the simulation engine: the replicated
    /// log (every entry is quorum-committed before the master acts on
    /// it; an elected standby rebuilds from it), ids, counts, DAG
    /// bookkeeping, the placement ledger with its retry and lease
    /// deadlines, retained payloads and the master's metrics tallies
    /// (the worker threads and the net intake record into forks).
    core: MasterCore,
    /// Lossy-link state; `None` leaves every send untouched.
    net: Option<NetMaster>,
}

impl MasterState {
    fn live_count(&self) -> usize {
        self.known_live.iter().filter(|l| **l).count()
    }

    /// May this worker be *allocated to*? Live and not draining.
    fn eligible(&self, w: u32) -> bool {
        self.known_live[w as usize] && !self.draining[w as usize]
    }

    fn eligible_count(&self) -> usize {
        (0..self.known_live.len() as u32)
            .filter(|w| self.eligible(*w))
            .count()
    }
}

/// Send `msg` to worker `w` across the (possibly lossy) link: the
/// message can be eaten by a partition or a drop, duplicated, or
/// parked in the delay queue the main loop drains.
fn send_worker(
    st: &mut MasterState,
    txs: &[Sender<ToWorker>],
    w: u32,
    msg: ToWorker,
    now: Instant,
    vnow: SimTime,
    time_scale: f64,
) {
    let Some(net) = &mut st.net else {
        let _ = txs[w as usize].send(msg);
        return;
    };
    let link = net.plan.to_worker;
    if net.plan.partitioned(WorkerId(w), vnow) || net.rng.chance(link.drop_prob) {
        st.core.m.net_dropped.inc();
        return;
    }
    let copies = if net.rng.chance(link.dup_prob) {
        st.core.m.net_duplicated.inc();
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
            let due = now + Duration::from_secs_f64((d * time_scale).max(0.0));
            net.delayed.push((due, w, msg.clone()));
        } else {
            let _ = txs[w as usize].send(msg.clone());
        }
    }
}

/// Run `arrivals` through `workflow` on real threads — the one entry
/// point of the threaded runtime. Returns the same [`RunOutput`] shape
/// as the simulation engine: record, scheduler log, synthesized trace
/// (when [`ThreadedConfig::trace`] is set), per-job placements (in
/// completion order) and a metrics snapshot. Workers run the
/// protocol's stock policy: Listing 2's bid, or the Baseline's
/// reject-once.
///
/// Unlike the simulated engine this function is *not* deterministic:
/// thread interleavings, late bids and real queueing are part of what
/// it measures (§6.4's role in the paper).
pub fn run_threaded_output(
    specs: &[WorkerSpec],
    cfg: &ThreadedConfig,
    workflow: &mut Workflow,
    arrivals: Vec<Arrival>,
    meta: &RunMeta,
) -> RunOutput {
    let nodes = fresh_nodes(specs, &cfg.noise);
    let policy = || -> Box<dyn WorkerPolicy> {
        match cfg.scheduler {
            ThreadedScheduler::Bidding { .. } => Box::new(BiddingPolicy),
            ThreadedScheduler::Baseline => Box::new(BaselinePolicy),
        }
    };
    run_threaded_with_nodes(specs, &nodes, cfg, &policy, workflow, arrivals, meta)
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

/// Core of the threaded runtime, over caller-owned worker cores whose
/// bids and accepts go through a fresh `policy` each.
/// [`crate::runtime::ThreadedSession`] passes the same `nodes` across
/// iterations so caches and learned speeds stay warm, exactly like the
/// engine's persistent [`crate::engine::Cluster`].
pub(crate) fn run_threaded_with_nodes(
    specs: &[WorkerSpec],
    nodes: &[Arc<Mutex<WorkerNode>>],
    cfg: &ThreadedConfig,
    policy: &dyn Fn() -> Box<dyn WorkerPolicy>,
    workflow: &mut Workflow,
    arrivals: Vec<Arrival>,
    meta: &RunMeta,
) -> RunOutput {
    assert!(!specs.is_empty(), "need at least one worker");
    assert_eq!(specs.len(), nodes.len(), "one worker core per spec");
    assert!(cfg.time_scale > 0.0, "time_scale must be positive");
    assert!(
        cfg.mutation.is_none() || cfg!(feature = "protocol-mutation"),
        "protocol mutations require the `protocol-mutation` cargo feature"
    );
    let n = specs.len();
    let seq = SeedSequence::new(cfg.seed);
    let mut rng_master = seq.stream(1);
    let net_active = cfg.netfaults.is_active();
    // The master core owns these tallies; every other recording thread
    // owns a fork.
    let metrics = RuntimeMetrics::from_sink(cfg.metrics.clone());

    // Replicated data plane, shared with every worker thread when
    // armed. The mutation sabotage flags fold into the effective
    // config so both runtimes misbehave identically under test.
    let repl: Option<Arc<Mutex<ReplState>>> = {
        let mut rcfg = cfg.replication;
        rcfg.skip_repair |= cfg.mutation.skips_repair();
        rcfg.evict_last_copy |= cfg.mutation.evicts_last_copy();
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
        scale: cfg.time_scale,
    };
    let rules = WorkerRules {
        learning: cfg.speed_learning,
        reliable: net_active,
        net: cfg.netfaults.clone(),
        repl: cfg.replication,
    };
    let bid_delay = cfg
        .chaos
        .as_ref()
        .map(|c| c.max_bid_delay)
        .unwrap_or(Duration::ZERO);
    for (i, node) in nodes.iter().enumerate() {
        let id = WorkerId(i as u32);
        let worker_seed = seq.seed_for(100 + i as u64);
        let rng = RngStream::from_seed(worker_seed);
        node.lock()
            .begin_run(id, rules.clone(), policy(), rng, true);
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
            cfg.time_scale,
            metrics.clone(),
        )
    });
    let mut intake = Intake::new(to_master_rx, cfg.chaos.clone(), net_intake);
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

    let mut st = MasterState {
        contests: HashMap::new(),
        contest_queue: VecDeque::new(),
        timed_out: 0,
        fallback: 0,
        ready: VecDeque::new(),
        idle: IdlePool::new(),
        rejected_by: HashMap::new(),
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
            // config and the core's dedup switch so both runtimes
            // misbehave identically.
            let mut acfg = cfg.atomize;
            acfg.release_all |= cfg.mutation.ignores_dag_gating();
            acfg.double_speculate |= cfg.mutation.double_speculates();
            let mut core = MasterCore::new(
                Some(ReplicatedLog::new(&cfg.master_faults)),
                cfg.shard,
                acfg,
                !cfg.master_faults.is_empty(),
                Some(&cfg.netfaults),
                metrics,
            );
            core.drops_dedup = cfg.mutation.drops_dedup();
            core.ignores_acks = cfg.mutation.ignores_acks();
            core.no_leases = cfg.mutation.no_leases();
            core
        },
        net: net_active.then(|| NetMaster {
            plan: cfg.netfaults.clone(),
            rng: SeedSequence::new(cfg.netfaults.seed).stream(0x4E37),
            delayed: Vec::new(),
        }),
    };
    let mut wait_stats = Welford::new();
    let mut last_completion = start;
    // Per-job lifecycle trace, synthesized from the phase breakdown
    // each completion carries (the engine records the same vocabulary
    // live; here the events are reconstructed at completion time).
    let mut trace: Option<Trace> = if cfg.trace { Some(Trace::new()) } else { None };
    // Placements in completion order (the threaded master only learns
    // a placement authoritatively when the worker reports it done).
    let mut assignments: Vec<(JobId, WorkerId)> = Vec::new();

    // Open the next queued contest if none is running. With no
    // believed-live workers there is no one to ask: the job stays
    // queued until a recovery re-populates the roster.
    let open_next_contest = |st: &mut MasterState, txs: &[Sender<ToWorker>], window_secs: f64| {
        if st.core.failover_pending() || !st.contests.is_empty() || st.eligible_count() == 0 {
            return;
        }
        // A job whose completion committed while it queued is never
        // placed again, so it gets no contest either.
        let mut queued = std::iter::from_fn(|| st.contest_queue.pop_front());
        let Some(job) = queued.find(|j| !st.core.is_done(j.id)) else {
            return;
        };
        // Commit-before-act: the contest opens only once the log entry
        // reached a quorum. A truncated append performs no side effect
        // — the job goes back to the queue for the elected standby.
        if !st.core.commit(
            clock.now(),
            None,
            Some(job.id),
            SchedEventKind::ContestOpened,
        ) {
            st.contest_queue.push_front(job);
            return;
        }
        let opened = Instant::now();
        let deadline = opened + clock.real(window_secs).max(cfg.min_real_window);
        st.core.m.contests_opened.inc();
        for w in 0..txs.len() as u32 {
            if !st.eligible(w) {
                continue;
            }
            st.core.m.control_messages.inc();
            // Bid requests are fire-and-forget even on a lossy link: a
            // lost one costs only optimality (the contest resolves by
            // timeout or fallback), so there is no ack or retry.
            send_worker(
                st,
                txs,
                w,
                ToWorker::BidRequest(job.clone()),
                Instant::now(),
                clock.now(),
                cfg.time_scale,
            );
        }
        st.contests.insert(
            job.id,
            Contest {
                job,
                bids: BidSet::with_capacity(txs.len()),
                opened,
                deadline,
            },
        );
    };

    // Dispatch a new (or reclaimed) job according to the protocol.
    let dispatch = |st: &mut MasterState,
                    txs: &[Sender<ToWorker>],
                    cfg: &ThreadedConfig,
                    job: Job| match cfg.scheduler {
        ThreadedScheduler::Bidding { window_secs } => {
            st.contest_queue.push_back(job);
            open_next_contest(st, txs, window_secs);
        }
        ThreadedScheduler::Baseline => {
            st.ready.push_back(job);
        }
    };

    // Release one DAG task into allocation; a truncated release is
    // dropped with the leader.
    let submit_task_job = |st: &mut MasterState,
                           txs: &[Sender<ToWorker>],
                           cfg: &ThreadedConfig,
                           root: JobId,
                           idx: u32,
                           spec: JobSpec| {
        if let Some(job) = st.core.release_task(clock.now(), root, idx, spec, false) {
            dispatch(st, txs, cfg, job);
        }
    };

    // A crashed or removed worker's placements made before `cut` (all
    // of them on `None`) come off the ledger and re-enter allocation.
    let reclaim = |st: &mut MasterState, txs: &[Sender<ToWorker>], w: WorkerId, cut| {
        for job in st.core.reclaim(w, cut) {
            st.core.m.jobs_redistributed.inc();
            let kind = SchedEventKind::Redistributed;
            st.core.commit(clock.now(), Some(w), Some(job.id), kind);
            dispatch(st, txs, cfg, job);
        }
    };

    // Put a placement on the wire.
    let deliver = |st: &mut MasterState, txs: &[Sender<ToWorker>], d: Delivery| {
        st.core.m.control_messages.inc();
        let (w, msg) = (d.worker.0, ToWorker::placement(d));
        send_worker(st, txs, w, msg, Instant::now(), clock.now(), cfg.time_scale);
    };

    let baseline_pump = |st: &mut MasterState, txs: &[Sender<ToWorker>]| {
        while !st.core.failover_pending() && !st.ready.is_empty() && !st.idle.is_empty() {
            let job = st.ready.pop_front().expect("non-empty");
            // A worker that just rejected this job would accept it on
            // the rebound (reject-once); prefer any *other* idle
            // worker first so the rejection can actually route the
            // job somewhere better.
            let rejector = st.rejected_by.get(&job.id).copied();
            let w = if cfg.mutation.reoffers_to_rejector() {
                // The reintroduced bug: bounce the job straight back
                // to whoever just rejected it.
                st.idle.pop_exact_or_front(rejector)
            } else {
                st.idle.pop_preferring_not(rejector)
            }
            .expect("checked non-empty");
            match st.core.place(clock.now(), WorkerId(w), job, true) {
                Placed::Send(d) => deliver(st, txs, d),
                // Commit-before-act: an offer whose log entry died
                // with the leader never goes out; worker and job return
                // to their pools for the standby to re-place.
                Placed::Truncated(job) => {
                    st.idle.push(w);
                    st.ready.push_front(job);
                    break;
                }
                Placed::Completed => {
                    st.idle.push(w);
                }
            }
        }
    };

    let close_contest = |st: &mut MasterState,
                         txs: &[Sender<ToWorker>],
                         rng: &mut RngStream,
                         id: JobId,
                         timed_out: bool| {
        if st.core.failover_pending() {
            return;
        }
        let Some(c) = st.contests.remove(&id) else {
            return;
        };
        let winner = c.bids.preferred_among(|w| st.eligible(w.0));
        let (w, fallback) = match winner {
            Some(w) => (w.0, false),
            None => {
                let live: Vec<u32> = (0..txs.len() as u32).filter(|w| st.eligible(*w)).collect();
                if live.is_empty() {
                    // Nobody to draft: park the job until a recovery.
                    st.contest_queue.push_front(c.job);
                    return;
                }
                (live[rng.below(live.len() as u64) as usize], true)
            }
        };
        // Commit-before-act: the decision stands only once both
        // entries reached a quorum. A truncated close leaves the job
        // contest-open in the state, a truncated assignment leaves it
        // unplaced — either way the elected standby re-enters it.
        if !st
            .core
            .close_contest(clock.now(), None, id, timed_out, fallback)
        {
            st.contest_queue.push_front(c.job);
            return;
        }
        if timed_out {
            st.timed_out += 1;
            st.core.m.contests_timed_out.inc();
        }
        if fallback {
            st.fallback += 1;
            st.core.m.contests_fallback.inc();
        }
        match st.core.place(clock.now(), WorkerId(w), c.job, false) {
            Placed::Send(d) => deliver(st, txs, d),
            Placed::Truncated(job) => st.contest_queue.push_front(job),
            Placed::Completed => {}
        }
    };

    let window_secs = match cfg.scheduler {
        ThreadedScheduler::Bidding { window_secs } => window_secs,
        ThreadedScheduler::Baseline => 0.0,
    };

    // Graceful-drain completion: once a draining worker has nothing
    // outstanding it departs for good (`WorkerRemoved`). A drainer
    // that is currently crashed departs at its recovery instead — its
    // stranded jobs must be reclaimed first.
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
        st.idle.remove(w);
        if let Some(r) = &repl {
            // The departed worker's copies leave the replica set (its
            // store survives on disk but the cluster cannot reach it).
            r.lock().drop_worker(w);
        }
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

    // Under-replication scan: for every artifact below its factor with
    // no repair in flight, pick the live source and the eligible
    // destination with the most free store bytes, commit the
    // `repair_start` decision (commit-before-copy), and arm the copy
    // timer. Free-byte snapshots are collected one shared lock at a
    // time *before* the repl lock, per the lock order.
    let scan_repairs = |st: &mut MasterState, timers: &mut Vec<(Instant, ObjectId, u32, u64)>| {
        let Some(r) = &repl else {
            return;
        };
        if st.core.failover_pending() {
            return;
        }
        let free: Vec<u64> = nodes
            .iter()
            .map(|s| {
                let s = s.lock();
                s.store.capacity().saturating_sub(s.store.used())
            })
            .collect();
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
                        |w| st.eligible(w),
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
    // and rebuilds every scheduler-owned structure from the replay.
    // The transport substrate — worker threads, channels, the idle
    // pool, liveness beliefs, net-layer sequencing and exactly-once
    // memory — survives in place: it models the replica group's shared
    // view of the cluster, not the leader's private decisions.
    let do_failover = |st: &mut MasterState,
                       txs: &[Sender<ToWorker>],
                       down: &[Option<Instant>],
                       timers: &mut Vec<(Instant, ObjectId, u32, u64)>| {
        let Takeover {
            state,
            unplaced,
            frontier,
        } = st.core.takeover(clock.now());
        let pause = clock.real(cfg.master_faults.election_timeout_secs);
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
        // Decisions the dead leader had staged but never committed are
        // forgotten; the committed log is the only source of truth.
        st.contests.clear();
        st.contest_queue.clear();
        st.ready.clear();
        // Rejection routing survives through the committed log, not
        // the dead leader's memory.
        st.rejected_by.clear();
        for (job, w) in state.rejections() {
            st.rejected_by.insert(job, w.0);
        }
        // Jobs the log proves submitted-but-unplaced (queued, mid-
        // contest, or whose assignment truncated) re-enter allocation
        // exactly once each.
        for job in unplaced {
            dispatch(st, txs, cfg, job);
        }
        // Tasks whose release truncated with the dead leader are
        // released afresh (new term, fresh ids).
        for (root, idx, spec) in frontier {
            submit_task_job(st, txs, cfg, root, idx, spec);
        }
        // The takeover may have emptied a draining worker's ledger
        // entries; it must notice the drain is done.
        for w in 0..txs.len() as u32 {
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
        baseline_pump(st, txs);
        open_next_contest(st, txs, window_secs);
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
        // Fire due arrivals.
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
                    let _ = worker_txs[w as usize].send(msg);
                } else {
                    i += 1;
                }
            }
        }
        while pending_arrivals.front().is_some_and(|(at, _)| *at <= now) {
            let (_, spec) = pending_arrivals.pop_front().expect("non-empty");
            arrivals_seen += 1;
            match st.core.admit(clock.now(), spec) {
                Admitted::Job(job) => dispatch(&mut st, &worker_txs, cfg, job),
                Admitted::Dag { root, released } => {
                    for (idx, tspec) in released {
                        submit_task_job(&mut st, &worker_txs, cfg, root, idx, tspec);
                    }
                }
            }
        }

        // Straggler sweep: replicate the slowest in-flight task once
        // enough siblings have completed to price "slow" (the sweep is
        // committed as SpecLaunch before the replica exists).
        if now >= next_spec_check {
            if let Some(job) = st.core.launch_straggler(clock.now()) {
                dispatch(&mut st, &worker_txs, cfg, job);
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
                        // re-seats it.
                        st.idle.push(wid.0);
                        baseline_pump(&mut st, &worker_txs);
                        open_next_contest(&mut st, &worker_txs, window_secs);
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
                    if let Some(r) = &repl {
                        r.lock().alive[w] = true;
                    }
                    // The dormant worker's initial Idle announcement
                    // was dropped by the liveness filter; re-seat it
                    // the way a recovery does.
                    st.idle.push(ev.worker.0);
                    baseline_pump(&mut st, &worker_txs);
                    open_next_contest(&mut st, &worker_txs, window_secs);
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
                    st.idle.remove(ev.worker.0);
                    // Purge its bids from open contests — the shrunken
                    // roster may complete a bid set.
                    let elig = st.eligible_count();
                    let mut complete: Vec<JobId> = Vec::new();
                    for (id, c) in st.contests.iter_mut() {
                        c.bids.remove(ev.worker);
                        if elig > 0 && c.bids.len() >= elig {
                            complete.push(*id);
                        }
                    }
                    for id in complete {
                        close_contest(&mut st, &worker_txs, &mut rng_master, id, false);
                    }
                    finish_drain(&mut st, &down_since, ev.worker.0);
                    baseline_pump(&mut st, &worker_txs);
                    open_next_contest(&mut st, &worker_txs, window_secs);
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
                    st.idle.remove(ev.worker.0);
                    nodes[w].lock().crash(clock.now());
                    if let Some(r) = &repl {
                        // Reclaimed disk and all: same data-plane diff
                        // as a crash, but the worker never returns.
                        r.lock().drop_worker(ev.worker.0);
                    }
                    if let Some(since) = down_since[w].take() {
                        downtime_real += now.saturating_duration_since(since).as_secs_f64();
                    }
                    let elig = st.eligible_count();
                    let mut complete: Vec<JobId> = Vec::new();
                    for (id, c) in st.contests.iter_mut() {
                        c.bids.remove(ev.worker);
                        if elig > 0 && c.bids.len() >= elig {
                            complete.push(*id);
                        }
                    }
                    for id in complete {
                        close_contest(&mut st, &worker_txs, &mut rng_master, id, false);
                    }
                    reclaim(&mut st, &worker_txs, ev.worker, None);
                    baseline_pump(&mut st, &worker_txs);
                    open_next_contest(&mut st, &worker_txs, window_secs);
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
                // Still down: declare it dead. It leaves the idle
                // pool, its recorded bids can no longer win, and the
                // affected contests re-check completeness against the
                // shrunken roster.
                st.known_live[w] = false;
                st.idle.remove(dw);
                let live = st.eligible_count();
                let mut complete: Vec<JobId> = Vec::new();
                for (id, c) in st.contests.iter_mut() {
                    c.bids.remove(WorkerId(dw));
                    if live > 0 && c.bids.len() >= live {
                        complete.push(*id);
                    }
                }
                for id in complete {
                    close_contest(&mut st, &worker_txs, &mut rng_master, id, false);
                }
            }
            // Reclaim what the worker lost: everything placed on it
            // before its latest recovery — or everything, if it has
            // not recovered. (Jobs placed after a recovery live on the
            // rejoined worker and stay put.)
            reclaim(
                &mut st,
                &worker_txs,
                WorkerId(dw),
                recovered_since.map(|t| clock.at(t)),
            );
            // Reclaiming may have emptied a recovered drainer's
            // ledger entries.
            finish_drain(&mut st, &down_since, dw);
            baseline_pump(&mut st, &worker_txs);
            open_next_contest(&mut st, &worker_txs, window_secs);
        }

        // The ledger's timers: retransmit unacked placements on their
        // backoff, and bounce those whose lease expired back to the
        // scheduler — *not* `Redistributed`: the worker may be alive,
        // the link is suspect.
        let v = clock.at(now);
        for (id, seq) in st.core.due(v) {
            if let Some(d) = st.core.resend(v, id, seq) {
                deliver(&mut st, &worker_txs, d);
            }
            if let Some((w, job)) = st.core.expire(v, id, seq) {
                if let Some(job) = job {
                    dispatch(&mut st, &worker_txs, cfg, job);
                }
                finish_drain(&mut st, &down_since, w.0);
            }
        }

        baseline_pump(&mut st, &worker_txs);
        // Close expired contests.
        let due: Vec<JobId> = st
            .contests
            .iter()
            .filter(|(_, c)| c.deadline <= now)
            .map(|(id, _)| *id)
            .collect();
        for id in due {
            close_contest(&mut st, &worker_txs, &mut rng_master, id, true);
        }
        open_next_contest(&mut st, &worker_txs, window_secs);

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
                    let free: Vec<u64> = nodes
                        .iter()
                        .map(|s| {
                            let s = s.lock();
                            s.store.capacity().saturating_sub(s.store.used())
                        })
                        .collect();
                    let mut rs = r.lock();
                    let nd = ReplicationConfig::repair_dest(
                        &rs.map,
                        obj,
                        n as u32,
                        |w| st.eligible(w),
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
            do_failover(&mut st, &worker_txs, &down_since, &mut repair_timers);
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
                .chain(st.contests.values().map(|c| c.deadline))
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
        match msg {
            ToMaster::Bid {
                worker,
                job,
                estimate_secs,
            } => {
                st.core.m.control_messages.inc();
                // Intake guard: a non-finite estimate is protocol
                // garbage — never record it, never let it count
                // toward the bid set.
                if !estimate_secs.is_finite() && !cfg.mutation.accepts_non_finite() {
                    continue;
                }
                let live = st.eligible_count();
                let mut recorded = false;
                let mut full = false;
                if let Some(c) = st.contests.get_mut(&job) {
                    // Duplicates are ignored entirely: only a freshly
                    // recorded bid may complete the set and trigger
                    // the short-circuit close.
                    recorded = if cfg.mutation.accepts_duplicates() {
                        c.bids.record_unchecked(WorkerId(worker), estimate_secs);
                        true
                    } else {
                        c.bids.record(WorkerId(worker), estimate_secs)
                    };
                    if recorded {
                        full = c.bids.len() >= live;
                        let waited = c.opened.elapsed().as_secs_f64() / cfg.time_scale;
                        st.core.record_bid(
                            clock.now(),
                            WorkerId(worker),
                            job,
                            estimate_secs,
                            waited,
                        );
                    }
                }
                if !recorded && cfg.mutation.accepts_late_bids() {
                    // The reintroduced bug: a bid arriving after its
                    // contest closed reopens the decision — the late
                    // bidder steals the still-running job.
                    if let Some(j) = st.core.placed_job(job) {
                        let bid = SchedEventKind::BidReceived { estimate_secs };
                        st.core
                            .commit(clock.now(), Some(WorkerId(worker)), Some(job), bid);
                        if let Placed::Send(d) =
                            st.core.place(clock.now(), WorkerId(worker), j, false)
                        {
                            deliver(&mut st, &worker_txs, d);
                        }
                    }
                }
                if full {
                    close_contest(&mut st, &worker_txs, &mut rng_master, job, false);
                    open_next_contest(&mut st, &worker_txs, window_secs);
                }
            }
            ToMaster::Reject { worker, job, seq } => {
                st.core.m.control_messages.inc();
                // At-least-once tolerance: a reject acts only while
                // the *exact* offer it answers (worker AND placement
                // seq) is still on the ledger. A duplicate delivery,
                // or a stale reject arriving after the job was
                // redistributed, completed, lease-bounced or
                // re-offered elsewhere, would otherwise re-queue the
                // job for a second execution (or cancel someone
                // else's offer).
                let bounced = Settle::Bounced(WorkerId(worker), seq);
                if !st.core.settle(job.id, bounced) {
                    continue;
                }
                st.core.commit(
                    clock.now(),
                    Some(WorkerId(worker)),
                    Some(job.id),
                    SchedEventKind::Rejected,
                );
                st.rejected_by.insert(job.id, worker);
                // A drainer bouncing its last offer must not re-enter
                // the pull pool — it completes its drain instead.
                if st.draining[worker as usize] {
                    finish_drain(&mut st, &down_since, worker);
                } else {
                    st.idle.push(worker);
                }
                st.ready.push_front(job);
                baseline_pump(&mut st, &worker_txs);
            }
            ToMaster::Idle { worker } => {
                st.core.m.control_messages.inc();
                st.idle.push(worker);
                baseline_pump(&mut st, &worker_txs);
            }
            ToMaster::Done {
                worker,
                job,
                wait_secs,
                fetch_secs,
                proc_secs,
            } => {
                st.core.m.control_messages.inc();
                if st.net.is_some() {
                    // Ack *every* delivery — retransmitted and
                    // duplicated copies included — so the worker stops
                    // resending even when the first ack was lost.
                    st.core.m.control_messages.inc();
                    send_worker(
                        &mut st,
                        &worker_txs,
                        worker,
                        ToWorker::AckDone(job.id),
                        Instant::now(),
                        clock.now(),
                        cfg.time_scale,
                    );
                }
                st.core.settle(job.id, Settle::Done);
                st.rejected_by.remove(&job.id);
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
                    Completion::Cancelled => {
                        baseline_pump(&mut st, &worker_txs);
                        continue;
                    }
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
                            dispatch(&mut st, &worker_txs, cfg, spawned);
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
                            submit_task_job(&mut st, &worker_txs, cfg, root, idx, tspec);
                        }
                    }
                }
                baseline_pump(&mut st, &worker_txs);
            }
            ToMaster::AckAssign { worker, job, seq } => {
                st.core.m.control_messages.inc();
                st.core.ack(clock.now(), WorkerId(worker), job, seq);
            }
        }
    }
    let end = Instant::now();

    // Shutdown and join.
    for tx in &worker_txs {
        let _ = tx.send(ToWorker::Shutdown);
    }
    drop(worker_txs);
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
            / cfg.time_scale
    } else {
        0.0
    };
    // Downtime of workers still dead at the end runs to end-of-run.
    for since in down_since.iter().flatten() {
        downtime_real += end.saturating_duration_since(*since).as_secs_f64();
    }
    let totals = RunTotals {
        scheduler: match cfg.scheduler {
            ThreadedScheduler::Bidding { .. } => SchedulerKind::Bidding,
            ThreadedScheduler::Baseline => SchedulerKind::Baseline,
        },
        makespan_secs,
        contests_timed_out: st.timed_out,
        contests_fallback: st.fallback,
        mean_queue_wait_secs: wait_stats.mean(),
        recovery_secs: downtime_real / cfg.time_scale,
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
