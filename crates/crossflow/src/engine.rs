//! The discrete-event execution engine.
//!
//! Runs a [`Workflow`] on a [`Cluster`] of worker nodes under a given
//! [`Allocator`], reproducing the paper's distributed system on a
//! virtual clock:
//!
//! * every scheduler control message (offer, reject, bid request,
//!   bid, assignment, idle notification, completion report) pays a
//!   sampled control-plane latency;
//! * fetching a non-local resource pays the worker's data-plane
//!   transfer time with the configured noise scheme, and is accounted
//!   as a cache miss plus data load;
//! * processing pays `work_bytes / (rw_speed × noise) × cpu_factor +
//!   cpu_secs × cpu_factor`;
//! * workers execute one job at a time in FIFO order (as §5 states);
//! * completions flow back through the master, which runs the task's
//!   logic and feeds any downstream jobs back into allocation.
//!
//! The run terminates when every created job (external + downstream)
//! has completed; the [`RunRecord`] then carries the paper's §6.1
//! metrics.

use std::collections::HashSet;
use std::ops::Range;

use crossbid_metrics::{Registry, RegistrySnapshot, RunRecord};
use crossbid_net::{ControlPlane, NoiseModel};
use crossbid_simcore::{EventQueue, RngStream, SeedSequence, SimDuration, SimTime, Welford};
use crossbid_storage::{ObjectId, ReplicaMap};

use crate::atomize::{AtomizeConfig, DoneOutcome};
use crate::faults::{changes, Change, FaultPlan, MasterFaultPlan, MembershipPlan, NetFaultPlan};
use crate::job::{Arrival, Job, JobId, JobSpec, ShardId, WorkerId};
use crate::master_core::{
    Completion, Delivery, Effect, MasterCore, RunTotals, Settle, Stage, Takeover, ToWorker,
};
use crate::mutation::{self, ProtocolMutation};
use crate::obs::RuntimeMetrics;
use crate::replica::{Landing, ReplicaPlane};
use crate::replog::ReplicatedLog;
use crate::scheduler::{Allocator, MasterScheduler, SchedCtx, WorkerHandle, WorkerToMaster};
use crate::trace::{SchedEventKind, SchedLog, Trace, TraceEvent, TraceKind};
use crate::worker::{Intake, WorkerNode, WorkerRules, WorkerSpec};
use crate::workflow::Workflow;

/// Engine-wide configuration (the testbed parameters of §6.2/§6.3.1).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Control-plane latency model (master ↔ workers via the
    /// messaging instance).
    pub control: ControlPlane,
    /// Per-transfer data-plane setup latency (API round trip + clone
    /// handshake).
    pub data_latency: SimDuration,
    /// Noise scheme applied to actual network and read/write speeds.
    pub noise: NoiseModel,
    /// §6.4 speed learning: use historic-average observed speeds for
    /// estimates instead of nominal configured speeds.
    pub speed_learning: bool,
    /// Time a worker spends computing a bid before sending it.
    pub bid_compute_delay: SimDuration,
    /// Safety cap on delivered events (guards against scheduler bugs
    /// that re-arm timers forever). A bid round counts once (see
    /// [`RunOutput::events`]).
    pub max_events: u64,
    /// Scheduled worker crashes/recoveries (empty in the paper's
    /// evaluated configuration; see [`crate::faults`]).
    pub faults: FaultPlan,
    /// Lossy master↔worker links plus the at-least-once
    /// countermeasures (acks, retries, leases, idle heartbeats). An
    /// inactive plan leaves the engine on its exact pre-existing code
    /// path — no extra events, no extra rng draws.
    pub netfaults: NetFaultPlan,
    /// Scheduled *master* crashes at replicated-log append indices; an
    /// elected standby recovers by log replay (see [`crate::replog`]).
    /// An empty plan keeps appends as plain pushes and never runs the
    /// failover path.
    pub master_faults: MasterFaultPlan,
    /// Elastic membership: scheduled worker joins, drains and
    /// removals. A worker with a `Join` event stays dormant (out of
    /// the roster and every contest) until its join fires. An empty
    /// plan keeps the engine on its exact pre-existing code path.
    pub membership: MembershipPlan,
    /// This master's federation shard. Job ids are allocated in the
    /// shard's id space ([`JobId::in_shard`]); shard 0 — the default —
    /// reproduces the historical sequential ids bit-for-bit.
    pub shard: ShardId,
    /// Job atomization (task DAGs, per-task bidding, speculative
    /// straggler re-bidding — see [`crate::atomize`]). Only consulted
    /// for arrivals whose [`JobSpec::dag`] is set; the defaults are
    /// inert for plain workloads.
    pub atomize: AtomizeConfig,
    /// Self-healing replicated data plane (ROADMAP item 2): replica-
    /// aware stores, peer-to-peer fetch from the nearest replica, and
    /// crash-triggered re-replication committed through the scheduler
    /// log. The default (disabled) keeps the engine on its exact
    /// historic code path.
    pub replication: ReplicationConfig,
    /// Record a per-job lifecycle trace (see [`crate::trace`]).
    pub trace: bool,
    /// Shared metrics sink: receives the run's instruments when the
    /// run ends, not live. When `None` the engine collects into a
    /// private [`Registry`] — a snapshot is returned in
    /// [`RunOutput::metrics`] either way.
    pub metrics: Option<Registry>,
    /// Test-only: reintroduce one protocol bug on either runtime and in
    /// a federation's router (the run entries refuse one without the
    /// `protocol-mutation` cargo feature).
    pub mutation: ProtocolMutation,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            control: ControlPlane::evaluation_default(),
            data_latency: SimDuration::from_millis(300),
            noise: NoiseModel::evaluation_default(),
            speed_learning: false,
            bid_compute_delay: SimDuration::from_millis(25),
            max_events: 20_000_000,
            faults: FaultPlan::none(),
            netfaults: NetFaultPlan::none(),
            master_faults: MasterFaultPlan::none(),
            membership: MembershipPlan::none(),
            shard: ShardId(0),
            atomize: AtomizeConfig::default(),
            replication: ReplicationConfig::default(),
            trace: false,
            metrics: None,
            mutation: ProtocolMutation::None,
        }
    }
}

impl EngineConfig {
    /// A configuration with no latency and no noise — unit tests can
    /// predict exact timings.
    pub fn ideal() -> Self {
        EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            bid_compute_delay: SimDuration::ZERO,
            ..Self::default()
        }
    }
}

/// Configuration of the self-healing replicated data plane.
///
/// When `enabled`, every worker-resident artifact is tracked in a
/// cluster-wide [`ReplicaMap`] with a target `factor`; workers fetch
/// missing artifacts from the nearest live replica (a worker→worker
/// transfer priced into bids), peer transfers are exposed to data-
/// plane loss and partitions with timeout + seeded-backoff retry, and
/// the master repairs under-replication after crashes by scheduling
/// re-replication copies committed through the scheduler log
/// (commit-before-copy, so a failover resumes repair without
/// double-copying). Sole surviving copies are pinned in their local
/// store so cache pressure can never destroy data the cluster cannot
/// re-create.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationConfig {
    /// Master switch. Disabled (the default) keeps both runtimes on
    /// their exact historic code paths — no replica tracking, no peer
    /// fetches, no repair traffic, no extra log events.
    pub enabled: bool,
    /// Target number of live copies per artifact (≥ 1).
    pub factor: u32,
    /// Virtual seconds a worker waits for a peer transfer before
    /// declaring the attempt lost and retrying.
    pub fetch_timeout_secs: f64,
    /// Peer-fetch attempts (rotating over live replicas) before the
    /// worker degrades to a master fetch, which always succeeds.
    pub max_fetch_attempts: u32,
    /// Intra-cluster bandwidth advantage of a worker→worker transfer
    /// over a master fetch: peer transfer time is the master-fetch
    /// time divided by this factor (> 0).
    pub peer_bandwidth_scale: f64,
    /// Probability a peer data transfer is lost in flight. Sampled
    /// deterministically from a hash of (net seed, object, worker,
    /// attempt) so both runtimes replay identically; composed with any
    /// active [`NetFaultPlan`] link loss and partition windows.
    pub peer_drop_prob: f64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            enabled: false,
            factor: 2,
            fetch_timeout_secs: 5.0,
            max_fetch_attempts: 3,
            peer_bandwidth_scale: 4.0,
            peer_drop_prob: 0.0,
        }
    }
}

impl ReplicationConfig {
    /// An enabled plane with the default knobs and the given factor.
    pub fn with_factor(factor: u32) -> Self {
        ReplicationConfig {
            enabled: true,
            factor,
            ..Self::default()
        }
    }

    /// Check every knob; returns the offending field on failure.
    pub fn validate(&self) -> Result<(), (&'static str, f64)> {
        if self.factor == 0 {
            return Err(("factor", 0.0));
        }
        if !self.fetch_timeout_secs.is_finite() || self.fetch_timeout_secs <= 0.0 {
            return Err(("fetch_timeout_secs", self.fetch_timeout_secs));
        }
        if self.max_fetch_attempts == 0 {
            return Err(("max_fetch_attempts", 0.0));
        }
        if !self.peer_bandwidth_scale.is_finite() || self.peer_bandwidth_scale <= 0.0 {
            return Err(("peer_bandwidth_scale", self.peer_bandwidth_scale));
        }
        if !self.peer_drop_prob.is_finite() || !(0.0..=1.0).contains(&self.peer_drop_prob) {
            return Err(("peer_drop_prob", self.peer_drop_prob));
        }
        Ok(())
    }

    /// Attempt key separating repair-copy loss samples from
    /// fetch-attempt samples of the same (object, worker) pair.
    const REPAIR_ATTEMPT_KEY: u32 = 0x8000_0000;

    /// How long one repair copy of `obj` to `dest` takes, given the
    /// master-fetch time `full` of its bytes over `dest`'s link.
    /// Peer-sourced at intra-cluster speed when the data plane
    /// delivers it; a transfer the plane would lose degrades to a
    /// master-sourced copy at nominal link speed, which always
    /// succeeds — a committed repair always completes.
    pub(crate) fn repair_copy(
        &self,
        net: &NetFaultPlan,
        obj: ObjectId,
        dest: WorkerId,
        full: SimDuration,
    ) -> SimDuration {
        if net.peer_dropped(self.peer_drop_prob, obj, dest, Self::REPAIR_ATTEMPT_KEY) {
            full
        } else {
            full.mul_f64(1.0 / self.peer_bandwidth_scale)
        }
    }
}

/// The persistent cluster: worker nodes whose caches and learned
/// speeds survive across iterations of a session (§6.3.1 runs every
/// configuration "in three iterations" with caches warm).
pub struct Cluster {
    nodes: Vec<WorkerNode>,
}

impl Cluster {
    /// Build worker nodes from specs under the given engine config.
    pub fn new(specs: &[WorkerSpec], cfg: &EngineConfig) -> Self {
        Cluster {
            nodes: specs
                .iter()
                .map(|s| WorkerNode::new(s.clone(), cfg.data_latency, &cfg.noise))
                .collect(),
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the cluster has no workers.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node (tests / assertions).
    pub fn node(&self, w: WorkerId) -> &WorkerNode {
        &self.nodes[w.0 as usize]
    }

    /// Mutable access to a node (fault injection in tests).
    pub fn node_mut(&mut self, w: WorkerId) -> &mut WorkerNode {
        &mut self.nodes[w.0 as usize]
    }

    /// Wipe all caches (cold cluster), keeping learned speeds.
    pub fn clear_caches(&mut self) {
        for n in &mut self.nodes {
            n.store.clear();
        }
    }
}

/// Identification of one run for the record.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Worker-configuration preset name.
    pub worker_config: String,
    /// Job-configuration preset name.
    pub job_config: String,
    /// Iteration index within the session.
    pub iteration: u32,
    /// Root seed for this run.
    pub seed: u64,
}

impl Default for RunMeta {
    fn default() -> Self {
        RunMeta {
            worker_config: "custom".into(),
            job_config: "custom".into(),
            iteration: 0,
            seed: 0,
        }
    }
}

/// Result of one engine run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The §6.1 metrics and bookkeeping.
    pub record: RunRecord,
    /// Total simulation events delivered (complexity proxy). On a
    /// jitter-free control plane with reliable links a bid round counts
    /// once: a contest's requests are one event, and their bids
    /// another.
    pub events: u64,
    /// Which worker each job was (last) placed on, in placement order.
    /// Jobs redistributed after a crash appear once per placement.
    pub assignments: Vec<(JobId, WorkerId)>,
    /// Per-job lifecycle trace (empty unless
    /// [`EngineConfig::trace`] was set).
    pub trace: Trace,
    /// Scheduler-level protocol events — contests, crashes,
    /// redistributions (empty unless [`EngineConfig::trace`] was set).
    /// Shares its shape with the threaded runtime's log so the same
    /// invariants can be asserted on both.
    pub sched_log: SchedLog,
    /// Frozen end-of-run metrics (see [`crate::obs`] for the
    /// instrument vocabulary, shared with the threaded runtime).
    pub metrics: RegistrySnapshot,
    /// Reportable anomalies: conditions that did not abort the run but
    /// mean its results are suspect (e.g. the sim event queue clamping
    /// past-time events). Empty for a healthy run.
    pub anomalies: Vec<String>,
    /// End-of-run replica registry (`Some` iff
    /// [`ReplicationConfig::enabled`]): which live workers hold each
    /// artifact. Property tests replay the log's replica events and
    /// assert they reconstruct exactly this map.
    pub replicas: Option<ReplicaMap>,
}

#[derive(Clone)]
enum Ev {
    Arrival(JobSpec),
    WorkerRecv {
        worker: WorkerId,
        msg: ToWorker,
    },
    /// `seq`: the placement a `Reject` answers (0 for anything else).
    MasterRecv {
        from: WorkerId,
        msg: WorkerToMaster,
        seq: u64,
    },
    /// A bid round's requests land at every worker in `to`, in order.
    /// Only where every control message takes one fixed delay: each of
    /// them would have been its own `WorkerRecv`, due at this instant,
    /// with consecutive seqs (see [`Engine::solicit`]).
    Solicit {
        job: Job,
        to: Vec<WorkerId>,
    },
    /// The bids a round's requests drew land at the master, in request
    /// order: each would have been its own `MasterRecv`, due at this
    /// instant, with consecutive seqs.
    Bids {
        job: JobId,
        bids: Vec<(WorkerId, f64)>,
    },
    Done {
        worker: WorkerId,
        job: Job,
    },
    Timer(u64),
    /// The transfer of the worker's current input lands.
    FetchDone {
        worker: WorkerId,
        epoch: u64,
    },
    ProcDone {
        worker: WorkerId,
        epoch: u64,
    },
    /// A scheduled change to a worker (a crash or recovery, a join,
    /// drain or removal) fires.
    Change(WorkerId, Change),
    /// A stranded or bounced job re-enters allocation.
    Redispatch(Job),
    /// A message envelope crossing a lossy link. `env` identifies the
    /// physical send: a network duplicate shares it (and is discarded
    /// by the receiver), a retransmission gets a fresh one (and is
    /// deduplicated semantically, by job id / placement seq).
    NetDeliver {
        env: u64,
        inner: Box<Ev>,
    },
    /// Worker → master: "I hold assignment `seq` of `job`".
    AssignAck {
        worker: WorkerId,
        job: JobId,
        seq: u64,
    },
    /// A ledger deadline of placement `seq` of `job`: its next
    /// retransmission or its lease.
    PlacementDue {
        job: JobId,
        seq: u64,
    },
    /// Worker-side retransmission timer for an unacked `Done`.
    DoneRetry {
        worker: WorkerId,
        job: JobId,
        epoch: u64,
    },
    /// Periodic idle re-announcement, so a dropped `Idle` only delays
    /// the pull loop.
    IdleBeat(WorkerId),
    /// Periodic straggler sweep over in-flight DAG tasks (armed only
    /// while an atomized job is active).
    SpecCheck,
    /// A peer fetch attempt was lost on the data plane and its wait
    /// timed out; the worker retries (after a seeded backoff) or
    /// degrades to a master fetch.
    PeerFetchTimeout {
        worker: WorkerId,
        epoch: u64,
    },
    /// Backoff elapsed: start the next peer-fetch attempt.
    PeerFetchRetry {
        worker: WorkerId,
        epoch: u64,
    },
    /// A re-replication copy completes at its destination worker.
    RepairArrive {
        object: ObjectId,
        dest: WorkerId,
    },
}

struct Engine<'a> {
    cfg: &'a EngineConfig,
    q: EventQueue<Ev>,
    /// The worker cores, alive or not (see [`WorkerNode`]).
    nodes: &'a mut Vec<WorkerNode>,
    assignments: Vec<(JobId, WorkerId)>,
    trace: Option<Trace>,
    /// The master shared with the threaded runtime: the scheduler and
    /// its roster (what it believes of every worker: the sim notices a
    /// crash at once, so believed live is alive), the replicated log
    /// (`Some` when tracing *or* when master faults are armed —
    /// failover replays it; `None` keeps the bench hot path free of any
    /// logging), ids, counts, DAG bookkeeping, the placement ledger
    /// (under an active net-fault plan), retained payloads and the
    /// metrics handle.
    core: MasterCore,
    /// The allocator that built the scheduler — failover drafts the
    /// standby replica's fresh one from it.
    allocator: &'a dyn Allocator,
    workflow: &'a mut Workflow,
    /// A `SpecCheck` event is in flight — keeps exactly one straggler
    /// sweep armed at a time.
    spec_check_armed: bool,

    rng_control: RngStream,

    arrivals_total: u64,
    arrivals_seen: u64,
    last_completion: SimTime,
    down_since: Vec<Option<SimTime>>,
    downtime_secs: f64,

    // Net-fault layer state. All of it is inert (and none of it costs
    // an rng draw) when `net_active` is false.
    net_active: bool,
    rng_net: RngStream,
    /// Next envelope id for a physical lossy send.
    next_env: u64,
    /// Envelopes already delivered — network duplicates are dropped.
    seen_envs: HashSet<u64>,

    /// The replica plane, whose rules the threaded runtime runs too;
    /// `None` without replication — no extra rng draws, no extra
    /// events, no log entries.
    plane: Option<ReplicaPlane>,
    /// The live peers of the fetch being started (reused, so a fetch
    /// allocates nothing).
    peers: Vec<WorkerId>,
    /// The one control delay, where every message takes it and no link
    /// is lossy: bid rounds then travel as one event each way. `None`
    /// sends each request and each bid on its own.
    rounds: Option<SimDuration>,
    /// Emptied recipient and bid lists of delivered rounds, reused by
    /// the next ones, so a contest allocates nothing.
    spare_to: Vec<Vec<WorkerId>>,
    spare_bids: Vec<Vec<(WorkerId, f64)>>,
    /// `IdleBeat` events in the queue: when they are all it holds,
    /// nothing but a heartbeat can still happen.
    beats: usize,
}

impl<'a> Engine<'a> {
    fn note_trace(&mut self, job: JobId, worker: WorkerId, kind: TraceKind) {
        let at = self.q.now();
        if let Some(t) = &mut self.trace {
            t.push(TraceEvent {
                job,
                worker,
                kind,
                at,
            });
        }
    }

    /// One control message across the link with `worker` (`to_worker`
    /// picks the direction), landing a sampled control latency plus
    /// `extra` from now — across the lossy link under an active
    /// net-fault plan.
    fn send(&mut self, to_worker: bool, worker: WorkerId, extra: SimDuration, ev: Ev) {
        self.core.m.control_messages.inc();
        let d = self.cfg.control.delay(&mut self.rng_control) + extra;
        if self.net_active {
            self.deliver_lossy(to_worker, worker, d, ev);
        } else {
            self.q.schedule_in(d, ev);
        }
    }

    fn send_to_worker(&mut self, worker: WorkerId, msg: ToWorker) {
        self.send(
            true,
            worker,
            SimDuration::ZERO,
            Ev::WorkerRecv { worker, msg },
        );
    }

    fn send_to_master(
        &mut self,
        from: WorkerId,
        msg: WorkerToMaster,
        seq: u64,
        extra: SimDuration,
    ) {
        self.send(false, from, extra, Ev::MasterRecv { from, msg, seq });
    }

    /// Push `ev` across the lossy link with `worker` (direction picked
    /// by `to_worker`): partition windows and drop probability may eat
    /// it, duplication delivers it twice under one envelope id, and
    /// extra uniform delay stretches `base`.
    fn deliver_lossy(&mut self, to_worker: bool, worker: WorkerId, base: SimDuration, ev: Ev) {
        let plan = &self.cfg.netfaults;
        let link = if to_worker {
            plan.to_worker
        } else {
            plan.to_master
        };
        if plan.partitioned(worker, self.q.now())
            || (link.drop_prob > 0.0 && self.rng_net.chance(link.drop_prob))
        {
            self.core.m.net_dropped.inc();
            return;
        }
        let extra = |rng: &mut RngStream| {
            if link.delay_max_secs > 0.0 {
                SimDuration::from_secs_f64(rng.uniform(link.delay_min_secs, link.delay_max_secs))
            } else {
                SimDuration::ZERO
            }
        };
        let env = self.next_env;
        self.next_env += 1;
        if link.dup_prob > 0.0 && self.rng_net.chance(link.dup_prob) {
            self.core.m.net_duplicated.inc();
            let d = base + extra(&mut self.rng_net);
            self.q.schedule_in(
                d,
                Ev::NetDeliver {
                    env,
                    inner: Box::new(ev.clone()),
                },
            );
        }
        let d = base + extra(&mut self.rng_net);
        self.q.schedule_in(
            d,
            Ev::NetDeliver {
                env,
                inner: Box::new(ev),
            },
        );
    }

    /// Put a placement on the wire, with its deadlines on the clock.
    fn deliver(&mut self, d: Delivery) {
        let (job, seq) = (d.job.id, d.seq);
        for at in [d.retry, d.lease].into_iter().flatten() {
            self.q.schedule_at(at, Ev::PlacementDue { job, seq });
        }
        let (worker, msg) = (d.worker, ToWorker::placement(d));
        self.send_to_worker(worker, msg);
    }

    /// Run one scheduler callback through the core, then turn what it
    /// decided into events.
    fn run_master<F: FnOnce(&mut dyn MasterScheduler, &mut SchedCtx)>(&mut self, f: F) {
        self.core.decide(self.q.now(), f);
        self.apply();
    }

    /// Carry out the core's effects, in order.
    fn apply(&mut self) {
        let mut fx = self.core.take_effects();
        for e in fx.drain(..) {
            match e {
                Effect::Send(d) => self.deliver(d),
                Effect::Solicit { job, to } => self.solicit(job, to),
                Effect::Timer { delay, token } => self.q.schedule_in(delay, Ev::Timer(token)),
                Effect::Repool(worker) => self.q.schedule_now(Ev::MasterRecv {
                    from: worker,
                    msg: WorkerToMaster::Idle,
                    seq: 0,
                }),
                Effect::Announce(worker) => {
                    self.send_to_master(worker, WorkerToMaster::Idle, 0, SimDuration::ZERO);
                }
            }
        }
        self.core.put_effects(fx);
    }

    /// Ask the workers at `to` in [`MasterCore::solicited`] to bid on
    /// `job`. On fixed links the round is one `Ev::Solicit`: the
    /// requests would have been scheduled one after another for one
    /// instant, so their seqs would be consecutive and they would pop
    /// one after another; the round pops at the first one's place in
    /// `(time, seq)` order. Each still counts as a control message.
    fn solicit(&mut self, job: Job, to: Range<usize>) {
        let Some(d) = self.rounds else {
            for i in to {
                let worker = self.core.solicited()[i];
                self.send_to_worker(worker, ToWorker::BidRequest(job.clone()));
            }
            return;
        };
        if to.is_empty() {
            return;
        }
        self.core.m.control_messages.add(to.len() as u64);
        let mut round = self.spare_to.pop().unwrap_or_default();
        round.extend_from_slice(&self.core.solicited()[to]);
        self.q.schedule_in(d, Ev::Solicit { job, to: round });
    }

    /// A round's requests land: each recipient answers in turn (a dead
    /// one does not), and the bids go back as one `Ev::Bids`. Each
    /// request would have scheduled exactly one bid or nothing, so the
    /// bids too would have had consecutive seqs and one instant.
    fn answer_round(&mut self, job: Job, mut to: Vec<WorkerId>) {
        let mut bids = self
            .spare_bids
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(to.len()));
        for &worker in &to {
            if let Some(est) = self.bid(worker, &job) {
                bids.push((worker, est));
            }
        }
        to.clear();
        self.spare_to.push(to);
        if bids.is_empty() {
            self.spare_bids.push(bids);
            return;
        }
        self.core.m.control_messages.add(bids.len() as u64);
        let d = self.rounds.expect("rounds travel only on fixed links");
        let bids = Ev::Bids { job: job.id, bids };
        self.q.schedule_in(d + self.cfg.bid_compute_delay, bids);
    }

    /// A round's bids land: the master takes them in as few intakes as
    /// its decisions allow ([`MasterCore::take_bids`]) — the bids up
    /// to the one that decides, then the late ones — carrying out each
    /// intake's effects before the next, and electing a standby before
    /// the next if one crashed the leader, as the main loop does
    /// between two events.
    fn take_bids(&mut self, job: JobId, mut bids: Vec<(WorkerId, f64)>) {
        let mut rest = &bids[..];
        while !rest.is_empty() {
            if self.core.failover_pending() {
                self.do_failover();
            }
            let taken = self.core.take_bids(self.q.now(), job, rest);
            self.apply();
            rest = &rest[taken..];
        }
        bids.clear();
        self.spare_bids.push(bids);
    }

    /// `worker`'s answer to a bid request for `job`: its estimate, or
    /// `None` if it is dead or declines to bid.
    fn bid(&mut self, worker: WorkerId, job: &Job) -> Option<f64> {
        let peers = self.peer_priced(worker, job);
        self.nodes[worker.0 as usize].bid(self.q.now(), job, peers)
    }

    /// A worker message reaches the master. A Reject is the nack of an
    /// offer; only a fresh, finite bid into an open contest is logged,
    /// and a draining or departed worker's `Idle` and bids are dropped
    /// (see [`MasterCore::receive`]).
    fn master_recv(&mut self, from: WorkerId, msg: WorkerToMaster, seq: u64) {
        self.core.receive(self.q.now(), from, msg, seq);
        self.apply();
    }

    /// Take placement `seq` of `job` in at `worker` (see
    /// [`WorkerNode::intake`]) and act on the outcome.
    fn intake(&mut self, worker: WorkerId, job: Job, seq: u64, offer: bool) {
        let now = self.q.now();
        let peers = offer && self.peer_priced(worker, &job);
        match self.nodes[worker.0 as usize].intake(now, job, seq, offer, peers) {
            Some(Intake::Taken { job, queued, ack }) => {
                if ack {
                    // The ack crosses the lossy worker→master link like
                    // any other control message.
                    self.send(
                        false,
                        worker,
                        SimDuration::ZERO,
                        Ev::AssignAck { worker, job, seq },
                    );
                }
                if queued {
                    self.core.m.assignments.inc();
                    self.assignments.push((job, worker));
                    self.note_trace(job, worker, TraceKind::Queued);
                    self.maybe_start(worker);
                }
            }
            // The Rejected log entry is written when the reject
            // *reaches the master*, not here: the log is the master's
            // replicated state, and an in-flight reject must not look
            // applied to a standby replaying after failover.
            Some(Intake::Declined(job)) => {
                let reject = WorkerToMaster::Reject { job };
                self.send_to_master(worker, reject, seq, SimDuration::ZERO);
            }
            None => unreachable!("a dead addressee's placement bounces"),
        }
    }

    /// Start the worker's next queued job, if it is free.
    fn maybe_start(&mut self, w: WorkerId) {
        let Some(s) = self.nodes[w.0 as usize].start(self.q.now()) else {
            return;
        };
        self.note_trace(s.job, w, TraceKind::Started);
        self.core.m.queue_wait_secs.record(s.waited);
        let epoch = s.epoch;
        match s.proc {
            Some(d) => self.q.schedule_in(d, Ev::ProcDone { worker: w, epoch }),
            None => self.fetch(w, epoch),
        }
    }

    /// Start (or retry) the transfer of `w`'s missing input, from the
    /// live peers holding it or from the master ([`WorkerNode::fetch`]).
    fn fetch(&mut self, w: WorkerId, epoch: u64) {
        let now = self.q.now();
        self.peers.clear();
        let missing = self.nodes[w.0 as usize].missing();
        if let (Some(obj), Some(plane)) = (missing, &self.plane) {
            plane.peers(obj, w, &mut self.peers);
        }
        let Some(step) = self.nodes[w.0 as usize].fetch(now, epoch, &self.peers) else {
            return;
        };
        if let Some((job, req)) = step.req {
            self.core.commit(now, Some(w), Some(job), req);
        }
        let ev = if step.lost {
            Ev::PeerFetchTimeout { worker: w, epoch }
        } else {
            Ev::FetchDone { worker: w, epoch }
        };
        self.q.schedule_in(step.d, ev);
    }

    /// Return a job to the master through the monitoring layer: it
    /// re-enters allocation after the fault-detection delay. If no
    /// worker is alive, keep retrying — the job waits for a recovery.
    fn bounce(&mut self, job: Job) {
        self.q
            .schedule_in(self.cfg.faults.detection_delay, Ev::Redispatch(job));
    }

    /// Would `w` fetch `job`'s input from a live peer? Then it prices
    /// the peer transfer ([`WorkerNode::bid`]).
    fn peer_priced(&self, w: WorkerId, job: &Job) -> bool {
        self.plane.as_ref().is_some_and(|p| {
            job.resource
                .is_some_and(|r| !self.nodes[w.0 as usize].holds(r.id) && p.has_peer(r.id, w))
        })
    }

    /// Commit what the replica plane journaled, make the repair copies
    /// it starts ([`ReplicaPlane::repair`]) and apply its pins.
    fn replicate(&mut self) {
        let Some(plane) = &mut self.plane else {
            return;
        };
        let now = self.q.now();
        let (q, nodes, cfg) = (&mut self.q, &mut *self.nodes, self.cfg);
        plane.repair(&mut self.core, now, |obj, dest, bytes| {
            copy(q, nodes, cfg, obj, dest, bytes);
        });
        while let Some(w) = plane.dirty() {
            plane.pin(w, &mut nodes[w.0 as usize].store);
        }
    }

    /// `w`'s copies leave the replica plane, and what falls under its
    /// factor is re-replicated.
    fn drop_replicas(&mut self, w: WorkerId) {
        if let Some(p) = &mut self.plane {
            p.drop_worker(w);
        }
        self.replicate();
    }

    /// A repair copy of `obj` reaches `dest` ([`ReplicaPlane::land`]).
    fn land_repair(&mut self, obj: ObjectId, dest: WorkerId) {
        let plane = self
            .plane
            .as_mut()
            .expect("repairs run only under replication");
        match plane.land(&self.core, obj, dest) {
            Landing::Stale => {}
            Landing::Reroute(to, bytes) => copy(&mut self.q, self.nodes, self.cfg, obj, to, bytes),
            Landing::Park => {
                let d = SimDuration::from_secs_f64(self.cfg.replication.fetch_timeout_secs);
                self.q
                    .schedule_in(d, Ev::RepairArrive { object: obj, dest });
            }
            Landing::Insert(bytes) => {
                let store = &mut self.nodes[dest.0 as usize].store;
                plane.insert(dest, store, obj, bytes, self.q.now());
                self.replicate();
            }
        }
    }

    fn handle(&mut self, ev: Ev) {
        let now = self.q.now();
        match ev {
            Ev::Arrival(spec) => {
                self.arrivals_seen += 1;
                let atomized = self.core.arrive(now, spec);
                self.apply();
                if atomized && !self.spec_check_armed {
                    self.spec_check_armed = true;
                    let d = SimDuration::from_secs_f64(self.cfg.atomize.spec_check_secs);
                    self.q.schedule_in(d, Ev::SpecCheck);
                }
            }
            Ev::WorkerRecv { worker, msg } => self.worker_recv(worker, msg),
            Ev::MasterRecv { from, msg, seq } => self.master_recv(from, msg, seq),
            Ev::Solicit { job, to } => self.answer_round(job, to),
            Ev::Bids { job, bids } => self.take_bids(job, bids),
            Ev::Timer(token) => {
                self.run_master(|m, ctx| m.on_timer(token, ctx));
            }
            Ev::FetchDone { worker, epoch } => self.fetched(worker, epoch),
            Ev::PeerFetchTimeout { worker, epoch } => self.fetch_lost(worker, epoch),
            Ev::PeerFetchRetry { worker, epoch } => self.fetch(worker, epoch),
            Ev::RepairArrive { object, dest } => self.land_repair(object, dest),
            Ev::ProcDone { worker, epoch } => self.finished(worker, epoch),
            Ev::Done { worker, job } => self.done(worker, job),
            Ev::Redispatch(job) => {
                // A late bounce of a job that completed elsewhere, or
                // of a cancelled losing attempt stranded by a crash
                // (accounted at `SpecCancel`): neither re-enters.
                if self.core.is_done(job.id) || self.core.dag().is_cancelled(job.id) {
                    return;
                }
                if self.core.any_eligible() {
                    self.core.m.jobs_redistributed.inc();
                    self.core
                        .commit(now, None, Some(job.id), SchedEventKind::Redistributed);
                    self.run_master(|m, ctx| m.on_job(job, ctx));
                } else {
                    // Nobody alive: wait for a recovery.
                    self.bounce(job);
                }
            }
            Ev::Change(w, change) => match change {
                Change::Crash => self.crash(w),
                Change::Recover => self.recover(w),
                Change::Join => self.join_worker(w),
                Change::Drain => self.drain_worker(w),
                Change::Remove => self.remove_worker(w),
            },
            Ev::NetDeliver { env, inner } => {
                if self.seen_envs.insert(env) {
                    self.handle(*inner);
                } else {
                    self.core.m.net_dedup_hits.inc();
                }
            }
            Ev::AssignAck { worker, job, seq } => self.core.ack(now, worker, job, seq),
            Ev::PlacementDue { job, seq } => {
                if let Some(d) = self.core.resend(now, job, seq) {
                    self.deliver(d);
                }
                if let Some((_, Some(job))) = self.core.expire(now, job, seq) {
                    self.run_master(|m, ctx| m.on_job(job, ctx));
                }
            }
            Ev::DoneRetry { worker, job, epoch } => self.resend_done(worker, job, epoch),
            Ev::IdleBeat(worker) => {
                self.beats -= 1;
                self.idle_beat(worker);
            }
            Ev::SpecCheck => {
                if !self.core.dag().is_active() {
                    // Every DAG drained; a later atomized arrival
                    // re-arms the sweep.
                    self.spec_check_armed = false;
                    return;
                }
                if let Some(job) = self.core.launch_straggler(now) {
                    self.run_master(|m, ctx| m.on_job(job, ctx));
                }
                let d = SimDuration::from_secs_f64(self.cfg.atomize.spec_check_secs);
                self.q.schedule_in(d, Ev::SpecCheck);
            }
        }
    }

    /// A control message reaches `worker`.
    fn worker_recv(&mut self, worker: WorkerId, msg: ToWorker) {
        match msg {
            _ if !self.nodes[worker.0 as usize].alive() => {
                // The addressee is dead. A placement bounces back
                // through the monitoring layer — unless the ledger no
                // longer places it here (a crash reclaimed it, or it
                // moved on); a bid request simply goes unanswered (the
                // contest resolves by timeout).
                if let ToWorker::Assign { job, seq } | ToWorker::Offer { job, seq } = msg {
                    if self.core.settle(job.id, Settle::Bounced(worker, seq)) {
                        self.bounce(job);
                    }
                }
            }
            ToWorker::Assign { job, seq } => self.intake(worker, job, seq, false),
            ToWorker::Offer { job, seq } => self.intake(worker, job, seq, true),
            ToWorker::AckDone(job) => {
                self.nodes[worker.0 as usize].ack_done(job);
                // A draining worker must not depart while a completion
                // report is still unacknowledged; this ack may have
                // been the last thing holding the drain open.
                self.maybe_finish_drain(worker);
            }
            ToWorker::Shutdown => unreachable!("the sim runs no worker threads"),
            ToWorker::BidRequest(job) => {
                if let Some(est) = self.bid(worker, &job) {
                    let bid = WorkerToMaster::Bid {
                        job: job.id,
                        estimate_secs: est,
                    };
                    self.send_to_master(worker, bid, 0, self.cfg.bid_compute_delay);
                }
            }
        }
    }

    /// The transfer of `worker`'s input lands: the store takes it, the
    /// replica plane hears of it, and processing starts.
    fn fetched(&mut self, worker: WorkerId, epoch: u64) {
        let now = self.q.now();
        let Some(f) = self.nodes[worker.0 as usize].fetched(now, epoch) else {
            return;
        };
        if let Some((job, ok)) = f.ok {
            self.core.commit(now, Some(worker), Some(job), ok);
        }
        self.core.m.fetch_secs.record(f.secs);
        if let Some(p) = &mut self.plane {
            p.inserted(
                worker,
                &self.nodes[worker.0 as usize].store,
                f.object,
                f.bytes,
            );
        }
        self.replicate();
        self.note_trace(f.job, worker, TraceKind::Fetched);
        self.q.schedule_in(f.proc, Ev::ProcDone { worker, epoch });
    }

    /// A peer transfer to `worker` was lost: back off and retry, or
    /// fall back to the master.
    fn fetch_lost(&mut self, worker: WorkerId, epoch: u64) {
        let Some(lost) = self.nodes[worker.0 as usize].fetch_lost(epoch) else {
            return;
        };
        let (job, fail) = lost.fail;
        self.core
            .commit(self.q.now(), Some(worker), Some(job), fail);
        self.core.m.peer_retries.inc();
        match lost.backoff {
            Some(d) => self.q.schedule_in(d, Ev::PeerFetchRetry { worker, epoch }),
            None => self.fetch(worker, epoch),
        }
    }

    /// `worker` finishes the job in hand and reports it (Listing 2 line
    /// 14): one control message carrying the completed job — resent,
    /// under the net-fault layer, until it is acked.
    fn finished(&mut self, worker: WorkerId, epoch: u64) {
        let Some(f) = self.nodes[worker.0 as usize].finish(self.q.now(), epoch) else {
            return;
        };
        self.core.m.proc_secs.record(f.report.proc_secs);
        let job = f.report.job.id;
        self.note_trace(job, worker, TraceKind::Finished);
        let done = Ev::Done {
            worker,
            job: f.report.job,
        };
        self.send(false, worker, SimDuration::ZERO, done);
        if let Some(rd) = f.resend {
            self.q.schedule_in(rd, Ev::DoneRetry { worker, job, epoch });
        }
        // If the queue drained, the worker announces idleness (the
        // Baseline's next pull).
        if f.idle {
            self.send_to_master(worker, WorkerToMaster::Idle, 0, SimDuration::ZERO);
        }
        self.maybe_start(worker);
        self.maybe_finish_drain(worker);
    }

    /// A completion report reaches the master.
    fn done(&mut self, worker: WorkerId, job: Job) {
        self.core.settle(job.id, Settle::Done);
        if self.net_active {
            // Ack every delivery — including semantic duplicates, whose
            // sender is still retransmitting.
            let d = self.cfg.control.delay(&mut self.rng_control);
            let msg = ToWorker::AckDone(job.id);
            self.deliver_lossy(true, worker, d, Ev::WorkerRecv { worker, msg });
        }
        // A duplicate delivery, or the report of a copy a lease bounce
        // re-placed, is swallowed by the core's dedup.
        self.complete_at_master(worker, job);
    }

    /// `worker` resends an unacked completion report.
    fn resend_done(&mut self, worker: WorkerId, job: JobId, epoch: u64) {
        let now = self.q.now();
        let Some(r) = self.nodes[worker.0 as usize].resend(now, job, epoch) else {
            return;
        };
        self.core.m.net_retries.inc();
        let resent = SchedEventKind::Resent { attempt: r.attempt };
        self.core.commit(now, Some(worker), Some(job), resent);
        let done = Ev::Done {
            worker,
            job: r.report.job,
        };
        self.send(false, worker, SimDuration::ZERO, done);
        if let Some(d) = r.next {
            self.q.schedule_in(d, Ev::DoneRetry { worker, job, epoch });
        }
    }

    /// `worker`'s idle heartbeat: re-announce idleness, and beat again.
    fn idle_beat(&mut self, worker: WorkerId) {
        let w = worker.0 as usize;
        if self.nodes[w].idle() && self.core.eligible(worker) {
            self.send_to_master(worker, WorkerToMaster::Idle, 0, SimDuration::ZERO);
        }
        // A departed worker never comes back — let its beat die.
        let departed = self.core.member(worker).stage == Stage::Departed;
        if !departed && (self.nodes[w].alive() || !self.cfg.faults.is_empty()) {
            self.beat_later(worker);
        }
    }

    /// Arm `worker`'s next idle heartbeat.
    fn beat_later(&mut self, worker: WorkerId) {
        let beat = SimDuration::from_secs_f64(self.cfg.netfaults.retry.heartbeat_secs);
        self.q.schedule_in(beat, Ev::IdleBeat(worker));
        self.beats += 1;
    }

    /// A scheduled crash: the instance dies, and the sim's monitoring
    /// layer notices at once — `w` leaves the roster now, and what it
    /// owed re-enters allocation after the detection delay.
    fn crash(&mut self, w: WorkerId) {
        let now = self.q.now();
        if !self.nodes[w.0 as usize].alive() || !self.core.crash(now, w) {
            return;
        }
        self.down_since[w.0 as usize] = Some(now);
        let stranded = self.nodes[w.0 as usize].crash(now);
        self.core.lose(now, w);
        self.apply();
        self.clear_out(w, stranded, self.cfg.faults.detection_delay);
    }

    /// `w`'s instance is gone, `stranded` with it: its copies leave the
    /// replica registry (re-replicating what falls under its factor),
    /// what it owes ([`MasterCore::reclaim`]) re-enters allocation
    /// after `delay`.
    fn clear_out(&mut self, w: WorkerId, stranded: Vec<Job>, delay: SimDuration) {
        self.drop_replicas(w);
        for job in self.core.reclaim(w, None, stranded) {
            self.q.schedule_in(delay, Ev::Redispatch(job));
        }
    }

    /// A scheduled recovery: a fresh incarnation comes up, unless `w`
    /// departed for good.
    fn recover(&mut self, w: WorkerId) {
        let (i, now) = (w.0 as usize, self.q.now());
        if self.nodes[i].alive() || !self.core.recover(now, w) {
            return;
        }
        if let Some(since) = self.down_since[i].take() {
            self.downtime_secs += now.saturating_since(since).as_secs_f64();
        }
        self.nodes[i].recover();
        if let Some(p) = &mut self.plane {
            p.up(w);
        }
        self.apply();
        // A worker that crashed mid-drain recovers with an empty queue
        // (the crash bounced everything); its drain completes here.
        self.maybe_finish_drain(w);
    }

    /// A deferred worker joins the cluster and, under the net-fault
    /// layer, starts its idle heartbeat.
    fn join_worker(&mut self, w: WorkerId) {
        let i = w.0 as usize;
        if self.nodes[i].alive() || !self.core.join(self.q.now(), w) {
            return;
        }
        self.nodes[i].recover();
        if let Some(p) = &mut self.plane {
            p.up(w);
        }
        self.apply();
        if self.net_active {
            self.beat_later(w);
        }
    }

    /// Begin draining a worker; it departs once it owes nothing.
    fn drain_worker(&mut self, w: WorkerId) {
        if self.core.drain(self.q.now(), w) {
            self.apply();
            self.maybe_finish_drain(w);
        }
    }

    /// Complete a drain if the worker is up and owes nothing — no job
    /// queued or in hand and, under the net-fault layer, no completion
    /// report unacked ([`WorkerNode::settled`]). Called from every site
    /// that could clear the last obligation.
    fn maybe_finish_drain(&mut self, w: WorkerId) {
        let node = &self.nodes[w.0 as usize];
        if self.core.member(w).stage != Stage::Draining || !node.alive() || !node.settled() {
            return;
        }
        self.nodes[w.0 as usize].depart();
        self.core.remove(self.q.now(), w);
        self.apply();
        // The departed worker's copies leave the cluster with it.
        self.drop_replicas(w);
    }

    /// Administrative removal: the worker leaves *now*. Unlike a crash
    /// there is no failure-detection delay — the control plane knows,
    /// so stranded work re-enters allocation immediately — and unlike a
    /// drain the queue does not finish; it is reclaimed.
    fn remove_worker(&mut self, w: WorkerId) {
        let (i, now) = (w.0 as usize, self.q.now());
        if !self.core.remove(now, w) {
            return;
        }
        // Removal ends any crash-recovery wait; the downtime clock
        // stops here rather than running to the makespan.
        if let Some(since) = self.down_since[i].take() {
            self.downtime_secs += now.saturating_since(since).as_secs_f64();
        }
        let stranded = if self.nodes[i].alive() {
            self.nodes[i].crash(now)
        } else {
            Vec::new()
        };
        self.apply();
        self.clear_out(w, stranded, SimDuration::ZERO);
    }

    fn complete_at_master(&mut self, worker: WorkerId, job: Job) {
        let now = self.q.now();
        let Completion::Counted(outcome) = self.core.complete(now, worker, job.id) else {
            // A cancelled loser's late report (a duplicate delivery
            // never gets here): no downstream effects.
            return;
        };
        self.last_completion = self.last_completion.max(now);
        if let DoneOutcome::Effective { output, .. } = &outcome {
            // The task's output artifact materializes on the executing
            // worker — downstream bids price against it.
            let store = &mut self.nodes[worker.0 as usize].store;
            match &mut self.plane {
                Some(p) => p.insert(worker, store, output.id, output.bytes, now),
                None => {
                    store.insert(output.id, output.bytes, now);
                }
            }
            self.replicate();
        }
        self.core
            .follow_up(now, worker, &job, outcome, self.workflow);
        self.apply();
    }

    /// Elect a standby replica after a leader crash: replay the
    /// committed log into a [`crate::replog::SchedState`], seat a fresh
    /// scheduler drafted from the allocator, and re-enter everything
    /// the state says is unfinished — open contests are re-offered from
    /// scratch, unplaced jobs re-enter allocation, and idle workers
    /// re-announce themselves so pull-based schedulers resume.
    fn do_failover(&mut self) {
        let now = self.q.now();
        let Takeover { unplaced, frontier } = self.core.takeover(now, self.allocator.master());
        // Idle workers on the roster re-announce themselves so the
        // pull loop restarts under the new leader.
        for i in 0..self.nodes.len() {
            if self.nodes[i].idle() && self.core.eligible(WorkerId(i as u32)) {
                self.q.schedule_at(
                    now,
                    Ev::MasterRecv {
                        from: WorkerId(i as u32),
                        msg: WorkerToMaster::Idle,
                        seq: 0,
                    },
                );
            }
        }
        // Jobs the committed log proves submitted-but-unplaced re-enter
        // allocation exactly once. Placed jobs are left alone: their
        // worker (or the ledger's lease) still owns them, and
        // completions route to the new leader unchanged.
        for job in unplaced {
            self.core.decide(now, |m, ctx| m.on_job(job, ctx));
        }
        // Tasks whose release truncated with the dead leader are
        // released afresh (new term, fresh ids).
        for (root, idx, spec) in frontier {
            self.core.offer_task(now, root, idx, spec);
        }
        self.apply();
        // The new leader rescans for repairs; copies in flight keep
        // going under their committed starts.
        if let Some(p) = &mut self.plane {
            p.rescan();
        }
        self.replicate();
    }
}

/// Schedule the physical copy of one repair, `bytes` of `obj` to
/// `dest` ([`ReplicationConfig::repair_copy`]): one draw on `dest`'s
/// stream.
fn copy(
    q: &mut EventQueue<Ev>,
    nodes: &mut [WorkerNode],
    cfg: &EngineConfig,
    obj: ObjectId,
    dest: WorkerId,
    bytes: u64,
) {
    let full = nodes[dest.0 as usize].transfer(bytes);
    let d = cfg.replication.repair_copy(&cfg.netfaults, obj, dest, full);
    q.schedule_in(d, Ev::RepairArrive { object: obj, dest });
}

#[cfg(test)]
thread_local! {
    /// Send every bid request and every bid as its own event even where
    /// a round could travel as one: the reference of the differential
    /// proptest below.
    static PER_MESSAGE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The one delay every control message takes, if bid rounds may travel
/// as one event each way: the control plane has no jitter and no link
/// is lossy.
fn per_round(cfg: &EngineConfig) -> Option<SimDuration> {
    #[cfg(test)]
    if PER_MESSAGE.get() {
        return None;
    }
    cfg.control.fixed().filter(|_| !cfg.netfaults.is_active())
}

/// Execute `arrivals` through `workflow` on `cluster` under
/// `allocator`. Per-run worker state is reset first; caches and
/// learned speeds persist (use a fresh [`Cluster`] for a cold run).
///
/// # Panics
/// On an empty cluster, or on a [`EngineConfig::mutation`] in a build
/// without the `protocol-mutation` feature.
pub fn run_workflow(
    cluster: &mut Cluster,
    workflow: &mut Workflow,
    allocator: &dyn Allocator,
    arrivals: Vec<Arrival>,
    cfg: &EngineConfig,
    meta: &RunMeta,
) -> RunOutput {
    mutation::assert_armable(cfg.mutation);
    assert!(!cluster.is_empty(), "cannot run on an empty cluster");
    let seq = SeedSequence::new(meta.seed);
    let rules = WorkerRules {
        learning: cfg.speed_learning,
        reliable: cfg.netfaults.is_active(),
        net: cfg.netfaults.clone(),
        repl: cfg.replication,
    };
    for (i, n) in cluster.nodes.iter_mut().enumerate() {
        let id = WorkerId(i as u32);
        n.begin_run(
            id,
            rules.clone(),
            allocator.worker_policy(),
            seq.stream(100 + i as u64),
            !cfg.membership.is_deferred(id),
        );
    }
    let n_workers = cluster.nodes.len();
    let handles: Vec<WorkerHandle> = cluster
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| WorkerHandle {
            id: WorkerId(i as u32),
            name: n.spec.name.clone(),
        })
        .collect();

    // The arrival stream sleeps in the queue's backlog, and a bid round
    // due at once (the benchmark's instant control plane) is one event
    // each way in the same-instant lane; what is sized here is the heap
    // lane — in-flight work and contest timers, at most `n_workers` +
    // 37 to 56 on the benchmark's workloads, bid rounds or not —
    // with a floor generous enough that the heap lane never regrows
    // mid-run, when its new buffer would land among the run's growing
    // outputs (the floor is measured: `observe`'s peak RSS is 53 MB
    // in 17 runs of 20 with it, in 4 of 20 at `n_workers + 16`).
    let mut q = EventQueue::with_capacity(n_workers + 1024);
    let arrivals_total = arrivals.len() as u64;
    q.preload(arrivals.into_iter().map(|a| (a.at, Ev::Arrival(a.spec))));
    for (at, (w, change)) in changes(&cfg.faults, &cfg.membership) {
        q.schedule_at(at, Ev::Change(w, change));
    }
    // Workers announce themselves idle at startup (the initial pull).
    // A worker whose membership timeline starts with a join is dormant
    // until the join fires — no announcement, no heartbeat.
    for i in 0..n_workers {
        if cfg.membership.is_deferred(WorkerId(i as u32)) {
            continue;
        }
        q.schedule_at(
            SimTime::ZERO,
            Ev::MasterRecv {
                from: WorkerId(i as u32),
                msg: WorkerToMaster::Idle,
                seq: 0,
            },
        );
    }

    // Warm caches from earlier iterations seed the replica plane.
    let plane = cfg.replication.enabled.then(|| {
        let stores = cluster.nodes.iter().map(|n| (&n.store, n.alive()));
        ReplicaPlane::new(cfg.replication, cfg.mutation, stores)
    });
    let mut engine = Engine {
        cfg,
        q,
        nodes: &mut cluster.nodes,
        assignments: Vec::new(),
        trace: if cfg.trace { Some(Trace::new()) } else { None },
        core: MasterCore::new(
            (cfg.trace || !cfg.master_faults.is_empty())
                .then(|| ReplicatedLog::new(&cfg.master_faults)),
            cfg.shard,
            cfg.atomize,
            !cfg.master_faults.is_empty(),
            cfg.netfaults.is_active().then_some(&cfg.netfaults),
            RuntimeMetrics::from_sink(cfg.metrics.clone()),
            allocator.master(),
            handles,
            seq.stream(1),
            cfg.mutation,
        ),
        allocator,
        workflow,
        spec_check_armed: false,
        rng_control: seq.stream(0),
        arrivals_total,
        arrivals_seen: 0,
        last_completion: SimTime::ZERO,
        down_since: vec![None; n_workers],
        downtime_secs: 0.0,
        net_active: cfg.netfaults.is_active(),
        rng_net: SeedSequence::new(cfg.netfaults.seed).stream(0x4E37),
        next_env: 0,
        seen_envs: HashSet::new(),
        plane,
        peers: Vec::new(),
        rounds: per_round(cfg),
        spare_to: Vec::new(),
        spare_bids: Vec::new(),
        beats: 0,
    };
    engine.core.defer(&cfg.membership);
    // The warm copies' pins.
    engine.replicate();
    if engine.net_active {
        // Idle heartbeats: a dropped `Idle` must only delay the pull
        // loop, never wedge it.
        for i in 0..n_workers {
            if !cfg.membership.is_deferred(WorkerId(i as u32)) {
                engine.beat_later(WorkerId(i as u32));
            }
        }
    }

    // The threaded master's stall horizon: under an active net plan a
    // job can be lost for good (a mutated ledger arms no lease) while
    // the heartbeats keep the queue from draining. Once every arrival
    // is in, only heartbeats are left to fire and the log — untraced,
    // the completion count — has not moved for the horizon, the run is
    // over, and its losses are reported.
    let horizon = engine
        .net_active
        .then(|| SimDuration::from_secs_f64(cfg.netfaults.stall_horizon_secs()));
    let (mut progress, mut progressed) = (0, SimTime::ZERO);
    let mut stalled = false;
    while let Some((t, ev)) = engine.q.pop() {
        engine.handle(ev);
        // A leader crash observed while handling `ev` elects a standby
        // before the next event is delivered (the election happens
        // "between" engine events; its virtual cost is the control
        // latency of the re-announcements it schedules).
        if engine.core.failover_pending() {
            engine.do_failover();
        }
        if engine.arrivals_seen == engine.arrivals_total
            && engine.core.created() > 0
            && engine.core.completed() == engine.core.created()
            && engine.plane.as_ref().is_none_or(ReplicaPlane::settled)
        {
            // A committed repair must complete before the run ends —
            // the copies are in flight on the data plane and the
            // oracle holds the log to that promise.
            break;
        }
        if let Some(horizon) = horizon {
            let seen = engine.core.log_len() as u64 + engine.core.completed();
            if seen != progress {
                (progress, progressed) = (seen, t);
            } else if engine.arrivals_seen == engine.arrivals_total
                && engine.q.len() == engine.beats
                && t.saturating_since(progressed) > horizon
            {
                stalled = true;
                break;
            }
        }
        if engine.q.events_delivered() >= cfg.max_events {
            panic!(
                "engine exceeded max_events={} (scheduler livelock?)",
                cfg.max_events
            );
        }
    }
    let mut anomalies = Vec::new();
    let (created, completed) = (engine.core.created(), engine.core.completed());
    if stalled {
        anomalies.push(format!(
            "run stalled: {completed} of {created} jobs completed, and nothing but idle \
             heartbeats could still happen"
        ));
    } else {
        assert_eq!(
            completed, created,
            "conservation violated: {created} created vs {completed} completed"
        );
        assert!(
            !engine.core.dag().is_active(),
            "conservation violated: the run drained with a DAG still in flight"
        );
    }

    let makespan = engine.last_completion;
    let events = engine.q.events_delivered();
    // A nonzero clamp count means some event was scheduled into the
    // past and virtual time was silently rewritten; the run finished,
    // but its timing cannot be trusted. Count it and report it as an
    // anomaly instead of letting release builds hide it.
    let clamped = engine.q.clamped();
    engine.core.m.sim_clamped_events.add(clamped);
    if clamped > 0 {
        anomalies.push(format!(
            "event queue clamped {clamped} past-time event(s) to `now`; virtual timing is suspect"
        ));
    }
    let sched_stats = engine.core.sched_stats();
    let assignments = std::mem::take(&mut engine.assignments);
    let trace = engine.trace.take().unwrap_or_default();
    // Workers still down when the run ends are charged until the
    // makespan (or until their crash instant, whichever is later).
    let mut recovery_secs = engine.downtime_secs;
    for since in engine.down_since.iter().flatten() {
        recovery_secs += makespan.saturating_since(*since).as_secs_f64();
    }
    let replicas = engine.plane.as_ref().map(|p| p.map().clone());
    let mut core = engine.core;

    let mut wait = Welford::new();
    for n in &cluster.nodes {
        wait.merge(&n.wait);
    }
    let totals = RunTotals {
        scheduler: allocator.kind(),
        makespan_secs: makespan.as_secs_f64(),
        contests_timed_out: sched_stats.contests_timed_out,
        contests_fallback: sched_stats.contests_fallback,
        mean_queue_wait_secs: wait.mean(),
        recovery_secs,
    };
    let workers = cluster
        .nodes
        .iter()
        .map(|n| (*n.store.stats(), n.busy.average(makespan)));
    RunOutput {
        record: core.record(meta, totals, workers),
        events,
        assignments,
        trace,
        sched_log: core.take_log(),
        metrics: core.m.snapshot(),
        anomalies,
        replicas,
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use crossbid_storage::ObjectId;
    use proptest::prelude::*;

    use super::*;
    use crate::atomize::{TaskDag, TaskNode};
    use crate::bidding::stand_in::Bidding;
    use crate::bidding::BiddingConfig;
    use crate::job::{Payload, ResourceRef, TaskId};

    /// One random run on a fixed-latency control plane.
    #[derive(Debug, Clone)]
    struct Case {
        workers: u32,
        /// The one control delay and the bid delay, in ms (0 included).
        link_ms: u64,
        bid_ms: u64,
        /// Per arrival: the gap after the previous one in ms (often 0),
        /// and what arrives: 0 a diamond DAG whose source reads hot
        /// object 0, else a scan of one of the four hot objects.
        jobs: Vec<(u64, u8)>,
        /// (worker, crash instant, downtime in ms).
        crash: Option<(u32, At, u64)>,
        /// (worker, instant) of a drain and of a removal; worker 0
        /// never leaves.
        drain: Option<(u32, At)>,
        remove: Option<(u32, At)>,
        /// The append index the leader dies at.
        master: Option<u64>,
        /// Listing 1's options: a contest closes on the first bid of at
        /// most this many seconds — often before its round's last bid,
        /// so the rest of the round is late — and contests run one at a
        /// time, so a decision opens the next queued one.
        short_circuit: Option<u16>,
        serialize: bool,
    }

    /// A fault instant: arrival `k`'s contest opens (phase 0), its
    /// requests land (1) or its bids land (2); phase 3 is `k` ms.
    #[derive(Debug, Clone, Copy)]
    struct At(usize, u8);

    impl At {
        fn ms(self, case: &Case) -> u64 {
            let At(k, phase) = self;
            let arrival = |k: usize| case.jobs[..=k % case.jobs.len()].iter().map(|j| j.0).sum();
            match phase {
                0 => arrival(k),
                1 => arrival(k) + case.link_ms,
                2 => arrival(k) + 2 * case.link_ms + case.bid_ms,
                _ => k as u64,
            }
        }
    }

    fn case() -> impl Strategy<Value = Case> {
        let shape = (2u32..65, 0u64..3, 0u64..80, proptest::bool::ANY);
        let job = (0u64..2_000, 0u8..6).prop_map(|(gap, kind)| (gap.saturating_sub(800), kind));
        let jobs = proptest::collection::vec(job, 4..30);
        let at = || (0usize..20_000, 0u8..4).prop_map(|(k, phase)| At(k, phase));
        let faults = (
            proptest::option::of((0u32..64, at(), 1u64..15_000)),
            proptest::option::of((0u32..64, at())),
            proptest::option::of((0u32..64, at())),
            proptest::option::of(1u64..600),
        );
        let listing = (proptest::option::of(1u16..40), proptest::bool::ANY);
        let all = (shape, jobs, faults, listing);
        all.prop_map(|((n, link, ms, slow_bid), jobs, faults, listing)| {
            let (crash, drain, remove, master) = faults;
            let leaver = |(w, at): (u32, At)| (1 + w % (n - 1), at);
            let drain = drain.map(leaver);
            let remove = remove
                .map(leaver)
                .filter(|r| n >= 3 && drain.is_none_or(|d| d.0 != r.0));
            Case {
                workers: n,
                // A third of the runs on an instant control plane.
                link_ms: if link == 0 { 0 } else { ms + 1 },
                bid_ms: if slow_bid { 25 } else { 0 },
                jobs,
                crash: crash.map(|(w, at, down)| (w % n, at, down)),
                drain,
                remove,
                master,
                short_circuit: listing.0,
                serialize: listing.1,
            }
        })
    }

    fn arrivals(case: &Case, task: TaskId) -> Vec<Arrival> {
        let mut at = 0;
        let rr = |id, mb| ResourceRef {
            id: ObjectId(id),
            bytes: mb * 1_000_000,
        };
        let hot = |obj| rr(obj, 30 * (obj + 1));
        let node = |preds, input, out| TaskNode {
            preds,
            input: Some(input),
            output: rr(out, 5),
            work_bytes: 5_000_000,
            cpu_secs: 0.5,
        };
        let arrival = |(i, &(gap, kind)): (usize, &(u64, u8))| {
            at += gap;
            let spec = if kind == 0 {
                let out = 1_000 + 10 * i as u64;
                let dag = TaskDag::new(vec![
                    node(0b0, hot(0), out),
                    node(0b1, rr(out, 5), out + 1),
                    node(0b1, rr(out, 5), out + 2),
                    node(0b110, rr(out + 1, 5), out + 3),
                ]);
                JobSpec::atomized(task, dag.expect("a diamond"))
            } else {
                JobSpec::scanning(task, hot(kind as u64 % 4), Payload::Index(i as u64))
            };
            Arrival {
                at: SimTime::from_millis(at),
                spec,
            }
        };
        case.jobs.iter().enumerate().map(arrival).collect()
    }

    fn run(case: &Case, per_message: bool) -> RunOutput {
        let ms = SimTime::from_millis;
        let specs: Vec<WorkerSpec> = (0..case.workers)
            .map(|i| {
                WorkerSpec::builder(format!("w{i}"))
                    .net_mbps(10.0 + 15.0 * (i % 4) as f64)
                    .rw_mbps(100.0)
                    .storage_gb(1.0)
                    .build()
            })
            .collect();
        let mut faults = FaultPlan::new();
        if let Some((w, at, down)) = case.crash {
            let at = at.ms(case);
            faults = faults
                .crash_at(ms(at), WorkerId(w))
                .recover_at(ms(at + down), WorkerId(w));
        }
        let mut membership = MembershipPlan::new();
        if let Some((w, at)) = case.drain {
            membership = membership.drain_at(ms(at.ms(case)), WorkerId(w));
        }
        if let Some((w, at)) = case.remove {
            membership = membership.remove_at(ms(at.ms(case)), WorkerId(w));
        }
        let mut master_faults = MasterFaultPlan::new();
        if let Some(at) = case.master {
            master_faults = master_faults.crash_at(at);
        }
        let cfg = EngineConfig {
            control: ControlPlane::new(SimDuration::from_millis(case.link_ms), SimDuration::ZERO),
            bid_compute_delay: SimDuration::from_millis(case.bid_ms),
            max_events: 2_000_000,
            faults,
            master_faults,
            membership,
            trace: true,
            ..EngineConfig::default()
        };
        let mut cluster = Cluster::new(&specs, &cfg);
        let mut wf = Workflow::new();
        let task = wf.add_sink("scan");
        let arrivals = arrivals(case, task);
        let meta = RunMeta {
            seed: 7,
            ..RunMeta::default()
        };
        let bidding = Bidding(BiddingConfig {
            short_circuit_below: case.short_circuit.map(f64::from),
            serialize_contests: case.serialize,
            ..BiddingConfig::default()
        });
        PER_MESSAGE.set(per_message);
        let out = run_workflow(&mut cluster, &mut wf, &bidding, arrivals, &cfg, &meta);
        PER_MESSAGE.set(false);
        out
    }

    /// Did one round bring the master two bids or more? Its bids are
    /// adjacent in the log: the same job, the same instant.
    fn a_round_had_two_bids(log: &SchedLog) -> bool {
        let events: Vec<_> = log.events().collect();
        events.windows(2).any(|w| {
            let bid = |i: usize| matches!(w[i].kind, SchedEventKind::BidReceived { .. });
            bid(0) && bid(1) && w[0].job == w[1].job && w[0].at == w[1].at
        })
    }

    /// Run `case` both ways and hold every observable of the round
    /// path to the per-message one; the per-message run comes back.
    fn differential(case: &Case) -> RunOutput {
        let want = run(case, true);
        let got = run(case, false);
        let bits = |v: &dyn Debug| format!("{v:?}");
        let ctx = format!("{case:?}");
        assert_eq!(&got.sched_log, &want.sched_log, "{}", ctx);
        assert_eq!(bits(&got.record), bits(&want.record), "{}", ctx);
        assert_eq!(bits(&got.trace), bits(&want.trace), "{}", ctx);
        assert_eq!(&got.assignments, &want.assignments, "{}", ctx);
        assert_eq!(bits(&got.metrics), bits(&want.metrics), "{}", ctx);
        assert_eq!(&got.anomalies, &want.anomalies, "{}", ctx);
        assert!(got.events <= want.events, "{}", ctx);
        if a_round_had_two_bids(&want.sched_log) {
            assert!(got.events < want.events, "{}", ctx);
        }
        want
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        /// A bid round delivered as one event each way leaves every
        /// observable of a run exactly as one event per request and per
        /// bid does — on instant and fixed-latency control planes,
        /// under worker crashes, drains, removals, a leader crash at
        /// any append index and DAG arrivals, with concurrent or
        /// serialized contests, short-circuited or not — and costs
        /// fewer queue events wherever a round carried two bids.
        #[test]
        fn a_bid_round_is_delivered_as_its_messages_would_be(case in case()) {
            differential(&case);
        }
    }

    /// Every contest of `log` a bid closed: its job, how many bids it
    /// committed and whether another contest opened at the instant it
    /// closed.
    fn contests(log: &SchedLog) -> Vec<(JobId, usize, bool)> {
        let events: Vec<_> = log.events().collect();
        let mut out = Vec::new();
        for (i, e) in events.iter().enumerate() {
            let (
                Some(job),
                SchedEventKind::ContestClosed {
                    timed_out: false, ..
                },
            ) = (e.job, e.kind)
            else {
                continue;
            };
            let bids = events[..i]
                .iter()
                .filter(|b| b.job == Some(job))
                .filter(|b| matches!(b.kind, SchedEventKind::BidReceived { .. }))
                .count();
            // The log keeps one instant's commuting events in its own
            // order, so the next contest may be stored before the close.
            let next = events
                .iter()
                .filter(|n| n.at == e.at && n.job != Some(job))
                .any(|n| n.kind == SchedEventKind::ContestOpened);
            out.push((job, bids, next));
        }
        out
    }

    /// Did a drain or a removal land while a contest was open?
    fn left_mid_contest(log: &SchedLog, kind: SchedEventKind) -> bool {
        let mut open = 0i64;
        log.events().any(|e| match e.kind {
            SchedEventKind::ContestOpened => {
                open += 1;
                false
            }
            SchedEventKind::ContestClosed { .. } => {
                open -= 1;
                false
            }
            k => k == kind && open > 0,
        })
    }

    /// The round shapes the differential test must reach, each on one
    /// pinned case that shows it in its log: a short-circuited contest
    /// decided before its round's last bid — the rest of the round
    /// late — that opens the next queued contest, on an instant and on
    /// a fixed-latency control plane; and rounds holding a bid of a
    /// worker that drained or was removed after its request landed.
    #[test]
    fn the_differential_test_reaches_every_round_shape() {
        let base = Case {
            workers: 8,
            link_ms: 0,
            bid_ms: 0,
            jobs: vec![(0, 1), (0, 2), (0, 3), (0, 0), (0, 4), (500, 5), (0, 1)],
            crash: None,
            drain: None,
            remove: None,
            master: None,
            short_circuit: Some(30),
            serialize: true,
        };
        for link_ms in [0, 40] {
            let case = Case {
                link_ms,
                bid_ms: 25,
                ..base.clone()
            };
            let log = differential(&case).sched_log;
            let early = contests(&log)
                .into_iter()
                .any(|(_, bids, next)| bids < case.workers as usize && next);
            assert!(
                early,
                "no early decision opened the next contest: {:?}",
                case
            );
        }
        let leaving = Case {
            link_ms: 40,
            bid_ms: 25,
            drain: Some((3, At(1, 2))),
            remove: Some((5, At(4, 2))),
            short_circuit: None,
            serialize: false,
            ..base
        };
        let log = differential(&leaving).sched_log;
        for kind in [
            SchedEventKind::WorkerDraining,
            SchedEventKind::WorkerRemoved,
        ] {
            assert!(
                left_mid_contest(&log, kind),
                "{kind:?} mid-round: {leaving:?}"
            );
        }
    }
}
