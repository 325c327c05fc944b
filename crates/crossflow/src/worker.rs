//! Worker nodes: their specification, and the one worker core both
//! runtimes drive.
//!
//! A worker is characterized by its network speed, read/write speed,
//! CPU factor and local storage — exactly the dimensions the paper's
//! worker configurations vary ("one worker's internet and read/write
//! speeds are significantly faster…", §4; presets in §6.3.1). The
//! *believed* speeds (used for estimates/bids) start at the nominal
//! spec values and, with §6.4's speed learning enabled, are updated to
//! the historic average of observed speeds after every transfer and
//! scan.
//!
//! **The worker core.** [`WorkerNode`] is the paper's worker, written
//! once for the discrete-event [`engine`](crate::engine) and the
//! [`threaded`](crate::threaded) runtime: it prices a job on believed
//! speeds for the allocator's [`WorkerPolicy`], takes a placement in
//! (an offer it may decline once), runs its queue in FIFO order — the
//! input from the store, a live peer or the repository host, then
//! processing under noise — and reports each completion until the
//! master acks it. Like `MasterCore` it does no I/O and owns no clock:
//! each rule is one method that takes the instant and returns a small
//! value — a duration to wait through, a message or log fact to send —
//! for the driver to dispatch. The sim schedules an event per
//! duration; the threaded worker's two threads share the core behind a
//! mutex and sleep through them.
//!
//! **One price.** Every bid and every intake of both runtimes is
//! priced by `Quotes::price` on the worker's `Machine` — its
//! believed speeds, kept current where the speed trackers learn —
//! after one store probe. A bid round shares one size-to-seconds quote
//! among the workers of one machine.
//!
//! **An incarnation.** The queue, the job in hand, the backlog, the
//! declined jobs, the placements taken in, the unacked completions and
//! the store all die with the instance (`WorkerNode::crash`); learned
//! speeds and noise state are the machine's and survive, as they do
//! across session iterations. The epoch moves on at every crash,
//! recovery, join and departure, and a continuation quoting a dead
//! epoch finds nothing to continue.

use std::collections::VecDeque;

use crossbid_net::{Bandwidth, Link, NoiseModel};
use crossbid_simcore::{IdMap, IdSet, RngStream, SimDuration, SimTime, TimeWeighted, Welford};
use crossbid_storage::{EvictionPolicy, LocalStore, ObjectId};

use crate::engine::ReplicationConfig;
use crate::faults::NetFaultPlan;
use crate::job::{Job, JobId, WorkerId};
use crate::scheduler::{JobView, ObedientPolicy, WorkerPolicy, WorkerView};
use crate::trace::SchedEventKind;

/// Static description of a worker node.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Display name (e.g. `w0`, `fast`).
    pub name: String,
    /// Nominal network (download) speed.
    pub net: Bandwidth,
    /// Nominal read/write (scan) speed.
    pub rw: Bandwidth,
    /// Multiplier on pure-CPU job components (1.0 = nominal; >1 is a
    /// slower CPU).
    pub cpu_factor: f64,
    /// Local store capacity in bytes.
    pub storage_bytes: u64,
    /// Cache eviction policy.
    pub eviction: EvictionPolicy,
    /// Per-worker override of the engine-wide noise scheme — models a
    /// machine whose *actual* behaviour deviates from its configured
    /// speeds in its own way (e.g. a secretly throttled instance).
    /// `None` uses the engine default.
    pub noise_override: Option<NoiseModel>,
}

impl WorkerSpec {
    /// Start building a spec with the paper's "average" calibration
    /// (20 MB/s network, 100 MB/s read/write, 4 GB store, LRU).
    pub fn builder<S: Into<String>>(name: S) -> WorkerSpecBuilder {
        WorkerSpecBuilder {
            spec: WorkerSpec {
                name: name.into(),
                net: Bandwidth::mb_per_sec(20.0),
                rw: Bandwidth::mb_per_sec(100.0),
                cpu_factor: 1.0,
                storage_bytes: 4_000_000_000,
                eviction: EvictionPolicy::Lru,
                noise_override: None,
            },
        }
    }
}

/// Fluent builder for [`WorkerSpec`].
#[derive(Debug, Clone)]
pub struct WorkerSpecBuilder {
    spec: WorkerSpec,
}

impl WorkerSpecBuilder {
    /// Set the nominal network speed in MB/s.
    pub fn net_mbps(mut self, mbps: f64) -> Self {
        self.spec.net = Bandwidth::mb_per_sec(mbps);
        self
    }

    /// Set the nominal read/write speed in MB/s.
    pub fn rw_mbps(mut self, mbps: f64) -> Self {
        self.spec.rw = Bandwidth::mb_per_sec(mbps);
        self
    }

    /// Set the CPU factor.
    pub fn cpu_factor(mut self, f: f64) -> Self {
        self.spec.cpu_factor = f;
        self
    }

    /// Set storage capacity in bytes.
    pub fn storage_bytes(mut self, b: u64) -> Self {
        self.spec.storage_bytes = b;
        self
    }

    /// Set storage capacity in GB (decimal).
    pub fn storage_gb(self, gb: f64) -> Self {
        let b = (gb * 1e9) as u64;
        self.storage_bytes(b)
    }

    /// Set the eviction policy.
    pub fn eviction(mut self, p: EvictionPolicy) -> Self {
        self.spec.eviction = p;
        self
    }

    /// Give this worker its own noise scheme (see
    /// [`WorkerSpec::noise_override`]).
    pub fn noise(mut self, n: NoiseModel) -> Self {
        self.spec.noise_override = Some(n);
        self
    }

    /// Scale both speeds by a factor (convenience for fast/slow
    /// presets).
    pub fn speed_factor(mut self, k: f64) -> Self {
        self.spec.net = self.spec.net.scaled(k);
        self.spec.rw = self.spec.rw.scaled(k);
        self
    }

    /// Finish building.
    pub fn build(self) -> WorkerSpec {
        self.spec
    }
}

/// Historic-average speed tracker (paper §6.4: "calculating the
/// historic average for all speeds determined for previous jobs").
#[derive(Debug, Clone, Default)]
pub struct SpeedTracker {
    observed: Welford,
}

impl SpeedTracker {
    /// Record one observed speed in MB/s.
    pub fn observe(&mut self, mb_per_sec: f64) {
        if mb_per_sec.is_finite() && mb_per_sec > 0.0 {
            self.observed.push(mb_per_sec);
        }
    }

    /// Historic-average speed, or `None` before any observation.
    pub fn believed(&self) -> Option<Bandwidth> {
        if self.observed.count() == 0 {
            None
        } else {
            Some(Bandwidth::mb_per_sec(self.observed.mean()))
        }
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.observed.count()
    }
}

/// The settings a worker's rules read, the same for every worker of a
/// run.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerRules {
    /// §6.4: estimate on historic-average observed speeds.
    pub learning: bool,
    /// The at-least-once layer is armed: placements are acked and
    /// deduplicated, and a `Done` is resent until the master acks it.
    pub reliable: bool,
    /// The `Done` retry policy and seed; partitions, link loss and
    /// backoff of peer transfers.
    pub net: NetFaultPlan,
    /// Peer-fetch knobs, read only when the driver supplies live peer
    /// sources (the replicated data plane is on).
    pub repl: ReplicationConfig,
}

/// What a placement did ([`WorkerNode::intake`]).
#[derive(Debug)]
pub(crate) enum Intake {
    /// Taken: ack it when `ack`; when `queued`, start the queue. A
    /// placement this incarnation already holds — a retransmission, a
    /// network duplicate, or a re-placement after a lost ack — is acked
    /// again but not queued: it runs once.
    Taken { job: JobId, queued: bool, ack: bool },
    /// Declined (now, or again on a retransmission of the declined
    /// offer): send it back.
    Declined(Job),
}

/// The job a worker takes up ([`WorkerNode::start`]).
pub(crate) struct Started {
    pub job: JobId,
    /// Seconds it waited in the queue.
    pub waited: f64,
    /// The incarnation running it; every continuation quotes it.
    pub epoch: u64,
    /// Processing time when the input is local; `None`: fetch it first
    /// ([`WorkerNode::fetch`]).
    pub proc: Option<SimDuration>,
}

/// A data-plane fact for the master's log, about a job.
pub(crate) type Fact = (JobId, SchedEventKind);

/// One transfer attempt ([`WorkerNode::fetch`]): its outcome is due
/// after `d`.
pub(crate) struct Step {
    pub d: SimDuration,
    /// A peer attempt's `fetch_req`; `None`: from the repository host,
    /// which always delivers.
    pub req: Option<Fact>,
    /// The attempt is lost: the worker gives up on it after `d`
    /// ([`WorkerNode::fetch_lost`]).
    pub lost: bool,
}

/// An input that landed ([`WorkerNode::fetched`]); what its insert
/// evicted is the store's [`evicted`](LocalStore::evicted).
pub(crate) struct Fetched {
    pub job: JobId,
    pub object: ObjectId,
    pub bytes: u64,
    /// A peer transfer's `fetch_ok`.
    pub ok: Option<Fact>,
    /// Seconds since the job started: the fetch phase, lost attempts
    /// and backoffs included.
    pub secs: f64,
    /// Processing time, now that the input is local.
    pub proc: SimDuration,
}

/// A peer attempt given up ([`WorkerNode::fetch_lost`]).
pub(crate) struct Lost {
    /// Its `fetch_fail`.
    pub fail: Fact,
    /// Fetch again after this backoff, from the next peer; `None`:
    /// every peer attempt is spent — fetch again now, from the master.
    pub backoff: Option<SimDuration>,
}

/// A finished job as its worker reports it (`Done`). The phase
/// breakdown rides along for the threaded master's trace.
#[derive(Debug, Clone)]
pub(crate) struct Report {
    pub job: Job,
    pub wait_secs: f64,
    pub fetch_secs: f64,
    pub proc_secs: f64,
}

/// A job that finished ([`WorkerNode::finish`]).
pub(crate) struct Finished {
    pub report: Report,
    /// The queue is empty: announce idleness.
    pub idle: bool,
    /// Under the at-least-once layer: resend the report after this
    /// unless it is acked first ([`WorkerNode::resend`]).
    pub resend: Option<SimDuration>,
}

/// A `Done` sent again ([`WorkerNode::resend`]).
pub(crate) struct Resend {
    pub report: Report,
    /// Retransmissions of this report before this one.
    pub attempt: u32,
    /// When to resend it next, unless acked first.
    pub next: Option<SimDuration>,
}

struct Queued {
    job: Job,
    /// Transfer + processing estimate when it was taken in: its share
    /// of the backlog.
    est: f64,
    at: SimTime,
}

/// The job in hand.
struct Running {
    job: Job,
    est: f64,
    waited: f64,
    started: SimTime,
    /// When its input landed (`None` while fetching, or when it was
    /// local).
    fetched: Option<SimTime>,
    /// The peer the attempt in flight asks.
    from: Option<WorkerId>,
    /// Peer attempts lost so far; it picks the next source.
    attempt: u32,
}

struct Unacked {
    report: Report,
    attempt: u32,
    due: Option<SimTime>,
}

/// What one incarnation remembers of its work: it dies with the
/// instance.
#[derive(Default)]
struct Incarnation {
    queue: VecDeque<Queued>,
    running: Option<Running>,
    /// `totalCostOfUnfinishedJobs()` (Listing 2 line 2): the estimates
    /// of the queued jobs and the one in hand, a running sum that is
    /// reset to exactly 0.0 whenever the queue drains, so removal
    /// round-off never accumulates across a run.
    backlog: f64,
    /// Placement seq → accepted?, so a retransmitted delivery replays
    /// its outcome instead of re-running the policy.
    placements: IdMap<u64, bool>,
    /// Jobs taken in, so a re-placement of one under a new seq is
    /// confirmed without a second execution.
    accepted: IdSet<JobId>,
    /// Completions not yet acked by the master.
    unacked: IdMap<JobId, Unacked>,
    /// Jobs this incarnation has declined once (Baseline's reject-once
    /// bookkeeping: "workers are required to keep track of any jobs
    /// they have previously declined", §4).
    declined: IdSet<JobId>,
}

/// What a price converts a job's sizes to seconds with: the machine's
/// believed speeds ([`WorkerNode::believed_net`] and `believed_rw`
/// under the run's learning setting), its per-transfer latency and
/// its CPU factor. A [`WorkerNode`] keeps its own, read again where
/// it can change: as a run begins, and where a tracker learns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Machine {
    net: Bandwidth,
    rw: Bandwidth,
    /// Seconds.
    latency: f64,
    cpu_factor: f64,
}

impl Machine {
    /// Bit for bit the same machine: it quotes every job the same.
    fn same(&self, other: &Machine) -> bool {
        let bits = |m: &Machine| {
            let (net, rw) = (m.net.as_bytes_per_sec(), m.rw.as_bytes_per_sec());
            [net, rw, m.latency, m.cpu_factor].map(f64::to_bits)
        };
        bits(self) == bits(other)
    }

    /// Listing 2's two costs of `job` here, in seconds: fetching its
    /// input from the repository host, latency + size / network speed
    /// (line 4; nothing when it needs none), and processing it, work
    /// bytes / read-write speed × CPU factor + fixed CPU seconds
    /// (line 5).
    fn quote(&self, job: &Job) -> (f64, f64) {
        let fetch = job.resource.map_or(0.0, |r| {
            self.latency + self.net.time_for(r.bytes).as_secs_f64()
        });
        let scan = if job.work_bytes == 0 {
            0.0
        } else {
            self.rw.time_for(job.work_bytes).as_secs_f64()
        };
        (
            fetch,
            scan * self.cpu_factor + job.cpu_secs * self.cpu_factor,
        )
    }
}

/// One job's prices, worker by worker: every bid and every intake of
/// both runtimes is priced here. A round prices one job on many
/// workers, and workers of the same [`Machine`] share its quote, so a
/// cluster of equal machines converts the job's sizes to seconds once
/// a round rather than once a bid.
pub(crate) struct Quotes<'j> {
    job: &'j Job,
    /// The machine quoted last, and its quote.
    last: Option<(Machine, (f64, f64))>,
}

impl<'j> Quotes<'j> {
    pub(crate) fn new(job: &'j Job) -> Self {
        Quotes { job, last: None }
    }

    /// The job's price on `machine`: the seconds to obtain its input and
    /// to process it. The input costs nothing when the worker `holds`
    /// it (or the job needs none); a fetch from a live peer costs the
    /// host's quote divided by `peers`, the intra-cluster speed-up.
    #[inline]
    pub(crate) fn price(
        &mut self,
        machine: &Machine,
        holds: bool,
        peers: Option<f64>,
    ) -> (f64, f64) {
        let (fetch, proc) = match self.last {
            Some((m, quote)) if m.same(machine) => quote,
            _ => {
                let quote = machine.quote(self.job);
                self.last = Some((*machine, quote));
                quote
            }
        };
        let fetch = match peers {
            _ if holds => 0.0,
            Some(scale) if fetch > 0.0 => fetch / scale,
            _ => fetch,
        };
        (fetch, proc)
    }
}

/// One worker: its machine (spec, store, link, noise, learned speeds),
/// which persists across session iterations, and the state of its
/// current incarnation. See the [module docs](self).
pub struct WorkerNode {
    /// Static configuration.
    pub spec: WorkerSpec,
    /// Local resource cache (persists across iterations — §6.3.1
    /// "workers have files saved from previous executions").
    pub store: LocalStore,
    /// Data-plane link to the repository host.
    pub link: Link,
    /// Noise applied to the read/write speed during actual scans.
    pub rw_noise: crossbid_net::noise::NoiseSampler,
    /// Historic network-speed observations (§6.4).
    pub net_tracker: SpeedTracker,
    /// Historic read/write-speed observations (§6.4).
    pub rw_tracker: SpeedTracker,

    id: WorkerId,
    rules: WorkerRules,
    policy: Box<dyn WorkerPolicy>,
    /// Draws of transfer and scan noise (and of repair copies landing
    /// here).
    rng: RngStream,
    alive: bool,
    /// What a price reads of the machine: see [`Machine`].
    machine: Machine,
    epoch: u64,
    life: Incarnation,
    /// Busy (fetching or processing) indicator over time.
    pub(crate) busy: TimeWeighted,
    /// Per-job queue-wait observations, seconds.
    pub(crate) wait: Welford,
}

impl WorkerNode {
    /// Create a fresh node from its spec. `data_latency` is the
    /// per-transfer setup cost; `noise` disturbs both network and
    /// read/write speeds during execution.
    pub fn new(spec: WorkerSpec, data_latency: SimDuration, noise: &NoiseModel) -> Self {
        let noise = spec.noise_override.clone().unwrap_or_else(|| noise.clone());
        let machine = Machine {
            net: spec.net,
            rw: spec.rw,
            latency: data_latency.as_secs_f64(),
            cpu_factor: spec.cpu_factor,
        };
        WorkerNode {
            store: LocalStore::new(spec.storage_bytes, spec.eviction),
            link: Link::new(spec.net, data_latency, noise.clone()),
            rw_noise: noise.sampler(),
            net_tracker: SpeedTracker::default(),
            rw_tracker: SpeedTracker::default(),
            spec,
            id: WorkerId(0),
            rules: WorkerRules::default(),
            policy: Box::new(ObedientPolicy),
            rng: RngStream::from_seed(0),
            alive: true,
            machine,
            epoch: 0,
            life: Incarnation::default(),
            busy: TimeWeighted::new(),
            wait: Welford::new(),
        }
    }

    /// Begin a run as worker `id`, under the run's `rules`, with a
    /// fresh instance of the allocator's policy and the run's random
    /// stream for this worker; `alive` unless it joins later. Per-run
    /// state starts afresh; the machine — store contents, learned
    /// speeds, noise state — carries over, and its believed speeds are
    /// read under the run's learning setting.
    pub(crate) fn begin_run(
        &mut self,
        id: WorkerId,
        rules: WorkerRules,
        policy: Box<dyn WorkerPolicy>,
        rng: RngStream,
        alive: bool,
    ) {
        (self.id, self.rules, self.policy, self.rng, self.alive) = (id, rules, policy, rng, alive);
        // A session's next run reuses the queue's buffer.
        let mut queue = std::mem::take(&mut self.life.queue);
        queue.clear();
        self.life = Incarnation {
            queue,
            ..Incarnation::default()
        };
        self.busy = TimeWeighted::new();
        self.wait = Welford::new();
        self.store.reset_stats();
        let learning = self.rules.learning;
        self.machine = Machine {
            net: self.believed_net(learning),
            rw: self.believed_rw(learning),
            latency: self.link.latency().as_secs_f64(),
            cpu_factor: self.spec.cpu_factor,
        };
    }

    /// The network speed estimates are computed from: learned historic
    /// average if enabled and available, else the nominal spec speed.
    pub fn believed_net(&self, learning: bool) -> Bandwidth {
        if learning {
            self.net_tracker.believed().unwrap_or(self.spec.net)
        } else {
            self.spec.net
        }
    }

    /// The read/write speed estimates are computed from (see
    /// [`believed_net`](Self::believed_net)).
    pub fn believed_rw(&self, learning: bool) -> Bandwidth {
        if learning {
            self.rw_tracker.believed().unwrap_or(self.spec.rw)
        } else {
            self.spec.rw
        }
    }

    /// Number of resources held locally.
    pub fn cached_objects(&self) -> usize {
        self.store.len()
    }

    /// Is a specific object cached? A probe: the store's statistics
    /// and eviction order do not move.
    pub fn holds(&self, id: ObjectId) -> bool {
        self.store.peek(id)
    }

    /// Is this incarnation up?
    pub(crate) fn alive(&self) -> bool {
        self.alive
    }

    fn live(&self, epoch: u64) -> bool {
        self.alive && self.epoch == epoch
    }

    /// Up, with nothing queued and nothing in hand: what an idle beat
    /// re-announces.
    pub(crate) fn idle(&self) -> bool {
        self.alive && self.life.running.is_none() && self.life.queue.is_empty()
    }

    /// Nothing queued, nothing in hand and no completion awaiting its
    /// ack: a draining worker may leave.
    pub(crate) fn settled(&self) -> bool {
        self.life.running.is_none() && self.life.queue.is_empty() && self.life.unacked.is_empty()
    }

    /// A transfer of `bytes` over this worker's link, as a repair copy
    /// landing here makes it: one draw on this worker's stream.
    pub(crate) fn transfer(&mut self, bytes: u64) -> SimDuration {
        self.link.transfer(bytes, &mut self.rng).duration
    }

    /// Where `job`'s input is, by the one store probe its price takes:
    /// held here (or none is needed); else, when a live peer holds it
    /// (`has_peer`, asked only on a miss), the peer-transfer speed-up
    /// its [price](Quotes::price) divides by. Pricing the cheaper
    /// intra-cluster transfer spreads locality pressure over the whole
    /// replica set instead of the one original holder.
    #[inline]
    fn peer_priced(
        &self,
        job: &Job,
        has_peer: impl FnOnce(ObjectId) -> bool,
    ) -> (bool, Option<f64>) {
        match job.resource {
            Some(r) if !self.store.peek(r.id) => {
                let scale = || self.rules.repl.peer_bandwidth_scale;
                (false, has_peer(r.id).then(scale))
            }
            _ => (true, None),
        }
    }

    /// What the allocator's policy decides on: the job's
    /// [price](Quotes::price) here, the backlog and queue, and whether
    /// this worker declined the job before.
    #[inline]
    fn view(
        &self,
        now: SimTime,
        quotes: &mut Quotes,
        holds: bool,
        peers: Option<f64>,
    ) -> (WorkerView, JobView) {
        let (est_fetch_secs, est_proc_secs) = quotes.price(&self.machine, holds, peers);
        let job = quotes.job;
        let view = WorkerView {
            id: self.id,
            now,
            backlog_secs: self.life.backlog,
            has_data: holds,
            declined_before: self.life.declined.contains(&job.id),
            est_fetch_secs,
            est_proc_secs,
            queue_len: self.life.queue.len(),
        };
        let resource_bytes = job.resource_bytes();
        (
            view,
            JobView {
                id: job.id,
                resource_bytes,
            },
        )
    }

    /// Answer a bid request for the job `quotes` prices: the policy's
    /// bid on its [`view`](Self::view), or `None` — the policy
    /// abstains, or the instance is dead and hears nothing (the contest
    /// resolves without it). `has_peer`: does a live peer hold this
    /// object?
    #[inline]
    pub(crate) fn bid(
        &mut self,
        now: SimTime,
        quotes: &mut Quotes,
        has_peer: impl FnOnce(ObjectId) -> bool,
    ) -> Option<f64> {
        if !self.alive {
            return None;
        }
        let (holds, peers) = self.peer_priced(quotes.job, has_peer);
        let (view, jv) = self.view(now, quotes, holds, peers);
        self.policy.bid(&view, &jv)
    }

    /// Take in placement `seq` of `job` — an assignment, or an `offer`
    /// the policy may decline once (`has_peer` as in
    /// [`bid`](Self::bid)). Under the at-least-once layer a delivery of
    /// a placement already seen replays its outcome and a job already
    /// taken in is confirmed, never queued twice. `None`: the instance
    /// is dead and hears nothing.
    pub(crate) fn intake(
        &mut self,
        now: SimTime,
        job: Job,
        seq: u64,
        offer: bool,
        has_peer: impl FnOnce(ObjectId) -> bool,
    ) -> Option<Intake> {
        if !self.alive {
            return None;
        }
        let (reliable, id) = (self.rules.reliable, job.id);
        let held = (reliable && self.life.accepted.contains(&id)).then_some(true);
        match self.life.placements.get(&seq).copied().or(held) {
            Some(false) => return Some(Intake::Declined(job)),
            Some(true) => {
                self.life.placements.insert(seq, true);
                let (job, queued, ack) = (id, false, true);
                return Some(Intake::Taken { job, queued, ack });
            }
            None => {}
        }
        let (holds, peers) = self.peer_priced(&job, |obj| offer && has_peer(obj));
        let mut quotes = Quotes::new(&job);
        if offer {
            let (view, jv) = self.view(now, &mut quotes, holds, peers);
            if !self.policy.accept_offer(&view, &jv) {
                self.life.declined.insert(job.id);
                if reliable {
                    self.life.placements.insert(seq, false);
                }
                return Some(Intake::Declined(job));
            }
        }
        if reliable {
            self.life.placements.insert(seq, true);
            self.life.accepted.insert(id);
        }
        // The backlog prices the master fetch, peers or not.
        let (fetch, proc) = quotes.price(&self.machine, holds, None);
        let est = fetch + proc;
        self.life.backlog += est;
        self.life.queue.push_back(Queued { job, est, at: now });
        let (job, queued, ack) = (id, true, reliable);
        Some(Intake::Taken { job, queued, ack })
    }

    /// Take up the next queued job, if nothing is in hand. A local
    /// input (a store hit, or none needed) goes straight to
    /// processing.
    pub(crate) fn start(&mut self, now: SimTime) -> Option<Started> {
        if self.life.running.is_some() {
            return None;
        }
        let Queued { job, est, at } = self.life.queue.pop_front()?;
        let waited = now.saturating_since(at).as_secs_f64();
        self.wait.push(waited);
        self.busy.set(now, 1.0);
        let local = job.resource.is_none_or(|r| self.store.lookup(r.id, now));
        let id = job.id;
        self.life.running = Some(Running {
            job,
            est,
            waited,
            started: now,
            fetched: None,
            from: None,
            attempt: 0,
        });
        Some(Started {
            job: id,
            waited,
            epoch: self.epoch,
            proc: local.then(|| self.process()),
        })
    }

    /// The input the job in hand still lacks, whose live holders the
    /// driver passes to [`fetch`](Self::fetch).
    pub(crate) fn missing(&self) -> Option<ObjectId> {
        let run = self.life.running.as_ref().filter(|r| r.fetched.is_none())?;
        run.job.resource.map(|r| r.id)
    }

    /// Fetch the missing input: from `sources` (the live peers holding
    /// it, in ascending id), rotating by attempt — lost by a partition
    /// or the data plane's loss sample, it times out — or from the
    /// repository host once no peer holds it or every peer attempt is
    /// spent. `None`: epoch `epoch` is dead.
    pub(crate) fn fetch(&mut self, now: SimTime, epoch: u64, sources: &[WorkerId]) -> Option<Step> {
        if !self.live(epoch) {
            return None;
        }
        let run = self.life.running.as_mut()?;
        let r = run.job.resource.expect("a fetch needs an input");
        let repl = &self.rules.repl;
        if sources.is_empty() || run.attempt >= repl.max_fetch_attempts {
            run.from = None;
            let out = self.link.transfer(r.bytes, &mut self.rng);
            self.net_tracker.observe(out.achieved_mb_per_sec());
            self.machine.net = self.believed_net(self.rules.learning);
            let (d, req, lost) = (out.duration, None, false);
            return Some(Step { d, req, lost });
        }
        let from = sources[run.attempt as usize % sources.len()];
        run.from = Some(from);
        let net = &self.rules.net;
        let lost = net.link_blocked(from, self.id, now)
            || net.peer_dropped(repl.peer_drop_prob, r.id, self.id, run.attempt);
        let d = if lost {
            SimDuration::from_secs_f64(repl.fetch_timeout_secs)
        } else {
            let out = self.link.transfer(r.bytes, &mut self.rng);
            out.duration.mul_f64(1.0 / repl.peer_bandwidth_scale)
        };
        let object = r.id.0;
        let req = Some((run.job.id, SchedEventKind::FetchReq { object, from }));
        Some(Step { d, req, lost })
    }

    /// The attempt in flight delivered: the input lands in the store
    /// and processing begins.
    pub(crate) fn fetched(&mut self, now: SimTime, epoch: u64) -> Option<Fetched> {
        if !self.live(epoch) {
            return None;
        }
        let run = self.life.running.as_mut()?;
        let r = run.job.resource.expect("a fetch needs an input");
        run.fetched = Some(now);
        let (job, object) = (run.job.id, r.id.0);
        let secs = now.saturating_since(run.started).as_secs_f64();
        let ok = run.from.take().map(|from| {
            // The start's lookup counted a cold miss; the bytes came
            // from a peer, so reclassify it.
            self.store.note_peer_fetch();
            (job, SchedEventKind::FetchOk { object, from })
        });
        self.store.insert(r.id, r.bytes, now);
        Some(Fetched {
            job,
            object: r.id,
            bytes: r.bytes,
            ok,
            secs,
            proc: self.process(),
        })
    }

    /// The peer attempt in flight timed out: back off before the next
    /// peer, or, after the last attempt, fall back to the master at
    /// once.
    pub(crate) fn fetch_lost(&mut self, epoch: u64) -> Option<Lost> {
        if !self.live(epoch) {
            return None;
        }
        let run = self.life.running.as_mut()?;
        let r = run.job.resource.expect("a fetch needs an input");
        let job = run.job.id;
        let from = run.from.take().expect("a lost attempt names its peer");
        let attempt = run.attempt;
        run.attempt += 1;
        let backoff = (run.attempt < self.rules.repl.max_fetch_attempts).then(|| {
            let secs = self.rules.net.fetch_backoff_secs(job, r.id, attempt);
            SimDuration::from_secs_f64(secs)
        });
        let object = r.id.0;
        let fail = (
            job,
            SchedEventKind::FetchFail {
                object,
                from,
                attempt,
            },
        );
        Some(Lost { fail, backoff })
    }

    /// Processing time of the job in hand, under read/write noise; the
    /// observed scan speed feeds §6.4's historic average.
    fn process(&mut self) -> SimDuration {
        let job = &self
            .life
            .running
            .as_ref()
            .expect("processing needs a job")
            .job;
        let (work_bytes, cpu_secs) = (job.work_bytes, job.cpu_secs);
        let m = self.rw_noise.sample(&mut self.rng);
        let scan = self.spec.rw.scaled(m).time_for(work_bytes);
        if work_bytes > 0 && !scan.is_zero() && scan != SimDuration::MAX {
            self.rw_tracker
                .observe(work_bytes as f64 / 1e6 / scan.as_secs_f64());
            self.machine.rw = self.believed_rw(self.rules.learning);
        }
        scan.mul_f64(self.spec.cpu_factor)
            + SimDuration::from_secs_f64(cpu_secs * self.spec.cpu_factor)
    }

    /// The job in hand finished: the policy learns estimate against
    /// actual, the backlog settles, and — under the at-least-once
    /// layer — the report is kept for resending until acked.
    pub(crate) fn finish(&mut self, now: SimTime, epoch: u64) -> Option<Finished> {
        if !self.live(epoch) {
            return None;
        }
        let run = self.life.running.take()?;
        let since = |t: SimTime| now.saturating_since(t).as_secs_f64();
        let actual = since(run.started);
        self.policy.on_job_finished(run.est, actual);
        self.life.backlog -= run.est;
        if self.life.queue.is_empty() {
            self.life.backlog = 0.0;
        }
        self.busy.set(now, 0.0);
        let proc_secs = since(run.fetched.unwrap_or(run.started));
        let report = Report {
            wait_secs: run.waited,
            fetch_secs: actual - proc_secs,
            proc_secs,
            job: run.job,
        };
        let resend = if self.rules.reliable {
            let net = &self.rules.net;
            let seed = net.retry_seed(report.job.id, u64::MAX);
            let d = net
                .retry
                .delay_secs(seed, 0)
                .map(SimDuration::from_secs_f64);
            let entry = Unacked {
                report: report.clone(),
                attempt: 0,
                due: d.map(|d| now + d),
            };
            self.life.unacked.insert(report.job.id, entry);
            d
        } else {
            None
        };
        Some(Finished {
            report,
            idle: self.life.queue.is_empty(),
            resend,
        })
    }

    /// Resend `job`'s report, still unacked in epoch `epoch`: past the
    /// configured attempts the backoff stays at its cap, so a `Done`
    /// is retransmitted until acked.
    pub(crate) fn resend(&mut self, now: SimTime, job: JobId, epoch: u64) -> Option<Resend> {
        if epoch != self.epoch {
            return None;
        }
        let net = &self.rules.net;
        let u = self.life.unacked.get_mut(&job)?;
        let attempt = u.attempt;
        u.attempt += 1;
        let seed = net.retry_seed(job, u64::MAX);
        let next = net
            .retry
            .capped_delay_secs(seed, u.attempt)
            .map(SimDuration::from_secs_f64);
        u.due = next.map(|d| now + d);
        Some(Resend {
            report: u.report.clone(),
            attempt,
            next,
        })
    }

    /// Resend an unacked report whose resend is due by `now`.
    pub(crate) fn resend_due(&mut self, now: SimTime) -> Option<Resend> {
        let mut due = self.life.unacked.iter();
        let (&job, _) = due.find(|(_, u)| u.due.is_some_and(|d| d <= now))?;
        self.resend(now, job, self.epoch)
    }

    /// The master saw `job`'s `Done`: stop resending it.
    pub(crate) fn ack_done(&mut self, job: JobId) {
        self.life.unacked.remove(&job);
    }

    /// The instance dies, and with it everything it remembered: the
    /// queue and the job in hand (returned, in that order, for the
    /// driver's reclaim), the backlog, the store, the declined jobs,
    /// the placement dedup memory and every unacked report.
    pub(crate) fn crash(&mut self, now: SimTime) -> Vec<Job> {
        let life = std::mem::take(&mut self.life);
        let mut stranded: Vec<Job> = life.running.map(|r| r.job).into_iter().collect();
        stranded.extend(life.queue.into_iter().map(|q| q.job));
        self.busy.set(now, 0.0);
        self.store.clear();
        self.alive = false;
        self.epoch += 1;
        stranded
    }

    /// A new incarnation comes up (recovery, or a deferred join).
    pub(crate) fn recover(&mut self) {
        self.alive = true;
        self.epoch += 1;
    }

    /// A settled worker leaves the cluster; its store stays on disk.
    pub(crate) fn depart(&mut self) {
        self.alive = false;
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, HashMap};

    use super::*;
    use crate::job::{JobId, Payload, ResourceRef, TaskId};
    use proptest::prelude::*;

    fn job(id: u64, res_bytes: u64) -> Job {
        Job {
            id: JobId(id),
            task: TaskId(0),
            resource: Some(ResourceRef {
                id: ObjectId(id * 10),
                bytes: res_bytes,
            }),
            work_bytes: res_bytes,
            cpu_secs: 0.0,
            payload: Payload::None,
        }
    }

    fn node() -> WorkerNode {
        let spec = WorkerSpec::builder("w")
            .net_mbps(10.0)
            .rw_mbps(100.0)
            .storage_gb(1.0)
            .build();
        WorkerNode::new(spec, SimDuration::ZERO, &NoiseModel::None)
    }

    fn assign(n: &mut WorkerNode, j: Job, at: SimTime) {
        let intake = n.intake(at, j, 0, false, |_| false);
        assert!(matches!(intake, Some(Intake::Taken { queued: true, .. })));
    }

    /// `job`'s fetch and processing estimates on `n` as its price sees
    /// them, with no peer holding the input.
    fn estimate(n: &WorkerNode, job: &Job) -> (bool, f64, f64) {
        let (holds, peers) = n.peer_priced(job, |_| false);
        let (fetch, proc) = Quotes::new(job).price(&n.machine, holds, peers);
        (holds, fetch, proc)
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let s = WorkerSpec::builder("fast").speed_factor(5.0).build();
        assert!((s.net.as_mb_per_sec() - 100.0).abs() < 1e-9);
        assert!((s.rw.as_mb_per_sec() - 500.0).abs() < 1e-9);
        assert_eq!(s.cpu_factor, 1.0);
        assert_eq!(s.eviction, EvictionPolicy::Lru);
    }

    #[test]
    fn fetch_estimate_is_zero_when_cached() {
        let mut n = node();
        let j = job(1, 100_000_000); // 100 MB
        assert!((estimate(&n, &j).1 - 10.0).abs() < 1e-9);
        // A live peer holding it: the intra-cluster transfer is priced.
        let (holds, peers) = n.peer_priced(&j, |_| true);
        let scale = n.rules.repl.peer_bandwidth_scale;
        assert_eq!((holds, peers), (false, Some(scale)));
        let peer_secs = Quotes::new(&j).price(&n.machine, holds, peers).0;
        assert!((peer_secs - 10.0 / scale).abs() < 1e-9);
        n.store
            .insert(j.resource.unwrap().id, 100_000_000, SimTime::ZERO);
        let (holds, fetch, _) = estimate(&n, &j);
        assert_eq!((holds, fetch), (true, 0.0));
        assert_eq!(
            n.peer_priced(&j, |_| panic!("asked on a hit")),
            (true, None)
        );
    }

    #[test]
    fn proc_estimate_uses_rw_and_cpu_factor() {
        let mut n = node();
        let j = job(1, 200_000_000); // 200 MB at 100 MB/s = 2 s
        assert!((estimate(&n, &j).2 - 2.0).abs() < 1e-9);
        // A spec edit shows from the next run on.
        n.spec.cpu_factor = 3.0;
        let (rules, policy) = (WorkerRules::default(), Box::new(ObedientPolicy));
        n.begin_run(WorkerId(0), rules, policy, RngStream::from_seed(1), true);
        assert!((estimate(&n, &j).2 - 6.0).abs() < 1e-9);
    }

    #[test]
    fn backlog_tracks_unfinished_jobs() {
        let mut n = node();
        assert_eq!(n.life.backlog, 0.0);
        // 10 MB: 1 s to fetch at 10 MB/s, 0.1 s to scan.
        assign(&mut n, job(1, 10_000_000), SimTime::ZERO);
        assign(&mut n, job(2, 10_000_000), SimTime::ZERO);
        assert!((n.life.backlog - 2.2).abs() < 1e-9);
        assert_eq!(n.life.queue.len(), 2);
        let s = n.start(SimTime::ZERO).expect("queued");
        assert_eq!(n.life.queue.len(), 1);
        n.fetch(SimTime::ZERO, s.epoch, &[]).expect("live");
        n.fetched(SimTime::from_secs(1), s.epoch).expect("live");
        n.finish(SimTime::from_secs(2), s.epoch).expect("live");
        assert!((n.life.backlog - 1.1).abs() < 1e-9);
    }

    #[test]
    fn speed_learning_switches_believed_speeds() {
        let mut n = node();
        assert_eq!(n.believed_net(true), n.spec.net);
        n.net_tracker.observe(4.0);
        n.net_tracker.observe(6.0);
        assert!((n.believed_net(true).as_mb_per_sec() - 5.0).abs() < 1e-9);
        // Learning disabled: still the nominal speed.
        assert_eq!(n.believed_net(false), n.spec.net);
    }

    #[test]
    fn learned_speeds_reach_the_price_only_when_learning() {
        for learning in [false, true] {
            // The transfer's latency and noise make the observed speeds
            // differ from the nominal ones.
            let spec = WorkerSpec::builder("w").net_mbps(10.0).rw_mbps(100.0);
            let noise = NoiseModel::evaluation_default();
            let mut n = WorkerNode::new(spec.build(), SimDuration::from_millis(300), &noise);
            let rules = WorkerRules {
                learning,
                ..WorkerRules::default()
            };
            let policy = Box::new(ObedientPolicy);
            n.begin_run(WorkerId(0), rules, policy, RngStream::from_seed(1), true);
            assign(&mut n, job(1, 10_000_000), SimTime::ZERO);
            let s = n.start(SimTime::ZERO).expect("queued");
            n.fetch(SimTime::ZERO, s.epoch, &[]).expect("live");
            n.fetched(SimTime::from_secs(2), s.epoch).expect("live");
            assert_eq!((n.net_tracker.count(), n.rw_tracker.count()), (1, 1));
            let (net, rw) = (n.machine.net, n.machine.rw);
            assert_eq!(
                (net, rw),
                (n.believed_net(learning), n.believed_rw(learning))
            );
            assert_eq!(net == n.spec.net && rw == n.spec.rw, !learning);
        }
    }

    #[test]
    fn tracker_ignores_garbage() {
        let mut t = SpeedTracker::default();
        t.observe(f64::NAN);
        t.observe(-1.0);
        t.observe(0.0);
        assert_eq!(t.count(), 0);
        assert!(t.believed().is_none());
    }

    #[test]
    fn reset_keeps_store_but_clears_run_state() {
        let mut n = node();
        n.store.insert(ObjectId(5), 1000, SimTime::ZERO);
        assign(&mut n, job(1, 10), SimTime::ZERO);
        n.life.declined.insert(JobId(9));
        let rules = WorkerRules::default();
        n.begin_run(
            WorkerId(0),
            rules,
            Box::new(ObedientPolicy),
            RngStream::from_seed(1),
            true,
        );
        assert!(n.holds(ObjectId(5)));
        assert!(n.life.queue.is_empty());
        assert!(n.life.declined.is_empty());
        assert_eq!(n.life.backlog, 0.0);
        assert!(n.idle());
    }

    #[test]
    fn wait_statistics() {
        let mut n = node();
        assign(&mut n, job(1, 0), SimTime::from_secs(10));
        let s = n.start(SimTime::from_secs(14)).expect("queued");
        assert_eq!(s.waited, 4.0);
        assert_eq!(n.wait.count(), 1);
        assert!((n.wait.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn resource_free_job_always_has_data() {
        let n = node();
        let j = Job {
            resource: None,
            ..job(1, 0)
        };
        assert_eq!(estimate(&n, &j), (true, 0.0, 0.0));
    }

    /// The price as the node computed it before it kept its [`Machine`],
    /// kept as the reference of `the_price_reads_as_the_node_did`:
    /// Listing 2 read straight off the node — its store, trackers, spec,
    /// link, queue and declined jobs — with the backlog the old rules
    /// kept.
    /// `peers`: the input is not local and a live peer holds it.
    fn reference_price(
        n: &WorkerNode,
        backlog: f64,
        now: SimTime,
        job: &Job,
        peers: bool,
    ) -> WorkerView {
        let learning = n.rules.learning;
        let (has_data, mut est_fetch_secs) = reference_locality(n, job);
        if peers && est_fetch_secs > 0.0 {
            est_fetch_secs /= n.rules.repl.peer_bandwidth_scale;
        }
        let scan = if job.work_bytes == 0 {
            0.0
        } else {
            n.believed_rw(learning)
                .time_for(job.work_bytes)
                .as_secs_f64()
        };
        WorkerView {
            id: n.id,
            now,
            backlog_secs: backlog,
            has_data,
            declined_before: n.life.declined.contains(&job.id),
            est_fetch_secs,
            est_proc_secs: scan * n.spec.cpu_factor + job.cpu_secs * n.spec.cpu_factor,
            queue_len: n.life.queue.len(),
        }
    }

    /// The reference's `(has_data, est_fetch_secs)` (Listing 2 line 4).
    fn reference_locality(n: &WorkerNode, job: &Job) -> (bool, f64) {
        match job.resource {
            Some(r) if !n.store.peek(r.id) => {
                let bw = n.believed_net(n.rules.learning);
                let secs = n.link.latency().as_secs_f64() + bw.time_for(r.bytes).as_secs_f64();
                (false, secs)
            }
            _ => (true, 0.0),
        }
    }

    /// A view's fields, floats as bits: equal means bit for bit.
    fn bits(v: &WorkerView) -> (WorkerId, SimTime, u64, bool, bool, u64, u64, usize) {
        (
            v.id,
            v.now,
            v.backlog_secs.to_bits(),
            v.has_data,
            v.declined_before,
            v.est_fetch_secs.to_bits(),
            v.est_proc_secs.to_bits(),
            v.queue_len,
        )
    }

    /// `crossbid-core`'s `AdaptiveBiddingPolicy` in miniature (that
    /// crate depends on this one): Listing 2's estimate scaled by an
    /// EWMA of actual over estimated seconds, learned from every
    /// finished job.
    struct Adaptive(f64);

    impl WorkerPolicy for Adaptive {
        fn accept_offer(&mut self, _: &WorkerView, _: &JobView) -> bool {
            true
        }

        fn bid(&mut self, view: &WorkerView, _: &JobView) -> Option<f64> {
            Some(crate::scheduler::estimate_bid(view).total() * self.0)
        }

        fn on_job_finished(&mut self, est_secs: f64, actual_secs: f64) {
            if est_secs > 0.0 && actual_secs.is_finite() {
                self.0 = 0.8 * self.0 + 0.2 * actual_secs / est_secs;
            }
        }
    }

    /// One step of the pricing differential.
    #[derive(Debug, Clone)]
    enum PriceOp {
        /// Job `pick`, assigned or (`offer`) offered.
        Place {
            pick: usize,
            offer: bool,
        },
        Start,
        /// The job in hand's next phase: a transfer attempt, from the
        /// master or (`peer`) a peer, then its landing or loss, then
        /// the finish.
        Step {
            peer: bool,
        },
        /// Job `pick`'s input lands here, or the store is wiped.
        Hold {
            pick: usize,
        },
        Wipe,
        /// This incarnation declines job `pick` (Baseline's memory).
        Decline {
            pick: usize,
        },
        Crash,
        Recover,
        Tick {
            millis: u32,
        },
    }

    fn price_op() -> impl Strategy<Value = PriceOp> {
        (0u8..16, 0usize..16, proptest::bool::ANY).prop_map(|(kind, pick, flag)| match kind {
            0..=3 => PriceOp::Place { pick, offer: flag },
            4 | 5 => PriceOp::Start,
            6..=9 => PriceOp::Step { peer: flag },
            10 => PriceOp::Hold { pick },
            11 if flag => PriceOp::Wipe,
            11 => PriceOp::Decline { pick },
            12 if flag => PriceOp::Crash,
            12 => PriceOp::Recover,
            _ => PriceOp::Tick {
                millis: pick as u32 * 211,
            },
        })
    }

    /// Where the job in hand is.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Hand {
        Fetch,
        InFlight { lost: bool },
        Process,
    }

    proptest! {
        /// The node's price equals the price read straight off its parts
        /// ([`reference_price`]) bit for bit, view and bid, under
        /// random backlog, queue, holder, peer, declined and learning
        /// states, under the bidding, the adaptive and the Baseline
        /// policy. The reference keeps the backlog as the node did.
        #[test]
        fn the_price_reads_as_the_node_did(
            ops in proptest::collection::vec(price_op(), 10..160),
            learning in proptest::bool::ANY,
            reliable in proptest::bool::ANY,
            which in 0u8..3,
            cpu_factor in 0.5f64..3.0,
            learned in proptest::collection::vec(1.0f64..200.0, 0..3),
        ) {
            let spec = WorkerSpec::builder("w")
                .net_mbps(13.0)
                .rw_mbps(97.0)
                .cpu_factor(cpu_factor)
                .storage_gb(0.05)
                .build();
            let noise = NoiseModel::evaluation_default();
            let mut n = WorkerNode::new(spec, SimDuration::from_millis(300), &noise);
            // Speeds a previous run learned: the machine's, not the run's.
            for &mbps in &learned {
                n.net_tracker.observe(mbps);
                n.rw_tracker.observe(mbps * 3.0);
            }
            let rules = WorkerRules {
                learning,
                reliable,
                net: NetFaultPlan::none(),
                repl: ReplicationConfig::with_factor(2),
            };
            let policy: Box<dyn WorkerPolicy> = match which {
                0 => Box::new(crate::scheduler::BiddingPolicy),
                1 => Box::new(Adaptive(1.0)),
                _ => Box::new(crate::baseline::BaselinePolicy),
            };
            n.begin_run(WorkerId(3), rules, policy, RngStream::from_seed(9), true);
            let jobs: Vec<Job> = (0..6u64)
                .map(|i| Job {
                    // Job 5 needs no input; job 4 only CPU.
                    resource: (i < 5).then(|| ResourceRef {
                        id: ObjectId(i % 4),
                        bytes: 3_000_001 * (i % 4 + 1),
                    }),
                    work_bytes: if i == 4 { 0 } else { 5_000_003 * i },
                    cpu_secs: 0.41 * i as f64,
                    ..job(i, 0)
                })
                .collect();
            // What the old rules kept: the backlog, and each queued
            // job's estimate.
            let (mut backlog, mut ests, mut in_hand) = (0.0f64, VecDeque::<f64>::new(), None);
            let (mut now, mut alive, mut seq) = (SimTime::ZERO, true, 0u64);
            let mut hand: Option<(u64, Hand)> = None;
            for op in ops {
                match op {
                    PriceOp::Place { pick, offer } => {
                        let job = jobs[pick % jobs.len()].clone();
                        let (_, fetch) = reference_locality(&n, &job);
                        let est = fetch + reference_price(&n, 0.0, now, &job, false).est_proc_secs;
                        seq += 1;
                        if let Some(Intake::Taken { queued: true, .. }) =
                            n.intake(now, job, seq, offer, |_| pick % 2 == 0)
                        {
                            backlog += est;
                            ests.push_back(est);
                        }
                    }
                    PriceOp::Start => {
                        if let Some(s) = n.start(now) {
                            in_hand = ests.pop_front();
                            let at = if s.proc.is_some() { Hand::Process } else { Hand::Fetch };
                            hand = Some((s.epoch, at));
                        }
                    }
                    PriceOp::Step { peer } => match hand {
                        Some((epoch, Hand::Fetch)) => {
                            let sources = if peer { vec![WorkerId(7)] } else { vec![] };
                            let step = n.fetch(now, epoch, &sources).expect("live");
                            now += step.d;
                            hand = Some((epoch, Hand::InFlight { lost: step.lost }));
                        }
                        Some((epoch, Hand::InFlight { lost: true })) => {
                            n.fetch_lost(epoch).expect("live");
                            hand = Some((epoch, Hand::Fetch));
                        }
                        Some((epoch, Hand::InFlight { lost: false })) => {
                            let f = n.fetched(now, epoch).expect("live");
                            now += f.proc;
                            hand = Some((epoch, Hand::Process));
                        }
                        Some((epoch, Hand::Process)) => {
                            n.finish(now, epoch).expect("live");
                            backlog -= in_hand.take().expect("a job in hand");
                            if ests.is_empty() {
                                backlog = 0.0;
                            }
                            hand = None;
                        }
                        None => {}
                    },
                    PriceOp::Hold { pick } => {
                        if let Some(r) = jobs[pick % jobs.len()].resource {
                            n.store.insert(r.id, r.bytes, now);
                        }
                    }
                    PriceOp::Wipe => n.store.clear(),
                    PriceOp::Decline { pick } => {
                        n.life.declined.insert(jobs[pick % jobs.len()].id);
                    }
                    PriceOp::Crash if alive => {
                        n.crash(now);
                        (backlog, in_hand, hand, alive) = (0.0, None, None, false);
                        ests.clear();
                    }
                    PriceOp::Recover if !alive => {
                        n.recover();
                        alive = true;
                    }
                    PriceOp::Crash | PriceOp::Recover => {}
                    PriceOp::Tick { millis } => now += SimDuration::from_millis(millis as u64),
                }
                for job in &jobs {
                    for peer in [false, true] {
                        let (holds, peers) = n.peer_priced(job, |_| peer);
                        let view = n.view(now, &mut Quotes::new(job), holds, peers).0;
                        let priced_peer = peer && job.resource.is_some_and(|r| !n.holds(r.id));
                        let want = reference_price(&n, backlog, now, job, priced_peer);
                        prop_assert_eq!(bits(&view), bits(&want), "{:?}, peer {}", job.id, peer);
                        let jv = JobView { id: job.id, resource_bytes: job.resource_bytes() };
                        let want = if alive { n.policy.bid(&want, &jv) } else { None };
                        let got = n.bid(now, &mut Quotes::new(job), |_| peer);
                        prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
                    }
                }
            }
        }
    }

    proptest! {
        /// A round prices one job on many machines through one
        /// [`Quotes`]: each machine's price equals its price alone, bit
        /// for bit, while machines repeat and differ in any one field.
        #[test]
        fn a_round_prices_each_machine_as_alone(
            machines in proptest::collection::vec(
                (0usize..2, 0usize..2, 0usize..2, 0usize..2, proptest::bool::ANY, proptest::option::of(1.5f64..4.0)),
                1..40,
            ),
            bytes in 0u64..400_000_000,
            work in 0u64..400_000_000,
            cpu_secs in 0.0f64..5.0,
        ) {
            let job = Job { work_bytes: work, cpu_secs, ..job(1, bytes) };
            let mut round = Quotes::new(&job);
            for (net, rw, lat, cpu, holds, peers) in machines {
                let machine = Machine {
                    net: Bandwidth::mb_per_sec([10.0, 13.0][net]),
                    rw: Bandwidth::mb_per_sec([97.0, 100.0][rw]),
                    latency: [0.0, 0.3][lat],
                    cpu_factor: [1.0, 2.5][cpu],
                };
                let (a, b) = round.price(&machine, holds, peers);
                let (x, y) = Quotes::new(&job).price(&machine, holds, peers);
                prop_assert_eq!((a.to_bits(), b.to_bits()), (x.to_bits(), y.to_bits()), "{:?}", machine);
            }
        }
    }

    /// One step a driver may take. A step the driver would never take
    /// in the current state — a fetch with nothing in hand, a finish
    /// mid-transfer — is skipped.
    #[derive(Debug, Clone)]
    enum Op {
        /// Job `pick` under a fresh seq, or (`!fresh`) a redelivery of
        /// earlier placement `pick`: a retransmission or a duplicate.
        Place {
            fresh: bool,
            pick: usize,
            offer: bool,
        },
        Start,
        /// Fetch the missing input with no peer holding it (0), from a
        /// peer that delivers (1), or from a partitioned one (2).
        Fetch {
            src: u8,
        },
        /// The attempt in flight delivers, or times out if it was lost.
        Land,
        Finish,
        /// Whichever of start, fetch, land and finish is due next.
        Drive {
            src: u8,
        },
        Resend {
            pick: usize,
        },
        /// Far past every retransmission deadline: resend what is due.
        ResendDue,
        Ack {
            pick: usize,
        },
        /// Continuations quoting a dead epoch.
        Stale,
        Crash,
        Recover,
        Tick {
            millis: u32,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        let raw = (0u8..24, 0usize..64, 0u8..6, proptest::bool::ANY);
        raw.prop_map(|(kind, pick, src, flag)| {
            // Mostly the partitioned peer, so attempts run out.
            let src = src.min(2);
            match kind {
                0..=3 => Op::Place {
                    fresh: kind < 3,
                    pick,
                    offer: flag,
                },
                4 => Op::Start,
                5 => Op::Fetch { src },
                6 => Op::Land,
                7 => Op::Finish,
                8..=15 => Op::Drive { src },
                16 => Op::Resend { pick },
                17 => Op::ResendDue,
                18 => Op::Ack { pick },
                19 => Op::Stale,
                20 if flag => Op::Crash,
                20 => Op::Recover,
                _ => Op::Tick {
                    millis: pick as u32 * 97,
                },
            }
        })
    }

    /// Where the job in hand is.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Phase {
        Fetch,
        InFlight { lost: bool },
        Process,
    }

    /// What the current incarnation must remember.
    #[derive(Default)]
    struct Shadow {
        placements: HashMap<u64, bool>,
        accepted: BTreeSet<JobId>,
        declined: BTreeSet<JobId>,
        unacked: BTreeSet<JobId>,
        /// Jobs this incarnation started: each at most once.
        started: BTreeSet<JobId>,
        queue: VecDeque<JobId>,
        running: Option<(JobId, Phase)>,
        /// Peer attempts the job in hand lost.
        lost: u32,
    }

    const PEER_OK: WorkerId = WorkerId(8);
    const PEER_CUT: WorkerId = WorkerId(9);
    const MAX_ATTEMPTS: u32 = 3;

    proptest! {
        /// Random intake (fresh and redelivered placements), start,
        /// fetch, arrival or loss, finish, resend, ack, crash and
        /// recovery against a shadow of what the incarnation holds.
        #[test]
        fn the_worker_core_keeps_its_rules(ops in proptest::collection::vec(op(), 20..240)) {
            let spec = WorkerSpec::builder("w").net_mbps(13.0).rw_mbps(97.0).storage_gb(0.05);
            let noise = NoiseModel::evaluation_default();
            let mut n = WorkerNode::new(spec.build(), SimDuration::from_millis(300), &noise);
            let forever = SimTime::from_secs(1 << 40);
            let rules = WorkerRules {
                learning: true,
                reliable: true,
                net: NetFaultPlan::none().with_partition(Some(PEER_CUT), SimTime::ZERO, forever),
                repl: ReplicationConfig {
                    max_fetch_attempts: MAX_ATTEMPTS,
                    ..ReplicationConfig::with_factor(2)
                },
            };
            let policy = Box::new(crate::baseline::BaselinePolicy);
            n.begin_run(WorkerId(0), rules, policy, RngStream::from_seed(3), true);
            let jobs: Vec<Job> = (0..5u64)
                .map(|i| Job {
                    resource: Some(ResourceRef {
                        id: ObjectId(i % 3),
                        bytes: 7_000_001 * (i + 1),
                    }),
                    cpu_secs: 0.37 * i as f64,
                    ..job(i, 7_000_001 * (i + 1))
                })
                .collect();
            let (mut now, mut alive, mut epoch, mut last_seq) = (SimTime::ZERO, true, n.epoch, 0);
            let mut sent: Vec<(u64, Job, bool)> = Vec::new();
            let mut sh = Shadow::default();
            for op in ops {
                let op = match (op, sh.running) {
                    (Op::Drive { .. }, None) => Op::Start,
                    (Op::Drive { src }, Some((_, Phase::Fetch))) => Op::Fetch { src },
                    (Op::Drive { .. }, Some((_, Phase::InFlight { .. }))) => Op::Land,
                    (Op::Drive { .. }, Some((_, Phase::Process))) => Op::Finish,
                    (op, _) => op,
                };
                match op {
                    Op::Place { fresh, pick, offer } => {
                        let (seq, job, offer) = if fresh || sent.is_empty() {
                            last_seq += 1;
                            sent.push((last_seq, jobs[pick % jobs.len()].clone(), offer));
                            sent[sent.len() - 1].clone()
                        } else {
                            sent[pick % sent.len()].clone()
                        };
                        let (id, has_data) = (job.id, estimate(&n, &job).0);
                        let got = n.intake(now, job, seq, offer, |_| false);
                        if !alive {
                            prop_assert!(got.is_none(), "a dead instance took a placement in");
                            continue;
                        }
                        let held = sh.accepted.contains(&id).then_some(true);
                        let (queued, accept) = match sh.placements.get(&seq).copied().or(held) {
                            Some(accept) => (false, accept),
                            None => (true, !offer || has_data || sh.declined.contains(&id)),
                        };
                        sh.placements.insert(seq, accept);
                        match got {
                            Some(Intake::Taken { job, queued: q, ack }) if accept => {
                                prop_assert_eq!((job, q, ack), (id, queued, true));
                                if queued {
                                    sh.accepted.insert(id);
                                    sh.queue.push_back(id);
                                }
                            }
                            Some(Intake::Declined(job)) if !accept => {
                                prop_assert_eq!(job.id, id);
                                sh.declined.insert(id);
                            }
                            other => prop_assert!(false, "placement {seq} of {id:?}: got {other:?}"),
                        }
                    }
                    Op::Start => match n.start(now) {
                        Some(s) => {
                            prop_assert!(sh.running.is_none());
                            prop_assert_eq!(Some(s.job), sh.queue.pop_front());
                            prop_assert!(sh.started.insert(s.job), "{:?} executed twice", s.job);
                            let phase = if s.proc.is_some() { Phase::Process } else { Phase::Fetch };
                            (sh.running, sh.lost, epoch) = (Some((s.job, phase)), 0, s.epoch);
                        }
                        None => prop_assert!(sh.running.is_some() || sh.queue.is_empty()),
                    },
                    Op::Fetch { src } => {
                        let Some((id, Phase::Fetch)) = sh.running else { continue };
                        let sources = [vec![], vec![PEER_OK], vec![PEER_CUT]][src as usize].clone();
                        let step = n.fetch(now, epoch, &sources).expect("live");
                        let master = sources.is_empty() || sh.lost >= MAX_ATTEMPTS;
                        prop_assert_eq!(step.req.is_none(), master, "attempt {} from {:?}", sh.lost, sources);
                        prop_assert_eq!(step.lost, !master && src == 2);
                        sh.running = Some((id, Phase::InFlight { lost: step.lost }));
                    }
                    Op::Land => match sh.running {
                        Some((id, Phase::InFlight { lost: false })) => {
                            let f = n.fetched(now, epoch).expect("live");
                            prop_assert_eq!(f.job, id);
                            sh.running = Some((id, Phase::Process));
                        }
                        Some((id, Phase::InFlight { lost: true })) => {
                            let lost = n.fetch_lost(epoch).expect("live");
                            sh.lost += 1;
                            // After the last attempt, straight to the master.
                            prop_assert_eq!(lost.backoff.is_some(), sh.lost < MAX_ATTEMPTS);
                            sh.running = Some((id, Phase::Fetch));
                        }
                        _ => {}
                    },
                    Op::Finish => {
                        let Some((id, Phase::Process)) = sh.running else { continue };
                        sh.running = None;
                        let f = n.finish(now, epoch).expect("live");
                        prop_assert_eq!(f.report.job.id, id);
                        prop_assert!(f.resend.is_some(), "a report with no resend");
                        prop_assert_eq!(f.idle, sh.queue.is_empty());
                        sh.unacked.insert(id);
                    }
                    Op::Resend { pick } => {
                        let id = jobs[pick % jobs.len()].id;
                        let r = n.resend(now, id, n.epoch);
                        prop_assert_eq!(r.is_some(), sh.unacked.contains(&id), "resend of {:?}", id);
                        prop_assert!(r.is_none_or(|r| r.report.job.id == id && r.next.is_some()));
                    }
                    Op::ResendDue => {
                        now += SimDuration::from_secs(10_000);
                        let mut resent = BTreeSet::new();
                        while let Some(r) = n.resend_due(now) {
                            prop_assert!(resent.insert(r.report.job.id), "resent twice in one scan");
                        }
                        prop_assert_eq!(&resent, &sh.unacked, "every unacked report is due");
                    }
                    Op::Ack { pick } => {
                        let id = jobs[pick % jobs.len()].id;
                        n.ack_done(id);
                        sh.unacked.remove(&id);
                    }
                    Op::Stale => {
                        let dead = n.epoch.wrapping_sub(1);
                        prop_assert!(n.fetch(now, dead, &[PEER_OK]).is_none());
                        prop_assert!(n.fetched(now, dead).is_none() && n.fetch_lost(dead).is_none());
                        prop_assert!(n.finish(now, dead).is_none());
                        prop_assert!(n.resend(now, jobs[0].id, dead).is_none());
                    }
                    Op::Crash => {
                        if !alive {
                            continue;
                        }
                        let running = sh.running.map(|r| r.0);
                        let held: Vec<JobId> = running.into_iter().chain(sh.queue.iter().copied()).collect();
                        let stranded: Vec<JobId> = n.crash(now).iter().map(|j| j.id).collect();
                        prop_assert_eq!(stranded, held, "the job in hand, then the queue");
                        let life = &n.life;
                        prop_assert!(life.unacked.is_empty(), "a dead instance keeps reports to resend");
                        prop_assert!(life.placements.is_empty() && life.accepted.is_empty(), "dedup memory survived");
                        prop_assert!(life.declined.is_empty(), "declined jobs survived");
                        prop_assert!(n.resend_due(forever).is_none());
                        (sh, alive) = (Shadow::default(), false);
                    }
                    Op::Recover => {
                        if !alive {
                            n.recover();
                            alive = true;
                        }
                    }
                    Op::Tick { millis } => now += SimDuration::from_millis(millis as u64),
                    Op::Drive { .. } => unreachable!("resolved above"),
                }
                prop_assert_eq!(n.life.queue.len(), sh.queue.len());
                if sh.queue.is_empty() && sh.running.is_none() {
                    prop_assert_eq!(n.life.backlog, 0.0, "the backlog outlived the queue");
                }
            }
        }
    }
}
