//! Worker-side threads of the threaded runtime.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use crossbid_net::noise::NoiseSampler;
use crossbid_net::{Bandwidth, NoiseModel};
use crossbid_simcore::{RngStream, SimTime};
use crossbid_storage::LocalStore;
use parking_lot::Mutex;

use crate::faults::RetryPolicy;
use crate::job::{Job, JobId, ResourceRef, WorkerId};
use crate::obs::RuntimeMetrics;
use crate::worker::{SpeedTracker, WorkerSpec};

use super::repl::ReplState;
use super::{ToMaster, ToWorker};

/// State shared between a worker's bidder and executor threads —
/// "their internal state, i.e. their opinions".
pub(crate) struct WorkerShared {
    pub spec: WorkerSpec,
    /// Fault-injection switch: while `false` the worker is crashed —
    /// the bidder goes silent and the executor abandons its work.
    pub alive: bool,
    /// Incarnation counter, bumped on every crash *and* recovery.
    /// Queued work is tagged with the epoch it was accepted in; the
    /// executor discards anything from an older incarnation (a
    /// crashed instance's queue does not survive into the next one).
    pub epoch: u64,
    pub store: LocalStore,
    /// Sum of estimated virtual seconds of accepted-but-unfinished
    /// jobs (`totalCostOfUnfinishedJobs`).
    pub committed_secs: f64,
    /// Jobs declined once (Baseline bookkeeping).
    pub declined: std::collections::HashSet<crate::job::JobId>,
    /// Observed network speeds (historic average, §6.4).
    pub net_tracker: SpeedTracker,
    /// Observed read/write speeds (historic average, §6.4).
    pub rw_tracker: SpeedTracker,
    /// Virtual clock for store recency: advances with executed work.
    pub vclock: SimTime,
    /// Busy virtual seconds accumulated by the executor.
    pub busy_secs: f64,
}

impl WorkerShared {
    pub fn new(spec: WorkerSpec) -> Self {
        WorkerShared {
            alive: true,
            epoch: 0,
            store: LocalStore::new(spec.storage_bytes, spec.eviction),
            committed_secs: 0.0,
            declined: Default::default(),
            net_tracker: SpeedTracker::default(),
            rw_tracker: SpeedTracker::default(),
            vclock: SimTime::ZERO,
            busy_secs: 0.0,
            spec,
        }
    }

    pub fn believed_net(&self, learning: bool) -> Bandwidth {
        if learning {
            self.net_tracker.believed().unwrap_or(self.spec.net)
        } else {
            self.spec.net
        }
    }

    pub fn believed_rw(&self, learning: bool) -> Bandwidth {
        if learning {
            self.rw_tracker.believed().unwrap_or(self.spec.rw)
        } else {
            self.spec.rw
        }
    }

    /// The cost of `job` alone: transfer + processing, *excluding* the
    /// backlog. This is what joins `committed_secs` when the job is
    /// accepted.
    pub fn marginal_cost_secs(&self, job: &Job, learning: bool) -> f64 {
        let fetch = match job.resource {
            Some(r) if !self.store.peek(r.id) => {
                self.believed_net(learning).time_for(r.bytes).as_secs_f64()
            }
            _ => 0.0,
        };
        let scan = if job.work_bytes == 0 {
            0.0
        } else {
            self.believed_rw(learning)
                .time_for(job.work_bytes)
                .as_secs_f64()
        };
        fetch + scan * self.spec.cpu_factor + job.cpu_secs * self.spec.cpu_factor
    }

    /// Listing 2's estimate: backlog + transfer + processing.
    pub fn estimate_secs(&self, job: &Job, learning: bool) -> f64 {
        self.committed_secs + self.marginal_cost_secs(job, learning)
    }

    /// Has the data (or needs none)?
    pub fn has_data(&self, job: &Job) -> bool {
        match job.resource {
            None => true,
            Some(r) => self.store.peek(r.id),
        }
    }

    /// Reset per-run state between session iterations: the cache
    /// contents and learned speeds persist (warm iterations, §6.3.1);
    /// commitments, decline memory, busy time and store *statistics*
    /// start fresh. The epoch bump invalidates any stale queue items.
    pub fn reset_for_run(&mut self) {
        self.alive = true;
        self.epoch += 1;
        self.committed_secs = 0.0;
        self.declined.clear();
        self.busy_secs = 0.0;
        self.store.reset_stats();
    }
}

pub(crate) struct WorkerThreads {
    pub bidder: std::thread::JoinHandle<()>,
    pub executor: std::thread::JoinHandle<()>,
}

/// Which protocol the bidder thread speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Protocol {
    Bidding,
    Baseline,
}

struct ExecItem {
    job: Job,
    est_secs: f64,
    enqueued: Instant,
    /// Incarnation that accepted the job; stale items are discarded.
    epoch: u64,
}

/// A completion whose `Done` has not been acked by the master yet;
/// the bidder retransmits it on a backoff schedule until the
/// [`ToWorker::AckDone`] arrives. At-least-once on the wire,
/// exactly-once in effect (the master dedups by job id).
struct PendingDone {
    job: Job,
    wait_secs: f64,
    fetch_secs: f64,
    proc_secs: f64,
    next: Instant,
    attempt: u32,
}

/// Worker half of the `Done` reliability loop, shared between the
/// executor (which registers completions) and the bidder (which
/// retransmits them).
struct DoneRelay {
    retry: RetryPolicy,
    seed: u64,
    pending: Arc<Mutex<Vec<PendingDone>>>,
}

/// Spawn one worker's bidder + executor threads.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_worker(
    id: u32,
    shared: Arc<Mutex<WorkerShared>>,
    rx_control: Receiver<ToWorker>,
    to_master: Sender<ToMaster>,
    protocol: Protocol,
    time_scale: f64,
    noise: NoiseModel,
    speed_learning: bool,
    seed: u64,
    metrics: RuntimeMetrics,
    // Chaos hook: maximum extra real-time delay before answering a
    // bid request (seeded, uniform). `Duration::ZERO` disables.
    bid_delay: Duration,
    // Reliability layer (net-fault runs): ack placements, dedup
    // retransmitted deliveries, resend unacked `Done`s and heartbeat
    // idleness. `None` leaves the worker exactly as before.
    reliability: Option<RetryPolicy>,
    // Replicated data plane: peer-aware bid pricing and worker→worker
    // fetches. `None` keeps the historic master-fetch path.
    repl: Option<Arc<Mutex<ReplState>>>,
) -> WorkerThreads {
    let (tx_exec, rx_exec) = crossbeam_channel::unbounded::<ExecItem>();
    let virt = move |v: f64| Duration::from_secs_f64((v * time_scale).max(0.0));
    let pending: Arc<Mutex<Vec<PendingDone>>> = Arc::new(Mutex::new(Vec::new()));

    // ---------------- bidder thread ----------------
    let bidder = {
        let shared = Arc::clone(&shared);
        let to_master = to_master.clone();
        let tx_exec = tx_exec.clone();
        let metrics = metrics.clone();
        let pending = Arc::clone(&pending);
        let repl = repl.clone();
        std::thread::Builder::new()
            .name(format!("bidder-{id}"))
            .spawn(move || {
                let mut delay_rng = RngStream::from_seed(seed ^ 0xB1D_DE1A);
                // Reliability state, all scoped to the current
                // incarnation (cleared on an epoch change): placement
                // seq → accepted?, so retransmitted deliveries replay
                // their outcome; job-id-level accept memory, so a
                // re-placement after a lost ack is confirmed without
                // a second execution.
                let mut placements: HashMap<u64, bool> = HashMap::new();
                let mut accepted_jobs: HashSet<JobId> = HashSet::new();
                let mut seen_epoch = u64::MAX;
                let tick = reliability.map(|r| virt(r.base_secs).max(Duration::from_millis(1)));
                loop {
                    let msg = match tick {
                        Some(t) => match rx_control.recv_timeout(t) {
                            Ok(m) => Some(m),
                            Err(RecvTimeoutError::Timeout) => None,
                            Err(RecvTimeoutError::Disconnected) => break,
                        },
                        None => match rx_control.recv() {
                            Ok(m) => Some(m),
                            Err(_) => break,
                        },
                    };
                    // Retransmit completions the master has not acked
                    // yet (at-least-once `Done`; unbounded attempts —
                    // past the configured max the backoff stays at
                    // its cap).
                    if let Some(r) = reliability {
                        let now = Instant::now();
                        let mut p = pending.lock();
                        for d in p.iter_mut() {
                            if d.next > now {
                                continue;
                            }
                            metrics.net_retries.inc();
                            let _ = to_master.send(ToMaster::Done {
                                worker: id,
                                job: d.job.clone(),
                                wait_secs: d.wait_secs,
                                fetch_secs: d.fetch_secs,
                                proc_secs: d.proc_secs,
                            });
                            d.attempt += 1;
                            let series = RetryPolicy::series_seed(seed, d.job.id, 0);
                            let delay =
                                r.capped_delay_secs(series, d.attempt).unwrap_or(r.cap_secs);
                            d.next = now + virt(delay);
                        }
                    }
                    let Some(msg) = msg else { continue };
                    match msg {
                        ToWorker::Shutdown => break,
                        ToWorker::BidRequest(job) => {
                            // A crashed worker is silent: the request
                            // simply goes unanswered and the contest
                            // resolves by timeout.
                            let est = {
                                let s = shared.lock();
                                if !s.alive {
                                    continue;
                                }
                                let mut est = s.estimate_secs(&job, speed_learning);
                                // Replica-aware pricing: a worker that
                                // would fetch from a live peer replica
                                // bids the cheaper intra-cluster
                                // transfer, spreading locality pressure
                                // over the whole replica set.
                                if let (Some(rp), Some(r)) = (repl.as_ref(), job.resource) {
                                    if !s.store.peek(r.id) {
                                        let rp = rp.lock();
                                        if !rp.peer_sources(r.id, id).is_empty() {
                                            let fetch = s
                                                .believed_net(speed_learning)
                                                .time_for(r.bytes)
                                                .as_secs_f64();
                                            est -=
                                                fetch * (1.0 - 1.0 / rp.cfg.peer_bandwidth_scale);
                                        }
                                    }
                                }
                                est
                            };
                            if bid_delay > Duration::ZERO {
                                // Chaos: think about it for a while —
                                // some bids now genuinely race the
                                // contest window.
                                std::thread::sleep(bid_delay.mul_f64(delay_rng.uniform(0.0, 1.0)));
                            }
                            let _ = to_master.send(ToMaster::Bid {
                                worker: id,
                                job: job.id,
                                estimate_secs: est,
                            });
                        }
                        ToWorker::Offer { job, seq } => {
                            let (accept, est, epoch) = {
                                let mut s = shared.lock();
                                if !s.alive {
                                    continue;
                                }
                                if reliability.is_some() {
                                    if s.epoch != seen_epoch {
                                        seen_epoch = s.epoch;
                                        placements.clear();
                                        accepted_jobs.clear();
                                    }
                                    match placements.get(&seq) {
                                        // Retransmitted/duplicated
                                        // delivery: replay the recorded
                                        // outcome, don't re-run the
                                        // policy (no double-insert, no
                                        // double-reject).
                                        Some(true) => {
                                            drop(s);
                                            let _ = to_master.send(ToMaster::AckAssign {
                                                worker: id,
                                                job: job.id,
                                                seq,
                                            });
                                            continue;
                                        }
                                        Some(false) => {
                                            drop(s);
                                            let _ = to_master.send(ToMaster::Reject {
                                                worker: id,
                                                job,
                                                seq,
                                            });
                                            continue;
                                        }
                                        None => {}
                                    }
                                    if accepted_jobs.contains(&job.id) {
                                        // A lost ack bounced the job
                                        // back to us under a new seq:
                                        // confirm the placement, the
                                        // queued copy runs once.
                                        placements.insert(seq, true);
                                        drop(s);
                                        let _ = to_master.send(ToMaster::AckAssign {
                                            worker: id,
                                            job: job.id,
                                            seq,
                                        });
                                        continue;
                                    }
                                }
                                let accept = s.has_data(&job) || s.declined.contains(&job.id);
                                if accept {
                                    let est = s.marginal_cost_secs(&job, speed_learning);
                                    s.committed_secs += est;
                                    (true, est, s.epoch)
                                } else {
                                    s.declined.insert(job.id);
                                    (false, 0.0, s.epoch)
                                }
                            };
                            if accept {
                                if reliability.is_some() {
                                    placements.insert(seq, true);
                                    accepted_jobs.insert(job.id);
                                    let _ = to_master.send(ToMaster::AckAssign {
                                        worker: id,
                                        job: job.id,
                                        seq,
                                    });
                                }
                                metrics.assignments.inc();
                                let _ = tx_exec.send(ExecItem {
                                    job,
                                    est_secs: est,
                                    enqueued: Instant::now(),
                                    epoch,
                                });
                            } else {
                                if reliability.is_some() {
                                    placements.insert(seq, false);
                                }
                                let _ = to_master.send(ToMaster::Reject {
                                    worker: id,
                                    job,
                                    seq,
                                });
                            }
                        }
                        ToWorker::Assign { job, seq } => {
                            let (est, epoch) = {
                                let mut s = shared.lock();
                                if !s.alive {
                                    continue;
                                }
                                if reliability.is_some() {
                                    if s.epoch != seen_epoch {
                                        seen_epoch = s.epoch;
                                        placements.clear();
                                        accepted_jobs.clear();
                                    }
                                    if placements.contains_key(&seq)
                                        || accepted_jobs.contains(&job.id)
                                    {
                                        // Duplicate delivery or a
                                        // re-placement of a job we
                                        // already hold: re-ack only.
                                        placements.insert(seq, true);
                                        drop(s);
                                        let _ = to_master.send(ToMaster::AckAssign {
                                            worker: id,
                                            job: job.id,
                                            seq,
                                        });
                                        continue;
                                    }
                                }
                                let est = s.marginal_cost_secs(&job, speed_learning);
                                s.committed_secs += est;
                                (est, s.epoch)
                            };
                            if reliability.is_some() {
                                placements.insert(seq, true);
                                accepted_jobs.insert(job.id);
                                let _ = to_master.send(ToMaster::AckAssign {
                                    worker: id,
                                    job: job.id,
                                    seq,
                                });
                            }
                            metrics.assignments.inc();
                            let _ = tx_exec.send(ExecItem {
                                job,
                                est_secs: est,
                                enqueued: Instant::now(),
                                epoch,
                            });
                        }
                        ToWorker::AckDone(job_id) => {
                            pending.lock().retain(|d| d.job.id != job_id);
                        }
                    }
                }
            })
            .expect("spawn bidder")
    };

    // ---------------- executor thread ----------------
    let executor = std::thread::Builder::new()
        .name(format!("exec-{id}"))
        .spawn(move || {
            drop(tx_exec); // executor only receives
            let mut rng = RngStream::from_seed(seed);
            let mut net_noise = noise.sampler();
            let mut rw_noise = noise.sampler();
            let relay = reliability.map(|retry| DoneRelay {
                retry,
                seed,
                pending,
            });
            // Periodic idle re-announcement under the reliability
            // layer: a dropped `Idle` must only delay the pull loop,
            // not stall it for good.
            let heartbeat =
                reliability.map(|r| virt(r.heartbeat_secs).max(Duration::from_millis(5)));
            // Announce initial idleness (the first pull).
            let _ = to_master.send(ToMaster::Idle { worker: id });
            loop {
                let item = match heartbeat {
                    Some(hb) => match rx_exec.recv_timeout(hb) {
                        Ok(i) => i,
                        Err(RecvTimeoutError::Timeout) => {
                            let alive = shared.lock().alive;
                            if alive && rx_exec.is_empty() {
                                let _ = to_master.send(ToMaster::Idle { worker: id });
                            }
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    },
                    None => match rx_exec.recv() {
                        Ok(i) => i,
                        Err(_) => break,
                    },
                };
                // A crash bumps the epoch: anything accepted by the
                // previous incarnation is the dead instance's queue
                // and evaporates here.
                {
                    let s = shared.lock();
                    if !s.alive || s.epoch != item.epoch {
                        continue;
                    }
                }
                let wait_secs = item.enqueued.elapsed().as_secs_f64() / time_scale.max(1e-12);
                metrics.queue_wait_secs.record(wait_secs);
                let completed = execute_one(
                    id,
                    &shared,
                    &to_master,
                    item.job,
                    item.est_secs,
                    item.epoch,
                    wait_secs,
                    time_scale,
                    &mut net_noise,
                    &mut rw_noise,
                    &mut rng,
                    &metrics,
                    relay.as_ref(),
                    repl.as_ref(),
                );
                if completed && rx_exec.is_empty() {
                    let _ = to_master.send(ToMaster::Idle { worker: id });
                }
            }
            let _ = protocol; // protocol differences live master-side + in Offer handling
        })
        .expect("spawn executor");

    WorkerThreads { bidder, executor }
}

/// Execute one job. Returns `false` if the worker crashed mid-job
/// (epoch moved on): the job is abandoned without a completion — the
/// master's detection machinery will redistribute it.
#[allow(clippy::too_many_arguments)]
fn execute_one(
    id: u32,
    shared: &Arc<Mutex<WorkerShared>>,
    to_master: &Sender<ToMaster>,
    job: Job,
    est_secs: f64,
    epoch: u64,
    wait_secs: f64,
    time_scale: f64,
    net_noise: &mut NoiseSampler,
    rw_noise: &mut NoiseSampler,
    rng: &mut RngStream,
    metrics: &RuntimeMetrics,
    relay: Option<&DoneRelay>,
    repl: Option<&Arc<Mutex<ReplState>>>,
) -> bool {
    let stale = |s: &WorkerShared| !s.alive || s.epoch != epoch;
    // ---- fetch phase ----
    let mut fetch_secs = 0.0;
    let mut fetched = false;
    let miss = {
        let mut s = shared.lock();
        if stale(&s) {
            return false;
        }
        match job.resource {
            Some(r) => {
                let now = s.vclock;
                !s.store.lookup(r.id, now)
            }
            None => false,
        }
    };
    if miss {
        let r = job.resource.expect("miss implies a resource");
        fetched = true;
        if let Some(rp) = repl {
            // Replicated data plane: rotate over live peer replicas
            // with timeout + backoff, degrading to a master fetch.
            match peer_fetch(
                id, shared, rp, &job, r, epoch, time_scale, net_noise, rng, metrics,
            ) {
                Some(secs) => fetch_secs = secs,
                None => return false,
            }
        } else {
            let secs = {
                let mut s = shared.lock();
                if stale(&s) {
                    return false;
                }
                let m = net_noise.sample(rng);
                let speed = s.spec.net.scaled(m);
                let secs = speed.time_for(r.bytes).as_secs_f64();
                if secs > 0.0 {
                    let mbps = r.bytes as f64 / 1e6 / secs;
                    s.net_tracker.observe(mbps);
                }
                secs
            };
            if secs > 0.0 {
                sleep_virtual(secs, time_scale);
            }
            let mut s = shared.lock();
            if stale(&s) {
                // Crashed during the transfer: the bytes never landed.
                return false;
            }
            let now = s.vclock + crossbid_simcore::SimDuration::from_secs_f64(secs);
            s.store.insert(r.id, r.bytes, now);
            fetch_secs = secs;
        }
    }

    // ---- processing phase ----
    let proc_secs = {
        let mut s = shared.lock();
        if stale(&s) {
            return false;
        }
        let m = rw_noise.sample(rng);
        let rw = s.spec.rw.scaled(m);
        let scan = rw.time_for(job.work_bytes).as_secs_f64();
        if job.work_bytes > 0 && scan > 0.0 {
            s.rw_tracker.observe(job.work_bytes as f64 / 1e6 / scan);
        }
        scan * s.spec.cpu_factor + job.cpu_secs * s.spec.cpu_factor
    };
    if proc_secs > 0.0 {
        sleep_virtual(proc_secs, time_scale);
    }

    // ---- bookkeeping + completion ----
    {
        let mut s = shared.lock();
        if stale(&s) {
            // Crashed during processing: the result dies with the
            // instance, no completion is reported.
            return false;
        }
        s.committed_secs = (s.committed_secs - est_secs).max(0.0);
        s.busy_secs += fetch_secs + proc_secs;
        s.vclock += crossbid_simcore::SimDuration::from_secs_f64(fetch_secs + proc_secs);
    }
    if fetched {
        // One fetch-histogram sample per actual transfer, mirroring
        // the engine's per-FetchDone recording (count == misses).
        metrics.fetch_secs.record(fetch_secs);
    }
    metrics.proc_secs.record(proc_secs);
    if let Some(rel) = relay {
        // Keep a copy for retransmission until the master acks the
        // completion: the `Done` below crosses a lossy link.
        let d = rel
            .retry
            .delay_secs(RetryPolicy::series_seed(rel.seed, job.id, 0), 0)
            .unwrap_or(rel.retry.base_secs);
        rel.pending.lock().push(PendingDone {
            job: job.clone(),
            wait_secs,
            fetch_secs,
            proc_secs,
            next: Instant::now() + Duration::from_secs_f64((d * time_scale).max(0.0)),
            attempt: 0,
        });
    }
    let _ = to_master.send(ToMaster::Done {
        worker: id,
        job,
        wait_secs,
        fetch_secs,
        proc_secs,
    });
    true
}

/// One step of the peer-fetch protocol, decided under both locks.
enum FetchStep {
    /// Transfer from peer `from`: either the bytes arrive after
    /// `secs`, or the attempt is `lost` and the worker notices via
    /// `timeout_secs`.
    Peer {
        from: u32,
        secs: f64,
        lost: bool,
        timeout_secs: f64,
    },
    /// Degraded master fetch (no live replica, or budget spent):
    /// always succeeds at nominal link speed.
    Master { secs: f64 },
}

/// Resolve a cache miss through the replicated data plane: rotate
/// over live replica holders with deterministic loss sampling, a
/// timeout + seeded backoff between attempts, and a degraded master
/// fetch once the attempt budget is spent or no replica is live.
///
/// Returns the total virtual seconds the resolution took (timeouts
/// and backoffs included), or `None` if the worker crashed mid-fetch.
#[allow(clippy::too_many_arguments)]
fn peer_fetch(
    id: u32,
    shared: &Arc<Mutex<WorkerShared>>,
    repl: &Arc<Mutex<ReplState>>,
    job: &Job,
    r: ResourceRef,
    epoch: u64,
    time_scale: f64,
    net_noise: &mut NoiseSampler,
    rng: &mut RngStream,
    metrics: &RuntimeMetrics,
) -> Option<f64> {
    let stale = |s: &WorkerShared| !s.alive || s.epoch != epoch;
    let mut total = 0.0;
    let mut attempt = 0u32;
    loop {
        // Source choice, loss sample and the `fetch_req` journal entry
        // happen in one critical section, so the committed log never
        // shows a fetch from a source that was already dropped.
        let step = {
            let mut s = shared.lock();
            if stale(&s) {
                return None;
            }
            let mut rp = repl.lock();
            rp.apply_pin_ops(id, &mut s.store);
            let sources = rp.peer_sources(r.id, id);
            if sources.is_empty() || attempt >= rp.cfg.max_fetch_attempts {
                let m = net_noise.sample(rng);
                let speed = s.spec.net.scaled(m);
                let secs = speed.time_for(r.bytes).as_secs_f64();
                if secs > 0.0 {
                    let mbps = r.bytes as f64 / 1e6 / secs;
                    s.net_tracker.observe(mbps);
                }
                FetchStep::Master { secs }
            } else {
                let from = sources[attempt as usize % sources.len()];
                rp.journal.push((
                    id,
                    Some(job.id),
                    crate::trace::SchedEventKind::FetchReq {
                        object: r.id.0,
                        from: WorkerId(from),
                    },
                ));
                let lost = rp.link_blocked(from, id) || rp.peer_lost(r.id, id, attempt);
                let m = net_noise.sample(rng);
                let speed = s.spec.net.scaled(m);
                FetchStep::Peer {
                    from,
                    secs: speed.time_for(r.bytes).as_secs_f64() / rp.cfg.peer_bandwidth_scale,
                    lost,
                    timeout_secs: rp.cfg.fetch_timeout_secs,
                }
            }
        };
        match step {
            FetchStep::Master { secs } => {
                if secs > 0.0 {
                    sleep_virtual(secs, time_scale);
                }
                total += secs;
                let mut s = shared.lock();
                if stale(&s) {
                    return None;
                }
                let mut rp = repl.lock();
                rp.apply_pin_ops(id, &mut s.store);
                let now = s.vclock + crossbid_simcore::SimDuration::from_secs_f64(total);
                let evicted = s.store.insert(r.id, r.bytes, now);
                rp.note_insert(id, &s.store, r.id, r.bytes, evicted);
                return Some(total);
            }
            FetchStep::Peer {
                from,
                secs,
                lost,
                timeout_secs,
            } => {
                if lost {
                    // The transfer is lost in flight; the worker
                    // notices via timeout, records the failure and
                    // backs off before rotating to the next replica.
                    sleep_virtual(timeout_secs, time_scale);
                    total += timeout_secs;
                    metrics.peer_retries.inc();
                    let backoff = {
                        let s = shared.lock();
                        if stale(&s) {
                            return None;
                        }
                        let mut rp = repl.lock();
                        rp.journal.push((
                            id,
                            Some(job.id),
                            crate::trace::SchedEventKind::FetchFail {
                                object: r.id.0,
                                from: WorkerId(from),
                                attempt,
                            },
                        ));
                        rp.netfaults.fetch_backoff_secs(job.id, r.id, attempt)
                    };
                    sleep_virtual(backoff, time_scale);
                    total += backoff;
                    attempt += 1;
                    continue;
                }
                sleep_virtual(secs, time_scale);
                total += secs;
                let mut s = shared.lock();
                if stale(&s) {
                    return None;
                }
                let mut rp = repl.lock();
                rp.apply_pin_ops(id, &mut s.store);
                rp.journal.push((
                    id,
                    Some(job.id),
                    crate::trace::SchedEventKind::FetchOk {
                        object: r.id.0,
                        from: WorkerId(from),
                    },
                ));
                // The lookup counted a cold miss; the bytes came from
                // a peer, so reclassify it.
                s.store.note_peer_fetch();
                let now = s.vclock + crossbid_simcore::SimDuration::from_secs_f64(total);
                let evicted = s.store.insert(r.id, r.bytes, now);
                rp.note_insert(id, &s.store, r.id, r.bytes, evicted);
                return Some(total);
            }
        }
    }
}

fn sleep_virtual(virtual_secs: f64, time_scale: f64) {
    let real = virtual_secs * time_scale;
    if real > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(real.min(30.0)));
    }
}
