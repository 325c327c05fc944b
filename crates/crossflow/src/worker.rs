//! Worker node specifications and runtime state.
//!
//! A worker is characterized by its network speed, read/write speed,
//! CPU factor and local storage — exactly the dimensions the paper's
//! worker configurations vary ("one worker's internet and read/write
//! speeds are significantly faster…", §4; presets in §6.3.1). The
//! *believed* speeds (used for estimates/bids) start at the nominal
//! spec values and, with §6.4's speed learning enabled, are updated to
//! the historic average of observed speeds after every transfer and
//! scan.

use std::collections::VecDeque;

use crossbid_net::{Bandwidth, Link, NoiseModel};
use crossbid_simcore::{IdMap, IdSet, SimDuration, SimTime, TimeWeighted, Welford};
use crossbid_storage::{EvictionPolicy, LocalStore, ObjectId};

use crate::job::{Job, JobId};

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

/// What a worker is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerActivity {
    /// Waiting for work.
    Idle,
    /// Downloading the resource for a job.
    Fetching(JobId),
    /// Scanning/processing a job.
    Processing(JobId),
}

/// Full runtime state of one worker node inside the simulation
/// engine.
///
/// Persistent across session iterations: `spec`, `store`, `link`,
/// speed trackers. Per-run: queue, activity, declined set, backlog
/// accounting, busy statistics.
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

    /// FIFO queue of jobs won/assigned but not yet started.
    pub queue: VecDeque<Job>,
    /// Current activity.
    pub activity: WorkerActivity,
    /// Jobs this worker has declined once (Baseline's reject-once
    /// bookkeeping: "workers are required to keep track of any jobs
    /// they have previously declined", §4).
    pub declined: IdSet<JobId>,
    /// Estimated cost (seconds) of each unfinished job, keyed by id —
    /// `totalCostOfUnfinishedJobs()` from Listing 2.
    pub unfinished_est: IdMap<JobId, f64>,
    /// Running total of `unfinished_est` values, so a bid reads the
    /// backlog in O(1) instead of summing the whole queue (which made
    /// bidding quadratic once an overloaded cluster's queues grew).
    /// Resets to exactly 0.0 whenever the map empties, so removal
    /// round-off can never accumulate across the run.
    backlog_est: f64,
    /// When each queued job was enqueued (for wait-time stats).
    pub enqueued_at: IdMap<JobId, SimTime>,
    /// Busy (fetching or processing) indicator over time.
    pub busy: TimeWeighted,
    /// Per-job queue-wait observations, seconds.
    pub wait: Welford,
}

impl WorkerNode {
    /// Create a fresh node from its spec. `data_latency` is the
    /// per-transfer setup cost; `noise` disturbs both network and
    /// read/write speeds during execution.
    pub fn new(spec: WorkerSpec, data_latency: SimDuration, noise: &NoiseModel) -> Self {
        let noise = spec.noise_override.clone().unwrap_or_else(|| noise.clone());
        let store = LocalStore::new(spec.storage_bytes, spec.eviction);
        let link = Link::new(spec.net, data_latency, noise.clone());
        WorkerNode {
            store,
            link,
            rw_noise: noise.sampler(),
            net_tracker: SpeedTracker::default(),
            rw_tracker: SpeedTracker::default(),
            queue: VecDeque::new(),
            activity: WorkerActivity::Idle,
            declined: IdSet::default(),
            unfinished_est: IdMap::default(),
            backlog_est: 0.0,
            enqueued_at: IdMap::default(),
            busy: TimeWeighted::new(),
            wait: Welford::new(),
            spec,
        }
    }

    /// Reset per-run state, keeping the persistent pieces (store,
    /// learned speeds, link noise state).
    pub fn reset_for_iteration(&mut self) {
        self.queue.clear();
        self.activity = WorkerActivity::Idle;
        self.declined.clear();
        self.unfinished_est.clear();
        self.backlog_est = 0.0;
        self.enqueued_at.clear();
        self.busy = TimeWeighted::new();
        self.wait = Welford::new();
        self.store.reset_stats();
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

    /// Estimated seconds to obtain `job`'s resource: zero if it is in
    /// the local store, else latency + size / believed network speed
    /// (Listing 2 line 4).
    pub fn est_fetch_secs(&self, job: &Job, learning: bool) -> f64 {
        self.locality(job, learning).1
    }

    /// [`has_data`](Self::has_data) and
    /// [`est_fetch_secs`](Self::est_fetch_secs) from one look at the
    /// store — a bid needs both.
    pub fn locality(&self, job: &Job, learning: bool) -> (bool, f64) {
        match job.resource {
            Some(r) if !self.store.peek(r.id) => {
                let bw = self.believed_net(learning);
                let secs = self.link.latency().as_secs_f64() + bw.time_for(r.bytes).as_secs_f64();
                (false, secs)
            }
            _ => (true, 0.0),
        }
    }

    /// Estimated seconds to process `job`: work bytes / believed
    /// read-write speed × CPU factor + fixed CPU seconds (Listing 2
    /// line 5).
    pub fn est_proc_secs(&self, job: &Job, learning: bool) -> f64 {
        let scan = if job.work_bytes == 0 {
            0.0
        } else {
            self.believed_rw(learning)
                .time_for(job.work_bytes)
                .as_secs_f64()
        };
        scan * self.spec.cpu_factor + job.cpu_secs * self.spec.cpu_factor
    }

    /// `totalCostOfUnfinishedJobs()` — the backlog component of a bid
    /// (Listing 2 line 2).
    pub fn backlog_secs(&self) -> f64 {
        self.backlog_est
    }

    /// Account a newly enqueued job at `now` with estimate `est`.
    pub fn enqueue(&mut self, job: Job, now: SimTime, est: f64) {
        if let Some(old) = self.unfinished_est.insert(job.id, est) {
            self.backlog_est -= old;
        }
        self.backlog_est += est;
        self.enqueued_at.insert(job.id, now);
        self.queue.push_back(job);
    }

    /// Account a finished job.
    pub fn finish(&mut self, id: JobId) {
        if let Some(est) = self.unfinished_est.remove(&id) {
            self.backlog_est -= est;
        }
        if self.unfinished_est.is_empty() {
            self.backlog_est = 0.0;
        }
        self.enqueued_at.remove(&id);
    }

    /// Drop all backlog accounting (a crash wipes the queue).
    pub fn clear_backlog(&mut self) {
        self.unfinished_est.clear();
        self.backlog_est = 0.0;
    }

    /// True iff the worker holds `job`'s resource locally (or the job
    /// needs none).
    pub fn has_data(&self, job: &Job) -> bool {
        match job.resource {
            None => true,
            Some(r) => self.store.peek(r.id),
        }
    }

    /// Record a queue-wait observation when a job starts at `now`.
    pub fn note_start(&mut self, id: JobId, now: SimTime) {
        if let Some(t0) = self.enqueued_at.get(&id) {
            self.wait.push(now.saturating_since(*t0).as_secs_f64());
        }
    }

    /// Number of resources held locally.
    pub fn cached_objects(&self) -> usize {
        self.store.len()
    }

    /// Convenience for tests: is a specific object cached?
    pub fn holds(&self, id: ObjectId) -> bool {
        self.store.peek(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, Payload, ResourceRef, TaskId};

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
        assert!((n.est_fetch_secs(&j, false) - 10.0).abs() < 1e-9);
        n.store
            .insert(j.resource.unwrap().id, 100_000_000, SimTime::ZERO);
        assert_eq!(n.est_fetch_secs(&j, false), 0.0);
        assert!(n.has_data(&j));
    }

    #[test]
    fn proc_estimate_uses_rw_and_cpu_factor() {
        let mut n = node();
        let j = job(1, 200_000_000); // 200 MB at 100 MB/s = 2 s
        assert!((n.est_proc_secs(&j, false) - 2.0).abs() < 1e-9);
        n.spec.cpu_factor = 3.0;
        assert!((n.est_proc_secs(&j, false) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn backlog_tracks_unfinished_jobs() {
        let mut n = node();
        assert_eq!(n.backlog_secs(), 0.0);
        n.enqueue(job(1, 0), SimTime::ZERO, 5.0);
        n.enqueue(job(2, 0), SimTime::ZERO, 7.0);
        assert!((n.backlog_secs() - 12.0).abs() < 1e-9);
        n.finish(JobId(1));
        assert!((n.backlog_secs() - 7.0).abs() < 1e-9);
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
        n.enqueue(job(1, 10), SimTime::ZERO, 1.0);
        n.declined.insert(JobId(9));
        n.reset_for_iteration();
        assert!(n.holds(ObjectId(5)));
        assert!(n.queue.is_empty());
        assert!(n.declined.is_empty());
        assert_eq!(n.backlog_secs(), 0.0);
        assert_eq!(n.activity, WorkerActivity::Idle);
    }

    #[test]
    fn wait_statistics() {
        let mut n = node();
        n.enqueue(job(1, 0), SimTime::from_secs(10), 1.0);
        n.note_start(JobId(1), SimTime::from_secs(14));
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
        assert!(n.has_data(&j));
        assert_eq!(n.est_fetch_secs(&j, false), 0.0);
    }
}
