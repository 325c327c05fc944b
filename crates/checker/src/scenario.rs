//! Checker scenarios: small, fully-specified workloads runnable on
//! either runtime.
//!
//! A [`Scenario`] is data, not code — a cluster shape, a workload, a
//! fault schedule and the optional axes it exercises (a replicated
//! data plane, a sharded federation, speculation knobs) — so the
//! explorer can sweep it across seed tuples and *shrink* it: re-run
//! with a subset of the jobs or without one worker's faults while
//! everything else stays fixed. A [`Run`] is the other half: which
//! runtime, which seeds, which perturbations. [`Scenario::run`] turns
//! the pair into an [`Outcome`] — the logs to check, the completions
//! observed against the scenario's own expectation, and the activity
//! the run showed.
//!
//! The built-in set covers the protocol surface: a hot contested
//! repository, the Baseline's reject-once routing, crash + recovery
//! redistribution and a multi-repository spread on one master; shard
//! count × spill threshold × membership churn across a federation;
//! straggler rescue and skewed fan-in over task DAGs; and factor ×
//! holder crash × peer loss × eviction pressure on the replicated data
//! plane.

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    run_federation, Allocator, Arrival, AtomizeConfig, BaselineAllocator, ChaosConfig,
    EngineConfig, FaultPlan, Faults, FedArrival, FedRuntimeKind, FederationSpec, JobSpec,
    MasterFaultPlan, MembershipPlan, NetFaultPlan, Payload, ProtocolMutation, ReplicationConfig,
    ResourceRef, RunOutput, RunSpec, Runtime, SchedLog, ShardId, ShardSpec, SpillRecord, TaskId,
    WorkerId, WorkerSpec, Workflow,
};
use crossbid_net::{ControlPlane, NoiseModel};
use crossbid_simcore::{SeedSequence, SimDuration, SimTime};
use crossbid_storage::ObjectId;
use crossbid_workload::DagConfig;

use crate::oracle::{check_log, OracleOptions, Violation};

/// Which allocation protocol the scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's Bidding Scheduler (contests + estimates).
    Bidding,
    /// The Crossflow Baseline (pull + reject-once).
    Baseline,
}

impl Protocol {
    /// The matching allocator.
    pub fn allocator(self) -> Box<dyn Allocator> {
        match self {
            Protocol::Bidding => Box::new(BiddingAllocator::new()),
            Protocol::Baseline => Box::new(BaselineAllocator),
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Bidding => "bidding",
            Protocol::Baseline => "baseline",
        }
    }
}

/// One job in a scenario's workload.
#[derive(Debug, Clone, Copy)]
pub struct JobDef {
    /// Virtual arrival second.
    pub at_secs: f64,
    /// Which repository the job scans.
    pub object: u64,
    /// Repository size in bytes.
    pub bytes: u64,
}

/// One scheduled fault in a scenario.
#[derive(Debug, Clone, Copy)]
pub struct FaultDef {
    /// Virtual second of the event.
    pub at_secs: f64,
    /// Affected worker.
    pub worker: u32,
    /// `false` = crash, `true` = recovery.
    pub recovers: bool,
}

/// What arrives at the master.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Independent scan jobs. Job *indices* are stable identities:
    /// shrinking passes a subset of indices, and each job keeps its
    /// payload.
    Jobs(Vec<JobDef>),
    /// A stream of structured DAG jobs, one every five virtual
    /// seconds, generated from the run seed. The atomizer splits each
    /// into task jobs that are structurally entangled through their
    /// precedence edges, so there is nothing to shrink.
    Dags {
        /// DAG shape generator.
        config: DagConfig,
        /// Number of DAG arrivals.
        count: usize,
    },
}

/// The replicated-data-plane axis.
#[derive(Debug, Clone, Copy)]
pub struct Replication {
    /// Replication target factor.
    pub factor: u32,
    /// Seeded peer data-transfer loss probability (drives the
    /// retry → degraded-master-fallback path).
    pub peer_drop_prob: f64,
}

/// The federation axis: the scenario's cluster becomes one of `shards`
/// identical shards, its workload a burst aimed at shard 0 (the
/// overload the spill protocol exists for), and every peer shard gets
/// one warm-up job so each master has local activity to interleave
/// with spill-ins.
#[derive(Debug, Clone, Copy)]
pub struct Federation {
    /// Number of shards (masters).
    pub shards: usize,
    /// Spill threshold in virtual seconds (`f64::INFINITY` = the
    /// single-master baseline).
    pub spill_threshold_secs: f64,
    /// Seeded pairwise gossip-exchange loss probability.
    pub gossip_loss: f64,
    /// Seeded elastic-membership churn on every shard: one extra
    /// deferred worker joins early, worker 0 drains mid-run, and with
    /// at least three base workers, worker 1 is removed late.
    pub churn: bool,
}

/// Activity a sweep of a scenario must show, because a sweep that
/// never exercised the path under test proves nothing about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Demand {
    /// At least one cross-shard hand-off.
    Spill,
    /// No cross-shard hand-off at all (the ∞-threshold control).
    NoSpill,
    /// At least one membership event (join, drain or removal).
    Churn,
    /// At least one speculative re-bid.
    Speculate,
    /// At least one committed re-replication that completed.
    Repair,
    /// At least one lost peer transfer that was retried.
    Retry,
    /// At least one master failover.
    Failover,
}

impl Demand {
    /// Why `seen` does not satisfy this demand, if it does not.
    pub fn unmet(self, seen: &Activity) -> Option<&'static str> {
        let (met, why) = match self {
            Demand::Spill => (seen.spills > 0, "no spill fired across the sweep"),
            Demand::NoSpill => (seen.spills == 0, "the ∞-threshold baseline spilled"),
            Demand::Churn => (seen.churn > 0, "no churn event fired across the sweep"),
            Demand::Speculate => (
                seen.speculations > 0,
                "no speculative re-bid fired across the sweep",
            ),
            Demand::Repair => (
                seen.repairs > 0,
                "no committed re-replication completed across the sweep",
            ),
            Demand::Retry => (
                seen.fetch_retries > 0,
                "no lost peer transfer was retried across the sweep",
            ),
            Demand::Failover => (seen.failovers > 0, "no master crash fired across the sweep"),
        };
        (!met).then_some(why)
    }
}

/// A plan that makes a scenario's demanded activity inevitable where it
/// would otherwise be the likely outcome of a race (on real threads): the
/// `newcomer` stays off the roster until `at_secs`, so it holds no data,
/// and from then on every other worker is cut off for `window_secs`. The
/// newcomer alone bids for the jobs arriving in the window, so it fetches
/// their input from a peer, and that transfer is lost to the cut. A run
/// arms it when [`Run::forced`] is set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Forcing {
    /// The worker that joins at `at_secs`.
    pub newcomer: u32,
    /// Join instant, and start of the others' partition window.
    pub at_secs: f64,
    /// Length of the others' partition window.
    pub window_secs: f64,
}

/// Activity counts read off a run's scheduler log (summed over a
/// sweep by the explorer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Activity {
    /// Master failovers.
    pub failovers: u64,
    /// Cross-shard hand-offs.
    pub spills: u64,
    /// Membership events (joins + drains + removals).
    pub churn: u64,
    /// Speculative launches.
    pub speculations: u64,
    /// Successful peer fetches.
    pub peer_fetches: u64,
    /// Fetch retries (lost peer transfers).
    pub fetch_retries: u64,
    /// Committed re-replications that completed.
    pub repairs: u64,
}

impl std::ops::AddAssign for Activity {
    fn add_assign(&mut self, o: Activity) {
        self.failovers += o.failovers;
        self.spills += o.spills;
        self.churn += o.churn;
        self.speculations += o.speculations;
        self.peer_fetches += o.peer_fetches;
        self.fetch_retries += o.fetch_retries;
        self.repairs += o.repairs;
    }
}

impl std::fmt::Display for Activity {
    /// The nonzero counts, each prefixed with `", "`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (n, what) in [
            (self.failovers, "failover(s)"),
            (self.spills, "spill(s)"),
            (self.churn, "churn event(s)"),
            (self.speculations, "speculative launch(es)"),
            (self.peer_fetches, "peer fetch(es)"),
            (self.fetch_retries, "retry(ies)"),
            (self.repairs, "repair(s)"),
        ] {
            if n > 0 {
                write!(f, ", {n} {what}")?;
            }
        }
        Ok(())
    }
}

/// A fully-specified checker workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name for reports and `repro` output.
    pub name: &'static str,
    /// Which protocol runs it.
    pub protocol: Protocol,
    /// Cluster size — per shard when federated, *excluding* the churn
    /// spare.
    pub workers: usize,
    /// `(index, cpu multiple)` — the deliberate straggler, if any.
    pub slow_worker: Option<(usize, f64)>,
    /// Per-worker store capacity in GB. Small values create the
    /// eviction pressure the pin discipline exists to survive.
    pub storage_gb: f64,
    /// The workload.
    pub workload: Workload,
    /// Crash/recovery schedule (of every shard when federated).
    pub faults: Vec<FaultDef>,
    /// Replicated data plane, if armed.
    pub replication: Option<Replication>,
    /// Speculation knobs; only consulted for [`Workload::Dags`].
    pub atomize: AtomizeConfig,
    /// Sharded multi-master federation, if armed.
    pub federation: Option<Federation>,
    /// Activity a clean sweep of this scenario must show.
    pub demands: &'static [Demand],
    /// The plan that forces those demands, for runs that arm it.
    pub forcing: Option<Forcing>,
}

/// `n` 100 MB-class scan jobs, `spacing` seconds apart, cycling over
/// `objects` repositories.
fn spaced_jobs(n: usize, objects: u64, spacing: f64, bytes: u64) -> Vec<JobDef> {
    (0..n)
        .map(|i| JobDef {
            at_secs: i as f64 * spacing,
            object: 1 + (i as u64 % objects),
            bytes,
        })
        .collect()
}

fn crash_recover(crash_secs: f64, recover_secs: f64) -> Vec<FaultDef> {
    vec![
        FaultDef {
            at_secs: crash_secs,
            worker: 0,
            recovers: false,
        },
        FaultDef {
            at_secs: recover_secs,
            worker: 0,
            recovers: true,
        },
    ]
}

impl Scenario {
    /// A fault-free scenario on `workers` homogeneous 10 GB workers
    /// with every optional axis off.
    pub fn new(name: &'static str, protocol: Protocol, workers: usize, workload: Workload) -> Self {
        Scenario {
            name,
            protocol,
            workers,
            slow_worker: None,
            storage_gb: 10.0,
            workload,
            faults: Vec::new(),
            replication: None,
            atomize: AtomizeConfig::default(),
            federation: None,
            demands: &[],
            forcing: None,
        }
    }

    /// The built-in scenario set `repro` and the tier-1 suite sweep.
    /// On one master: contests (ties, backlog), the Baseline's
    /// reject-once routing, crash redistribution with recovery and
    /// multi-repository locality. `fed_*`: shard count × spill
    /// threshold × membership churn. `dag_*`: straggler rescue (push
    /// scheduling onto a slow worker, speculation must fire) and a
    /// skewed reducer (bidding over map outputs, gating under wide
    /// fan-in). `repl_*`: factor × holder crash × peer loss × eviction
    /// pressure. Both protocols are represented on every axis.
    pub fn builtins() -> Vec<Scenario> {
        use Protocol::{Baseline, Bidding};
        // Twelve scans of one hot repository on three workers.
        let hot_repo = |name, protocol, faults| Scenario {
            faults,
            ..Scenario::new(
                name,
                protocol,
                3,
                Workload::Jobs(spaced_jobs(12, 1, 0.5, 100_000_000)),
            )
        };
        // A `jobs`-long burst over three hot repositories at shard 0 of
        // a federation of `workers`-wide shards.
        let fed = |name, protocol, workers, jobs, federation, demands| Scenario {
            federation: Some(federation),
            demands,
            ..Scenario::new(
                name,
                protocol,
                workers,
                Workload::Jobs(spaced_jobs(jobs, 3, 0.5, 100_000_000)),
            )
        };
        let shards = |shards, spill_threshold_secs, gossip_loss, churn| Federation {
            shards,
            spill_threshold_secs,
            gossip_loss,
            churn,
        };
        // Twelve scans over two hot artifacts on four replicating workers.
        let repl = |name, protocol, factor, peer_drop_prob, faults, demands| Scenario {
            faults,
            replication: Some(Replication {
                factor,
                peer_drop_prob,
            }),
            demands,
            ..Scenario::new(
                name,
                protocol,
                4,
                Workload::Jobs(spaced_jobs(12, 2, 2.0, 100_000_000)),
            )
        };
        vec![
            hot_repo("hot_repo_bidding", Bidding, Vec::new()),
            hot_repo("reject_once_baseline", Baseline, Vec::new()),
            hot_repo("crash_recovery_bidding", Bidding, crash_recover(6.0, 12.0)),
            hot_repo(
                "crash_recovery_baseline",
                Baseline,
                crash_recover(6.0, 12.0),
            ),
            Scenario::new(
                "two_repos_bidding",
                Bidding,
                4,
                Workload::Jobs(spaced_jobs(12, 2, 0.4, 60_000_000)),
            ),
            fed(
                "fed_2shard_spill",
                Bidding,
                2,
                16,
                shards(2, 10.0, 0.0, false),
                &[Demand::Spill],
            ),
            fed(
                "fed_2shard_nospill",
                Baseline,
                2,
                16,
                shards(2, f64::INFINITY, 0.0, false),
                &[Demand::NoSpill],
            ),
            fed(
                "fed_4shard_spill",
                Bidding,
                2,
                20,
                shards(4, 8.0, 0.0, false),
                &[Demand::Spill],
            ),
            fed(
                "fed_4shard_churn",
                Bidding,
                3,
                20,
                shards(4, 8.0, 0.0, true),
                &[Demand::Spill, Demand::Churn],
            ),
            fed(
                "fed_2shard_lossy_gossip_churn",
                Baseline,
                3,
                16,
                shards(2, 10.0, 0.3, true),
                &[Demand::Churn],
            ),
            Scenario {
                slow_worker: Some((2, 40.0)),
                demands: &[Demand::Speculate],
                ..Scenario::new(
                    "dag_straggler",
                    Baseline,
                    3,
                    Workload::Dags {
                        config: DagConfig::RepoSplit {
                            shards: 8,
                            repo_mb: 100,
                            tail_alpha: 1.5,
                        },
                        count: 2,
                    },
                )
            },
            Scenario::new(
                "dag_skewed_reduce",
                Bidding,
                4,
                Workload::Dags {
                    config: DagConfig::MapReduceSkew {
                        maps: 6,
                        reduces: 3,
                        skew_factor: 8.0,
                    },
                    count: 2,
                },
            ),
            repl(
                "repl_f2_crash",
                Bidding,
                2,
                0.0,
                crash_recover(21.0, 40.0),
                &[Demand::Repair],
            ),
            // Forced: worker 3 joins just before the job at 16 s, when
            // the first artifact sits on the other three (factor 3), and
            // they stay cut off while it takes the last jobs alone.
            Scenario {
                forcing: Some(Forcing {
                    newcomer: 3,
                    at_secs: 15.5,
                    window_secs: 20.0,
                }),
                ..repl(
                    "repl_f3_lossy",
                    Bidding,
                    3,
                    0.5,
                    Vec::new(),
                    &[Demand::Retry],
                )
            },
            repl(
                "repl_f2_lossy_crash_baseline",
                Baseline,
                2,
                0.3,
                crash_recover(21.0, 40.0),
                &[],
            ),
            // One worker, factor 1, three 100 MB artifacts against a
            // two-slot store: the third insert *must* pass through
            // because both residents are pinned sole copies. With the
            // pin discipline sabotaged (`EvictLastCopy`) the insert
            // evicts a last copy instead — the oracle's
            // `EvictedLastCopy` catcher.
            Scenario {
                storage_gb: 0.21,
                replication: Some(Replication {
                    factor: 1,
                    peer_drop_prob: 0.0,
                }),
                ..Scenario::new(
                    "repl_f1_evict_pressure",
                    Bidding,
                    1,
                    Workload::Jobs(spaced_jobs(3, 3, 2.0, 100_000_000)),
                )
            },
        ]
    }

    /// The built-in scenarios `pick` selects.
    pub fn builtins_where(pick: impl Fn(&Scenario) -> bool) -> Vec<Scenario> {
        let mut all = Scenario::builtins();
        all.retain(pick);
        all
    }

    /// The built-in scenario called `name`.
    ///
    /// # Panics
    /// If there is none.
    pub fn builtin(name: &str) -> Scenario {
        Scenario::builtins_where(|s| s.name == name)
            .pop()
            .unwrap_or_else(|| panic!("no built-in scenario named {name}"))
    }

    /// A job list on one master with no optional axis armed — the
    /// scenarios the `check`, `netfault` and `failover` sweeps cover.
    pub fn is_plain(&self) -> bool {
        self.shrinkable() && self.replication.is_none()
    }

    /// A job list on a single master: jobs and fault schedules can be
    /// dropped independently, so a failing run can be minimized, and
    /// the threaded runtime's conservation counters must equal the
    /// simulation's.
    pub fn shrinkable(&self) -> bool {
        matches!(self.workload, Workload::Jobs(_)) && self.federation.is_none()
    }

    /// Workers listed per master (the churn spare is deferred but
    /// listed).
    pub fn shard_width(&self) -> usize {
        self.workers + usize::from(self.federation.is_some_and(|f| f.churn))
    }

    /// Completions a clean run must produce: effective task
    /// completions for DAGs, job completions otherwise (the kept jobs
    /// plus, when federated, one warm-up per peer shard).
    pub fn expected_completions(&self, keep_jobs: Option<&[usize]>) -> u64 {
        let own = match &self.workload {
            Workload::Jobs(jobs) => keep_jobs.map_or(jobs.len(), <[usize]>::len),
            Workload::Dags { config, count } => config.tasks_per_dag() * count,
        };
        (own + self.federation.map_or(0, |f| f.shards - 1)) as u64
    }

    /// The fault plan, optionally restricted to the listed workers
    /// (shrinking drops a worker's crash *and* recovery together, so
    /// the schedule stays well-formed).
    pub fn fault_plan(&self, keep_workers: Option<&[u32]>) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for f in &self.faults {
            if keep_workers.is_some_and(|ws| !ws.contains(&f.worker)) {
                continue;
            }
            let at = SimTime::from_secs_f64(f.at_secs);
            plan = if f.recovers {
                plan.recover_at(at, WorkerId(f.worker))
            } else {
                plan.crash_at(at, WorkerId(f.worker))
            };
        }
        plan.with_detection_delay(SimDuration::from_secs(2))
    }

    /// Workers that have at least one scheduled fault.
    pub fn faulted_workers(&self) -> Vec<u32> {
        let mut ws: Vec<u32> = self.faults.iter().map(|f| f.worker).collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    }

    /// The seeded churn schedule of one shard: the spare (last) worker
    /// joins early, worker 0 drains mid-run, and with at least three
    /// base workers, worker 1 is administratively removed late. Event
    /// times derive from `membership_seed` and the shard index, so one
    /// seed replays the whole federation's churn.
    pub fn membership_plan(&self, shard: usize, membership_seed: u64) -> MembershipPlan {
        if !self.federation.is_some_and(|f| f.churn) {
            return MembershipPlan::none();
        }
        let mut rng = SeedSequence::new(membership_seed).stream(shard as u64);
        let spare = WorkerId((self.shard_width() - 1) as u32);
        let mut plan = MembershipPlan::new()
            .join_at(SimTime::from_secs_f64(rng.uniform(2.0, 6.0)), spare)
            .drain_at(SimTime::from_secs_f64(rng.uniform(6.0, 10.0)), WorkerId(0));
        if self.workers >= 3 {
            plan = plan.remove_at(SimTime::from_secs_f64(rng.uniform(10.0, 14.0)), WorkerId(1));
        }
        plan
    }

    /// The arrival stream at one master: the job list (optionally
    /// restricted to the listed indices — payloads carry the original
    /// index so a shrunk run's jobs remain identifiable), or the DAG
    /// stream generated from `seed`.
    pub fn arrivals(&self, seed: u64, task: TaskId, keep_jobs: Option<&[usize]>) -> Vec<Arrival> {
        match &self.workload {
            Workload::Jobs(jobs) => jobs
                .iter()
                .enumerate()
                .filter(|(i, _)| keep_jobs.is_none_or(|ks| ks.contains(i)))
                .map(|(i, j)| Arrival {
                    at: SimTime::from_secs_f64(j.at_secs),
                    spec: JobSpec::scanning(
                        task,
                        ResourceRef {
                            id: ObjectId(j.object),
                            bytes: j.bytes,
                        },
                        Payload::Index(i as u64),
                    ),
                })
                .collect(),
            Workload::Dags { config, count } => config.generate(seed, *count, task, 5.0),
        }
    }

    /// One master's fault aggregate under `run`.
    fn shard_faults(&self, run: &Run, shard: usize) -> Faults {
        let mut net = run.net.clone().unwrap_or_else(NetFaultPlan::none);
        let mut membership = self.membership_plan(shard, run.membership_seed);
        if let Some(f) = self.forcing.filter(|_| run.forced) {
            let from = SimTime::from_secs_f64(f.at_secs);
            let until = SimTime::from_secs_f64(f.at_secs + f.window_secs);
            membership = membership.join_at(from, WorkerId(f.newcomer));
            for w in (0..self.shard_width() as u32).filter(|&w| w != f.newcomer) {
                net = net.with_partition(Some(WorkerId(w)), from, until);
            }
        }
        Faults::new()
            .workers(self.fault_plan(run.keep_fault_workers.as_deref()))
            .net(net)
            .master(run.master.clone().unwrap_or_else(MasterFaultPlan::none))
            .membership(membership)
    }

    /// The [`RunSpec`] of one master of this scenario under `run`
    /// (*the* master unless federated): ideal control plane, no noise,
    /// no speed learning — protocol behavior only, so a sim run is
    /// exactly reproducible and a threaded run's variability comes
    /// from thread scheduling (plus any chaos) alone. The run's
    /// mutation rides on the engine config, the same for both runtimes.
    pub fn spec(&self, run: &Run) -> RunSpec {
        let replication = self
            .replication
            .map_or_else(ReplicationConfig::default, |r| {
                let mut c = ReplicationConfig::with_factor(r.factor);
                c.peer_drop_prob = r.peer_drop_prob;
                c
            });
        let mut spec = RunSpec::builder()
            .workers((0..self.shard_width()).map(|i| {
                let mut b = WorkerSpec::builder(format!("w{i}"))
                    .net_mbps(10.0)
                    .rw_mbps(100.0)
                    .storage_gb(self.storage_gb);
                if let Some((slow, factor)) = self.slow_worker {
                    if slow == i {
                        b = b.cpu_factor(factor);
                    }
                }
                b.build()
            }))
            .engine(EngineConfig {
                control: ControlPlane::instant(),
                data_latency: SimDuration::ZERO,
                noise: NoiseModel::None,
                atomize: self.atomize,
                replication,
                ..EngineConfig::default()
            })
            .speed_learning(false)
            .faults(self.shard_faults(run, 0))
            .trace(true)
            .mutation(run.mutation)
            .names("checker", self.name)
            .seed(run.seed)
            .time_scale(1e-3)
            .build();
        spec.chaos = run.chaos.clone();
        spec
    }

    /// Run the scenario once.
    pub fn run(&self, run: &Run) -> Outcome {
        let spec = self.spec(run);
        let allocator = self.protocol.allocator();
        let keep_jobs = run.keep_jobs.as_deref();
        let expected = self.expected_completions(keep_jobs);
        let shard_workers = self.shard_width() as u32;
        let completed = |jobs: u64, log: &SchedLog| match self.workload {
            Workload::Jobs(_) => jobs,
            Workload::Dags { .. } => log.task_dones() as u64,
        };
        let Some(fed) = self.federation else {
            let mut wf = Workflow::new();
            let task = wf.add_sink("scan");
            let arrivals = self.arrivals(run.seed, task, keep_jobs);
            let mut runtime: Box<dyn Runtime> = match run.runtime {
                FedRuntimeKind::Sim => Box::new(spec.sim()),
                FedRuntimeKind::Threaded => Box::new(spec.threaded()),
            };
            let out = runtime.run_iteration(&mut wf, allocator.as_ref(), arrivals);
            return Outcome {
                completed: completed(out.record.jobs_completed, &out.sched_log),
                expected,
                makespan_secs: out.record.makespan_secs,
                masters: vec![out],
                merged: None,
                spills: Vec::new(),
                shard_workers,
            };
        };

        // Every shard is the one master `spec` describes, under its
        // own membership schedule.
        let shards = (0..fed.shards)
            .map(|s| ShardSpec::new(spec.workers.clone()).faults(self.shard_faults(run, s)))
            .collect();
        let mut fspec = FederationSpec::new(shards);
        fspec.spill_threshold_secs = fed.spill_threshold_secs;
        fspec.gossip_period_secs = 2.0;
        fspec.gossip_loss = fed.gossip_loss;
        fspec.spill_latency_secs = 0.5;
        fspec.seed = run.seed;
        fspec.net_seed = run.net.as_ref().map_or(run.seed, |p| p.seed);
        fspec.time_scale = spec.time_scale;
        fspec.runtime = run.runtime;
        fspec.chaos = spec.chaos;
        fspec.engine = spec.engine;
        let mut arrivals: Vec<FedArrival> = self
            .arrivals(run.seed, TaskId(0), keep_jobs)
            .into_iter()
            .map(|a| FedArrival {
                at: a.at,
                home: ShardId(0),
                spec: a.spec,
            })
            .collect();
        arrivals.extend((1..fed.shards).map(|s| FedArrival {
            at: SimTime::from_secs(1),
            home: ShardId(s as u16),
            spec: JobSpec::scanning(
                TaskId(0),
                ResourceRef {
                    id: ObjectId(100 + s as u64),
                    bytes: 50_000_000,
                },
                Payload::Index(1000 + s as u64),
            ),
        }));
        let out = run_federation(&fspec, arrivals, allocator.as_ref(), |_| {
            let mut wf = Workflow::new();
            wf.add_sink("scan");
            wf
        });
        Outcome {
            completed: completed(out.jobs_completed, &out.merged),
            expected,
            makespan_secs: out.makespan_secs,
            masters: out.shards,
            merged: Some(out.merged),
            spills: out.spills,
            shard_workers,
        }
    }
}

/// Everything that parameterizes one run of a scenario. The explorer
/// mutates `keep_jobs` / `keep_fault_workers` while shrinking and
/// leaves the rest fixed.
#[derive(Debug, Clone)]
pub struct Run {
    /// Which runtime executes the run.
    pub runtime: FedRuntimeKind,
    /// Run seed: worker noise streams, bid-delay jitter, the DAG
    /// generator, and (federated) every shard's runtime seed.
    pub seed: u64,
    /// Delivery-order perturbation at every master's intake. Only the
    /// threaded runtime reads it; the sim's event order is already
    /// fully determined by the seed.
    pub chaos: Option<ChaosConfig>,
    /// Lossy-link plan (drop/duplicate/delay/partition with the
    /// reliability countermeasures armed), if any. Its seed also
    /// drives a federation's gossip-loss draws (the run seed does when
    /// there is no plan). The sim samples the plan at its virtual send
    /// instants, so a sim run replays exactly from `(seed, net.seed)`.
    pub net: Option<NetFaultPlan>,
    /// Master-crash schedule (the leader dies at these log append
    /// indices — a runtime-independent coordinate — and a standby
    /// takes over by log replay), if any.
    pub master: Option<MasterFaultPlan>,
    /// Seed of every shard's churn schedule.
    pub membership_seed: u64,
    /// Reintroduced bug, if any (a run refuses one unless
    /// `crossbid-crossflow` is built with `protocol-mutation`).
    pub mutation: ProtocolMutation,
    /// `None` = all jobs; otherwise the job indices to keep.
    pub keep_jobs: Option<Vec<usize>>,
    /// `None` = all faults; otherwise keep only these workers' faults.
    pub keep_fault_workers: Option<Vec<u32>>,
    /// Arm the scenario's [`Forcing`] plan, if it has one.
    pub forced: bool,
}

impl Run {
    /// An unperturbed run of the correct protocol on `runtime`, every
    /// axis seeded from `seed`.
    pub fn new(runtime: FedRuntimeKind, seed: u64) -> Self {
        Run {
            runtime,
            seed,
            chaos: None,
            net: None,
            master: None,
            membership_seed: seed,
            mutation: ProtocolMutation::None,
            keep_jobs: None,
            keep_fault_workers: None,
            forced: false,
        }
    }

    /// [`Run::new`] on the deterministic simulation engine.
    pub fn sim(seed: u64) -> Self {
        Run::new(FedRuntimeKind::Sim, seed)
    }

    /// [`Run::new`] on real threads.
    pub fn threaded(seed: u64) -> Self {
        Run::new(FedRuntimeKind::Threaded, seed)
    }
}

/// What one run of a scenario produced.
#[derive(Debug)]
pub struct Outcome {
    /// One output per master — a single one unless the scenario is
    /// federated, in which case shard `i`'s scheduler log is already
    /// augmented with its hand-off records.
    pub masters: Vec<RunOutput>,
    /// The federation-wide union log (`Some` iff federated).
    pub merged: Option<SchedLog>,
    /// Every cross-shard hand-off, in decision order.
    pub spills: Vec<SpillRecord>,
    /// Completions observed (see [`Scenario::expected_completions`]).
    pub completed: u64,
    /// Completions a clean run produces.
    pub expected: u64,
    /// Virtual instant of the last completion.
    pub makespan_secs: f64,
    /// Workers listed per master.
    shard_workers: u32,
}

impl Outcome {
    /// The whole run's scheduler log: the merged federation log, or
    /// the single master's.
    pub fn log(&self) -> &SchedLog {
        self.merged.as_ref().unwrap_or(&self.masters[0].sched_log)
    }

    /// Feed every log to the oracle with the options that fit it: a
    /// single master's log against its worker bound (optionally with
    /// the Baseline's reject-once routing enforced), or — federated —
    /// the merged log under the federated rules (worker ids are
    /// shard-qualified, so the per-shard bound does not apply) *and*
    /// each shard's own log as a single master's. Violations come
    /// back tagged with the shard whose log showed them (`None` = the
    /// whole run's log).
    pub fn violations(&self, strict_reoffer: bool) -> Vec<(Option<usize>, Violation)> {
        let single = OracleOptions {
            expect_all_complete: true,
            strict_reoffer,
            workers: Some(self.shard_workers),
            federated: false,
        };
        let tagged =
            |shard, log, options| check_log(log, options).into_iter().map(move |v| (shard, v));
        let Some(merged) = &self.merged else {
            return tagged(None, &self.masters[0].sched_log, single).collect();
        };
        let federated = OracleOptions {
            workers: None,
            federated: true,
            ..single
        };
        let shards = self.masters.iter().enumerate();
        tagged(None, merged, federated)
            .chain(shards.flat_map(|(s, m)| tagged(Some(s), &m.sched_log, single)))
            .collect()
    }

    /// The activity the run showed.
    pub fn activity(&self) -> Activity {
        let log = self.log();
        Activity {
            failovers: log.failovers() as u64,
            spills: self.spills.len() as u64,
            churn: (log.worker_joins() + log.worker_drains() + log.worker_removals()) as u64,
            speculations: log.spec_launches() as u64,
            peer_fetches: log.fetch_oks() as u64,
            fetch_retries: log.fetch_fails() as u64,
            repairs: log.repair_dones() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_clean_on_the_sim(sc: &Scenario) -> Outcome {
        let out = sc.run(&Run::sim(7));
        assert_eq!(
            out.completed, out.expected,
            "{}: everything completes exactly once",
            sc.name
        );
        let v = out.violations(false);
        assert!(v.is_empty(), "{}: sim violations {v:?}", sc.name);
        out
    }

    #[test]
    fn builtins_cover_both_protocols_and_faults() {
        let all = Scenario::builtins();
        assert_eq!(all.len(), 16);
        let names: std::collections::HashSet<_> = all.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), all.len(), "scenario names are unique");
        let plain = Scenario::builtins_where(Scenario::is_plain);
        assert_eq!(plain.len(), 5);
        assert!(plain.iter().any(|s| s.protocol == Protocol::Bidding));
        assert!(plain.iter().any(|s| s.protocol == Protocol::Baseline));
        assert!(plain.iter().any(|s| !s.faults.is_empty()));
    }

    #[test]
    fn shrink_subsets_restrict_jobs_and_faults() {
        let sc = Scenario::builtin("crash_recovery_bidding");
        assert_eq!(sc.arrivals(1, TaskId(0), None).len(), 12);
        assert_eq!(sc.arrivals(1, TaskId(0), Some(&[0, 5, 11])).len(), 3);
        assert_eq!(sc.expected_completions(Some(&[0, 5, 11])), 3);
        assert_eq!(sc.fault_plan(None).events().len(), 2);
        assert!(sc.fault_plan(Some(&[])).is_empty());
        assert_eq!(sc.faulted_workers(), vec![0]);
    }

    #[test]
    fn fed_builtins_cover_the_axis() {
        let feds: Vec<Federation> = Scenario::builtins()
            .iter()
            .filter_map(|s| s.federation)
            .collect();
        assert_eq!(feds.len(), 5);
        assert!(feds.iter().any(|f| f.shards == 2));
        assert!(feds.iter().any(|f| f.shards >= 4));
        assert!(feds.iter().any(|f| f.spill_threshold_secs.is_infinite()));
        assert!(feds.iter().any(|f| f.churn));
        assert!(feds.iter().any(|f| f.gossip_loss > 0.0));
        let all = Scenario::builtins_where(|s| s.federation.is_some());
        assert!(all.iter().any(|s| s.protocol == Protocol::Bidding));
        assert!(all.iter().any(|s| s.protocol == Protocol::Baseline));
    }

    #[test]
    fn every_fed_builtin_passes_both_oracles_on_the_sim_engine() {
        for sc in Scenario::builtins_where(|s| s.federation.is_some()) {
            let out = assert_clean_on_the_sim(&sc);
            assert_eq!(out.masters.len(), sc.federation.unwrap().shards);
            assert!(out.merged.is_some());
        }
    }

    #[test]
    fn dag_builtins_pass_the_oracle_and_conserve_tasks_on_the_sim_engine() {
        let dags = Scenario::builtins_where(|s| matches!(s.workload, Workload::Dags { .. }));
        assert_eq!(dags.len(), 2);
        for sc in dags {
            let out = assert_clean_on_the_sim(&sc);
            assert_eq!(out.completed, out.log().task_dones() as u64);
        }
    }

    #[test]
    fn dag_straggler_builtin_actually_speculates() {
        let out = Scenario::builtin("dag_straggler").run(&Run::sim(7));
        assert!(
            out.activity().speculations >= 1,
            "the straggler scenario must exercise speculation"
        );
    }

    #[test]
    fn repl_builtins_cover_the_axis() {
        let all = Scenario::builtins_where(|s| s.replication.is_some());
        assert_eq!(all.len(), 4);
        let factor = |s: &Scenario| s.replication.unwrap().factor;
        assert!(all.iter().any(|s| !s.faults.is_empty()));
        assert!(all
            .iter()
            .any(|s| s.replication.unwrap().peer_drop_prob > 0.0));
        assert!(all.iter().any(|s| factor(s) >= 3));
        assert!(all.iter().any(|s| factor(s) == 1 && s.storage_gb < 1.0));
        assert!(all.iter().any(|s| s.protocol == Protocol::Bidding));
        assert!(all.iter().any(|s| s.protocol == Protocol::Baseline));
    }

    #[test]
    fn every_repl_builtin_passes_the_oracle_on_the_sim_engine() {
        for sc in Scenario::builtins_where(|s| s.replication.is_some()) {
            assert_clean_on_the_sim(&sc);
        }
    }

    #[test]
    fn every_builtin_passes_the_oracle_on_the_sim_engine() {
        for sc in Scenario::builtins_where(Scenario::is_plain) {
            assert_clean_on_the_sim(&sc);
        }
    }

    #[test]
    fn demands_read_the_activity_they_name() {
        let quiet = Activity::default();
        for d in [
            Demand::Spill,
            Demand::Churn,
            Demand::Speculate,
            Demand::Repair,
            Demand::Retry,
            Demand::Failover,
        ] {
            assert!(d.unmet(&quiet).is_some(), "{d:?} on a silent sweep");
        }
        assert!(Demand::NoSpill.unmet(&quiet).is_none());
        let spilled = Activity { spills: 3, ..quiet };
        assert!(Demand::Spill.unmet(&spilled).is_none());
        assert!(Demand::NoSpill.unmet(&spilled).is_some());
        assert_eq!(spilled.to_string(), ", 3 spill(s)");
    }
}
