//! Self-healing replicated data plane: peer fetch, pinning, and
//! crash-triggered re-replication.
//!
//! Pinned regressions exercise each protocol leg deterministically
//! (peer serving, loss → retry → degraded master fallback, crash →
//! committed repair); the property tests then drive arbitrary
//! crash/partition plans and assert the two load-bearing invariants:
//!
//! * **Liveness** — every artifact the run touched retains at least
//!   one live replica at end of run (the pin discipline means eviction
//!   can never discard the last copy, and repairs re-establish the
//!   factor after crashes), provided every crashed worker recovers.
//! * **Replayability** — folding the committed `replica_add` /
//!   `replica_drop` entries through [`SchedState::replay`] reconstructs
//!   exactly the live [`ReplicaMap`] the engine ended with: the log is
//!   a faithful journal of the data plane, which is what failover
//!   repair resumption rides on.

use crossbid_checker::{check_log, OracleOptions};
use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    run_workflow, Arrival, Cluster, EngineConfig, FaultPlan, Faults, JobSpec, NetFaultPlan,
    Payload, ReplicationConfig, ResourceRef, RetryPolicy, RunMeta, RunOutput, RunSpec, SchedState,
    WorkerId, WorkerSpec, Workflow,
};
use crossbid_net::{ControlPlane, NoiseModel};
use crossbid_simcore::{SimDuration, SimTime};
use crossbid_storage::ObjectId;
use proptest::prelude::*;

fn specs(n: usize) -> Vec<WorkerSpec> {
    (0..n)
        .map(|i| {
            WorkerSpec::builder(format!("w{i}"))
                .net_mbps(10.0)
                .rw_mbps(100.0)
                .storage_gb(10.0)
                .build()
        })
        .collect()
}

/// Jobs alternating over `objects` distinct artifacts. 2-second
/// spacing lets crashes land between completions; the loss test
/// overrides it downward to force contention (queue pressure is what
/// spreads a hot artifact onto data-less workers).
fn arrivals_spaced(
    task: crossbid_crossflow::TaskId,
    jobs: usize,
    objects: u64,
    spacing: f64,
) -> Vec<Arrival> {
    (0..jobs)
        .map(|i| Arrival {
            at: SimTime::from_secs_f64(i as f64 * spacing),
            spec: JobSpec::scanning(
                task,
                ResourceRef {
                    id: ObjectId(1 + (i as u64 % objects)),
                    bytes: 100_000_000,
                },
                Payload::Index(i as u64),
            ),
        })
        .collect()
}

fn run_replicated(
    workers: usize,
    repl: ReplicationConfig,
    faults: Faults,
    seed: u64,
    jobs: usize,
    objects: u64,
) -> RunOutput {
    let spec = RunSpec::builder()
        .workers(specs(workers))
        .engine(EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            ..EngineConfig::default()
        })
        .speed_learning(false)
        .replication(repl)
        .faults(faults)
        .trace(true)
        .seed(seed)
        .time_scale(1e-3)
        .build();
    let mut session = spec.sim();
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let arr = arrivals_spaced(task, jobs, objects, 2.0);
    session.run_iteration(&mut wf, &BiddingAllocator::new(), arr)
}

fn oracle_options(workers: usize) -> OracleOptions {
    OracleOptions {
        expect_all_complete: true,
        strict_reoffer: false,
        workers: Some(workers as u32),
        ..OracleOptions::default()
    }
}

/// The committed log's replica journal, folded through the shared
/// state machine, must equal the engine's live map — same objects,
/// same holder sets.
fn assert_replay_matches(out: &RunOutput) {
    let live = out
        .replicas
        .as_ref()
        .expect("replication armed but RunOutput.replicas missing");
    let replayed = SchedState::replay(out.sched_log.events());
    let live_sets: Vec<(u64, Vec<u32>)> = live
        .objects()
        .map(|obj| (obj.0, live.replicas(obj).collect()))
        .filter(|(_, holders): &(u64, Vec<u32>)| !holders.is_empty())
        .collect();
    let replay_sets: Vec<(u64, Vec<u32>)> = replayed
        .replicas
        .iter()
        .map(|(obj, holders)| (*obj, holders.iter().map(|w| w.0).collect()))
        .collect();
    assert_eq!(
        live_sets, replay_sets,
        "log replay diverged from the live replica map"
    );
}

/// Factor 2, no faults: the second worker to need a hot artifact is
/// served by a peer (fetch_req/fetch_ok), the proactive top-up
/// replicates each artifact to the factor, and every job completes
/// with zero oracle violations.
#[test]
fn peer_fetch_serves_hot_artifacts_from_replicas() {
    let out = run_replicated(
        4,
        ReplicationConfig::with_factor(2),
        Faults::new(),
        7,
        12,
        2,
    );
    assert_eq!(out.record.jobs_completed, 12);
    let log = &out.sched_log;
    assert!(log.fetch_reqs() >= 1, "no peer fetch was ever attempted");
    assert_eq!(
        log.fetch_oks(),
        log.fetch_reqs() - log.fetch_fails(),
        "every fetch_req must resolve to exactly one ok or fail"
    );
    assert!(log.replica_adds() >= 2, "top-up never replicated anything");
    let violations = check_log(log, oracle_options(4));
    assert!(violations.is_empty(), "{violations:?}");
    let live = out.replicas.as_ref().unwrap();
    for obj in [ObjectId(1), ObjectId(2)] {
        assert!(
            live.count(obj) >= 2,
            "object {} ended under-replicated: {} < 2",
            obj.0,
            live.count(obj)
        );
    }
    assert_replay_matches(&out);
}

/// Total data-plane loss (`peer_drop_prob = 1`): every peer attempt
/// times out, the retry loop burns its budget (observable as
/// `fetch_fail` entries — the acceptance criterion's "≥ 1 retry"),
/// and the degraded master path still completes every job.
#[test]
fn peer_loss_retries_then_degrades_to_master_fetch() {
    let repl = ReplicationConfig {
        peer_drop_prob: 1.0,
        fetch_timeout_secs: 0.5,
        ..ReplicationConfig::with_factor(2)
    };
    let spec = RunSpec::builder()
        .workers(specs(3))
        .engine(EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            ..EngineConfig::default()
        })
        .speed_learning(false)
        .replication(repl)
        .trace(true)
        .seed(11)
        .time_scale(1e-3)
        .build();
    let mut session = spec.sim();
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    // Two phases: one seeding job establishes the artifact (master
    // fetch + top-up to the factor), then a burst arrives once the
    // copies exist — queue pressure forces placements onto the
    // data-less third worker, whose only peer path is the lossy one.
    let mk = |i: u64, at: f64| Arrival {
        at: SimTime::from_secs_f64(at),
        spec: JobSpec::scanning(
            task,
            ResourceRef {
                id: ObjectId(1),
                bytes: 100_000_000,
            },
            Payload::Index(i),
        ),
    };
    let mut arr = vec![mk(0, 0.0)];
    arr.extend((1..10).map(|i| mk(i, 30.0 + i as f64 * 0.25)));
    let out = session.run_iteration(&mut wf, &BiddingAllocator::new(), arr);
    assert_eq!(out.record.jobs_completed, 10);
    let log = &out.sched_log;
    assert!(
        log.fetch_fails() >= 1,
        "total loss must surface at least one failed attempt"
    );
    assert_eq!(
        log.fetch_oks(),
        0,
        "no peer transfer can survive peer_drop_prob = 1"
    );
    let violations = check_log(log, oracle_options(3));
    assert!(violations.is_empty(), "{violations:?}");
    assert_replay_matches(&out);
}

/// `run_workflow` takes its config as given: a retry policy that never
/// went through `NetFaultPlan::validate` may say `max_attempts: 0`.
/// The peer-fetch backoff then falls back to the base delay — it used
/// to compute `max_attempts - 1` and underflow.
#[test]
fn peer_fetch_backoff_tolerates_an_unvalidated_zero_attempt_policy() {
    let cfg = EngineConfig {
        control: ControlPlane::instant(),
        data_latency: SimDuration::ZERO,
        noise: NoiseModel::None,
        replication: ReplicationConfig {
            peer_drop_prob: 1.0,
            fetch_timeout_secs: 0.5,
            ..ReplicationConfig::with_factor(2)
        },
        netfaults: NetFaultPlan {
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..NetFaultPlan::none()
        },
        trace: true,
        ..EngineConfig::default()
    };
    let mut cluster = Cluster::new(&specs(3), &cfg);
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    // The burst of `peer_loss_retries_then_degrades_to_master_fetch`:
    // it pushes placements onto the data-less third worker.
    let mut arr = arrivals_spaced(task, 1, 1, 0.0);
    arr.extend(
        arrivals_spaced(task, 9, 1, 0.25)
            .into_iter()
            .map(|a| Arrival {
                at: a.at + SimDuration::from_secs(30),
                ..a
            }),
    );
    let out = run_workflow(
        &mut cluster,
        &mut wf,
        &BiddingAllocator::new(),
        arr,
        &cfg,
        &RunMeta::default(),
    );
    assert_eq!(out.record.jobs_completed, 10);
    assert!(
        out.sched_log.fetch_fails() >= 1,
        "the backoff under test only runs after a lost peer transfer"
    );
}

/// A crash of a replica holder triggers a committed re-replication:
/// `replica_drop` (evicted = false) for the dead worker's copies, then
/// `repair_start` → `repair_done` restoring the factor — and the run
/// does not end until the repair lands.
#[test]
fn crash_triggers_committed_re_replication() {
    let faults = Faults::new().workers(
        FaultPlan::new()
            .crash_at(SimTime::from_secs_f64(21.0), WorkerId(0))
            .recover_at(SimTime::from_secs_f64(40.0), WorkerId(0)),
    );
    let out = run_replicated(4, ReplicationConfig::with_factor(2), faults, 3, 12, 2);
    assert_eq!(out.record.jobs_completed, 12);
    let log = &out.sched_log;
    assert!(
        log.replica_drops() >= 1,
        "the crash dropped no replicas — it missed every holder"
    );
    assert!(log.repair_starts() >= 1, "no repair was ever committed");
    assert_eq!(
        log.repair_starts(),
        log.repair_dones(),
        "every committed repair must complete"
    );
    let violations = check_log(log, oracle_options(4));
    assert!(violations.is_empty(), "{violations:?}");
    assert_replay_matches(&out);
}

/// The same data plane on real threads: replica-discounted bids, peer
/// transfers, committed repairs. The run is nondeterministic, so the
/// assertions are the protocol invariants, not exact counts.
fn run_replicated_threaded(
    workers: usize,
    repl: ReplicationConfig,
    faults: Faults,
    seed: u64,
    jobs: usize,
    objects: u64,
) -> RunOutput {
    let spec = RunSpec::builder()
        .workers(specs(workers))
        .engine(EngineConfig {
            noise: NoiseModel::None,
            ..EngineConfig::default()
        })
        .speed_learning(false)
        .replication(repl)
        .faults(faults)
        .trace(true)
        .seed(seed)
        .time_scale(1e-3)
        .build();
    let mut session = spec.threaded();
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let arr = arrivals_spaced(task, jobs, objects, 2.0);
    session.run_iteration(&mut wf, &BiddingAllocator::new(), arr)
}

/// Threaded runtime, factor 2, no faults: peer fetches resolve to
/// exactly one ok/fail each, the top-up restores the factor, the
/// committed log replays to the live map, zero oracle violations.
#[test]
fn threaded_peer_fetch_and_topup() {
    let out = run_replicated_threaded(
        4,
        ReplicationConfig::with_factor(2),
        Faults::new(),
        7,
        12,
        2,
    );
    assert_eq!(out.record.jobs_completed, 12);
    let log = &out.sched_log;
    assert_eq!(
        log.fetch_oks(),
        log.fetch_reqs() - log.fetch_fails(),
        "every fetch_req must resolve to exactly one ok or fail"
    );
    assert!(log.replica_adds() >= 2, "top-up never replicated anything");
    let violations = check_log(log, oracle_options(4));
    assert!(violations.is_empty(), "{violations:?}");
    let live = out.replicas.as_ref().unwrap();
    for obj in [ObjectId(1), ObjectId(2)] {
        assert!(
            live.count(obj) >= 2,
            "object {} ended under-replicated: {} < 2",
            obj.0,
            live.count(obj)
        );
    }
    assert_replay_matches(&out);
}

/// Threaded runtime: a crashed replica holder triggers a committed
/// re-replication, every committed repair completes before the run
/// ends, and the log replays to the live map.
#[test]
fn threaded_crash_triggers_committed_re_replication() {
    let faults = Faults::new().workers(
        FaultPlan::new()
            .crash_at(SimTime::from_secs_f64(21.0), WorkerId(0))
            .recover_at(SimTime::from_secs_f64(40.0), WorkerId(0)),
    );
    let out = run_replicated_threaded(4, ReplicationConfig::with_factor(2), faults, 3, 12, 2);
    assert_eq!(out.record.jobs_completed, 12);
    let log = &out.sched_log;
    assert!(log.repair_starts() >= 1, "no repair was ever committed");
    assert_eq!(
        log.repair_starts(),
        log.repair_dones(),
        "every committed repair must complete"
    );
    let violations = check_log(log, oracle_options(4));
    assert!(violations.is_empty(), "{violations:?}");
    assert_replay_matches(&out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Liveness under arbitrary single-crash plans (the crashed worker
    /// always recovers) with an optional partition window: zero oracle
    /// violations, every job exactly once, and every artifact the run
    /// touched ends with at least one live replica.
    #[test]
    fn every_touched_artifact_retains_a_live_replica(
        seed in 0u64..1000,
        victim in 0u32..4,
        crash_at in 5.0f64..30.0,
        partition in proptest::option::of((0u32..4, 0.0f64..20.0, 1.0f64..8.0)),
    ) {
        let mut faults = Faults::new().workers(
            FaultPlan::new()
                .crash_at(SimTime::from_secs_f64(crash_at), WorkerId(victim))
                .recover_at(SimTime::from_secs_f64(crash_at + 12.0), WorkerId(victim)),
        );
        if let Some((cut, from, len)) = partition {
            faults = faults.net(NetFaultPlan::none().with_partition(
                Some(WorkerId(cut)),
                SimTime::from_secs_f64(from),
                SimTime::from_secs_f64(from + len),
            ));
        }
        let out = run_replicated(4, ReplicationConfig::with_factor(2), faults, seed, 12, 3);
        prop_assert_eq!(out.record.jobs_completed, 12);
        let violations = check_log(&out.sched_log, oracle_options(4));
        prop_assert!(violations.is_empty(), "{:?}", violations);
        let live = out.replicas.as_ref().expect("replicas missing");
        for obj in 1..=3u64 {
            prop_assert!(
                live.count(ObjectId(obj)) >= 1,
                "object {} lost its last live replica (seed {}, victim {}, crash_at {})",
                obj, seed, victim, crash_at
            );
        }
    }

    /// Replay equality as a property: across seeds, factors and crash
    /// points, apply ∘ replay of the committed log's replica events
    /// equals the engine's final map exactly.
    #[test]
    fn log_replay_reconstructs_the_replica_map(
        seed in 0u64..1000,
        factor in 1u32..4,
        crash in proptest::option::of((0u32..4, 5.0f64..25.0)),
    ) {
        let faults = match crash {
            Some((victim, at)) => Faults::new().workers(
                FaultPlan::new()
                    .crash_at(SimTime::from_secs_f64(at), WorkerId(victim))
                    .recover_at(SimTime::from_secs_f64(at + 10.0), WorkerId(victim)),
            ),
            None => Faults::new(),
        };
        let out = run_replicated(4, ReplicationConfig::with_factor(factor), faults, seed, 10, 2);
        prop_assert_eq!(out.record.jobs_completed, 10);
        assert_replay_matches(&out);
    }
}
