//! Master-failover correctness: the pure state machine's split-replay
//! property on real run logs, and a pinned regression for the
//! harshest takeover — a leader dying with an unacked `Assign` in
//! flight behind a partition.

use crossbid_checker::{check_log, OracleOptions};
use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    Arrival, EngineConfig, Faults, JobSpec, MasterFaultPlan, NetFaultPlan, Payload, ResourceRef,
    RunOutput, RunSpec, SchedEventKind, SchedState, WorkerId, WorkerSpec, Workflow,
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

fn hot_repo_arrivals(task: crossbid_crossflow::TaskId, n: usize) -> Vec<Arrival> {
    (0..n)
        .map(|i| Arrival {
            at: SimTime::from_secs_f64(i as f64 * 0.5),
            spec: JobSpec::scanning(
                task,
                ResourceRef {
                    id: ObjectId(1),
                    bytes: 100_000_000,
                },
                Payload::Index(i as u64),
            ),
        })
        .collect()
}

/// One deterministic sim run of the hot-repo workload under the given
/// fault aggregate.
fn run_sim(workers: usize, faults: Faults) -> RunOutput {
    let spec = RunSpec::builder()
        .workers(specs(workers))
        .engine(EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            ..EngineConfig::default()
        })
        .speed_learning(false)
        .faults(faults)
        .trace(true)
        .seed(7)
        .time_scale(1e-3)
        .build();
    let mut session = spec.sim();
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let arrivals = hot_repo_arrivals(task, 12);
    session.run_iteration(&mut wf, &BiddingAllocator::new(), arrivals)
}

fn oracle_options(workers: usize) -> OracleOptions {
    OracleOptions {
        expect_all_complete: true,
        strict_reoffer: false,
        workers: Some(workers as u32),
        ..OracleOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `SchedState::replay` is a pure fold: for a *real* run log that
    /// includes a master crash and failover at an arbitrary append
    /// index, replaying any prefix and then applying the suffix must
    /// equal replaying the whole log. This is the property the
    /// standby's takeover rides on — "state at the crash point" is
    /// well-defined no matter where the leader died.
    #[test]
    fn split_replay_matches_whole_replay_on_real_logs(
        workers in 2usize..6,
        crash_index in 1u64..60,
        split_frac in 0.0f64..1.0,
    ) {
        let out = run_sim(
            workers,
            Faults::new().master(MasterFaultPlan::new().crash_at(crash_index)),
        );
        // The crash schedule must actually have fired (the hot-repo
        // log has well over 60 appends), or the run proves nothing.
        prop_assert_eq!(out.sched_log.failovers(), 1);
        prop_assert_eq!(out.record.jobs_completed, 12);
        prop_assert!(
            check_log(&out.sched_log, oracle_options(workers)).is_empty(),
            "oracle violations at crash index {}",
            crash_index
        );
        let events: Vec<_> = out.sched_log.events().collect();
        let whole = SchedState::replay(events.iter());
        let split = ((events.len() as f64) * split_frac) as usize;
        let split = split.min(events.len());
        let mut st = SchedState::replay(events[..split].iter());
        for ev in &events[split..] {
            st.apply(ev);
        }
        prop_assert_eq!(st, whole, "split at {} diverged", split);
    }
}

/// Pinned regression: the leader dies *just after* committing an
/// `Assign` whose message a partition has swallowed — the successor
/// inherits an open placement it never sent, must keep honouring its
/// lease and retries rather than double-issue it, and every job must
/// still complete exactly once.
#[test]
fn failover_with_unacked_assign_in_flight() {
    // A full partition over [1 s, 4 s): assignments decided inside the
    // window are committed and sent but never delivered, so the
    // reliability layer (acks, seeded retries, leases) carries them.
    let partition = || {
        NetFaultPlan::none().with_partition(
            None::<WorkerId>,
            SimTime::from_secs(1),
            SimTime::from_secs(4),
        )
    };
    // Reference run (no master faults): find the first Assigned entry
    // committed inside the partition window. Without crashes every
    // append commits, so the entry's 1-based log position is its
    // append index; crashing one append later kills the leader with
    // that Assign still unacked.
    let reference = run_sim(3, Faults::new().net(partition()));
    let first_unacked = reference
        .sched_log
        .events()
        .position(|ev| {
            matches!(ev.kind, SchedEventKind::Assigned) && ev.at >= SimTime::from_secs(1)
        })
        .expect("an assignment decided inside the partition window");
    let crash_index = first_unacked as u64 + 2;

    let out = run_sim(
        3,
        Faults::new()
            .net(partition())
            .master(MasterFaultPlan::new().crash_at(crash_index)),
    );
    assert_eq!(out.record.jobs_completed, 12, "every job completes");
    assert_eq!(out.sched_log.failovers(), 1, "exactly one takeover");
    let elections: Vec<u32> = out
        .sched_log
        .events()
        .filter_map(|ev| match ev.kind {
            SchedEventKind::LeaderElected { term } => Some(term),
            _ => None,
        })
        .collect();
    assert_eq!(elections, vec![2], "a single election to term 2");
    let violations = check_log(&out.sched_log, oracle_options(3));
    assert!(
        violations.is_empty(),
        "violations at crash index {crash_index}: {violations:?}"
    );
    assert_eq!(
        out.sched_log.completions(),
        12,
        "exactly-once effects across the takeover"
    );
}

/// The threaded runtime survives the same pinned crash index: a
/// standby takes over mid-run and every job still completes exactly
/// once with zero violations.
#[test]
fn threaded_failover_completes_exactly_once() {
    let spec = RunSpec::builder()
        .workers(specs(3))
        .engine(EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            ..EngineConfig::default()
        })
        .speed_learning(false)
        .faults(Faults::new().master(MasterFaultPlan::new().crash_at(25)))
        .trace(true)
        .seed(7)
        .time_scale(1e-3)
        .build();
    let mut session = spec.threaded();
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let arrivals = hot_repo_arrivals(task, 12);
    let out = session.run_iteration(&mut wf, &BiddingAllocator::new(), arrivals);
    assert_eq!(out.record.jobs_completed, 12, "every job completes");
    assert_eq!(out.sched_log.failovers(), 1, "the crash fired");
    let violations = check_log(&out.sched_log, oracle_options(3));
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(out.sched_log.completions(), 12);
}
