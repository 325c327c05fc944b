//! Fault-injection tests — the failure scenarios §5 defers to future
//! work: "a worker dying after winning a bid" and "redistributing the
//! remaining jobs if a worker becomes unavailable".

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    run_workflow, Arrival, BaselineAllocator, Cluster, EngineConfig, FaultPlan, JobSpec, Payload,
    ResourceRef, RunMeta, RunSpec, WorkerId, WorkerSpec, Workflow,
};
use crossbid_simcore::{SimDuration, SimTime};
use crossbid_storage::ObjectId;

fn res(id: u64, mb: u64) -> ResourceRef {
    ResourceRef {
        id: ObjectId(id),
        bytes: mb * 1_000_000,
    }
}

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

fn arrivals(jobs: usize, spacing_secs: u64, mb: u64) -> Vec<Arrival> {
    (0..jobs)
        .map(|i| Arrival {
            at: SimTime::from_secs(i as u64 * spacing_secs),
            spec: JobSpec::scanning(
                crossbid_crossflow::TaskId(0),
                res(i as u64, mb),
                Payload::Index(i as u64),
            ),
        })
        .collect()
}

fn cfg_with(faults: FaultPlan) -> EngineConfig {
    EngineConfig {
        faults,
        ..EngineConfig::ideal()
    }
}

#[test]
fn worker_dying_after_winning_bids_loses_no_jobs() {
    // Worker crashes at t=30s with work queued; everything still
    // completes via redistribution.
    let faults = FaultPlan::new().crash_at(SimTime::from_secs(30), WorkerId(0));
    let cfg = cfg_with(faults);
    let mut cluster = Cluster::new(&specs(3), &cfg);
    let mut wf = Workflow::new();
    wf.add_sink("scan");
    let out = run_workflow(
        &mut cluster,
        &mut wf,
        &BiddingAllocator::new(),
        arrivals(12, 5, 100),
        &cfg,
        &RunMeta::default(),
    );
    assert_eq!(out.record.jobs_completed, 12, "no job may be lost");
    // Jobs that ran after the crash never ran on worker 0 again.
    // (Assignments before the crash may name it.)
    assert!(out.assignments.iter().any(|(_, w)| *w != WorkerId(0)));
}

#[test]
fn baseline_survives_crash_too() {
    let faults = FaultPlan::new().crash_at(SimTime::from_secs(25), WorkerId(1));
    let cfg = cfg_with(faults);
    let mut cluster = Cluster::new(&specs(3), &cfg);
    let mut wf = Workflow::new();
    wf.add_sink("scan");
    let out = run_workflow(
        &mut cluster,
        &mut wf,
        &BaselineAllocator,
        arrivals(12, 5, 100),
        &cfg,
        &RunMeta::default(),
    );
    assert_eq!(out.record.jobs_completed, 12);
}

#[test]
fn crash_loses_the_cache() {
    // The dead worker's clones are gone; after recovery its store is
    // cold, so a repeated resource must be re-downloaded somewhere.
    let faults = FaultPlan::new()
        .crash_at(SimTime::from_secs(40), WorkerId(0))
        .recover_at(SimTime::from_secs(41), WorkerId(0));
    let cfg = cfg_with(faults);
    let mut cluster = Cluster::new(&specs(1), &cfg); // single worker: crashes and recovers
    let mut wf = Workflow::new();
    wf.add_sink("scan");
    // Same repo before and after the crash window.
    let jobs: Vec<Arrival> = [0u64, 10, 60, 70]
        .iter()
        .map(|&t| Arrival {
            at: SimTime::from_secs(t),
            spec: JobSpec::scanning(
                crossbid_crossflow::TaskId(0),
                res(1, 100),
                Payload::Index(1),
            ),
        })
        .collect();
    let out = run_workflow(
        &mut cluster,
        &mut wf,
        &BiddingAllocator::new(),
        jobs,
        &cfg,
        &RunMeta::default(),
    );
    assert_eq!(out.record.jobs_completed, 4);
    assert_eq!(
        out.record.cache_misses, 2,
        "one cold fetch before the crash, one after"
    );
    assert!(!cluster.node(WorkerId(0)).store.is_empty());
}

#[test]
fn all_workers_down_waits_for_recovery() {
    // Both workers die, then one recovers: stranded jobs wait and then
    // complete.
    let faults = FaultPlan::new()
        .with_detection_delay(SimDuration::from_secs(1))
        .crash_at(SimTime::from_secs(2), WorkerId(0))
        .crash_at(SimTime::from_secs(2), WorkerId(1))
        .recover_at(SimTime::from_secs(50), WorkerId(0));
    let cfg = cfg_with(faults);
    let mut cluster = Cluster::new(&specs(2), &cfg);
    let mut wf = Workflow::new();
    wf.add_sink("scan");
    let out = run_workflow(
        &mut cluster,
        &mut wf,
        &BiddingAllocator::new(),
        arrivals(4, 1, 50),
        &cfg,
        &RunMeta::default(),
    );
    assert_eq!(out.record.jobs_completed, 4);
    assert!(
        out.record.makespan_secs >= 50.0,
        "work can only finish after the recovery at t=50 (got {})",
        out.record.makespan_secs
    );
}

#[test]
fn contests_mask_mid_contest_failures_via_window() {
    // A worker dies while contests are open: its bids never arrive and
    // the remaining workers' full set (or the window) decides.
    let faults = FaultPlan::new().crash_at(SimTime::from_millis(1), WorkerId(2));
    let mut cfg = cfg_with(faults);
    // Non-zero latency so the crash lands between broadcast and bids.
    cfg.control = crossbid_net::ControlPlane::new(SimDuration::from_millis(50), SimDuration::ZERO);
    let mut cluster = Cluster::new(&specs(3), &cfg);
    let mut wf = Workflow::new();
    wf.add_sink("scan");
    let out = run_workflow(
        &mut cluster,
        &mut wf,
        &BiddingAllocator::new(),
        arrivals(5, 1, 50),
        &cfg,
        &RunMeta::default(),
    );
    assert_eq!(out.record.jobs_completed, 5);
    // Nothing was ever placed on the dead worker after the crash: the
    // first contest may time out, later ones see a 2-worker roster.
    for (_, w) in &out.assignments {
        assert_ne!(*w, WorkerId(2), "assignment to a dead worker leaked");
    }
}

#[test]
fn sim_records_fault_metrics_and_log() {
    // The sim engine's scheduler log and the new RunRecord fault
    // fields must agree with each other and with the plan.
    let faults = FaultPlan::new()
        .crash_at(SimTime::from_secs(20), WorkerId(0))
        .recover_at(SimTime::from_secs(60), WorkerId(0));
    let mut cfg = cfg_with(faults);
    cfg.trace = true;
    let mut cluster = Cluster::new(&specs(3), &cfg);
    let mut wf = Workflow::new();
    wf.add_sink("scan");
    let out = run_workflow(
        &mut cluster,
        &mut wf,
        &BiddingAllocator::new(),
        arrivals(12, 5, 100),
        &cfg,
        &RunMeta::default(),
    );
    assert_eq!(out.record.jobs_completed, 12);
    assert_eq!(out.record.worker_crashes, 1);
    assert_eq!(out.sched_log.crashes(), 1);
    assert_eq!(out.sched_log.recoveries(), 1);
    assert_eq!(
        out.sched_log.redistributions() as u64,
        out.record.jobs_redistributed
    );
    // Down from t=20 to t=60: forty virtual seconds of downtime.
    assert!(
        (out.record.recovery_secs - 40.0).abs() < 1e-6,
        "downtime should be 40 s, got {}",
        out.record.recovery_secs
    );
    assert!(out
        .sched_log
        .no_assignments_to_detected_dead(cfg.faults.detection_delay.as_secs_f64()));
}

#[test]
fn both_runtimes_mask_the_same_crash() {
    // The headline parity claim of the fault work: inject the same
    // crash into the simulated and the threaded runtime and both must
    // uphold the same invariants — nothing lost, the crash observed,
    // stranded work redistributed, no post-detection assignment to
    // the corpse.
    // Early enough that every worker still holds unfinished work (the
    // run spans ~20 virtual seconds), late enough that the first
    // contests have resolved.
    let crash_at = SimTime::from_secs(8);
    // Hot repo: queues concentrate, so the dead worker has work to
    // strand in both runtimes.
    let hot: Vec<Arrival> = (0..10)
        .map(|i| Arrival {
            at: SimTime::from_secs(i),
            spec: JobSpec::scanning(
                crossbid_crossflow::TaskId(0),
                res(1, 100),
                Payload::Index(i),
            ),
        })
        .collect();

    let sim_cfg = EngineConfig {
        trace: true,
        faults: FaultPlan::new().crash_at(crash_at, WorkerId(0)),
        ..EngineConfig::ideal()
    };
    let mut cluster = Cluster::new(&specs(3), &sim_cfg);
    let mut wf = Workflow::new();
    wf.add_sink("scan");
    let sim = run_workflow(
        &mut cluster,
        &mut wf,
        &BiddingAllocator::new(),
        hot.clone(),
        &sim_cfg,
        &RunMeta::default(),
    );

    let thr_spec = RunSpec::builder()
        .workers(specs(3))
        .time_scale(1e-3)
        .noise(crossbid_net::NoiseModel::None)
        .speed_learning(true)
        .seed(5)
        .faults(FaultPlan::new().crash_at(crash_at, WorkerId(0)))
        .build();
    let mut wf2 = Workflow::new();
    wf2.add_sink("scan");
    let thr = thr_spec
        .threaded()
        .run_iteration(&mut wf2, &BiddingAllocator::new(), hot);

    for (label, rec, log) in [
        ("sim", &sim.record, &sim.sched_log),
        ("threaded", &thr.record, &thr.sched_log),
    ] {
        assert_eq!(rec.jobs_completed, 10, "{label}: no job may be lost");
        assert_eq!(rec.worker_crashes, 1, "{label}");
        assert_eq!(log.crashes(), 1, "{label}");
        assert_eq!(
            log.redistributions() as u64,
            rec.jobs_redistributed,
            "{label}"
        );
        assert!(log.no_assignments_to_detected_dead(2.0), "{label}");
        assert!(rec.recovery_secs > 0.0, "{label}: downtime to end of run");
    }
}

#[test]
fn crash_of_unknown_worker_is_idempotent() {
    // Crashing an already-dead worker (duplicate fault event) is a
    // no-op rather than a panic.
    let faults = FaultPlan::new()
        .crash_at(SimTime::from_secs(1), WorkerId(0))
        .crash_at(SimTime::from_secs(2), WorkerId(0));
    let cfg = cfg_with(faults);
    let mut cluster = Cluster::new(&specs(2), &cfg);
    let mut wf = Workflow::new();
    wf.add_sink("scan");
    let out = run_workflow(
        &mut cluster,
        &mut wf,
        &BiddingAllocator::new(),
        arrivals(6, 2, 50),
        &cfg,
        &RunMeta::default(),
    );
    assert_eq!(out.record.jobs_completed, 6);
}
