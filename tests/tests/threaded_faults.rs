//! Fault injection on the *threaded* runtime: real worker threads
//! crash (go silent, lose queue + store) and recover mid-run, and the
//! master's detection-delayed redistribution must mask it all. These
//! are the same scenarios `tests/tests/fault_tolerance.rs` runs on
//! the simulation engine.

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    Allocator, Arrival, BaselineAllocator, FaultPlan, Faults, JobSpec, MembershipPlan, Payload,
    ResourceRef, RunSpec, SchedLog, TaskId, WorkerId, WorkerSpec, Workflow,
};
use crossbid_metrics::RunRecord;
use crossbid_net::NoiseModel;
use crossbid_simcore::{SimDuration, SimTime};
use crossbid_storage::ObjectId;

/// Record + scheduler log of one threaded run on `n` workers.
fn run_threaded_traced(
    n: usize,
    allocator: &dyn Allocator,
    faults: impl Into<Faults>,
    wf: &mut Workflow,
    arrivals: Vec<Arrival>,
) -> (RunRecord, SchedLog) {
    let spec = RunSpec::builder()
        .workers(specs(n))
        // The acceptance bar: fault runs must terminate promptly even
        // at the *default* (slowest) compression.
        .time_scale(1e-3)
        .noise(NoiseModel::None)
        .speed_learning(true)
        .seed(7)
        .faults(faults)
        .build();
    let out = spec.threaded().run_iteration(wf, allocator, arrivals);
    (out.record, out.sched_log)
}

/// The record alone.
fn run_threaded(
    n: usize,
    allocator: &dyn Allocator,
    faults: FaultPlan,
    wf: &mut Workflow,
    arrivals: Vec<Arrival>,
) -> RunRecord {
    run_threaded_traced(n, allocator, faults, wf, arrivals).0
}

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

/// `jobs` arrivals, all over the same hot repo of `mb` MB so the warm
/// worker's zero-transfer bids concentrate the queue on it — the
/// worker we then crash.
fn hot_repo_arrivals(task: TaskId, jobs: usize, spacing_secs: f64, mb: u64) -> Vec<Arrival> {
    (0..jobs)
        .map(|i| Arrival {
            at: SimTime::from_secs_f64(i as f64 * spacing_secs),
            spec: JobSpec::scanning(task, res(1, mb), Payload::Index(i as u64)),
        })
        .collect()
}

#[test]
fn crash_mid_run_redistributes_and_completes_everything() {
    // Workers 1 and 2 join only at t=7, so worker 0 is alone on the
    // roster for every arrival (t ≤ 5.5) and takes each job it is
    // placed: a 100 s fetch of repo 1, then 10 s per scan. At the
    // crash at t=6 it holds about 200 virtual seconds of that work
    // (0.2 s real), so only a master stalled that long could find it
    // drained. Detection at t=8 hands the stranded jobs to the
    // newcomers.
    let at = SimTime::from_secs;
    let faults = Faults::new()
        .workers(FaultPlan::new().crash_at(at(6), WorkerId(0)))
        .membership(
            MembershipPlan::new()
                .join_at(at(7), WorkerId(1))
                .join_at(at(7), WorkerId(2)),
        );
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let (r, log) = run_threaded_traced(
        3,
        &BiddingAllocator::new(),
        faults,
        &mut wf,
        hot_repo_arrivals(task, 12, 0.5, 1000),
    );
    assert_eq!(r.jobs_completed, 12, "every created job must complete");
    assert_eq!(r.worker_crashes, 1);
    assert!(
        r.jobs_redistributed > 0,
        "the dead worker's backlog must be reclaimed"
    );
    assert_eq!(log.crashes(), 1);
    assert_eq!(log.redistributions() as u64, r.jobs_redistributed);
    assert!(
        log.no_assignments_to_detected_dead(2.0),
        "post-detection assignments must avoid the dead worker"
    );
    assert!(r.recovery_secs > 0.0, "downtime runs to end of run");
}

#[test]
fn crash_and_recovery_completes_everything() {
    // Recovery lands while the survivors are still churning through
    // the redistributed backlog, so the rejoined worker takes part in
    // the tail of the run.
    let faults = FaultPlan::new()
        .crash_at(SimTime::from_secs(6), WorkerId(0))
        .recover_at(SimTime::from_secs(12), WorkerId(0));
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let (r, log) = run_threaded_traced(
        3,
        &BiddingAllocator::new(),
        faults,
        &mut wf,
        hot_repo_arrivals(task, 12, 0.5, 100),
    );
    assert_eq!(r.jobs_completed, 12);
    assert_eq!(r.worker_crashes, 1);
    assert_eq!(log.crashes(), 1);
    assert_eq!(log.recoveries(), 1);
    // Downtime is the crash→recover span, ~6 virtual seconds; real
    // scheduling jitter only ever lengthens the measured window.
    assert!(
        r.recovery_secs >= 4.0,
        "downtime should span the outage, got {}",
        r.recovery_secs
    );
    assert!(log.no_assignments_to_detected_dead(2.0));
}

#[test]
fn baseline_survives_crash_too() {
    let faults = FaultPlan::new().crash_at(SimTime::from_secs(8), WorkerId(1));
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let r = run_threaded(
        3,
        &BaselineAllocator,
        faults,
        &mut wf,
        hot_repo_arrivals(task, 10, 1.0, 100),
    );
    assert_eq!(r.jobs_completed, 10);
    assert_eq!(r.worker_crashes, 1);
}

#[test]
fn all_workers_dead_without_recovery_terminates() {
    // Both workers die early with no recovery scheduled: the run must
    // give up with a partial record instead of hanging forever.
    let faults = FaultPlan::new()
        .with_detection_delay(SimDuration::from_secs(1))
        .crash_at(SimTime::from_secs(3), WorkerId(0))
        .crash_at(SimTime::from_secs(3), WorkerId(1));
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let r = run_threaded(
        2,
        &BiddingAllocator::new(),
        faults,
        &mut wf,
        hot_repo_arrivals(task, 8, 1.0, 100),
    );
    assert!(
        r.jobs_completed < 8,
        "cluster died before the work was done"
    );
    assert_eq!(r.worker_crashes, 2);
    assert!(r.recovery_secs > 0.0, "both workers stay down to the end");
}

#[test]
fn all_workers_down_waits_for_recovery() {
    // Mirror of the sim-engine test: both die, one comes back, and the
    // stranded jobs complete after the recovery.
    let faults = FaultPlan::new()
        .with_detection_delay(SimDuration::from_secs(1))
        .crash_at(SimTime::from_secs(2), WorkerId(0))
        .crash_at(SimTime::from_secs(2), WorkerId(1))
        .recover_at(SimTime::from_secs(50), WorkerId(0));
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let (r, log) = run_threaded_traced(
        2,
        &BiddingAllocator::new(),
        faults,
        &mut wf,
        hot_repo_arrivals(task, 4, 1.0, 100),
    );
    assert_eq!(r.jobs_completed, 4);
    assert!(
        r.makespan_secs >= 50.0,
        "work can only finish after the recovery at t=50 (got {})",
        r.makespan_secs
    );
    assert_eq!(log.recoveries(), 1);
}

#[test]
fn crash_before_any_arrival_yields_zero_metrics() {
    // A cluster that is dead on arrival completes nothing — and a
    // zero-completion run must report explicit zeros, not clock
    // residue (regression: makespan used to echo scheduling jitter).
    let faults = FaultPlan::new()
        .with_detection_delay(SimDuration::from_secs(1))
        .crash_at(SimTime::ZERO, WorkerId(0));
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let r = run_threaded(
        1,
        &BiddingAllocator::new(),
        faults,
        &mut wf,
        hot_repo_arrivals(task, 3, 1.0, 100),
    );
    assert_eq!(r.jobs_completed, 0);
    assert_eq!(r.makespan_secs, 0.0);
    assert_eq!(r.mean_queue_wait_secs, 0.0);
    assert!(r.worker_busy_frac.iter().all(|b| *b == 0.0));
}
