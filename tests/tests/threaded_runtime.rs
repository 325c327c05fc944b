//! The real-threaded runtime end to end, started through
//! `RunSpec::threaded()`. These run actual OS threads with aggressive
//! time compression, so assertions are about structure — conservation,
//! locality, metric consistency, the shape of the scheduler log — not
//! exact timings.

use std::collections::HashMap;
use std::time::Duration;

use crossbid_baselines::{RandomAllocator, SparkStaticAllocator};
use crossbid_checker::oracle::{check_log, OracleOptions};
use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    Allocator, Arrival, BaselineAllocator, JobId, JobSpec, Payload, ResourceRef, RunSpec,
    RunSpecBuilder, SchedEventKind, TaskId, WorkerSpec, Workflow,
};
use crossbid_metrics::RunRecord;
use crossbid_net::NoiseModel;
use crossbid_simcore::SimTime;
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

fn arrivals(task: TaskId, jobs: &[(u64, u64)], spacing_virtual_secs: f64) -> Vec<Arrival> {
    jobs.iter()
        .enumerate()
        .map(|(i, (rid, mb))| Arrival {
            at: SimTime::from_secs_f64(i as f64 * spacing_virtual_secs),
            spec: JobSpec::scanning(task, res(*rid, *mb), Payload::Index(*rid)),
        })
        .collect()
}

/// Per job, what the scheduler log says happened to it.
#[derive(Debug, Default, PartialEq)]
struct Shape {
    opened: u32,
    bids: u32,
    closed_on_full_set: u32,
    closed_otherwise: u32,
    assigned: u32,
    completed: u32,
}

#[test]
fn a_fault_free_bidding_run_has_the_serialised_log_shape() {
    // Seven workers, a burst of jobs faster than a contest round trip:
    // concurrent contests would overlap here. The window floor is far
    // above a bid round trip, so every contest closes on its full bid
    // set, even on a loaded machine.
    const N: usize = 7;
    let jobs: Vec<(u64, u64)> = (0..30).map(|i| (i % 4, 20)).collect();
    let spec = RunSpec::builder()
        .workers(specs(N))
        .noise(NoiseModel::None)
        .seed(3)
        .time_scale(1e-4)
        .min_real_window(Duration::from_millis(500))
        .build();
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let out = spec.threaded().run_iteration(
        &mut wf,
        &BiddingAllocator::new(),
        arrivals(task, &jobs, 0.01),
    );
    let n_jobs = jobs.len() as u64;
    assert_eq!(out.record.jobs_completed, n_jobs);

    let mut shapes: HashMap<JobId, Shape> = HashMap::new();
    // At most one contest is open at any time. Within one instant the
    // log orders commuting events by kind, not by emission, so a close
    // and the next open in one instant count closes first.
    let mut open = 0i32;
    let events: Vec<_> = out.sched_log.events().collect();
    for instant in events.chunk_by(|a, b| a.at == b.at) {
        let (mut opened, mut closed) = (0, 0);
        for e in instant {
            let Some(job) = e.job else { continue };
            let s = shapes.entry(job).or_default();
            match e.kind {
                SchedEventKind::ContestOpened => {
                    s.opened += 1;
                    opened += 1;
                }
                SchedEventKind::BidReceived { .. } => s.bids += 1,
                SchedEventKind::ContestClosed {
                    timed_out: false,
                    fallback: false,
                } => {
                    s.closed_on_full_set += 1;
                    closed += 1;
                }
                SchedEventKind::ContestClosed { .. } => {
                    s.closed_otherwise += 1;
                    closed += 1;
                }
                SchedEventKind::Assigned => s.assigned += 1,
                SchedEventKind::Completed => s.completed += 1,
                _ => {}
            }
        }
        open += opened - closed;
        assert!(open <= 1, "{open} contests open at {:?}", instant[0].at);
    }
    assert_eq!(shapes.len() as u64, n_jobs);
    let expected = Shape {
        opened: 1,
        bids: N as u32,
        closed_on_full_set: 1,
        closed_otherwise: 0,
        assigned: 1,
        completed: 1,
    };
    for (job, s) in &shapes {
        assert_eq!(s, &expected, "{job:?}");
    }
    // 2n + 2 messages per job: n bid requests, n bids, the assignment
    // and the completion report. The rest are Idle announcements: each
    // worker's first, and at most one per job after which a queue ran
    // dry.
    let per_job = 2 * N as u64 + 2;
    let messages = out.record.control_messages;
    assert!(
        (per_job * n_jobs..=per_job * n_jobs + N as u64 + n_jobs).contains(&messages),
        "{messages} control messages for {n_jobs} jobs"
    );
}

/// Fast test spec: 1 virtual second = 50 µs real.
fn fast(n: usize) -> RunSpecBuilder {
    RunSpec::builder()
        .workers(specs(n))
        .noise(NoiseModel::None)
        .speed_learning(true)
        .seed(7)
        .time_scale(5e-5)
}

/// One threaded run of `spec`; these tests only need the record.
fn run_threaded(
    spec: RunSpecBuilder,
    allocator: &dyn Allocator,
    wf: &mut Workflow,
    arrivals: Vec<Arrival>,
) -> RunRecord {
    let spec = spec.build();
    spec.threaded()
        .run_iteration(wf, allocator, arrivals)
        .record
}

#[test]
fn bidding_completes_all_jobs() {
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let jobs: Vec<(u64, u64)> = (0..20).map(|i| (i % 6, 100)).collect();
    let r = run_threaded(
        fast(3),
        &BiddingAllocator::new(),
        &mut wf,
        arrivals(task, &jobs, 1.0),
    );
    assert_eq!(r.jobs_completed, 20);
    assert!(r.cache_misses >= 6, "six distinct repos must be fetched");
    assert!(
        r.cache_misses <= 18,
        "locality should hold misses well below 20"
    );
    assert_eq!(r.cache_hits + r.cache_misses, 20);
    assert!(r.makespan_secs > 0.0);
    assert!(r.data_load_mb >= 600.0 - 1e-6);
}

#[test]
fn baseline_completes_all_jobs() {
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let jobs: Vec<(u64, u64)> = (0..20).map(|i| (i % 6, 100)).collect();
    let r = run_threaded(
        fast(3),
        &BaselineAllocator,
        &mut wf,
        arrivals(task, &jobs, 1.0),
    );
    assert_eq!(r.jobs_completed, 20);
    assert_eq!(r.cache_hits + r.cache_misses, 20);
    assert_eq!(r.contests_timed_out, 0, "baseline runs no contests");
}

#[test]
fn downstream_jobs_flow_in_threaded_mode() {
    use crossbid_crossflow::task::FnTask;
    let sink_id = TaskId(1);
    let mut wf = Workflow::new();
    let search = wf.add_task(
        "expand",
        Box::new(FnTask(
            move |job: &crossbid_crossflow::Job, _: &_, out: &mut Vec<JobSpec>| {
                if let Some(r) = job.resource {
                    out.push(JobSpec {
                        task: sink_id,
                        resource: Some(r),
                        work_bytes: r.bytes / 2,
                        cpu_secs: 0.0,
                        payload: job.payload.clone(),
                        origin: None,
                        dag: None,
                    });
                }
            },
        )),
    );
    let sink = wf.add_sink("sink");
    assert_eq!(sink, sink_id);
    let r = run_threaded(
        fast(2).contest_window_secs(0.5),
        &BiddingAllocator::new(),
        &mut wf,
        arrivals(search, &[(1, 50), (2, 50), (3, 50)], 0.5),
    );
    assert_eq!(r.jobs_completed, 6, "3 expand + 3 sink jobs");
    let sink_logic = wf
        .logic_as::<crossbid_crossflow::SinkTask>(sink)
        .expect("sink");
    assert_eq!(sink_logic.len(), 3);
}

#[test]
fn warm_worker_attracts_bidding_jobs() {
    // Single hot repo, three workers; after the first fetch, the
    // owner's zero-transfer bids should keep the job count of clones
    // far below the job count.
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let jobs: Vec<(u64, u64)> = (0..15).map(|_| (1, 200)).collect();
    let r = run_threaded(
        fast(3),
        &BiddingAllocator::new(),
        &mut wf,
        // Spaced wider than a scan (2 s), so the owner is usually free.
        arrivals(task, &jobs, 4.0),
    );
    assert_eq!(r.jobs_completed, 15);
    assert!(
        r.cache_misses <= 3,
        "hot repo should be cloned at most once per worker, got {}",
        r.cache_misses
    );
}

#[test]
fn zero_worker_cluster_is_rejected() {
    let mut wf = Workflow::new();
    let _ = wf.add_sink("s");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_threaded(RunSpec::builder(), &BaselineAllocator, &mut wf, vec![])
    }));
    assert!(result.is_err());
}

#[test]
fn empty_arrivals_terminate_immediately() {
    let mut wf = Workflow::new();
    let _ = wf.add_sink("s");
    let r = run_threaded(fast(2), &BiddingAllocator::new(), &mut wf, vec![]);
    assert_eq!(r.jobs_completed, 0);
    assert_eq!(r.cache_misses, 0);
    // A run that completed nothing has no makespan and no queue wait:
    // explicit zeros, not clock residue (regression).
    assert_eq!(r.makespan_secs, 0.0);
    assert_eq!(r.mean_queue_wait_secs, 0.0);
    assert!(r.worker_busy_frac.iter().all(|b| *b == 0.0));
}

#[test]
fn busy_fractions_are_sane() {
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let jobs: Vec<(u64, u64)> = (0..12).map(|i| (i, 100)).collect();
    let r = run_threaded(
        fast(3),
        &BiddingAllocator::new(),
        &mut wf,
        arrivals(task, &jobs, 0.5),
    );
    assert_eq!(r.worker_busy_frac.len(), 3);
    for b in &r.worker_busy_frac {
        assert!((0.0..=1.0).contains(b), "busy {b}");
    }
    assert!(
        r.worker_busy_frac.iter().any(|b| *b > 0.0),
        "someone must have worked"
    );
}

#[test]
fn the_threaded_runtime_runs_any_allocator() {
    // Push schedulers with obedient workers: no contest, no pull loop,
    // the same decision path.
    let allocators: [&dyn Allocator; 2] = [
        &RandomAllocator,
        &SparkStaticAllocator::with_stage_barrier(),
    ];
    for allocator in allocators {
        let mut wf = Workflow::new();
        let task = wf.add_sink("scan");
        let jobs: Vec<(u64, u64)> = (0..12).map(|i| (i % 4, 50)).collect();
        let spec = fast(3).build();
        let out = spec
            .threaded()
            .run_iteration(&mut wf, allocator, arrivals(task, &jobs, 0.5));
        let kind = allocator.kind();
        assert_eq!(out.record.scheduler, kind);
        assert_eq!(out.record.jobs_completed, 12, "{}", kind.name());
        let opts = OracleOptions {
            workers: Some(3),
            ..OracleOptions::default()
        };
        let violations = check_log(&out.sched_log, opts);
        assert!(violations.is_empty(), "{}: {violations:?}", kind.name());
    }
}
