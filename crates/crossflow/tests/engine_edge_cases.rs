//! Edge cases of the engine: degenerate workloads, degenerate
//! clusters, and documented behavioural quirks.

use crossbid_crossflow::{
    run_workflow, Arrival, BaselineAllocator, Cluster, EngineConfig, JobSpec, Payload, ResourceRef,
    RunMeta, SchedEventKind, WorkerId, WorkerSpec, Workflow,
};
use crossbid_simcore::SimTime;
use crossbid_storage::{EvictionPolicy, ObjectId};

fn spec(name: &str) -> WorkerSpec {
    WorkerSpec::builder(name)
        .net_mbps(10.0)
        .rw_mbps(100.0)
        .storage_gb(1.0)
        .build()
}

fn run(specs: &[WorkerSpec], arrivals: Vec<Arrival>) -> crossbid_crossflow::RunOutput {
    run_with(&EngineConfig::ideal(), specs, arrivals)
}

fn run_with(
    cfg: &EngineConfig,
    specs: &[WorkerSpec],
    arrivals: Vec<Arrival>,
) -> crossbid_crossflow::RunOutput {
    let mut cluster = Cluster::new(specs, cfg);
    let mut wf = Workflow::new();
    wf.add_sink("scan");
    run_workflow(
        &mut cluster,
        &mut wf,
        &BaselineAllocator,
        arrivals,
        cfg,
        &RunMeta::default(),
    )
}

#[test]
fn empty_arrival_stream() {
    let out = run(&[spec("w0")], vec![]);
    assert_eq!(out.record.jobs_completed, 0);
    assert_eq!(out.record.makespan_secs, 0.0);
    assert!(out.assignments.is_empty());
}

#[test]
fn single_worker_cluster_handles_everything() {
    let arrivals: Vec<Arrival> = (0..10)
        .map(|i| Arrival {
            at: SimTime::ZERO,
            spec: JobSpec::scanning(
                crossbid_crossflow::TaskId(0),
                ResourceRef {
                    id: ObjectId(i % 3),
                    bytes: 10_000_000,
                },
                Payload::Index(i),
            ),
        })
        .collect();
    let out = run(&[spec("solo")], arrivals);
    assert_eq!(out.record.jobs_completed, 10);
    assert_eq!(out.record.cache_misses, 3);
    assert!(out.assignments.iter().all(|(_, w)| *w == WorkerId(0)));
}

#[test]
fn zero_byte_work_jobs_complete_instantly() {
    let arrivals = vec![Arrival {
        at: SimTime::ZERO,
        spec: JobSpec {
            task: crossbid_crossflow::TaskId(0),
            resource: None,
            work_bytes: 0,
            cpu_secs: 0.0,
            payload: Payload::None,
            origin: None,
            dag: None,
        },
    }];
    let out = run(&[spec("w0")], arrivals);
    assert_eq!(out.record.jobs_completed, 1);
    assert_eq!(out.record.makespan_secs, 0.0);
}

#[test]
fn resource_larger_than_every_store_passes_through() {
    // 2 GB resource, 1 GB stores: downloaded every time, never cached.
    let big = ResourceRef {
        id: ObjectId(1),
        bytes: 2_000_000_000,
    };
    let arrivals: Vec<Arrival> = (0..3)
        .map(|i| Arrival {
            at: SimTime::from_secs(i * 1000),
            spec: JobSpec::scanning(crossbid_crossflow::TaskId(0), big, Payload::None),
        })
        .collect();
    let out = run(&[spec("w0")], arrivals);
    assert_eq!(out.record.jobs_completed, 3);
    assert_eq!(out.record.cache_misses, 3, "never retained");
    assert!((out.record.data_load_mb - 6000.0).abs() < 1e-6);
}

#[test]
fn same_instant_arrivals_are_processed_fifo() {
    let arrivals: Vec<Arrival> = (0..6)
        .map(|i| Arrival {
            at: SimTime::ZERO,
            spec: JobSpec::compute(crossbid_crossflow::TaskId(0), 1.0, Payload::Index(i)),
        })
        .collect();
    let out = run(&[spec("a"), spec("b")], arrivals);
    assert_eq!(out.record.jobs_completed, 6);
    // Placement order follows job-id order for same-instant arrivals.
    let ids: Vec<u64> = out.assignments.iter().map(|(j, _)| j.0).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
}

/// Arrival lists are not always sorted (a federation's spill-in at
/// `t + latency` is routed before a later home arrival at an earlier
/// instant), and whole-microsecond instants tie: an arrival due at the
/// instant an in-flight `ProcDone` fires is still delivered first, as
/// everything preloaded is.
#[test]
fn unsorted_arrivals_with_a_tie_run_as_if_sorted() {
    let arrival = |at_ms: u64, i: u64| Arrival {
        at: SimTime::from_millis(at_ms),
        spec: JobSpec::compute(crossbid_crossflow::TaskId(0), 1.0, Payload::Index(i)),
    };
    let mut cfg = EngineConfig::ideal();
    cfg.trace = true;
    let traced = |arrivals| run_with(&cfg, &[spec("w0")], arrivals);
    // Job 0 starts at 0 and its `ProcDone` is in flight for 1.000 s —
    // the instant the out-of-place arrival is due.
    let unsorted = traced(vec![arrival(0, 0), arrival(1_000, 2), arrival(500, 1)]);
    let sorted = traced(vec![arrival(0, 0), arrival(500, 1), arrival(1_000, 2)]);
    assert_eq!(unsorted.record.jobs_completed, 3);
    assert_eq!(unsorted.sched_log, sorted.sched_log);
    assert_eq!(unsorted.events, sorted.events);

    let tie = SimTime::from_secs(1);
    let at_tie = |kind: SchedEventKind| {
        let log = &unsorted.sched_log;
        log.events()
            .position(|e| e.at == tie && e.kind == kind)
            .unwrap_or_else(|| panic!("no {kind:?} at {tie:?} in {log:?}"))
    };
    assert!(
        at_tie(SchedEventKind::Submitted) < at_tie(SchedEventKind::Completed),
        "the arrival due at 1 s is delivered before the completion due at 1 s"
    );
}

#[test]
fn eviction_policy_is_honoured_per_spec() {
    // A worker configured FIFO must evict insertion-order under churn.
    let mut s = spec("fifo");
    s.eviction = EvictionPolicy::Fifo;
    s.storage_bytes = 25_000_000; // two 10 MB repos max
    let mk = |rid: u64, at: u64| Arrival {
        at: SimTime::from_secs(at),
        spec: JobSpec::scanning(
            crossbid_crossflow::TaskId(0),
            ResourceRef {
                id: ObjectId(rid),
                bytes: 10_000_000,
            },
            Payload::None,
        ),
    };
    // Insert 1, 2 (touch 1 again), insert 3 → FIFO evicts 1 even
    // though it was recently used.
    let out = run(
        &[s],
        vec![mk(1, 0), mk(2, 10), mk(1, 20), mk(3, 30), mk(1, 40)],
    );
    assert_eq!(out.record.jobs_completed, 5);
    // Misses: 1, 2, 3, and then 1 again (evicted by FIFO) = 4.
    assert_eq!(out.record.cache_misses, 4);
}

#[test]
fn many_same_instant_jobs_do_not_blow_the_event_cap() {
    let arrivals: Vec<Arrival> = (0..500)
        .map(|i| Arrival {
            at: SimTime::ZERO,
            spec: JobSpec::compute(crossbid_crossflow::TaskId(0), 0.01, Payload::Index(i)),
        })
        .collect();
    let out = run(&[spec("a"), spec("b"), spec("c")], arrivals);
    assert_eq!(out.record.jobs_completed, 500);
    assert!(
        out.events < 100_000,
        "event count stays linear: {}",
        out.events
    );
}

#[test]
fn heterogeneous_cpu_factor_slows_processing() {
    let mut slow_cpu = spec("slowcpu");
    slow_cpu.cpu_factor = 4.0;
    let arrivals = vec![Arrival {
        at: SimTime::ZERO,
        spec: JobSpec::compute(crossbid_crossflow::TaskId(0), 2.0, Payload::None),
    }];
    let out = run(&[slow_cpu], arrivals);
    // 2 CPU seconds × factor 4 = 8 s.
    assert!((out.record.makespan_secs - 8.0).abs() < 1e-6);
}
