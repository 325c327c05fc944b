//! Allocation-rate regression guard, compiled only with the
//! `bench-alloc` feature (which installs the counting global
//! allocator the measurement relies on):
//!
//! ```text
//! cargo test -p crossbid-experiments --features bench-alloc --test alloc_budget --release
//! ```
//!
//! The hot-path work of PR 6 took the sim engine from thousands of
//! allocations per job (a fresh roster `Vec<WorkerHandle>`
//! with cloned name `String`s on every scheduler callback, plus heap
//! churn in the event queue) down to single digits, flat across
//! cluster sizes. This pins the budget so a stray per-event or
//! per-bid allocation on the hot path fails loudly instead of
//! silently costing 10× throughput again.

#![cfg(feature = "bench-alloc")]

use std::sync::Mutex;

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    Arrival, EngineConfig, ReplicationConfig, RunOutput, RunSpec, TaskId, WorkerSpec, Workflow,
};
use crossbid_experiments::allocmeter::{allocs, thread_allocs};
use crossbid_workload::{
    ArrivalProcess, JobConfig, JobMix, MixComponent, Repetition, SizeClass, WorkerConfig,
};

/// The allocation counter is process-wide and `cargo test` runs the
/// tests of one binary on parallel threads: each test holds this for
/// its whole body so it counts only its own allocations.
static METER: Mutex<()> = Mutex::new(());

/// `(workers, jobs, traced, budget in allocs/job)`. Measured 0.19 at 64
/// workers and 1.66 at 256 (per-worker state growing, spread over few
/// jobs) once closed contests handed their bid tables to the next; the
/// budgets leave ≈ 0.1 and ≈ 0.35 of headroom. A table allocated per
/// contest again (≥ 1 per job, 3 at 256 workers) fails both rows, and
/// any per-bid or per-event allocation (≥ `workers` per job) fails
/// them by far. The traced row runs the logged path — the scheduler
/// log and the trace on, every bid committed through the gate — and
/// measured 1.68: the log's byte stream and the trace grow by
/// doubling, a few dozen allocations a run, so the same budget holds
/// and a per-bid allocation on the logged round path (≥ 256 per job)
/// fails it.
const BUDGET_ROWS: [(usize, usize, bool, f64); 3] = [
    (64, 10_000, false, 0.3),
    (256, 2_000, false, 2.0),
    (256, 2_000, true, 2.0),
];

/// One bidding run on the sim engine — ideal (no latency, no noise,
/// so the run is pure scheduler + event loop), `AllEqual` workers,
/// `AllDiffEqual` jobs arriving Poisson at 0.05 s — and the
/// allocations it made. The event cap scales with the run. On this
/// jitter-free control plane a job costs a few events — a bid round
/// travels as one event each way — and the cap would still hold
/// if every request and every bid were an event of its own.
fn counted_sim_run(workers: usize, jobs: usize, seed: u64, trace: bool) -> (RunOutput, u64) {
    let mut engine = EngineConfig::ideal();
    engine.max_events = (jobs as u64) * (workers as u64 * 6 + 32) + 1_000_000;
    engine.trace = trace;
    counted_run(
        WorkerConfig::AllEqual.specs(workers),
        engine,
        seed,
        |task| {
            let process = ArrivalProcess::Poisson {
                mean_interval_secs: 0.05,
            };
            JobConfig::AllDiffEqual
                .generate(seed, jobs, task, &process)
                .arrivals
        },
    )
}

/// One bidding run of `workers` under `engine` on the arrivals
/// `jobs` builds for the workflow's sink, and the allocations the run
/// itself made (building the inputs is not counted).
fn counted_run(
    workers: Vec<WorkerSpec>,
    engine: EngineConfig,
    seed: u64,
    jobs: impl FnOnce(TaskId) -> Vec<Arrival>,
) -> (RunOutput, u64) {
    let mut rt = RunSpec::builder()
        .workers(workers)
        .seed(seed)
        .engine(engine)
        .build()
        .sim();
    let mut wf = Workflow::new();
    let arrivals = jobs(wf.add_sink("bench"));
    let a0 = allocs();
    let out = rt.run_iteration(&mut wf, &BiddingAllocator::new(), arrivals);
    (out, allocs() - a0)
}

#[test]
fn sim_hot_path_allocations_stay_within_budget() {
    let _alone = METER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    for (workers, jobs, trace, budget) in BUDGET_ROWS {
        let (out, spent) = counted_sim_run(workers, jobs, 0xA110C, trace);
        assert_eq!(out.record.jobs_completed, jobs as u64);
        let apj = spent as f64 / jobs as f64;
        assert!(
            apj > 0.0,
            "an all-zero measurement means the counting allocator is not installed"
        );
        assert!(
            apj <= budget,
            "sim hot path regressed to {apj:.1} allocs/job at {workers} workers, traced \
             {trace} (budget {budget}); something on the per-contest, per-bid or \
             per-event path is allocating again"
        );
    }
}

/// `(jobs, budget in allocs/job)` of the data-plane row. Measured
/// 0.124: about 2 000 allocations that do not grow with the run (the
/// pools' 577 artifacts registered, stores and tables sized), and none
/// per job once bids, fetches and evictions stopped allocating. It was
/// 17 per job while each bid collected the live holders of its input
/// into a `Vec`; an eviction `Vec` (7 371 evictions here) would cost
/// ≈ 0.3 more.
const DATAPLANE_ROW: (usize, f64) = (16_000, 0.15);

/// The `sim-dataplane` benchmark's shape at small size: 16 `FastSlow`
/// workers under `EngineConfig::default()` (control and data latency,
/// noise), factor-2 replication, and the pooled mix of medium and
/// large repositories — half the jobs fetch their input from a peer,
/// so every bid asks who holds it, and stores evict.
#[test]
fn data_plane_allocations_stay_within_budget() {
    let _alone = METER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (jobs, budget) = DATAPLANE_ROW;
    let engine = EngineConfig {
        replication: ReplicationConfig::with_factor(2),
        max_events: jobs as u64 * 200 + 1_000_000,
        ..EngineConfig::default()
    };
    let (out, spent) = counted_run(WorkerConfig::FastSlow.specs(16), engine, 1, |task| {
        let pool = |weight, size, n| MixComponent::data(weight, size, Repetition::Pool { n });
        let process = ArrivalProcess::Poisson {
            mean_interval_secs: 2.0,
        };
        JobMix::new()
            .with(pool(0.8, SizeClass::Medium, 512))
            .with(pool(0.2, SizeClass::Large, 65))
            .generate(1, jobs, task, &process)
            .arrivals
    });
    assert_eq!(out.record.jobs_completed, jobs as u64);
    assert!(out.record.evictions > 0, "stores must evict");
    assert!(
        out.replicas.is_some_and(|r| r.len() > 500),
        "the pools are replicated"
    );
    let apj = spent as f64 / jobs as f64;
    assert!(
        apj <= budget,
        "the data plane regressed to {apj:.3} allocs/job (budget {budget}); a bid, \
         a fetch or an eviction is allocating again"
    );
}

/// The run-stream codec writes and reads event lines without a tree:
/// what a stream allocates is its three once-per-stream lines, not a
/// multiple of its length. Measured ≈0.002 per line (write + parse) when
/// this guard was written; it was ≈30 per line through `Json`.
const BUDGET_CODEC_ALLOCS_PER_LINE: f64 = 0.1;

#[test]
fn run_stream_codec_allocations_stay_within_budget() {
    use crossbid_crossflow::{run_stream_lines, write_run_stream, RunStreamMeta};

    let _alone = METER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (jobs, seed) = (10_000, 0xA110C);
    let (out, _) = counted_sim_run(32, jobs, seed, true);
    let meta = RunStreamMeta {
        runtime: "sim".to_string(),
        scheduler: "bidding".to_string(),
        worker_config: WorkerConfig::AllEqual.name().to_string(),
        job_config: JobConfig::AllDiffEqual.name().to_string(),
        iteration: 0,
        seed,
    };

    // The outputs' own growth is not the codec's: size the byte buffer
    // from a first pass and fold over the lines instead of collecting.
    let mut sizing = Vec::new();
    write_run_stream(&mut sizing, &meta, &out).unwrap();
    let mut bytes = Vec::with_capacity(sizing.len());
    let a0 = allocs();
    let lines = write_run_stream(&mut bytes, &meta, &out).unwrap();
    let a1 = allocs();
    let text = std::str::from_utf8(&bytes).unwrap();
    let parsed = run_stream_lines(text).try_fold(0u64, |n, line| line.map(|_| n + 1));
    let a2 = allocs();

    assert_eq!(parsed, Ok(lines));
    assert!(
        lines > 40 * jobs as u64,
        "a 32-worker contest logs a bid per worker"
    );
    for (what, spent) in [("write", a1 - a0), ("parse", a2 - a1)] {
        let per_line = spent as f64 / lines as f64;
        assert!(
            per_line < BUDGET_CODEC_ALLOCS_PER_LINE,
            "{what}: {spent} allocations over {lines} lines ({per_line:.3} per line, \
             budget {BUDGET_CODEC_ALLOCS_PER_LINE}); an event line is building a tree again"
        );
    }
}

/// A straggler sweep reads a running median and the front of an
/// ordered index: however long the run has been, it allocates nothing
/// (it used to clone and sort every completed duration).
#[test]
fn straggler_sweep_allocates_nothing() {
    use crossbid_crossflow::{
        AtomizeConfig, DagState, JobId, ResourceRef, TaskDag, TaskId, TaskNode,
    };
    use crossbid_storage::ObjectId;

    let _alone = METER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    const COMPLETED: u64 = 50_000;
    let mut state = DagState::new(AtomizeConfig::default());
    let mut jobs = Vec::new();
    for d in 0..COMPLETED / 5 + 1 {
        let root = JobId(d * 8);
        let nodes = (0..5).map(|t| TaskNode {
            preds: 0,
            input: None,
            output: ResourceRef {
                id: ObjectId(d * 8 + t),
                bytes: 1_000,
            },
            work_bytes: 0,
            cpu_secs: 1.0,
        });
        let dag = TaskDag::new(nodes.collect()).expect("a valid DAG");
        for (task, _spec) in state.register(root, TaskId(0), dag) {
            let job = JobId(d * 8 + 1 + task as u64);
            state.bind(root, task, job, false);
            state.on_placed(job, d as f64);
            jobs.push(job);
        }
    }
    for (i, job) in jobs.iter().take(COMPLETED as usize).enumerate() {
        state.on_done(*job, 1.0 + i as f64);
    }
    assert!(state.is_active(), "the last DAG is still in flight");

    let a0 = allocs();
    let early = state.straggler(0.0);
    let late = state.straggler(10.0 * COMPLETED as f64);
    let spent = allocs() - a0;
    assert_eq!(early, None, "nothing has aged at time zero");
    assert!(late.is_some(), "the in-flight DAG has a straggler");
    assert_eq!(
        spent, 0,
        "a sweep over {COMPLETED} completed tasks allocated {spent} times"
    );
}

/// An evicting `LocalStore::insert` allocates nothing: its victims go
/// into a buffer the store keeps, and the eviction order is one heap
/// whose buffer stops growing at twice the resident count.
#[test]
fn evicting_inserts_allocate_nothing() {
    use crossbid_simcore::SimTime;
    use crossbid_storage::{EvictionPolicy, LocalStore, ObjectId};

    let _alone = METER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    const RESIDENT: u64 = 300;
    const INSERTS: u64 = 10_000;
    const WARM: u64 = 10 * RESIDENT;
    let mut store = LocalStore::new(RESIDENT * 1_000, EvictionPolicy::Lru);
    for i in 0..RESIDENT {
        store.insert(ObjectId(i), 1_000, SimTime::from_secs(i));
    }
    let mut evict = |i: u64| {
        // A hit in between leaves its entry's row behind the entry's
        // key, to be moved when it surfaces.
        store.lookup(ObjectId(i - 1), SimTime::from_secs(i));
        let evicted = store.insert(ObjectId(i), 1_000, SimTime::from_secs(i));
        assert_eq!(evicted, [ObjectId(i - RESIDENT)]);
    };
    // First rounds size the victim buffer, the order's heap and the
    // entry map (whose tombstones make it grow once).
    (RESIDENT..WARM).for_each(&mut evict);
    let a0 = thread_allocs();
    (WARM..WARM + INSERTS).for_each(&mut evict);
    let spent = thread_allocs() - a0;
    assert_eq!(store.stats().evictions, WARM - RESIDENT + INSERTS);
    assert_eq!(
        spent, 0,
        "{INSERTS} evicting inserts allocated {spent} times; \
         the victims or the eviction order are allocating"
    );
}
