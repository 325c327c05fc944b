//! Microbenchmarks of single layers, each driving one public type
//! from outside. They price an operation in isolation; multiplied by
//! the count a traced run reads off its outputs they give a layer's
//! computed share of the run.

use std::hint::black_box;

use crossbid_core::{estimate_bid, BiddingAllocator};
use crossbid_crossflow::idle::IdlePool;
use crossbid_crossflow::scheduler::WorkerHandle;
use crossbid_crossflow::{
    Allocator, AtomizeConfig, DagState, Job, JobId, Payload, ReplicatedLog, ResourceRef,
    RuntimeMetrics, SchedCtx, SchedEvent, SchedEventKind, SchedState, TaskDag, TaskId, TaskNode,
    WorkerId, WorkerToMaster, WorkerView,
};
use crossbid_metrics::Registry;
use crossbid_net::{Bandwidth, Link, NoiseModel};
use crossbid_simcore::{EventQueue, RngStream, SimDuration, SimTime};
use crossbid_storage::{EvictionPolicy, LocalStore, ObjectId, ReplicaMap};

use crate::sys::Stopwatch;

/// Median over three timings of `f`, which performs `ops` operations
/// per call; in nanoseconds per operation.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    median3(|| {
        let sw = Stopwatch::start();
        f();
        sw.secs() * 1e9 / ops as f64
    })
}

fn median3(mut sample: impl FnMut() -> f64) -> f64 {
    let mut t = [sample(), sample(), sample()];
    t.sort_by(f64::total_cmp);
    t[1]
}

/// `schedule_in` + `pop` on an `EventQueue` held at `depth` pending
/// events (the classic hold model), per pair.
pub fn queue_hold_ns(depth: usize, ops: u64) -> f64 {
    let mut rng = RngStream::from_seed(1);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
    for i in 0..depth as u64 {
        q.schedule_in(SimDuration::from_secs_f64(rng.unit()), i);
    }
    ns_per_op(ops, || {
        for _ in 0..ops {
            let (_, ev) = q.pop().expect("the queue is held at depth");
            q.schedule_in(SimDuration::from_secs_f64(rng.unit()), ev);
        }
    })
}

fn plain_job(id: u64) -> Job {
    Job {
        id: JobId(id),
        task: TaskId(0),
        resource: Some(ResourceRef {
            id: ObjectId(id),
            bytes: 100_000_000,
        }),
        work_bytes: 100_000_000,
        cpu_secs: 0.0,
        payload: Payload::Index(id),
    }
}

/// One bid handled by the bidding master, driven through the
/// `MasterScheduler` trait exactly as the runtimes drive it: a
/// contest is opened, every one of `bidders` workers bids, the last
/// bid closes it. Per bid.
pub fn bidding_bid_ns(bidders: u32, contests: u64) -> f64 {
    let workers: Vec<WorkerHandle> = (0..bidders)
        .map(|i| WorkerHandle {
            id: WorkerId(i),
            name: format!("w{i}"),
        })
        .collect();
    let mut master = BiddingAllocator::new().master();
    let mut rng = RngStream::from_seed(2);
    let mut token = 0u64;
    let mut next_job = 0u64;
    ns_per_op(contests * bidders as u64, || {
        for _ in 0..contests {
            let id = next_job;
            next_job += 1;
            let mut ctx = SchedCtx::new(SimTime::ZERO, &workers, &mut rng, &mut token);
            master.on_job(plain_job(id), &mut ctx);
            black_box(ctx.take_actions());
            for w in 0..bidders {
                let mut ctx = SchedCtx::new(SimTime::ZERO, &workers, &mut rng, &mut token);
                let bid = WorkerToMaster::Bid {
                    job: JobId(id),
                    estimate_secs: 1.0 + w as f64,
                };
                master.on_worker_message(WorkerId(w), bid, &mut ctx);
                black_box(ctx.take_actions());
            }
        }
    })
}

/// The worker-side estimate behind one bid.
pub fn estimator_bid_ns(ops: u64) -> f64 {
    let mut view = WorkerView {
        id: WorkerId(0),
        now: SimTime::ZERO,
        backlog_secs: 12.0,
        has_data: false,
        declined_before: false,
        est_fetch_secs: 3.0,
        est_proc_secs: 1.5,
        queue_len: 4,
    };
    ns_per_op(ops, || {
        let mut sum = 0.0;
        for i in 0..ops {
            view.backlog_secs = i as f64;
            sum += estimate_bid(black_box(&view)).total();
        }
        black_box(sum);
    })
}

/// `push` + `pop_preferring_not` on an `IdlePool` of `workers`, per pair.
pub fn idle_op_ns(workers: u32, ops: u64) -> f64 {
    let mut pool = IdlePool::new();
    for w in 0..workers {
        pool.push(w);
    }
    ns_per_op(ops, || {
        for i in 0..ops {
            let avoid = Some((i % workers as u64) as u32);
            let w = pool.pop_preferring_not(avoid).expect("the pool is full");
            pool.push(w);
        }
    })
}

/// The six scheduler events of one job's life under bidding with one
/// bidder, as the runtimes log them.
fn job_events(job: u64) -> [SchedEvent; 6] {
    let at = SimTime::from_secs_f64(job as f64);
    let ev = |worker: Option<u32>, kind| SchedEvent {
        at,
        worker: worker.map(WorkerId),
        job: Some(JobId(job)),
        kind,
    };
    let w = Some((job % 7) as u32);
    [
        ev(None, SchedEventKind::Submitted),
        ev(None, SchedEventKind::ContestOpened),
        ev(w, SchedEventKind::BidReceived { estimate_secs: 4.5 }),
        ev(
            None,
            SchedEventKind::ContestClosed {
                timed_out: false,
                fallback: false,
            },
        ),
        ev(w, SchedEventKind::Assigned),
        ev(w, SchedEventKind::Completed),
    ]
}

/// `(append_ns, apply_ns)`: one entry appended to a crash-free
/// `ReplicatedLog`, and one entry folded into `SchedState`.
pub fn replog_ns(jobs: u64) -> (f64, f64) {
    let events: Vec<SchedEvent> = (0..jobs).flat_map(job_events).collect();
    let ops = events.len() as u64;
    let append = ns_per_op(ops, || {
        let mut log = ReplicatedLog::plain();
        for ev in &events {
            black_box(log.append(*ev));
        }
        black_box(log.appends());
    });
    let apply = ns_per_op(ops, || {
        let mut state = SchedState::new();
        for ev in &events {
            state.apply(ev);
        }
        black_box(&state);
    });
    (append, apply)
}

/// `(lookup_ns, insert_evict_ns)` on a `LocalStore` at capacity: a
/// lookup that hits, and an insert that evicts to make room.
pub fn store_ns(ops: u64) -> (f64, f64) {
    const RESIDENT: u64 = 300;
    const SIZE: u64 = 100_000_000;
    let mut store = LocalStore::new(RESIDENT * SIZE, EvictionPolicy::Lru);
    for i in 0..RESIDENT {
        store.insert(ObjectId(i), SIZE, SimTime::from_secs_f64(i as f64));
    }
    let mut clock = RESIDENT;
    let lookup = ns_per_op(ops, || {
        for i in 0..ops {
            clock += 1;
            let hit = store.lookup(ObjectId(i % RESIDENT), SimTime::from_secs_f64(clock as f64));
            debug_assert!(hit);
            black_box(hit);
        }
    });
    let mut next = RESIDENT;
    let insert = ns_per_op(ops, || {
        for _ in 0..ops {
            clock += 1;
            let evicted = store.insert(ObjectId(next), SIZE, SimTime::from_secs_f64(clock as f64));
            next += 1;
            black_box(evicted);
        }
    });
    (lookup, insert)
}

/// `(update_ns, under_replicated_ns)` on a factor-2 `ReplicaMap` of
/// `objects` (577 on `sim-dataplane`: both pools): one add + drop of a
/// third copy, and one scan for under-replicated objects.
pub fn replica_ns(objects: u64, ops: u64) -> (f64, f64) {
    let mut map = ReplicaMap::new(2);
    for o in 0..objects {
        map.add(ObjectId(o), (o % 16) as u32, 100_000_000);
        map.add(ObjectId(o), ((o + 1) % 16) as u32, 100_000_000);
    }
    let update = ns_per_op(ops, || {
        for i in 0..ops {
            let (obj, node) = (ObjectId(i % objects), ((i + 2) % 16) as u32);
            black_box(map.add(obj, node, 100_000_000));
            black_box(map.drop_replica(obj, node));
        }
    });
    let scans = (ops / 64).max(1);
    let scan = ns_per_op(scans, || {
        for _ in 0..scans {
            black_box(map.under_replicated());
        }
    });
    (update, scan)
}

/// One `Link::transfer` under the evaluation noise model.
pub fn link_transfer_ns(ops: u64) -> f64 {
    let mut link = Link::new(
        Bandwidth::mb_per_sec(50.0),
        SimDuration::from_secs_f64(0.3),
        NoiseModel::evaluation_default(),
    );
    let mut rng = RngStream::from_seed(3);
    ns_per_op(ops, || {
        for i in 0..ops {
            black_box(link.transfer(1_000_000 + i, &mut rng));
        }
    })
}

/// `(record_ns, snapshot_s)`: one `Histogram::record`, and one
/// snapshot of a registry holding every runtime instrument.
pub fn registry_cost(ops: u64) -> (f64, f64) {
    let registry = Registry::new();
    let metrics = RuntimeMetrics::new(registry.clone());
    let record = ns_per_op(ops, || {
        for i in 0..ops {
            metrics
                .queue_wait_secs
                .record(0.001 * (1 + i % 1000) as f64);
        }
    });
    let snaps = (ops / 1000).max(1);
    let snapshot_ns = ns_per_op(snaps, || {
        for _ in 0..snaps {
            black_box(registry.snapshot());
        }
    });
    (record, snapshot_ns / 1e9)
}

/// Register `dags` six-task DAGs (independent tasks, so all are
/// released at once), bind and place every task; returns the task
/// jobs in registration order.
fn register_dags(state: &mut DagState, dags: u64) -> Vec<JobId> {
    let mut jobs = Vec::with_capacity(dags as usize * 6);
    let mut next_id = 0u64;
    for d in 0..dags {
        let root = JobId(next_id);
        next_id += 1;
        let nodes = (0..6)
            .map(|t| TaskNode {
                preds: 0,
                input: None,
                output: ResourceRef {
                    id: ObjectId(d * 8 + t),
                    bytes: 1_000,
                },
                work_bytes: 0,
                cpu_secs: 1.0,
            })
            .collect();
        let dag = TaskDag::new(nodes).expect("a valid DAG");
        for (task, _spec) in state.register(root, TaskId(0), dag) {
            let job = JobId(next_id);
            next_id += 1;
            state.bind(root, task, job, false);
            state.on_placed(job, d as f64);
            jobs.push(job);
        }
    }
    jobs
}

/// One straggler sweep over a `DagState` with `completed` tasks done
/// and one DAG still in flight. The engine sweeps every
/// `spec_check_secs`; the cost at 50 000 over the cost at 1 000 shows
/// how the sweep grows with the run.
pub fn straggler_ns(completed: u64, sweeps: u64) -> f64 {
    let mut state = DagState::new(AtomizeConfig::default());
    let jobs = register_dags(&mut state, completed / 6 + 1);
    for (i, job) in jobs.iter().take(completed as usize).enumerate() {
        black_box(state.on_done(*job, 1.0 + i as f64));
    }
    let now = completed as f64 + 10.0;
    ns_per_op(sweeps, || {
        for i in 0..sweeps {
            black_box(state.straggler(now + i as f64));
        }
    })
}

/// One `DagState::on_done`, finishing `tasks` placed tasks in order.
pub fn dag_done_ns(tasks: u64) -> f64 {
    median3(|| {
        let mut state = DagState::new(AtomizeConfig::default());
        let jobs = register_dags(&mut state, tasks.div_ceil(6));
        let sw = Stopwatch::start();
        for (i, job) in jobs.iter().enumerate() {
            black_box(state.on_done(*job, 1.0 + i as f64));
        }
        sw.secs() * 1e9 / jobs.len() as f64
    })
}
