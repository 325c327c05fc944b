//! End-to-end atomization tests: task DAGs through the sim engine
//! (and, mirrored below, the threaded runtime) — gating order, output
//! crediting, and the speculative straggler race.

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    run_workflow, Allocator, Arrival, AtomizeConfig, BaselineAllocator, Cluster, EngineConfig,
    JobId, JobSpec, ProtocolMutation, ResourceRef, RunMeta, RunOutput, RunSpec, SchedEventKind,
    TaskDag, TaskId, TaskNode, WorkerSpec, Workflow,
};
use crossbid_integration::{task_entries, TaskEntryKind};
use crossbid_simcore::SimTime;
use crossbid_storage::ObjectId;

fn res(id: u64, mb: u64) -> ResourceRef {
    ResourceRef {
        id: ObjectId(id),
        bytes: mb * 1_000_000,
    }
}

fn node(preds: u64, input: Option<ResourceRef>, output: ResourceRef, cpu_secs: f64) -> TaskNode {
    TaskNode {
        preds,
        input,
        output,
        work_bytes: input.map_or(0, |r| r.bytes),
        cpu_secs,
    }
}

fn sink_workflow() -> (Workflow, TaskId) {
    let mut wf = Workflow::new();
    let sink = wf.add_sink("scan");
    (wf, sink)
}

fn traced_ideal() -> EngineConfig {
    EngineConfig {
        trace: true,
        ..EngineConfig::ideal()
    }
}

/// source(external repo) → two mid tasks (predecessor outputs) → sink.
fn diamond() -> TaskDag {
    TaskDag::new(vec![
        node(0b0, Some(res(1, 100)), res(100, 10), 0.0),
        node(0b1, Some(res(100, 10)), res(101, 10), 1.0),
        node(0b1, Some(res(100, 10)), res(102, 10), 1.0),
        node(0b110, Some(res(101, 10)), res(103, 1), 0.5),
    ])
    .unwrap()
}

#[test]
fn engine_runs_a_diamond_dag_with_gating_and_output_credit() {
    let specs: Vec<WorkerSpec> = (0..2)
        .map(|i| {
            WorkerSpec::builder(format!("w{i}"))
                .net_mbps(100.0)
                .rw_mbps(100.0)
                .storage_gb(10.0)
                .build()
        })
        .collect();
    let cfg = traced_ideal();
    let mut cluster = Cluster::new(&specs, &cfg);
    let (mut wf, task) = sink_workflow();
    let arrivals = vec![Arrival {
        at: SimTime::ZERO,
        spec: JobSpec::atomized(task, diamond()),
    }];
    let out = run_workflow(
        &mut cluster,
        &mut wf,
        &BaselineAllocator,
        arrivals,
        &cfg,
        &RunMeta::default(),
    );
    // Four task jobs, all complete; the root never enters allocation.
    assert_eq!(out.record.jobs_completed, 4);
    assert_eq!(out.sched_log.task_offers(), 4);
    assert_eq!(out.sched_log.task_dones(), 4);
    assert_eq!(out.sched_log.spec_launches(), 0);
    assert_eq!(out.sched_log.submissions(), 4);

    // Gating: every TaskOffer's predecessors are already done.
    let mut done = 0u64;
    for e in out.sched_log.events() {
        match e.kind {
            SchedEventKind::TaskOffer { preds, .. } => {
                assert_eq!(preds & !done, 0, "offer before predecessor: {e:?}");
            }
            SchedEventKind::TaskDone { task, .. } => done |= 1 << task,
            _ => {}
        }
    }
    assert_eq!(done, 0b1111);

    // Output crediting: some worker holds the sink task's artifact.
    let held = (0..2).any(|w| {
        cluster
            .node(crossbid_crossflow::WorkerId(w))
            .holds(ObjectId(103))
    });
    assert!(held, "sink output was not credited to any worker store");
}

/// One fast worker and one 400× slower one: blind round-robin strands
/// a task on the slow one, and only speculation rescues it.
fn fast_and_slow() -> Vec<WorkerSpec> {
    [("fast", 1.0), ("slow", 400.0)]
        .into_iter()
        .map(|(name, cpu_factor)| {
            WorkerSpec::builder(name)
                .net_mbps(100.0)
                .rw_mbps(100.0)
                .storage_gb(10.0)
                .cpu_factor(cpu_factor)
                .build()
        })
        .collect()
}

fn eager_speculation() -> AtomizeConfig {
    AtomizeConfig {
        spec_factor: 2.0,
        spec_check_secs: 1.0,
        min_completed_for_spec: 3,
    }
}

#[test]
fn engine_speculation_rescues_a_straggling_task() {
    // Worker 1 is pathologically slow; six independent one-second
    // tasks. The fast worker's completions establish the median, the
    // sweep replicates the slow primary, and the replica's win cancels
    // it — the run must finish far sooner than the straggler would.
    let specs = fast_and_slow();
    let tasks: Vec<TaskNode> = (0..6)
        .map(|i| node(0, None, res(200 + i, 1), 1.0))
        .collect();
    let dag = TaskDag::new(tasks).unwrap();
    let cfg = EngineConfig {
        atomize: eager_speculation(),
        ..traced_ideal()
    };
    let mut cluster = Cluster::new(&specs, &cfg);
    let (mut wf, task) = sink_workflow();
    let arrivals = vec![Arrival {
        at: SimTime::ZERO,
        spec: JobSpec::atomized(task, dag),
    }];
    let out = run_workflow(
        &mut cluster,
        &mut wf,
        &BaselineAllocator,
        arrivals,
        &cfg,
        &RunMeta::default(),
    );
    assert!(
        out.sched_log.spec_launches() >= 1,
        "no speculation fired: {:?}",
        out.sched_log.events().len()
    );
    assert_eq!(
        out.sched_log.spec_cancels(),
        out.sched_log.spec_launches(),
        "every decided race cancels exactly one loser"
    );
    assert_eq!(out.sched_log.task_dones(), 6, "every task completes once");
    assert!(
        out.record.makespan_secs < 100.0,
        "speculation failed to rescue the straggler: makespan {}",
        out.record.makespan_secs
    );
}

#[test]
fn engine_release_all_mutation_breaks_gating_observably() {
    // With the gate removed every task is offered at registration —
    // the log must show successors offered before their predecessors
    // completed (the oracle turns this into a violation; here we just
    // confirm the mutation is visible in the vocabulary).
    let specs = vec![WorkerSpec::builder("w0")
        .net_mbps(100.0)
        .rw_mbps(100.0)
        .storage_gb(10.0)
        .build()];
    let cfg = EngineConfig {
        mutation: ProtocolMutation::OfferBeforePredecessor,
        ..traced_ideal()
    };
    let mut cluster = Cluster::new(&specs, &cfg);
    let (mut wf, task) = sink_workflow();
    let arrivals = vec![Arrival {
        at: SimTime::ZERO,
        spec: JobSpec::atomized(task, diamond()),
    }];
    let out = run_workflow(
        &mut cluster,
        &mut wf,
        &BaselineAllocator,
        arrivals,
        &cfg,
        &RunMeta::default(),
    );
    assert_eq!(out.sched_log.task_offers(), 4, "all offered at once");
    let mut done = 0u64;
    let mut violated = false;
    for e in out.sched_log.events() {
        match e.kind {
            SchedEventKind::TaskOffer { preds, .. } => violated |= preds & !done != 0,
            SchedEventKind::TaskDone { task, .. } => done |= 1 << task,
            _ => {}
        }
    }
    assert!(violated, "mutation left no trace in the log");
    assert_eq!(out.record.jobs_completed, 4, "the run still drains");
}

/// One traced threaded run: 1 virtual second = 1 ms real.
fn run_threaded(
    specs: Vec<WorkerSpec>,
    atomize: AtomizeConfig,
    allocator: &dyn Allocator,
    wf: &mut Workflow,
    arrivals: Vec<Arrival>,
) -> RunOutput {
    let spec = RunSpec::builder()
        .workers(specs)
        .engine(EngineConfig {
            atomize,
            ..EngineConfig::default()
        })
        .speed_learning(true)
        .trace(true)
        .seed(11)
        .time_scale(1e-3)
        .contest_window_secs(0.5)
        .build();
    spec.threaded().run_iteration(wf, allocator, arrivals)
}

#[test]
fn threaded_runs_a_diamond_dag_with_gating() {
    let specs: Vec<WorkerSpec> = (0..2)
        .map(|i| {
            WorkerSpec::builder(format!("w{i}"))
                .net_mbps(100.0)
                .rw_mbps(100.0)
                .storage_gb(10.0)
                .build()
        })
        .collect();
    let (mut wf, task) = sink_workflow();
    let arrivals = vec![Arrival {
        at: SimTime::ZERO,
        spec: JobSpec::atomized(task, diamond()),
    }];
    let out = run_threaded(
        specs,
        AtomizeConfig::default(),
        &BiddingAllocator::new(),
        &mut wf,
        arrivals,
    );
    assert_eq!(out.record.jobs_completed, 4);
    assert_eq!(out.sched_log.task_offers(), 4);
    assert_eq!(out.sched_log.task_dones(), 4);
    let tasks = task_entries(&out.sched_log);
    let bids = tasks
        .iter()
        .filter(|t| matches!(t.kind, TaskEntryKind::Bid { .. }))
        .count();
    assert_eq!(tasks.len() - bids, 4, "one placement a task");
    assert!(bids >= 4, "each offer draws bids");
    // Gating holds under real threads too: the log is the authority.
    let mut done = 0u64;
    for e in out.sched_log.events() {
        match e.kind {
            SchedEventKind::TaskOffer { preds, .. } => {
                assert_eq!(preds & !done, 0, "offer before predecessor: {e:?}");
            }
            SchedEventKind::TaskDone { task, .. } => done |= 1 << task,
            _ => {}
        }
    }
    assert_eq!(done, 0b1111);
}

#[test]
fn threaded_speculation_rescues_a_straggling_task() {
    let tasks: Vec<TaskNode> = (0..6)
        .map(|i| node(0, None, res(300 + i, 1), 1.0))
        .collect();
    let dag = TaskDag::new(tasks).unwrap();
    let (mut wf, task) = sink_workflow();
    let arrivals = vec![Arrival {
        at: SimTime::ZERO,
        spec: JobSpec::atomized(task, dag),
    }];
    // Push scheduling: under bidding the slow worker prices itself out
    // and never creates a straggler; the baseline's blind round-robin
    // is what strands a task on it (same shape as the engine test).
    let out = run_threaded(
        fast_and_slow(),
        eager_speculation(),
        &BaselineAllocator,
        &mut wf,
        arrivals,
    );
    assert!(
        out.sched_log.spec_launches() >= 1,
        "no speculation fired under the threaded runtime"
    );
    assert_eq!(
        out.sched_log.spec_cancels(),
        out.sched_log.spec_launches(),
        "every decided race cancels exactly one loser"
    );
    assert_eq!(out.sched_log.task_dones(), 6, "every task completes once");
    assert!(
        out.record.makespan_secs < 100.0,
        "speculation failed to rescue the straggler: makespan {}",
        out.record.makespan_secs
    );
}

/// Two DAGs of six independent one-second tasks, 600 s apart. The
/// first is rescued and retired within seconds while its cancelled
/// primary keeps running on the slow worker for 400 s — so the
/// loser's report reaches the master long after its DAG is gone, and
/// the second DAG keeps the run alive to receive it.
fn two_dags_600s_apart(task: TaskId, first_output: u64) -> Vec<Arrival> {
    [0u64, 600]
        .into_iter()
        .map(|at| {
            let tasks = (0..6)
                .map(|i| node(0, None, res(first_output + at + i, 1), 1.0))
                .collect();
            Arrival {
                at: SimTime::from_secs(at),
                spec: JobSpec::atomized(task, TaskDag::new(tasks).unwrap()),
            }
        })
        .collect()
}

/// Every race was decided once, every task completed once, and a
/// cancelled loser's late report — its DAG long retired — left no
/// trace: `SpecCancel` is the last the log hears of it.
fn assert_late_losers_are_swallowed(log: &crossbid_crossflow::SchedLog) -> Vec<JobId> {
    assert!(log.spec_launches() >= 1, "no speculation fired");
    assert_eq!(log.spec_cancels(), log.spec_launches());
    assert_eq!(log.task_dones(), 12, "every task completes once");
    assert_eq!(
        log.completions(),
        12,
        "a swallowed report is not a completion"
    );
    let events: Vec<_> = log.events().collect();
    let mut losers = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if let SchedEventKind::SpecCancel { .. } = e.kind {
            let later: Vec<_> = events[i + 1..].iter().filter(|l| l.job == e.job).collect();
            assert!(
                later.is_empty(),
                "loser {:?} logged again: {later:?}",
                e.job
            );
            losers.push(e.job.expect("SpecCancel names the loser"));
        }
    }
    losers
}

#[test]
fn engine_swallows_a_loser_that_reports_after_its_dag_retired() {
    let specs = fast_and_slow();
    let cfg = EngineConfig {
        atomize: eager_speculation(),
        ..traced_ideal()
    };
    let mut cluster = Cluster::new(&specs, &cfg);
    let (mut wf, task) = sink_workflow();
    let out = run_workflow(
        &mut cluster,
        &mut wf,
        &BaselineAllocator,
        two_dags_600s_apart(task, 400),
        &cfg,
        &RunMeta::default(),
    );
    let losers = assert_late_losers_are_swallowed(&out.sched_log);
    // The first loser did run to the end and report: its worker
    // finished it around 400 s, between the two DAGs.
    let finished = out
        .trace
        .events()
        .iter()
        .find(|e| e.job == losers[0] && e.kind == crossbid_crossflow::TraceKind::Finished);
    let at = finished.expect("the loser ran to completion").at;
    assert!(
        SimTime::from_secs(300) < at && at < SimTime::from_secs(600),
        "the loser finished at {at:?}"
    );
}

#[test]
fn threaded_swallows_a_loser_that_reports_after_its_dag_retired() {
    let (mut wf, task) = sink_workflow();
    let out = run_threaded(
        fast_and_slow(),
        eager_speculation(),
        &BaselineAllocator,
        &mut wf,
        two_dags_600s_apart(task, 500),
    );
    assert_late_losers_are_swallowed(&out.sched_log);
    // The slow worker reports its 400 s loser mid-run: the second DAG
    // only arrives at 600 s.
    assert!(out.record.makespan_secs > 600.0);
}
