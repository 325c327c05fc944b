//! Property-based tests of the atomizer: for arbitrary task DAGs —
//! including shapes that provoke speculative duplicates — replaying
//! the scheduler log must show per-task conservation (one effective
//! completion per offered task), gate discipline, and the
//! launched-once speculation guard.
//!
//! Seeds are pinned by proptest's deterministic RNG; `PROPTEST_CASES`
//! deepens the sweep in scheduled CI without a code change.

use std::collections::HashMap;

use crossbid_checker::{check_log, OracleOptions};
use crossbid_crossflow::{
    run_workflow, Arrival, AtomizeConfig, BaselineAllocator, Cluster, EngineConfig, JobSpec,
    ResourceRef, RunMeta, SchedEventKind, SchedLog, TaskDag, TaskNode, WorkerSpec, Workflow,
};
use crossbid_net::ControlPlane;
use crossbid_simcore::{SimDuration, SimTime};
use crossbid_storage::ObjectId;
use proptest::prelude::*;

/// (cpu deciseconds, pred mask bits) per task; masks are truncated to
/// the valid range at build time so every generated DAG validates.
type TaskTuple = (u64, u64);

fn arb_dag() -> impl Strategy<Value = Vec<TaskTuple>> {
    proptest::collection::vec((1u64..40, 0u64..u64::MAX), 1..14)
}

fn build_dag(tuples: &[TaskTuple], base: u64) -> TaskDag {
    let tasks: Vec<TaskNode> = tuples
        .iter()
        .enumerate()
        .map(|(i, &(deci, mask))| {
            // Only bits below the task's own index are legal preds.
            let preds = if i == 0 { 0 } else { mask & ((1u64 << i) - 1) };
            TaskNode {
                preds,
                input: Some(ResourceRef {
                    id: ObjectId(base + i as u64),
                    bytes: 2_000_000,
                }),
                output: ResourceRef {
                    id: ObjectId(base + 64 + i as u64),
                    bytes: 1_000_000,
                },
                work_bytes: 2_000_000,
                cpu_secs: deci as f64 / 10.0,
            }
        })
        .collect();
    TaskDag::new(tasks).expect("masked preds always validate")
}

/// Replay the log: collect per-(root, task) offer/done/launch counts
/// and check gate discipline along the way.
fn replay(log: &SchedLog) -> Replay {
    let mut r = Replay {
        offers: HashMap::new(),
        dones: HashMap::new(),
        launches: HashMap::new(),
        cancels: 0,
        gate_ok: true,
    };
    let mut done_masks: HashMap<u64, u64> = HashMap::new();
    for e in log.events() {
        match e.kind {
            SchedEventKind::TaskOffer {
                root, task, preds, ..
            } => {
                *r.offers.entry((root.0, task)).or_insert(0) += 1;
                let done = done_masks.entry(root.0).or_insert(0);
                r.gate_ok &= preds & !*done == 0;
            }
            SchedEventKind::TaskDone { root, task } => {
                *r.dones.entry((root.0, task)).or_insert(0) += 1;
                *done_masks.entry(root.0).or_insert(0) |= 1u64 << task;
            }
            SchedEventKind::SpecLaunch { root, task } => {
                *r.launches.entry((root.0, task)).or_insert(0) += 1;
            }
            SchedEventKind::SpecCancel { .. } => {
                r.cancels += 1;
            }
            _ => {}
        }
    }
    r
}

struct Replay {
    offers: HashMap<(u64, u32), u32>,
    dones: HashMap<(u64, u32), u32>,
    launches: HashMap<(u64, u32), u32>,
    cancels: u32,
    gate_ok: bool,
}

fn run(
    dags: &[Vec<TaskTuple>],
    workers: usize,
    slow_factor: f64,
    atomize: AtomizeConfig,
) -> crossbid_crossflow::RunOutput {
    let specs: Vec<WorkerSpec> = (0..workers)
        .map(|i| {
            let mut b = WorkerSpec::builder(format!("w{i}"))
                .net_mbps(50.0)
                .rw_mbps(100.0)
                .storage_gb(10.0);
            if i == workers - 1 {
                b = b.cpu_factor(slow_factor);
            }
            b.build()
        })
        .collect();
    let cfg = EngineConfig {
        control: ControlPlane::instant(),
        data_latency: SimDuration::ZERO,
        trace: true,
        atomize,
        ..EngineConfig::ideal()
    };
    let mut cluster = Cluster::new(&specs, &cfg);
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let arrivals: Vec<Arrival> = dags
        .iter()
        .enumerate()
        .map(|(k, tuples)| Arrival {
            at: SimTime::from_secs_f64(k as f64 * 2.0),
            spec: JobSpec::atomized(task, build_dag(tuples, 1000 + 128 * k as u64)),
        })
        .collect();
    run_workflow(
        &mut cluster,
        &mut wf,
        &BaselineAllocator,
        arrivals,
        &cfg,
        &RunMeta::default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary DAG batches on an honest cluster: every offered
    /// task completes effectively exactly once, gating never breaks,
    /// and the oracle agrees.
    #[test]
    fn replayed_log_conserves_tasks(
        dags in proptest::collection::vec(arb_dag(), 1..4),
        workers in 2usize..5,
    ) {
        let out = run(&dags, workers, 1.0, AtomizeConfig::default());
        let total: usize = dags.iter().map(Vec::len).sum();
        let r = replay(&out.sched_log);
        prop_assert!(r.gate_ok, "a task was offered before its predecessors");
        prop_assert_eq!(r.offers.len(), total, "every task offered");
        prop_assert_eq!(r.dones.len(), total, "every task effectively done");
        for (key, n) in &r.dones {
            prop_assert_eq!(*n, 1, "task {:?} completed {} times", key, n);
        }
        let v = check_log(&out.sched_log, OracleOptions {
            expect_all_complete: true,
            workers: Some(workers as u32),
            ..OracleOptions::default()
        });
        prop_assert!(v.is_empty(), "oracle violations: {:?}", v);
    }

    /// Same conservation with an aggressive speculation config and a
    /// deliberately slow worker, so racing duplicate attempts are part
    /// of most runs: the loser's completion must never double-count,
    /// and no task is speculatively launched twice.
    #[test]
    fn speculative_duplicates_stay_exactly_once(
        dags in proptest::collection::vec(arb_dag(), 1..3),
        slow_deci in 50u64..400,
    ) {
        let atomize = AtomizeConfig {
            spec_factor: 1.2,
            spec_check_secs: 0.5,
            min_completed_for_spec: 1,
        };
        let out = run(&dags, 3, slow_deci as f64 / 10.0, atomize);
        let total: usize = dags.iter().map(Vec::len).sum();
        let r = replay(&out.sched_log);
        prop_assert!(r.gate_ok, "a task was offered before its predecessors");
        prop_assert_eq!(r.dones.len(), total, "every task effectively done");
        for (key, n) in &r.dones {
            prop_assert_eq!(*n, 1, "task {:?} completed {} times", key, n);
        }
        for (key, n) in &r.launches {
            prop_assert_eq!(*n, 1, "task {:?} speculated {} times", key, n);
        }
        // Every decided race cancelled exactly one loser.
        prop_assert_eq!(r.cancels as usize, r.launches.len());
        let v = check_log(&out.sched_log, OracleOptions {
            expect_all_complete: true,
            workers: Some(3),
            ..OracleOptions::default()
        });
        prop_assert!(v.is_empty(), "oracle violations: {:?}", v);
    }
}
