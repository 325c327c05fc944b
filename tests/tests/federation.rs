//! Cross-shard invariants of the sharded multi-master federation:
//! replaying the union of the shard logs equals replaying the merged
//! federation log, every job completes exactly once in exactly one
//! shard (its home, or the recorded spill target), and the elastic
//! membership protocol survives its harshest timings — a drain
//! mid-contest, a removal with an unacked assignment behind a
//! partition, and a join during a partition — on both runtimes with
//! pinned seeds.

use std::collections::BTreeMap;

use crossbid_checker::{
    check_log, Federation, JobDef, OracleOptions, Protocol, Run, Scenario, Workload,
};
use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    Arrival, EngineConfig, Faults, JobSpec, MembershipPlan, NetFaultPlan, Payload, ResourceRef,
    RunOutput, RunSpec, Runtime, SchedEvent, SchedEventKind, SchedLog, SchedState, ShardId,
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

/// A scenario shaped like the checker built-ins but with every axis a
/// proptest variable.
fn prop_scenario(shards: usize, jobs: usize, threshold: f64, churn: bool) -> Scenario {
    let burst = (0..jobs)
        .map(|i| JobDef {
            at_secs: i as f64 * 0.5,
            object: 1 + (i % 3) as u64,
            bytes: 100_000_000,
        })
        .collect();
    Scenario {
        federation: Some(Federation {
            shards,
            spill_threshold_secs: threshold,
            gossip_loss: 0.0,
            churn,
        }),
        ..Scenario::new("prop_fed", Protocol::Bidding, 2, Workload::Jobs(burst))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The federation's conservation law as a pure fold: replaying the
    /// merged (worker-qualified, time-ordered) log must equal the sum
    /// of replaying each shard's own augmented log — same submissions,
    /// completions and hand-off counters — and every submitted job
    /// must complete exactly once, in its home shard unless a recorded
    /// spill moved it.
    #[test]
    fn union_replay_conserves_and_completes_exactly_once(
        shards in 2usize..5,
        jobs in 4usize..20,
        threshold in 4.0f64..16.0,
        churn in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let sc = prop_scenario(shards, jobs, threshold, churn);
        let out = sc.run(&Run::sim(seed));
        let total_jobs = sc.expected_completions(None);

        // The merged log under the federated oracle and every shard's
        // own log under the single-master one.
        let violations = out.violations(false);
        prop_assert!(violations.is_empty(), "seed {}: {:?}", seed, violations);

        // Union of shard replays == merged replay, counter for counter.
        let merged = SchedState::replay(out.log().events());
        let union: Vec<SchedState> = out
            .masters
            .iter()
            .map(|o| SchedState::replay(o.sched_log.events()))
            .collect();
        let sum = |f: fn(&SchedState) -> u64| union.iter().map(f).sum::<u64>();
        prop_assert_eq!(merged.submissions, sum(|s| s.submissions));
        prop_assert_eq!(merged.completions, sum(|s| s.completions));
        prop_assert_eq!(merged.spill_outs, sum(|s| s.spill_outs));
        prop_assert_eq!(merged.spill_ins, sum(|s| s.spill_ins));
        prop_assert_eq!(merged.completions, total_jobs);
        prop_assert_eq!(merged.spill_outs, out.spills.len() as u64);
        prop_assert_eq!(merged.spill_ins, out.spills.len() as u64);

        // Exactly once, in exactly one shard: the spill target's if a
        // hand-off was recorded, the home shard's otherwise.
        let spilled_to: BTreeMap<_, _> = out.spills.iter().map(|s| (s.job, s.to)).collect();
        let mut completions: BTreeMap<_, Vec<ShardId>> = BTreeMap::new();
        for ev in out.log().events() {
            if matches!(ev.kind, SchedEventKind::Completed) {
                let job = ev.job.expect("completions carry a job id");
                let worker = ev.worker.expect("completions carry a worker id");
                completions.entry(job).or_default().push(worker.shard());
            }
        }
        prop_assert_eq!(completions.len() as u64, total_jobs);
        for (job, shards_seen) in completions {
            prop_assert_eq!(
                shards_seen.len(),
                1,
                "job {:?} completed {} times",
                job,
                shards_seen.len()
            );
            let expected = spilled_to.get(&job).copied().unwrap_or_else(|| job.shard());
            prop_assert_eq!(shards_seen[0], expected, "job {:?} completed off-shard", job);
        }
    }
}

// ---------------------------------------------------------------------------
// The merged log of every federation built-in, both runtimes.
// ---------------------------------------------------------------------------

/// Rebuild a log the way the federation first did: push a runtime log
/// and its time-sorted hand-off records through `SchedLog::push` in
/// time order, runtime events first within an instant.
fn re_augment(run: &[SchedEvent], synthesized: &[SchedEvent]) -> SchedLog {
    let mut log = SchedLog::new();
    let (mut i, mut j) = (0, 0);
    while i < run.len() || j < synthesized.len() {
        if j == synthesized.len() || (i < run.len() && run[i].at <= synthesized[j].at) {
            log.push(run[i]);
            i += 1;
        } else {
            log.push(synthesized[j]);
            j += 1;
        }
    }
    log
}

/// The federation's first merge: every shard-qualified event, stable-
/// sorted by `(time, shard)`, pushed into a fresh log.
fn sorted_union(shards: &[RunOutput]) -> SchedLog {
    let mut all: Vec<(SimTime, usize, SchedEvent)> = Vec::new();
    for (s, out) in shards.iter().enumerate() {
        for mut q in out.sched_log.events() {
            q.worker = q.worker.map(|w| WorkerId::in_shard(ShardId(s as u16), w.0));
            all.push((q.at, s, q));
        }
    }
    all.sort_by_key(|(at, s, _)| (*at, *s));
    let mut merged = SchedLog::new();
    for (_, _, ev) in all {
        merged.push(ev);
    }
    merged
}

/// Every shard log a federation run hands to its merge is time-sorted,
/// is exactly what re-augmenting its runtime events with its hand-off
/// records gives, and the merged log and makespan are exactly what the
/// sort-based merge gives.
#[test]
fn every_fed_builtin_merges_like_the_sort_based_reference_on_both_runtimes() {
    for run in [Run::sim(1), Run::threaded(1)] {
        for sc in Scenario::builtins_where(|s| s.federation.is_some()) {
            let out = sc.run(&run);
            let ctx = format!("{} on {:?}", sc.name, run.runtime);
            for (h, shard) in out.masters.iter().enumerate() {
                let events: Vec<SchedEvent> = shard.sched_log.events().collect();
                assert!(
                    events.windows(2).all(|w| w[0].at <= w[1].at),
                    "{ctx}: shard {h}'s log is not time-sorted"
                );
                // Without a mutation the home runtime never sees a job
                // it forwarded: every event about one is a hand-off record.
                let forwarded: Vec<_> = out
                    .spills
                    .iter()
                    .filter(|s| s.from.0 as usize == h)
                    .map(|s| s.job)
                    .collect();
                let (synthesized, runtime): (Vec<SchedEvent>, Vec<SchedEvent>) = events
                    .iter()
                    .partition(|e| e.job.is_some_and(|j| forwarded.contains(&j)));
                assert_eq!(synthesized.len(), 2 * forwarded.len(), "{ctx}: shard {h}");
                assert_eq!(
                    re_augment(&runtime, &synthesized)
                        .events()
                        .collect::<Vec<_>>(),
                    events,
                    "{ctx}: shard {h}'s augmented log"
                );
            }
            let merged = out.merged.as_ref().expect("a federation run merges");
            assert_eq!(*merged, sorted_union(&out.masters), "{ctx}: merged log");
            let last_done = merged
                .events()
                .filter(|e| matches!(e.kind, SchedEventKind::Completed))
                .map(|e| e.at.as_secs_f64())
                .fold(0.0, f64::max);
            assert_eq!(out.makespan_secs.to_bits(), last_done.to_bits(), "{ctx}");
        }
    }
}

// ---------------------------------------------------------------------------
// Membership-churn regressions, pinned seeds, both runtimes.
// ---------------------------------------------------------------------------

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

/// Run the 12-job hot-repo burst under `faults` on one runtime.
fn run_churned(threaded: bool, workers: usize, faults: Faults) -> RunOutput {
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
    let mut rt: Box<dyn Runtime> = if threaded {
        Box::new(spec.threaded())
    } else {
        Box::new(spec.sim())
    };
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    rt.run_iteration(
        &mut wf,
        &BiddingAllocator::new(),
        hot_repo_arrivals(task, 12),
    )
}

fn oracle_options(workers: usize) -> OracleOptions {
    OracleOptions {
        expect_all_complete: true,
        strict_reoffer: false,
        workers: Some(workers as u32),
        ..OracleOptions::default()
    }
}

/// Worker 0 is told to drain at t=2 s — contests are still being
/// opened for the burst (arrivals run to t=5.5 s) and the worker holds
/// a ~10 s fetch. It must finish what it has, take nothing new after
/// the drain notice, and every job must still complete exactly once.
#[test]
fn drain_mid_contest_completes_exactly_once_and_stops_new_placements() {
    for threaded in [false, true] {
        let out = run_churned(
            threaded,
            3,
            Faults::new()
                .membership(MembershipPlan::new().drain_at(SimTime::from_secs(2), WorkerId(0))),
        );
        let label = if threaded { "threaded" } else { "sim" };
        assert_eq!(
            out.record.jobs_completed, 12,
            "{label}: every job completes"
        );
        assert_eq!(out.sched_log.worker_drains(), 1, "{label}: drain recorded");
        let violations = check_log(&out.sched_log, oracle_options(3));
        assert!(violations.is_empty(), "{label}: {violations:?}");
        let drain_pos = out
            .sched_log
            .events()
            .position(|ev| matches!(ev.kind, SchedEventKind::WorkerDraining))
            .expect("drain event in the log");
        let late_placements = out
            .sched_log
            .events()
            .skip(drain_pos)
            .filter(|ev| {
                ev.worker == Some(WorkerId(0))
                    && matches!(ev.kind, SchedEventKind::Assigned | SchedEventKind::Offered)
            })
            .count();
        assert_eq!(
            late_placements, 0,
            "{label}: draining worker received new placements"
        );
    }
}

/// Worker 0 is removed at t=2 s while a full partition ([1 s, 4 s))
/// has swallowed the acks of anything assigned to it — the master must
/// reclaim the unacked work and land all of it elsewhere, exactly
/// once.
#[test]
fn remove_with_unacked_assignment_reassigns_exactly_once() {
    for threaded in [false, true] {
        let out = run_churned(
            threaded,
            3,
            Faults::new()
                .net(NetFaultPlan::none().with_partition(
                    None::<WorkerId>,
                    SimTime::from_secs(1),
                    SimTime::from_secs(4),
                ))
                .membership(MembershipPlan::new().remove_at(SimTime::from_secs(2), WorkerId(0))),
        );
        let label = if threaded { "threaded" } else { "sim" };
        assert_eq!(
            out.record.jobs_completed, 12,
            "{label}: every job completes"
        );
        assert_eq!(
            out.sched_log.worker_removals(),
            1,
            "{label}: removal recorded"
        );
        let violations = check_log(&out.sched_log, oracle_options(3));
        assert!(violations.is_empty(), "{label}: {violations:?}");
        let removal_pos = out
            .sched_log
            .events()
            .position(|ev| matches!(ev.kind, SchedEventKind::WorkerRemoved))
            .expect("removal event in the log");
        assert!(
            out.sched_log
                .events()
                .skip(removal_pos)
                .all(|ev| !(ev.worker == Some(WorkerId(0))
                    && matches!(ev.kind, SchedEventKind::Completed))),
            "{label}: a removed worker completed work"
        );
    }
}

/// Worker 2 joins at t=2 s *inside* a full partition ([1 s, 6 s)): the
/// join must survive the outage, and once healed the newcomer must
/// shoulder part of the backlog — with exactly-once effects throughout.
#[test]
fn join_during_partition_lands_work_on_the_newcomer() {
    for threaded in [false, true] {
        let out = run_churned(
            threaded,
            3,
            Faults::new()
                .net(NetFaultPlan::none().with_partition(
                    None::<WorkerId>,
                    SimTime::from_secs(1),
                    SimTime::from_secs(6),
                ))
                .membership(MembershipPlan::new().join_at(SimTime::from_secs(2), WorkerId(2))),
        );
        let label = if threaded { "threaded" } else { "sim" };
        assert_eq!(
            out.record.jobs_completed, 12,
            "{label}: every job completes"
        );
        assert_eq!(out.sched_log.worker_joins(), 1, "{label}: join recorded");
        let violations = check_log(&out.sched_log, oracle_options(3));
        assert!(violations.is_empty(), "{label}: {violations:?}");
        let newcomer_completions = out
            .sched_log
            .events()
            .filter(|ev| {
                ev.worker == Some(WorkerId(2)) && matches!(ev.kind, SchedEventKind::Completed)
            })
            .count();
        assert!(
            newcomer_completions > 0,
            "{label}: the joined worker never completed anything"
        );
    }
}
