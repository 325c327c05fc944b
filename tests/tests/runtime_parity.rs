//! Cross-validation of the two runtimes: the simulated engine and the
//! real-threaded runtime execute the same protocol, so on the same
//! noise-free workload their *structural* metrics (completions, cache
//! behaviour, data load) should agree closely, and their makespans
//! should be in the same ballpark (the threaded runtime adds real
//! thread jitter).
//!
//! Written once against the [`Runtime`] trait: every scenario builds
//! one [`RunSpec`] and executes it on both runtimes.

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    Allocator, Arrival, BaselineAllocator, EngineConfig, JobSpec, Payload, ResourceRef, RunOutput,
    RunSpec, Runtime, TaskId, WorkerSpec, Workflow,
};
use crossbid_net::{ControlPlane, NoiseModel};
use crossbid_simcore::{SimDuration, SimTime};
use crossbid_storage::ObjectId;
use std::time::Duration;

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

/// One spec for both runtimes. The threaded tests' premises are
/// real-time ones — a worker is idle again when the next job arrives,
/// and its bid lands before the contest closes — so the time scale
/// leaves the sparse arrivals 30 ms or more of real time apart against
/// ~11 ms of fetch and scan, and a contest waits up to 50 ms for a
/// late bid (it closes as soon as every bid is in): sibling tests
/// starving the worker threads cannot break them.
fn parity_spec(n_workers: usize) -> RunSpec {
    RunSpec::builder()
        .workers(specs(n_workers))
        .engine(EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            ..EngineConfig::default()
        })
        .speed_learning(false)
        .trace(true)
        .seed(5)
        .time_scale(1e-3)
        .min_real_window(Duration::from_millis(50))
        .build()
}

/// Both runtimes over the same spec, labelled.
fn both_runtimes(spec: &RunSpec) -> Vec<Box<dyn Runtime>> {
    vec![Box::new(spec.sim()), Box::new(spec.threaded())]
}

fn arrivals(task: TaskId) -> Vec<Arrival> {
    // Sparse arrivals: queueing effects are minimal, so both runtimes
    // should route nearly identically.
    (0..12)
        .map(|i| Arrival {
            at: SimTime::from_secs(i * 30),
            spec: JobSpec::scanning(
                task,
                ResourceRef {
                    id: ObjectId(i % 4),
                    bytes: 100_000_000,
                },
                Payload::Index(i),
            ),
        })
        .collect()
}

fn run_once(rt: &mut dyn Runtime, allocator: &dyn Allocator) -> RunOutput {
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let jobs = arrivals(task);
    rt.run_iteration(&mut wf, allocator, jobs)
}

#[test]
fn runtimes_agree_on_structural_metrics() {
    for bidding in [true, false] {
        let allocator: Box<dyn Allocator> = if bidding {
            Box::new(BiddingAllocator::new())
        } else {
            Box::new(BaselineAllocator)
        };
        let spec = parity_spec(3);
        let sim = run_once(&mut spec.sim(), allocator.as_ref()).record;
        let thr = run_once(&mut spec.threaded(), allocator.as_ref()).record;
        let label = if bidding { "bidding" } else { "baseline" };
        assert_eq!(sim.jobs_completed, thr.jobs_completed, "{label}");
        assert_eq!(
            sim.cache_hits + sim.cache_misses,
            thr.cache_hits + thr.cache_misses,
            "{label}: lookup totals"
        );
        // Misses may differ by a few due to real-time races, but the
        // locality picture must be the same order: 4 distinct repos,
        // at most a dozen fetches.
        assert!(
            (sim.cache_misses as i64 - thr.cache_misses as i64).abs() <= 4,
            "{label}: sim {} vs threaded {} misses",
            sim.cache_misses,
            thr.cache_misses
        );
        // Makespans in the same ballpark (arrival-dominated ≈ 340 s).
        let ratio = thr.makespan_secs / sim.makespan_secs;
        assert!(
            (0.6..1.7).contains(&ratio),
            "{label}: sim {:.1}s vs threaded {:.1}s",
            sim.makespan_secs,
            thr.makespan_secs
        );
    }
}

#[test]
fn sched_logs_share_invariants_across_runtimes() {
    // Both runtimes emit the same SchedLog shape; on the same fault-
    // free bidding workload the control-plane invariants must match.
    let spec = parity_spec(3);
    for mut rt in both_runtimes(&spec) {
        let out = run_once(rt.as_mut(), &BiddingAllocator::new());
        let label = rt.name();
        assert_eq!(out.record.jobs_completed, 12, "{label}");
        let log = &out.sched_log;
        // Every job runs exactly one contest and lands exactly once.
        assert_eq!(log.contests_opened(), 12, "{label}: contests");
        assert_eq!(log.assignments(), 12, "{label}: assignments");
        // No faults were injected.
        assert_eq!(log.crashes(), 0, "{label}");
        assert_eq!(log.recoveries(), 0, "{label}");
        assert_eq!(log.redistributions(), 0, "{label}");
        assert!(log.no_assignments_to_detected_dead(2.0), "{label}");
    }
}

#[test]
fn registries_agree_on_protocol_counters() {
    // The typed metrics layer must tell the same structural story on
    // both runtimes: same contest count, same assignment count, no
    // redistributions, and instrument cardinalities consistent with
    // the record.
    let spec = parity_spec(3);
    let mut snaps = Vec::new();
    for mut rt in both_runtimes(&spec) {
        let out = run_once(rt.as_mut(), &BiddingAllocator::new());
        let snap = out.metrics;
        let label = rt.name();
        assert_eq!(snap.counter("jobs/completed"), 12, "{label}");
        assert_eq!(
            snap.counter("cache/misses"),
            out.record.cache_misses,
            "{label}: registry and record disagree on misses"
        );
        // Phase histograms: every completed job waited and processed;
        // every miss fetched.
        let wait = snap.histogram("job/queue_wait_secs").expect(label);
        assert_eq!(wait.count, 12, "{label}: queue_wait count");
        let proc = snap.histogram("job/proc_secs").expect(label);
        assert_eq!(proc.count, 12, "{label}: proc count");
        let fetch = snap.histogram("job/fetch_secs").expect(label);
        assert_eq!(
            fetch.count, out.record.cache_misses,
            "{label}: one fetch sample per miss"
        );
        snaps.push((label, snap));
    }
    let (_, sim) = &snaps[0];
    let (_, thr) = &snaps[1];
    for key in ["contests/opened", "assignments", "jobs/redistributed"] {
        assert_eq!(
            sim.counter(key),
            thr.counter(key),
            "runtimes disagree on {key}"
        );
    }
}

#[test]
fn baseline_reoffer_prefers_a_different_idle_worker() {
    // Regression: a rejected job used to bounce straight back to the
    // rejector (who must accept the second time under reject-once),
    // so a cold worker could slurp a job whose data another idle
    // worker already held. With the fix, the re-offer goes to the
    // other idle worker first, and repeat jobs on a hot repo always
    // land on the warm worker: exactly one fetch, ever.
    //
    // Both runtimes now draw from one shared `IdlePool`, so the
    // re-offer tie-break (prefer another worker; skipped rejector
    // keeps its seniority) must hold identically on each — the two
    // masters used to duplicate this logic with subtly different pick
    // rules, and drifted apart under duplicated Idle messages.
    let spec = parity_spec(2);
    for mut rt in both_runtimes(&spec) {
        let mut wf = Workflow::new();
        let task = wf.add_sink("scan");
        // Same repo throughout, spaced wider than fetch + scan so both
        // workers are idle when each job arrives.
        let jobs: Vec<Arrival> = (0..6)
            .map(|i| Arrival {
                at: SimTime::from_secs(i * 100),
                spec: JobSpec::scanning(
                    task,
                    ResourceRef {
                        id: ObjectId(1),
                        bytes: 100_000_000,
                    },
                    Payload::Index(i),
                ),
            })
            .collect();
        let r = rt.run_iteration(&mut wf, &BaselineAllocator, jobs).record;
        let label = rt.name();
        assert_eq!(r.jobs_completed, 6, "{label}");
        assert_eq!(
            r.cache_misses, 1,
            "{label}: after the first fetch every re-offer must find the warm worker"
        );
        assert_eq!(r.cache_hits, 5, "{label}");
    }
}

#[test]
fn threaded_session_keeps_caches_warm_across_iterations() {
    // The ThreadedSession mirrors the sim Session's §6.3.1 semantics:
    // stores persist, so a second identical iteration re-fetches
    // nothing it already holds.
    let spec = parity_spec(3);
    for mut rt in both_runtimes(&spec) {
        let alloc = BiddingAllocator::new();
        let cold = run_once(rt.as_mut(), &alloc).record;
        let warm = run_once(rt.as_mut(), &alloc).record;
        assert_eq!(rt.iterations_run(), 2, "{}", rt.name());
        assert_eq!(warm.iteration, 1, "{}", rt.name());
        assert!(
            warm.cache_misses <= cold.cache_misses,
            "{}: warm iteration regressed ({} -> {})",
            rt.name(),
            cold.cache_misses,
            warm.cache_misses
        );
        assert!(
            warm.cache_misses <= 1,
            "{}: nearly everything should be cached on iteration 2, got {} misses",
            rt.name(),
            warm.cache_misses
        );
    }
}

#[test]
fn ledger_shapes_agree_across_runtimes() {
    // Both masters write their intake, placement and completion entries
    // through one `MasterCore`, so what the log says happened to each
    // job — bids, contests, acks and data-plane traffic projected out —
    // must be the same multiset of shapes whichever runtime drove it.
    // (Baseline re-offers and speculation depend on timing and stay out
    // of this.)
    use crossbid_checker::{Run, Scenario};
    use crossbid_crossflow::{sched_kind_name, SchedEventKind as K, SchedLog};
    use std::collections::BTreeMap;

    fn shapes(log: &SchedLog) -> Vec<String> {
        let mut per_job: BTreeMap<u64, String> = BTreeMap::new();
        for e in log.events() {
            let ledger = matches!(
                e.kind,
                K::Submitted
                    | K::SpillIn { .. }
                    | K::Assigned
                    | K::Offered
                    | K::Rejected
                    | K::Redistributed
                    | K::Completed
            );
            if let (true, Some(job)) = (ledger, e.job) {
                let shape = per_job.entry(job.0).or_default();
                shape.push_str(sched_kind_name(&e.kind));
                shape.push(' ');
            }
        }
        let mut all: Vec<String> = per_job.into_values().collect();
        all.sort();
        all
    }

    for name in ["hot_repo_bidding", "two_repos_bidding", "repl_f3_lossy"] {
        let sc = Scenario::builtin(name);
        for seed in 1..=3 {
            let sim = sc.run(&Run::sim(seed));
            let thr = sc.run(&Run::threaded(seed));
            assert_eq!(
                shapes(sim.log()),
                shapes(thr.log()),
                "{name} seed {seed}: per-job ledger shapes differ between runtimes"
            );
            assert_eq!(sim.completed, thr.completed, "{name} seed {seed}");
        }
    }
}
