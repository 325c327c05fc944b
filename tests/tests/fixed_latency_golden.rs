//! Golden-file test pinning sim runs whose control plane has one fixed
//! latency.
//!
//! The checker's builtins run on an instant control plane, and
//! `worker_decisions.txt` samples jitter on every message. Every row
//! here runs with a fixed 40 ms one-way control latency and a 25 ms bid
//! delay on reliable links, so each contest's bid requests share one
//! instant, and so do its bids. Eight workers take a stream of pooled
//! data jobs and CPU jobs while the schedule is timed against those
//! instants: worker 2 crashes at the instant one contest's requests
//! land and recovers at the instant another contest's bids land, and
//! worker 5 starts draining at the instant a third contest's requests
//! land. Each row is crossed with a steady leader and with a leader
//! that dies at one append index: inside a bid round (between two bids
//! of one contest) under Listing 1, a third of the way through the run
//! under the Baseline. The index is found on the steady run of the
//! same row, which shares its log up to the crash.
//!
//! A row holds the digests of the scheduler log, of the rendered
//! `record` line and of the per-job trace. It does not hold the number
//! of queue events, which is the engine's cost, not its behaviour.
//!
//! To regenerate after an intentional protocol change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p crossbid-integration --test fixed_latency_golden
//! ```

use std::fmt::Write;

use crossbid_checker::{check_log, OracleOptions};
use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    Allocator, Arrival, BaselineAllocator, EngineConfig, FaultPlan, Faults, MasterFaultPlan,
    MembershipPlan, RunOutput, RunSpec, RunStreamLine, SchedEventKind, SchedLog, Trace, WorkerId,
    Workflow,
};
use crossbid_integration::{log_digest, text_digest};
use crossbid_net::ControlPlane;
use crossbid_simcore::SimDuration;
use crossbid_workload::{
    ArrivalProcess, JobMix, MixComponent, Repetition, SizeClass, WorkerConfig,
};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/golden/fixed_latency_decisions.txt"
);
const GOLDEN: &str = include_str!("../golden/fixed_latency_decisions.txt");

const SEEDS: [u64; 2] = [1, 2];
const JOBS: usize = 60;
const WORKERS: usize = 8;

/// The one-way control latency and the bid delay.
const LINK: SimDuration = SimDuration::from_millis(40);
const BID: SimDuration = SimDuration::from_millis(25);

fn trace_digest(trace: &Trace) -> String {
    let text: String = trace.events().iter().map(|e| format!("{e:?}")).collect();
    format!("{} trace events, {}", trace.len(), text_digest(&text))
}

fn arrivals(seed: u64, wf: &mut Workflow) -> Vec<Arrival> {
    let task = wf.add_sink("scan");
    JobMix::new()
        .with(MixComponent::data(
            0.7,
            SizeClass::Medium,
            Repetition::Pool { n: 6 },
        ))
        .with(MixComponent::data(
            0.2,
            SizeClass::Large,
            Repetition::Pool { n: 2 },
        ))
        .with(MixComponent::cpu(0.1, 4.0))
        .generate(
            seed,
            JOBS,
            task,
            &ArrivalProcess::Poisson {
                mean_interval_secs: 1.5,
            },
        )
        .arrivals
}

/// One run: every contest opens at its job's arrival, so arrival `k`'s
/// requests land at `at + LINK` and its bids at `at + 2 LINK + BID`.
fn run(alloc: &dyn Allocator, seed: u64, master: Option<u64>) -> RunOutput {
    let mut wf = Workflow::new();
    let arrivals = arrivals(seed, &mut wf);
    let requests = |k: usize| arrivals[k].at + LINK;
    let bids = |k: usize| arrivals[k].at + LINK + LINK + BID;
    let crash = FaultPlan::new()
        .crash_at(requests(10), WorkerId(2))
        .recover_at(bids(25), WorkerId(2));
    let membership = MembershipPlan::new().drain_at(requests(18), WorkerId(5));
    let mut faults = Faults::new().workers(crash).membership(membership);
    if let Some(at) = master {
        faults = faults.master(MasterFaultPlan::new().crash_at(at));
    }
    let mut workers = WorkerConfig::FastSlow.specs(WORKERS);
    for w in &mut workers {
        w.storage_bytes = 2_500_000_000;
    }
    RunSpec::builder()
        .workers(workers)
        .engine(EngineConfig {
            control: ControlPlane::new(LINK, SimDuration::ZERO),
            bid_compute_delay: BID,
            max_events: 1_000_000,
            ..EngineConfig::default()
        })
        .faults(faults)
        .trace(true)
        .seed(seed)
        .build()
        .sim()
        .run_iteration(&mut wf, alloc, arrivals)
}

/// The 1-based append index at which the leader dies: the second bid
/// of the first round past a third of `log` with at least three bids
/// in a row, so bids of the round are still to come after the crash.
/// A log without such a round (the Baseline's) gets a third of its
/// length.
fn crash_index(log: &SchedLog) -> u64 {
    let events: Vec<_> = log.events().collect();
    let bid = |i: usize| {
        let e = &events[i];
        matches!(e.kind, SchedEventKind::BidReceived { .. }).then_some(e.job)
    };
    let from = events.len() / 3;
    let round = (from..events.len() - 2)
        .find(|&i| bid(i).is_some() && bid(i) == bid(i + 1) && bid(i) == bid(i + 2));
    match round {
        // Entry `i + 1` is append `i + 2`.
        Some(i) => i as u64 + 2,
        None => from as u64,
    }
}

fn row(out: &mut String, name: &str, alloc: &dyn Allocator, seed: u64) {
    let steady = run(alloc, seed, None);
    let at = crash_index(&steady.sched_log);
    let crashed = run(alloc, seed, Some(at));
    for (leader, run) in [
        ("steady".to_string(), steady),
        (format!("crash@{at}"), crashed),
    ] {
        let label = format!("{name} leader={leader} seed={seed}");
        assert_eq!(run.record.jobs_completed, JOBS as u64, "{label}");
        assert!(run.anomalies.is_empty(), "{label}: {:?}", run.anomalies);
        let violations = check_log(
            &run.sched_log,
            OracleOptions {
                expect_all_complete: true,
                strict_reoffer: false,
                workers: Some(WORKERS as u32),
                ..OracleOptions::default()
            },
        );
        assert!(violations.is_empty(), "{label}: {violations:?}");
        let record = RunStreamLine::Record(Box::new(run.record.clone())).render();
        writeln!(
            out,
            "{label}: log {}; record {}; trace {}",
            log_digest(&run.sched_log),
            text_digest(&record),
            trace_digest(&run.trace),
        )
        .unwrap();
    }
}

#[test]
fn sim_fixed_latency_decisions_match_golden() {
    let allocators: [(&str, Box<dyn Allocator>); 3] = [
        ("bidding", Box::new(BiddingAllocator::new())),
        (
            "short-circuit",
            Box::new(BiddingAllocator::with_short_circuit(3.0)),
        ),
        ("baseline", Box::new(BaselineAllocator)),
    ];
    let mut actual = String::new();
    for (name, alloc) in &allocators {
        for seed in SEEDS {
            row(&mut actual, name, alloc.as_ref(), seed);
        }
    }
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("bless golden file");
        return;
    }
    assert_eq!(
        actual, GOLDEN,
        "sim runs diverged from tests/golden/fixed_latency_decisions.txt;\n\
         re-bless with BLESS_GOLDEN=1 only if the protocol was meant to change."
    );
}
