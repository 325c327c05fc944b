//! Golden-file test pinning what the sim master decides while its
//! roster changes under it.
//!
//! The federation churn rows of `builtin_decisions.txt` drive one join,
//! drain or removal each, on plain links only. Every row here drives
//! all of them in one single-master run, under Listing 1 and the
//! Baseline, on reliable and on lossy links: worker 4 is deferred and
//! joins, worker 0 drains, worker 1 is removed, and worker 0 crashes in
//! the middle of its drain and recovers (its drain then completes at
//! the recovery). A row holds the digest of the scheduler log, so any
//! moved decision, reclaim or bounce order shows up.
//!
//! To regenerate after an intentional protocol change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p crossbid-integration --test membership_decisions_golden
//! ```

use std::fmt::Write;

use crossbid_checker::{check_log, OracleOptions};
use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    Allocator, BaselineAllocator, EngineConfig, FaultPlan, Faults, MembershipPlan, NetFaultPlan,
    RunSpec, SchedEventKind, SchedLog, WorkerId, Workflow,
};
use crossbid_integration::log_digest;
use crossbid_simcore::SimTime;
use crossbid_workload::{
    ArrivalProcess, JobMix, MixComponent, Repetition, SizeClass, WorkerConfig,
};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/golden/membership_decisions.txt"
);
const GOLDEN: &str = include_str!("../golden/membership_decisions.txt");

const SEEDS: [u64; 3] = [1, 2, 3];
const JOBS: usize = 60;

/// Index of the first `kind` event about `w`.
fn first(log: &SchedLog, w: u32, kind: &SchedEventKind) -> usize {
    log.events()
        .position(|e| e.worker == Some(WorkerId(w)) && e.kind == *kind)
        .unwrap_or_else(|| panic!("no {kind:?} of w{w} in the log"))
}

fn row(out: &mut String, name: &str, alloc: &dyn Allocator, lossy: bool, seed: u64) {
    let membership = MembershipPlan::new()
        .join_at(SimTime::from_secs(15), WorkerId(4))
        .drain_at(SimTime::from_secs(30), WorkerId(0))
        .remove_at(SimTime::from_secs(45), WorkerId(1));
    let crash = FaultPlan::new()
        .crash_at(SimTime::from_secs_f64(30.1), WorkerId(0))
        .recover_at(SimTime::from_secs(60), WorkerId(0));
    let mut faults = Faults::new().workers(crash).membership(membership);
    if lossy {
        faults = faults.net(NetFaultPlan::lossy(seed, 0.1, 0.05));
    }
    let spec = RunSpec::builder()
        .workers(WorkerConfig::FastSlow.specs(5))
        .engine(EngineConfig {
            max_events: 2_000_000,
            ..EngineConfig::default()
        })
        .faults(faults)
        .trace(true)
        .seed(seed)
        .build();
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let arrivals = JobMix::new()
        .with(MixComponent::data(
            0.8,
            SizeClass::Large,
            Repetition::Pool { n: 8 },
        ))
        .with(MixComponent::cpu(0.2, 12.0))
        .generate(
            seed,
            JOBS,
            task,
            &ArrivalProcess::Poisson {
                mean_interval_secs: 0.7,
            },
        )
        .arrivals;
    let run = spec.sim().run_iteration(&mut wf, alloc, arrivals);
    let log = &run.sched_log;
    let label = format!("{name} lossy={lossy} seed={seed}");
    assert_eq!(run.record.jobs_completed, JOBS as u64, "{label}");
    let violations = check_log(
        log,
        OracleOptions {
            expect_all_complete: true,
            strict_reoffer: false,
            workers: Some(5),
            ..OracleOptions::default()
        },
    );
    assert!(violations.is_empty(), "{label}: {violations:?}");
    // The plan does what the file says it pins: worker 0 crashes
    // between its drain notice and its departure.
    let drained = first(log, 0, &SchedEventKind::WorkerDraining);
    let crashed = first(log, 0, &SchedEventKind::Crash);
    let departed = first(log, 0, &SchedEventKind::WorkerRemoved);
    assert!(
        drained < crashed && crashed < departed,
        "{label}: not mid-drain"
    );
    assert_eq!(log.worker_joins(), 1, "{label}");
    assert_eq!(log.worker_removals(), 2, "{label}");
    writeln!(
        out,
        "{name} links={} seed={seed}: {}",
        if lossy { "lossy" } else { "reliable" },
        log_digest(log),
    )
    .unwrap();
}

#[test]
fn sim_membership_decisions_match_golden() {
    let allocators: [(&str, Box<dyn Allocator>); 2] = [
        ("bidding", Box::new(BiddingAllocator::new())),
        ("baseline", Box::new(BaselineAllocator)),
    ];
    let mut actual = String::new();
    for (name, alloc) in &allocators {
        for lossy in [false, true] {
            for seed in SEEDS {
                row(&mut actual, name, alloc.as_ref(), lossy, seed);
            }
        }
    }
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("bless golden file");
        return;
    }
    assert_eq!(
        actual, GOLDEN,
        "sim runs diverged from tests/golden/membership_decisions.txt;\n\
         re-bless with BLESS_GOLDEN=1 only if the protocol was meant to change."
    );
}
