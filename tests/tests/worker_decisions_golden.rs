//! Golden-file test pinning the sim worker's paths that the other sim
//! goldens do not reach.
//!
//! `builtin_decisions.txt`, `dag_decisions.txt` and
//! `dag_failover_decisions.txt` run the checker's builtins, which use an
//! ideal, noise-free configuration. Every row here runs under
//! `EngineConfig::default()` instead — sampled control latency, 300 ms
//! data latency, 25 ms bid delay, noise on every transfer and scan —
//! with one worker crash and recovery mid-run, crossed with the worker
//! policy (Listing 2 bidding, the Baseline's reject-once, bid learning),
//! §6.4 speed learning, and the replicated data plane (factor 2 with
//! lossy peer links, so fetches rotate, back off and fall back to the
//! master). A row holds the number of events the engine delivered and
//! the digests of the scheduler log and of the per-job trace, so a
//! changed draw on a worker's random stream, a changed bid or a changed
//! fetch shows up even where no scheduling decision moves.
//!
//! To regenerate after an intentional protocol change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p crossbid-integration --test worker_decisions_golden
//! ```

use std::fmt::Write;

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    Allocator, BaselineAllocator, EngineConfig, FaultPlan, Faults, ReplicationConfig, RunSpec,
    Trace, WorkerId, Workflow,
};
use crossbid_integration::log_digest;
use crossbid_simcore::SimTime;
use crossbid_workload::{
    ArrivalProcess, JobMix, MixComponent, Repetition, SizeClass, WorkerConfig,
};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/worker_decisions.txt");
const GOLDEN: &str = include_str!("../golden/worker_decisions.txt");

const SEEDS: [u64; 2] = [1, 2];

/// FNV-1a over the debug rendering of every trace event, in order.
fn trace_digest(trace: &Trace) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace.events() {
        for b in format!("{e:?}").bytes() {
            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{} trace events, fnv {hash:016x}", trace.len())
}

/// One row: a fast, two average and a slow worker with stores small
/// enough to evict, a stream of pooled medium and large repositories
/// and CPU-only jobs, and worker 1 down from 30 s to 90 s.
fn row(out: &mut String, name: &str, alloc: &dyn Allocator, learning: bool, repl: bool, seed: u64) {
    let mut workers = WorkerConfig::FastSlow.specs(4);
    for w in &mut workers {
        w.storage_bytes = 2_500_000_000;
    }
    let mut builder = RunSpec::builder()
        .workers(workers)
        .engine(EngineConfig {
            max_events: 1_000_000,
            ..EngineConfig::default()
        })
        .speed_learning(learning)
        .faults(
            Faults::new().workers(
                FaultPlan::new()
                    .crash_at(SimTime::from_secs(30), WorkerId(1))
                    .recover_at(SimTime::from_secs(90), WorkerId(1)),
            ),
        )
        .trace(true)
        .seed(seed);
    if repl {
        builder = builder.replication(ReplicationConfig {
            peer_drop_prob: 0.3,
            ..ReplicationConfig::with_factor(2)
        });
    }
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let arrivals = JobMix::new()
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
        .with(MixComponent::cpu(0.1, 2.0))
        .generate(
            seed,
            40,
            task,
            &ArrivalProcess::Poisson {
                mean_interval_secs: 4.0,
            },
        )
        .arrivals;
    let run = builder
        .build()
        .sim()
        .run_iteration(&mut wf, alloc, arrivals);
    assert_eq!(run.record.jobs_completed, 40, "{name} seed={seed}");
    writeln!(
        out,
        "{name} learning={} replication={} seed={seed}: {} engine events; log {}; trace {}",
        if learning { "on" } else { "off" },
        if repl { "f2-drop0.3" } else { "off" },
        run.events,
        log_digest(&run.sched_log),
        trace_digest(&run.trace),
    )
    .unwrap();
}

#[test]
fn sim_worker_decisions_match_golden() {
    let allocators: [(&str, Box<dyn Allocator>); 3] = [
        ("bidding", Box::new(BiddingAllocator::new())),
        ("baseline", Box::new(BaselineAllocator)),
        (
            "bid-learning",
            Box::new(BiddingAllocator::with_bid_learning()),
        ),
    ];
    let mut actual = String::new();
    for (name, alloc) in &allocators {
        for learning in [false, true] {
            for repl in [false, true] {
                for seed in SEEDS {
                    row(&mut actual, name, alloc.as_ref(), learning, repl, seed);
                }
            }
        }
    }
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("bless golden file");
        return;
    }
    assert_eq!(
        actual, GOLDEN,
        "sim runs diverged from tests/golden/worker_decisions.txt;\n\
         re-bless with BLESS_GOLDEN=1 only if the protocol was meant to change."
    );
}
