//! Golden-file test pinning what every built-in checker scenario
//! *decides* on the sim engine, on the root seeds the CI sweeps use.
//!
//! `dag_decisions.txt` — the two DAG builtins (and the same scenarios
//! made longer): the straggler sweep launches the same speculative
//! replicas at the same instants, and the whole scheduler log —
//! offers, placements, evictions it caused, cancellations — is the one
//! recorded. `DagState`'s sweep and `LocalStore`'s eviction order are
//! indexed structures standing in for a full walk and a full scan; the
//! file was recorded with the walk and the scan, so it is the
//! differential test of the two at the level of whole runs. Each row
//! also pins the log pushed again through `SchedLog::push`
//! (`re-pushed`) and the run's bids on and placements of task jobs,
//! each tied to its task by `task_entries`' join (`tasks`). Both
//! columns were recorded while the log still annotated every task bid
//! and placement with an entry of its own: `re-pushed` from the log
//! with the annotations filtered out, `tasks` from the annotations. So
//! they are the proof that dropping the annotations changed nothing
//! else, and that the join derives exactly what they recorded.
//!
//! `builtin_decisions.txt` — the other 14 builtins, plain and under the
//! explorer's lossy-link plan, and all but the federated ones under a
//! seeded master crash, each on the seed tuple the explorer derives for
//! that iteration (merged log for federated ones). It was recorded through the four per-axis
//! scenario types that `Scenario` replaced, so it is the proof that
//! the one type builds the same specs, arrivals and fault plans.
//!
//! The sim is deterministic in the seeds, so any difference is a
//! changed decision. To regenerate after an intentional protocol
//! change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p crossbid-integration --test dag_decisions_golden
//! ```

use std::fmt::Write;

use crossbid_checker::{ExploreConfig, ReplayTuple, Run, Scenario, Workload};
use crossbid_crossflow::{ProtocolMutation, SchedEventKind, SchedLog};
use crossbid_integration::{log_digest, task_digest, task_entries};
use crossbid_simcore::SeedSequence;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/");
const GOLDEN: [(&str, &str); 2] = [
    (
        "dag_decisions.txt",
        include_str!("../golden/dag_decisions.txt"),
    ),
    (
        "builtin_decisions.txt",
        include_str!("../golden/builtin_decisions.txt"),
    ),
];

/// The root seeds of the two CI sweeps over the DAG builtins:
/// `schedule_space.rs` and `repro atomize`.
const DAG_ROOTS: [u64; 2] = [0xDA61, 0xA70];

/// The root seeds of the CI sweeps over the other builtins:
/// `repro check|netfault|failover|federate`, the lossy, federation and
/// replication sweeps of `schedule_space.rs`, and `repro replicate`.
const ROOTS: [u64; 5] = [0xC0FFEE, 0xFEED5EED, 0xFED5EED, 0x9E97, 0x9E11];

/// `log` with every event pushed again, in stored order: a stored log
/// is a fixed point of `SchedLog::push`.
fn repushed(log: &SchedLog) -> SchedLog {
    let mut again = SchedLog::new();
    log.events().for_each(|e| again.push(e));
    again
}

fn dag_rows(actual: &mut String, builtin: &Scenario) {
    let Workload::Dags { config, count } = builtin.workload else {
        unreachable!("called on DAG builtins only");
    };
    for dags in [count, 12] {
        let sc = Scenario {
            workload: Workload::Dags {
                config,
                count: dags,
            },
            ..builtin.clone()
        };
        for mutation in [ProtocolMutation::None, ProtocolMutation::DoubleSpeculate] {
            for base in DAG_ROOTS {
                for i in 0..4 {
                    let seed = SeedSequence::new(base).seed_for(i);
                    let out = sc.run(&Run {
                        mutation,
                        ..Run::sim(seed)
                    });
                    let mut launches = String::new();
                    for e in out.log().events() {
                        if let SchedEventKind::SpecLaunch { root, task } = e.kind {
                            let job = e.job.expect("SpecLaunch names the replica");
                            write!(launches, " {:?}/{}.{task}/{}", e.at, root.0, job.0).unwrap();
                        }
                    }
                    writeln!(
                        actual,
                        "{} dags={dags} {mutation:?} seed={seed:#x}: {}, re-pushed: {}, \
                         tasks: {}, launches:{launches}",
                        sc.name,
                        log_digest(out.log()),
                        log_digest(&repushed(out.log())),
                        task_digest(task_entries(out.log())),
                    )
                    .unwrap();
                }
            }
        }
    }
}

/// The rows of one (root, iteration) for the non-DAG builtins, in the
/// recorded order: single-master job lists first, then federations,
/// then the replicated data plane. Each run is the one the explorer
/// makes at that iteration: a net seed only where links are lossy or
/// gossip is seeded, a crash index into the first half of a reference
/// run's log.
fn builtin_rows(actual: &mut String, builtins: &[Scenario], root: u64, i: u64) {
    let seeds = SeedSequence::new(root);
    let plain = ReplayTuple {
        run: seeds.seed_for(i),
        chaos: None,
        net: None,
        membership: Some(seeds.seed_for(0x4D42_0000 + i)),
        crash_index: None,
    };
    let seeded_net = ReplayTuple {
        net: Some(seeds.seed_for(0x4E37_0000 + i)),
        ..plain
    };
    let reliable = ExploreConfig::sim(1, root);
    let lossy = ExploreConfig::sim(1, root).lossy();
    let mut row = |sc: &Scenario, variant: &str, run: Run| {
        let out = sc.run(&run);
        writeln!(
            actual,
            "{} {variant} root={root:#x} i={i}: {}",
            sc.name,
            log_digest(out.log())
        )
        .unwrap();
    };
    let crashed = |sc: &Scenario| {
        let bound = (sc.run(&Run::sim(root)).log().len() as u64 / 2).max(2);
        reliable.run(&ReplayTuple {
            crash_index: Some(1 + seeds.seed_for(0xFA11_0000 + i) % bound),
            ..plain
        })
    };
    for sc in builtins.iter().filter(|s| s.is_plain()) {
        row(sc, "plain", reliable.run(&plain));
        row(sc, "lossy", lossy.run(&seeded_net));
        row(sc, "crash", crashed(sc));
    }
    for sc in builtins.iter().filter(|s| s.federation.is_some()) {
        row(sc, "plain", reliable.run(&seeded_net));
    }
    for sc in builtins.iter().filter(|s| s.replication.is_some()) {
        row(sc, "plain", reliable.run(&plain));
        row(sc, "lossy", lossy.run(&seeded_net));
        row(sc, "crash", crashed(sc));
    }
}

#[test]
fn sim_dag_decisions_match_golden() {
    let builtins = Scenario::builtins();
    let mut dag = String::new();
    for builtin in &builtins {
        if matches!(builtin.workload, Workload::Dags { .. }) {
            dag_rows(&mut dag, builtin);
        }
    }
    let mut rest = String::new();
    for root in ROOTS {
        for i in 0..2 {
            builtin_rows(&mut rest, &builtins, root, i);
        }
    }
    for ((file, golden), actual) in GOLDEN.into_iter().zip([dag, rest]) {
        if std::env::var_os("BLESS_GOLDEN").is_some() {
            std::fs::write(format!("{GOLDEN_DIR}{file}"), &actual).expect("bless golden file");
            continue;
        }
        assert_eq!(
            actual, golden,
            "sim runs diverged from tests/golden/{file};\n\
             re-bless with BLESS_GOLDEN=1 only if the protocol was meant to change."
        );
    }
}
