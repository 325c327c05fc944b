//! Golden-file test pinning what the atomizer *decides* on the sim
//! engine: on every seed the DAG explorer sweeps in CI (and on the
//! same scenarios made longer), the straggler sweep launches the same
//! speculative replicas at the same instants, and the whole scheduler
//! log — offers, placements, evictions it caused, cancellations — is
//! the one recorded.
//!
//! `DagState`'s sweep and `LocalStore`'s eviction order are indexed
//! structures standing in for a full walk and a full scan; the file
//! was recorded with the walk and the scan, so it is the differential
//! test of the two at the level of whole runs. The sim is
//! deterministic in the seed, so any difference is a changed decision.
//!
//! To regenerate after an intentional protocol change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p crossbid-integration --test dag_decisions_golden
//! ```

use std::fmt::Write;

use crossbid_checker::DagScenario;
use crossbid_crossflow::{ProtocolMutation, SchedEventKind};
use crossbid_simcore::SeedSequence;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/dag_decisions.txt");
const GOLDEN: &str = include_str!("../golden/dag_decisions.txt");

/// The root seeds of the two CI sweeps: `schedule_space.rs` and
/// `repro atomize`.
const SWEEP_SEEDS: [u64; 2] = [0xDA61, 0xA70];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash = (*hash ^ *b as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn sim_dag_decisions_match_golden() {
    let mut actual = String::new();
    for builtin in DagScenario::builtins() {
        for dags in [builtin.dags, 12] {
            let sc = DagScenario {
                dags,
                ..builtin.clone()
            };
            for mutation in [ProtocolMutation::None, ProtocolMutation::DoubleSpeculate] {
                for base in SWEEP_SEEDS {
                    for i in 0..4 {
                        let seed = SeedSequence::new(base).seed_for(i);
                        let log = sc.run_sim(seed, mutation).sched_log;
                        let mut hash = 0xcbf2_9ce4_8422_2325;
                        let mut launches = String::new();
                        for e in log.events() {
                            fnv1a(&mut hash, format!("{e:?}").as_bytes());
                            if let SchedEventKind::SpecLaunch { root, task } = e.kind {
                                let job = e.job.expect("SpecLaunch names the replica");
                                write!(launches, " {:?}/{}.{task}/{}", e.at, root.0, job.0)
                                    .unwrap();
                            }
                        }
                        writeln!(
                            actual,
                            "{} dags={dags} {mutation:?} seed={seed:#x}: {} events, \
                             fnv {hash:016x}, launches:{launches}",
                            sc.name,
                            log.len(),
                        )
                        .unwrap();
                    }
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
        "sim DAG runs diverged from tests/golden/dag_decisions.txt;\n\
         re-bless with BLESS_GOLDEN=1 only if the protocol was meant to change."
    );
}
