//! DAG scenarios × master failover: the axis no other golden crosses.
//!
//! `dag_failover_decisions.txt` pins, for both DAG builtins on seeds 1
//! and 2, the whole scheduler log of a sim run whose leader dies at
//! one append index: one row per index whose run completes everything
//! with zero violations, which is every index up to the length of the
//! fault-free run's log (812 rows). It was first recorded, before the
//! master's ledger moved into `MasterCore`, over the clean runs that
//! lost no placement annotation to the crash (932 rows), stayed
//! byte-identical through the move and the crash-recovery fix, and was
//! re-blessed when a cancelled speculative replica stopped being placed
//! (1 127 rows) and when a task's bids and placements stopped being
//! logged twice (812). `every_single_master_crash_completes_every_dag`
//! holds every index to the oracle as well. A row names its crash
//! index and the test recomputes exactly the rows the file holds. To
//! regenerate after an intentional protocol change (sweeps every index
//! and keeps the rows just described; use `--release`):
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --release -p crossbid-integration --test dag_failover
//! ```

use std::fmt::Write;
use std::sync::mpsc;
use std::time::Duration;

use crossbid_checker::{ExploreConfig, Outcome, ReplayTuple, Run, Scenario};
use crossbid_crossflow::MasterFaultPlan;
use crossbid_integration::log_digest;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/golden/dag_failover_decisions.txt"
);
const GOLDEN: &str = include_str!("../golden/dag_failover_decisions.txt");

const DAG_BUILTINS: [&str; 2] = ["dag_straggler", "dag_skewed_reduce"];
const SEEDS: [u64; 2] = [1, 2];

/// One sim run of `sc` whose leader dies at append index `crash`.
fn crashed_run(sc: &Scenario, seed: u64, crash: u64) -> Outcome {
    sc.run(&Run {
        master: Some(MasterFaultPlan::new().crash_at(crash)),
        ..Run::sim(seed)
    })
}

fn row(sc: &Scenario, seed: u64, crash: u64, out: &Outcome) -> String {
    format!(
        "{} seed={seed} crash={crash}: {}",
        sc.name,
        log_digest(out.log())
    )
}

/// One row for every crash index of every (builtin, seed) whose run
/// completes everything with zero violations — what `BLESS_GOLDEN`
/// records.
fn bless() -> String {
    let mut rows = String::new();
    for name in DAG_BUILTINS {
        let sc = Scenario::builtin(name);
        for seed in SEEDS {
            let len = sc.run(&Run::sim(seed)).log().len() as u64;
            for crash in 1..=len {
                let run = std::panic::catch_unwind(|| crashed_run(&sc, seed, crash));
                let Ok(out) = run else { continue };
                if out.completed == out.expected && out.violations(false).is_empty() {
                    writeln!(rows, "{}", row(&sc, seed, crash, &out)).unwrap();
                }
            }
        }
    }
    rows
}

#[test]
fn dag_failover_decisions_match_golden() {
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, bless()).expect("bless golden file");
        return;
    }
    assert!(!GOLDEN.is_empty(), "the golden file pins no run");
    for line in GOLDEN.lines() {
        let (key, _) = line.split_once(':').expect("row is `key: digest`");
        let mut fields = key.split(' ');
        let name = fields.next().expect("scenario name");
        let mut number = |prefix: &str| -> u64 {
            let field = fields.next().expect("row names its seed and crash index");
            let value = field.strip_prefix(prefix).expect("field prefix");
            value.parse().expect("decimal field")
        };
        let (seed, crash) = (number("seed="), number("crash="));
        let sc = Scenario::builtin(name);
        let out = crashed_run(&sc, seed, crash);
        assert_eq!(
            row(&sc, seed, crash, &out),
            line,
            "a sim run under a master crash diverged from \
             tests/golden/dag_failover_decisions.txt"
        );
        assert_eq!(out.log().failovers(), 1, "{key}: the crash fired");
        assert_clean(key, &out);
    }
}

fn assert_clean(what: &str, out: &Outcome) {
    assert_eq!(out.completed, out.expected, "{what}: tasks lost");
    let violations = out.violations(false);
    assert!(violations.is_empty(), "{what}: {violations:?}");
}

/// Every single-crash index of `names` on seeds 1 and 2: everything
/// completes, with zero violations.
fn sweep_every_crash_index(names: &[&str]) {
    for name in names {
        let sc = Scenario::builtin(name);
        for seed in SEEDS {
            let len = sc.run(&Run::sim(seed)).log().len() as u64;
            for crash in 1..=len {
                let out = crashed_run(&sc, seed, crash);
                assert_clean(&format!("{name} seed {seed} crash index {crash}"), &out);
            }
        }
    }
}

/// A master crash must not lose or strand a DAG task, wherever in the
/// decision stream the leader dies: a `TaskOffer` that truncated is
/// re-released by the standby (also when it was the only trace of an
/// arriving DAG). Before the fix 40 + 40 of
/// `dag_straggler`'s indices and 36 + 36 of `dag_skewed_reduce`'s lost
/// tasks, livelocked, or silently dropped a whole DAG.
#[test]
fn every_single_master_crash_completes_every_dag() {
    sweep_every_crash_index(&DAG_BUILTINS);
}

/// The plain-job half of the same ledger survived every single crash
/// before the fix and must keep doing so.
#[test]
fn every_single_master_crash_completes_every_plain_job() {
    sweep_every_crash_index(&["hot_repo_bidding", "reject_once_baseline"]);
}

/// The three explorer tuples that found the hole: a livelock, two lost
/// tasks, and a whole DAG vanishing with zero violations. Their crash
/// indices were 29, 80 and 16 while every task bid and placement had
/// an annotation entry of its own; they are renumbered to hit the same
/// entries without them (index 29 hit a placement's annotation and now
/// hits the append after the placement).
#[test]
fn explorer_found_dag_crashes_stay_fixed() {
    let sc = Scenario::builtin("dag_straggler");
    let crashed = ExploreConfig::sim(1, 0).master_crash();
    let tuple = |run, net, crash_index| ReplayTuple {
        run,
        chaos: None,
        net,
        membership: None,
        crash_index: Some(crash_index),
    };
    for (config, tuple) in [
        (&crashed, tuple(9327055504730540221, None, 22)),
        (&crashed, tuple(16199927058392662073, None, 67)),
        (
            &crashed.clone().lossy(),
            tuple(14729376638851336262, Some(2606666247273721081), 12),
        ),
    ] {
        let out = sc.run(&config.run(&tuple));
        assert_eq!(out.log().failovers(), 1, "{tuple}: the crash fired");
        assert_clean(&tuple.to_string(), &out);
    }
}

/// The threaded master inherits the same ledger and had the same hole:
/// at these crash indices (`Run::threaded(7)`) it lost tasks or never
/// returned. They are renumbered like the explorer's tuples above; an
/// index that hit a placement's annotation now hits the append after
/// the placement, and where thread timing moved the entry an index
/// hit, it names the entry most runs hit. Each case runs behind a
/// wall-clock watchdog, so a regression fails here instead of hanging
/// the suite, and must see its crash fire.
#[test]
fn threaded_master_crashes_that_lost_or_hung_dags_complete() {
    const WATCHDOG: Duration = Duration::from_secs(15);
    let cases: [(&str, &[u64]); 2] = [
        (
            "dag_skewed_reduce",
            &[6, 12, 57, 66, 20, 27, 34, 41, 48, 55],
        ),
        ("dag_straggler", &[22, 28, 46, 50, 56, 37, 58, 74, 79, 90]),
    ];
    for (name, crashes) in cases {
        for &crash in crashes {
            let (done, result) = mpsc::channel();
            std::thread::spawn(move || {
                let out = Scenario::builtin(name).run(&Run {
                    master: Some(MasterFaultPlan::new().crash_at(crash)),
                    ..Run::threaded(7)
                });
                let _ = done.send((
                    out.log().failovers(),
                    out.completed,
                    out.expected,
                    out.violations(false),
                ));
            });
            let what = format!("{name} on threads, crash index {crash}");
            let (failovers, completed, expected, violations) = result
                .recv_timeout(WATCHDOG)
                .unwrap_or_else(|_| panic!("{what}: no result within {WATCHDOG:?}"));
            assert_eq!(failovers, 1, "{what}: the crash fired");
            assert_eq!(completed, expected, "{what}: tasks lost");
            assert!(violations.is_empty(), "{what}: {violations:?}");
        }
    }
}
