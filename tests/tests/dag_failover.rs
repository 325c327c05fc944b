//! DAG scenarios × master failover: the axis no other golden crosses.
//!
//! `dag_failover_decisions.txt` pins, for both DAG builtins on seeds 1
//! and 2, the whole scheduler log of a sim run whose leader dies at
//! one append index — one row per index. It was recorded before the
//! master's ledger was moved into `MasterCore`, over every index whose
//! run then completed cleanly with no `TaskAssign` lost to the crash
//! (a lost `TaskOffer` never completed cleanly), so it is the proof
//! that neither the move nor the crash-recovery fix that followed
//! touched a run in which neither of the two truncated; it was
//! re-blessed by the same rule when a cancelled speculative replica
//! stopped being placed. The clean runs left out lost a `TaskAssign`
//! and were rescued by speculation;
//! they are among the runs the fix exists to change, and
//! `every_single_master_crash_completes_every_dag` holds them — and
//! every other index — to the oracle. A row names its crash index and
//! the test recomputes exactly the rows the file holds. To regenerate after an intentional protocol change (sweeps
//! every index and keeps the rows just described; use `--release`):
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --release -p crossbid-integration --test dag_failover
//! ```

use std::collections::HashSet;
use std::fmt::Write;
use std::sync::mpsc;
use std::time::Duration;

use crossbid_checker::{ExploreConfig, Outcome, ReplayTuple, Run, Scenario};
use crossbid_crossflow::{MasterFaultPlan, SchedEventKind, SchedLog};
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

/// Does every placement of a task job carry its `TaskAssign`? Entries
/// about one job keep their emission order, so the annotation is the
/// job's next entry — unless the leader died appending it.
fn placements_annotated(log: &SchedLog) -> bool {
    let mut task_jobs = HashSet::new();
    let mut awaiting = HashSet::new();
    for e in log.events() {
        let Some(job) = e.job else { continue };
        match e.kind {
            SchedEventKind::TaskOffer { .. } | SchedEventKind::SpecLaunch { .. } => {
                task_jobs.insert(job);
            }
            SchedEventKind::TaskAssign { .. } => {
                awaiting.remove(&job);
            }
            _ if awaiting.contains(&job) => return false,
            SchedEventKind::Offered | SchedEventKind::Assigned if task_jobs.contains(&job) => {
                awaiting.insert(job);
            }
            _ => {}
        }
    }
    awaiting.is_empty()
}

/// One row for every crash index of every (builtin, seed) whose run
/// completes everything with zero violations and lost no `TaskAssign`
/// — what `BLESS_GOLDEN` records.
fn bless() -> String {
    let mut rows = String::new();
    for name in DAG_BUILTINS {
        let sc = Scenario::builtin(name);
        for seed in SEEDS {
            let len = sc.run(&Run::sim(seed)).log().len() as u64;
            for crash in 1..=len {
                let run = std::panic::catch_unwind(|| crashed_run(&sc, seed, crash));
                let Ok(out) = run else { continue };
                if out.completed == out.expected
                    && out.violations(false).is_empty()
                    && placements_annotated(out.log())
                {
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
/// completes, zero violations, no placement without its annotation.
fn sweep_every_crash_index(names: &[&str]) {
    for name in names {
        let sc = Scenario::builtin(name);
        for seed in SEEDS {
            let len = sc.run(&Run::sim(seed)).log().len() as u64;
            for crash in 1..=len {
                let out = crashed_run(&sc, seed, crash);
                let what = format!("{name} seed {seed} crash index {crash}");
                assert_clean(&what, &out);
                assert!(placements_annotated(out.log()), "{what}");
            }
        }
    }
}

/// A master crash must not lose or strand a DAG task, wherever in the
/// decision stream the leader dies: a `TaskOffer` that truncated is
/// re-released by the standby (also when it was the only trace of an
/// arriving DAG), and a `TaskAssign` stands with the
/// `Assigned`/`Offered` it annotates. Before the fix 40 + 40 of
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
/// tasks, and a whole DAG vanishing with zero violations.
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
        (&crashed, tuple(9327055504730540221, None, 29)),
        (&crashed, tuple(16199927058392662073, None, 80)),
        (
            &crashed.clone().lossy(),
            tuple(14729376638851336262, Some(2606666247273721081), 16),
        ),
    ] {
        let out = sc.run(&config.run(&tuple));
        assert_eq!(out.log().failovers(), 1, "{tuple}: the crash fired");
        assert_clean(&tuple.to_string(), &out);
    }
}

/// The threaded master inherits the same ledger and had the same hole:
/// at these crash indices (`Run::threaded(7)`) it lost tasks or never
/// returned. Each case runs behind a wall-clock watchdog, so a
/// regression fails here instead of hanging the suite.
#[test]
fn threaded_master_crashes_that_lost_or_hung_dags_complete() {
    const WATCHDOG: Duration = Duration::from_secs(15);
    let cases: [(&str, &[u64]); 2] = [
        (
            "dag_skewed_reduce",
            &[6, 12, 87, 96, 24, 36, 48, 60, 72, 84],
        ),
        ("dag_straggler", &[30, 36, 57, 63, 69, 45, 72, 93, 99, 111]),
    ];
    for (name, crashes) in cases {
        for &crash in crashes {
            let (done, result) = mpsc::channel();
            std::thread::spawn(move || {
                let out = Scenario::builtin(name).run(&Run {
                    master: Some(MasterFaultPlan::new().crash_at(crash)),
                    ..Run::threaded(7)
                });
                let _ = done.send((out.completed, out.expected, out.violations(false)));
            });
            let what = format!("{name} on threads, crash index {crash}");
            let (completed, expected, violations) = result
                .recv_timeout(WATCHDOG)
                .unwrap_or_else(|_| panic!("{what}: no result within {WATCHDOG:?}"));
            assert_eq!(completed, expected, "{what}: tasks lost");
            assert!(violations.is_empty(), "{what}: {violations:?}");
        }
    }
}
