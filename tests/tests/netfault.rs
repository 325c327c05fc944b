//! Focused lossy-link regressions that the broad `repro netfault`
//! sweep only covers incidentally:
//!
//! - duplicate-intake guards: at-least-once delivery replays `Idle`
//!   heartbeats and `Reject` answers, and the master must treat the
//!   replay as old news (no double idle-pool insert, no double
//!   re-offer advance);
//! - determinism: a sim run under a lossy plan must replay
//!   byte-identically from its `(run seed, net seed)` pair, because
//!   that pair is the replay recipe every failure report prints. These
//!   tests hand `Run` an arbitrary `NetFaultPlan` value, not a seed.

use crossbid_checker::{ExploreConfig, Outcome, ReplayTuple, Run, Scenario};
use crossbid_crossflow::{LinkFault, NetFaultPlan};

/// A plan that barely drops but duplicates aggressively in both
/// directions: the worst case for intake-side dedup (replayed `Idle`,
/// `Reject`, bids and `Done`) while keeping delivery near-certain so
/// every scenario still has to complete.
fn dup_heavy_plan(seed: u64) -> NetFaultPlan {
    let link = LinkFault {
        drop_prob: 0.05,
        dup_prob: 0.9,
        delay_min_secs: 0.0,
        delay_max_secs: 0.02,
    };
    NetFaultPlan {
        to_worker: link,
        to_master: link,
        seed,
        ..NetFaultPlan::none()
    }
}

fn plain_builtins() -> Vec<Scenario> {
    Scenario::builtins_where(Scenario::is_plain)
}

/// Every job completed exactly once and the oracle is clean.
fn assert_exactly_once(sc: &Scenario, out: &Outcome, what: &str) {
    assert_eq!(
        out.completed, out.expected,
        "{} {what}: {}/{} jobs completed",
        sc.name, out.completed, out.expected
    );
    let violations = out.violations(false);
    assert!(violations.is_empty(), "{} {what}: {violations:?}", sc.name);
}

fn counter(out: &Outcome, name: &str) -> u64 {
    out.masters[0]
        .metrics
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Duplicated worker→master traffic (Idle beats, Reject answers,
/// Done reports) must leave every builtin scenario with exactly-once
/// effects on the sim engine. A double idle-pool insert or a double
/// re-offer advance surfaces as an oracle violation or a wrong
/// completion count.
#[test]
fn dup_heavy_links_keep_sim_exactly_once() {
    for sc in plain_builtins() {
        for seed in [11u64, 12, 13] {
            let out = sc.run(&Run {
                net: Some(dup_heavy_plan(seed ^ 0xD0D0)),
                ..Run::sim(seed)
            });
            assert_exactly_once(&sc, &out, &format!("seed {seed} under dup-heavy links"));
            assert!(
                counter(&out, "net/duplicated") > 0,
                "{} seed {seed}: the dup axis never fired, test proves nothing",
                sc.name
            );
        }
    }
}

/// Same property on the threaded runtime, where replays arrive over
/// real channels and the intake guards (not the sim's event order) do
/// the work.
#[test]
fn dup_heavy_links_keep_threaded_exactly_once() {
    for sc in plain_builtins() {
        let run_seed = 0x1D1E;
        let out = sc.run(&Run {
            net: Some(dup_heavy_plan(run_seed ^ 0x4E37)),
            ..Run::threaded(run_seed)
        });
        assert_exactly_once(&sc, &out, "threaded under dup-heavy links");
    }
}

/// Constant-delay links (no drops, no duplicates): every message
/// survives but sits in a delayed buffer first, so the run leans
/// entirely on the drain loops that release matured traffic.
/// Regression for an order-stability bug: those loops used
/// `swap_remove`, which let equally-due messages overtake each other
/// in the buffer — out-of-order offers and acks that made recorded
/// (run seed, net seed) pairs unreplayable. Every builtin scenario
/// must stay exactly-once and oracle-clean on both runtimes.
#[test]
fn constant_delay_links_stay_exactly_once() {
    let link = LinkFault {
        drop_prob: 0.0,
        dup_prob: 0.0,
        delay_min_secs: 0.01,
        delay_max_secs: 0.01,
    };
    let plan = || NetFaultPlan {
        to_worker: link,
        to_master: link,
        seed: 0xDE1A,
        ..NetFaultPlan::none()
    };
    for sc in plain_builtins() {
        let on = |run: Run| {
            sc.run(&Run {
                net: Some(plan()),
                ..run
            })
        };
        let sim = on(Run::sim(9));
        assert_exactly_once(&sc, &sim, "sim under constant-delay links");
        // And the replay contract holds: the identical run again.
        let again = on(Run::sim(9));
        assert_eq!(
            format!("{:?}", sim.log()),
            format!("{:?}", again.log()),
            "{}: constant-delay sim run did not replay",
            sc.name
        );
        let thr = on(Run::threaded(9));
        assert_exactly_once(&sc, &thr, "threaded under constant-delay links");
    }
}

/// Lossy links × a worker crash, as the explorer's lossy sweep found
/// them failing on the sim (run seed, net seed; no membership seed):
/// a completed job placed again after a lease bounce, its lease then
/// expiring after the completion (`crash_recovery_baseline`, first
/// tuple); a crash bouncing a queued copy the lease had already
/// re-placed, so the job sat on two workers (second tuple); an acked
/// job whose `Done` was lost before its worker crashed, reclaimed by
/// nothing, spinning on idle beats until `max_events` (the other
/// five). Each must now finish exactly once with a clean oracle.
#[test]
fn explorer_found_lossy_crash_tuples_stay_fixed() {
    let lossy = ExploreConfig::sim(1, 0).lossy();
    for (name, run, net) in [
        (
            "crash_recovery_baseline",
            13419059136936964865,
            13362142782195284432,
        ),
        (
            "crash_recovery_baseline",
            7601735556280002719,
            14830660613283658897,
        ),
        ("repl_f2_crash", 2892873845875221695, 14224035449882349672),
        ("repl_f2_crash", 3888498697243097527, 12451952596161833397),
        (
            "repl_f2_lossy_crash_baseline",
            1567157793109054806,
            6929787012774430079,
        ),
        (
            "repl_f2_lossy_crash_baseline",
            17160485084056317092,
            975373179738077847,
        ),
        (
            "repl_f2_lossy_crash_baseline",
            4589412138215233771,
            6567106407877835467,
        ),
    ] {
        let sc = Scenario::builtin(name);
        let tuple = ReplayTuple {
            run,
            chaos: None,
            net: Some(net),
            membership: None,
            crash_index: None,
        };
        let out = sc.run(&lossy.run(&tuple));
        assert_exactly_once(&sc, &out, &tuple.to_string());
    }
}

/// A lossy sim run is part of the replay contract: same run seed +
/// same net plan must reproduce the identical control-plane log and
/// reliability counters, or the seeds printed in failure reports are
/// worthless.
#[test]
fn lossy_sim_runs_replay_byte_identically() {
    for sc in plain_builtins() {
        let lossy = || {
            let plan = NetFaultPlan::lossy(0xACE, 0.3, 0.15).with_partition(
                None,
                crossbid_simcore::SimTime::from_secs(2),
                crossbid_simcore::SimTime::from_secs(4),
            );
            sc.run(&Run {
                net: Some(plan),
                ..Run::sim(42)
            })
        };
        let (a, b) = (lossy(), lossy());
        assert_eq!(
            format!("{:?}", a.log()),
            format!("{:?}", b.log()),
            "{}: two identical lossy runs diverged",
            sc.name
        );
        assert_eq!(
            a.masters[0].metrics.counters, b.masters[0].metrics.counters,
            "{}: reliability counters diverged between identical runs",
            sc.name
        );
    }
}
