//! The checker's tier-1 suite: sweep every built-in scenario through
//! the protocol invariant oracle on both runtimes, and prove the
//! oracle actually catches bugs by reintroducing each protocol fix
//! (a `ProtocolMutation`, armable under `crossbid-crossflow`'s
//! test-only `protocol-mutation` feature) and asserting the explorer
//! finds a violation and prints a replayable repro — the full replay
//! tuple, plus the shrunk scenario and the delivery schedule where the
//! scenario has them. A mutation is checked on the sim wherever the sim
//! can provoke it: chaos (a corrupted or duplicated bid) exists only on
//! threads.
//!
//! Seeds are fixed so CI runs are reproducible; the scheduled
//! extended-exploration workflow sweeps fresh seeds.

use crossbid_checker::{
    explore, explore_builtins, ExploreConfig, ExploreReport, Failure, JobDef, Protocol, Run,
    Scenario, Violation, Workload,
};
use crossbid_crossflow::ProtocolMutation;

/// `CHECKER_ITERS` lets the scheduled CI job deepen the exploration
/// without a code change.
fn sweep_iters(default: u32) -> u32 {
    std::env::var("CHECKER_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn assert_all_pass(reports: Vec<ExploreReport>) {
    assert!(!reports.is_empty(), "the filter selected no builtin");
    for report in reports {
        assert!(report.passed(), "{}", report.render());
    }
}

#[test]
fn correct_protocol_survives_chaos_on_every_builtin_scenario() {
    let cfg = ExploreConfig::threaded(sweep_iters(4), 0xC0FFEE).chaos();
    assert_all_pass(explore_builtins(&cfg, Scenario::is_plain));
}

#[test]
fn correct_protocol_survives_lossy_links_on_every_builtin_scenario() {
    // Chaos *and* net faults together: messages are held, reordered,
    // corrupted, dropped, duplicated, delayed, and a 2-virtual-second
    // full partition cuts both directions mid-run. The reliability
    // layer (acks + seeded retries + leases + dedup) must still land
    // every scenario with exactly-once effects and sim parity.
    let cfg = ExploreConfig::threaded(sweep_iters(3), 0xFEED5EED)
        .chaos()
        .lossy();
    assert_all_pass(explore_builtins(&cfg, Scenario::is_plain));
}

/// A mutated sweep that must fail; returns the rendered report and
/// the failure, after checking the report is a complete repro recipe:
/// the whole replay tuple, with a seed printed for exactly the axes
/// that were armed, the minimal scenario where there is one to
/// shrink, and the recorded interleaving where chaos produced one.
fn caught(sc: &Scenario, cfg: &ExploreConfig) -> (String, Failure) {
    let report = explore(sc, cfg);
    let text = report.render();
    let Some(f) = report.failure else {
        panic!("{}: the mutation must be caught: {text}", report.runtime);
    };
    assert!(text.contains("VIOLATION"), "{text}");
    assert!(text.contains(&f.replay.to_string()), "{text}");
    for label in [
        "run seed",
        "chaos seed",
        "net seed",
        "membership seed",
        "crash index",
    ] {
        assert!(text.contains(label), "replay tuple lacks {label}: {text}");
    }
    let threaded_chaos = cfg.chaos && report.runtime == "threaded";
    assert_eq!(f.replay.chaos.is_some(), threaded_chaos, "{text}");
    assert_eq!(
        f.replay.net.is_some(),
        cfg.net.is_some() || sc.federation.is_some(),
        "{text}"
    );
    assert_eq!(
        f.replay.membership.is_some(),
        sc.federation.is_some_and(|fed| fed.churn),
        "{text}"
    );
    assert_eq!(f.replay.crash_index.is_some(), cfg.master_crash, "{text}");
    if sc.shrinkable() {
        assert!(text.contains("minimal repro"), "{text}");
        assert!(!f.kept_jobs.is_empty());
    }
    if threaded_chaos {
        assert!(
            !f.schedule.is_empty() && text.contains("delivery schedule"),
            "chaos failures must print the recorded interleaving: {text}"
        );
    }
    (text, f)
}

fn chaotic(mutation: ProtocolMutation, iters: u32, seed: u64) -> ExploreConfig {
    ExploreConfig::threaded(iters, seed)
        .chaos()
        .mutated(mutation)
}

#[test]
fn explorer_catches_reintroduced_nonfinite_bid_acceptance() {
    // PR 1 fix: the master drops NaN/∞ bid estimates at intake. The
    // chaos layer corrupts a seeded fraction of bids to NaN, so the
    // mutated master records them — a NonFiniteBid oracle violation.
    let sc = Scenario::builtin("hot_repo_bidding");
    let (text, f) = caught(&sc, &chaotic(ProtocolMutation::AcceptNonFiniteBids, 20, 11));
    assert!(
        f.shows(|v| matches!(v, Violation::NonFiniteBid { .. })),
        "{text}"
    );
    assert!(
        f.kept_jobs.len() < 12,
        "shrinking must drop at least one job: {text}"
    );
}

#[test]
fn explorer_catches_reintroduced_duplicate_bid_acceptance() {
    // PR 1 fix: a second bid from the same worker is ignored. Chaos
    // duplicates messages, so the mutated master records the copy —
    // a DuplicateBid oracle violation.
    let sc = Scenario::builtin("hot_repo_bidding");
    let (text, f) = caught(&sc, &chaotic(ProtocolMutation::AcceptDuplicateBids, 40, 13));
    assert!(
        f.shows(|v| matches!(v, Violation::DuplicateBid { .. })),
        "{text}"
    );
}

#[test]
fn explorer_catches_reintroduced_late_bid_acceptance() {
    // PR 1 fix: bids arriving after their contest closed are ignored.
    // The mutated master lets the late bidder steal the job — visible
    // to the oracle as a bid outside an open contest and/or a second
    // assignment without a contest close.
    let sc = Scenario::builtin("hot_repo_bidding");
    let (text, f) = caught(&sc, &chaotic(ProtocolMutation::AcceptLateBids, 40, 17));
    assert!(
        f.shows(|v| matches!(
            v,
            Violation::BidAfterClose { .. }
                | Violation::AssignmentWithoutBid { .. }
                | Violation::AssignedWhilePlaced { .. }
        )),
        "{text}"
    );
}

fn small_jobs(at_secs: &[f64]) -> Workload {
    Workload::Jobs(
        at_secs
            .iter()
            .map(|&at_secs| JobDef {
                at_secs,
                object: 1,
                bytes: 50_000_000,
            })
            .collect(),
    )
}

#[test]
fn explorer_catches_removed_done_dedup() {
    // Net-fault countermeasure: the master dedups `Done` by job id,
    // because a lost `AckDone` makes the worker retransmit and a lossy
    // link duplicates outright. With the dedup removed, the duplicate
    // delivery double-counts — a CompletedTwice oracle violation.
    // Lossy links armed, chaos off: the net-fault layer supplies the
    // adversity, which keeps the causal chain crisp.
    let sc = Scenario::builtin("hot_repo_bidding");
    for cfg in [ExploreConfig::sim(30, 23), ExploreConfig::threaded(30, 23)] {
        let (text, f) = caught(&sc, &cfg.lossy().mutated(ProtocolMutation::DropDedup));
        assert!(
            f.shows(|v| matches!(v, Violation::CompletedTwice { .. })),
            "{text}"
        );
    }
}

#[test]
fn explorer_catches_ignored_assign_acks() {
    // Net-fault countermeasure: an `AckAssign` cancels the placement's
    // retransmission and lease timers. With acks ignored, the lease on
    // a *confirmed* placement expires while the job executes — a
    // LeaseExpiredAfterAck oracle violation (and typically bounces the
    // job into a double execution the Done dedup then has to absorb).
    let sc = Scenario::builtin("hot_repo_bidding");
    for cfg in [ExploreConfig::sim(10, 29), ExploreConfig::threaded(10, 29)] {
        let (text, f) = caught(&sc, &cfg.lossy().mutated(ProtocolMutation::IgnoreAcks));
        assert!(
            f.shows(|v| matches!(v, Violation::LeaseExpiredAfterAck { .. })),
            "{text}"
        );
    }
}

#[test]
fn missing_leases_lose_jobs_behind_a_partition() {
    // Net-fault countermeasure: the placement lease. A partition that
    // outlives the retransmission budget swallows an assignment and
    // every retry of it; only the lease notices the silence and
    // bounces the job back to the scheduler. Remove the lease
    // (`NoLeases`) and the job is simply gone — a JobLost violation.
    //
    // Deterministic recipe, no random loss: both directions fully
    // partitioned for the run's first 30 virtual seconds, two jobs
    // arriving near t=0. Contest requests and the fallback
    // assignments vanish into the partition, as do all retries (the
    // budget is cut to 2 attempts, ~0.75 s, so even heavy wall-clock
    // scheduling slip — virtual time is wall-clock scaled — cannot
    // push a retransmission past the heal). With leases on, the
    // bounce/re-dispatch loop keeps the job alive until the partition
    // heals and the next dispatch lands it; with leases off, nothing
    // ever does, and each runtime ends the run at its stall horizon.
    use crossbid_crossflow::{NetFaultPlan, RetryPolicy};
    use crossbid_simcore::SimTime;
    let sc = Scenario::new(
        "partitioned_assign_bidding",
        Protocol::Bidding,
        2,
        small_jobs(&[0.0, 0.2]),
    );
    let plan = |seed| {
        NetFaultPlan::lossy(seed, 0.0, 0.0)
            .with_partition(None, SimTime::ZERO, SimTime::from_secs_f64(30.0))
            .with_retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            })
    };
    let run = |mutation: ProtocolMutation, on: Run| {
        sc.run(&Run {
            net: Some(plan(on.seed)),
            mutation,
            ..on
        })
        .violations(false)
    };
    let lost = |v: Vec<(Option<usize>, Violation)>| {
        v.iter()
            .any(|(_, v)| matches!(v, Violation::JobLost { .. }))
    };
    // Contrast: with leases armed the same partition is survivable.
    for on in [Run::sim(31), Run::threaded(31)] {
        let clean = run(ProtocolMutation::None, on);
        assert!(
            clean.is_empty(),
            "leases must ride out the partition: {clean:?}"
        );
    }
    // The sim is deterministic: one run shows the loss.
    let sim = run(ProtocolMutation::NoLeases, Run::sim(37));
    assert!(
        lost(sim),
        "removing leases must lose a partitioned job on the sim"
    );
    // The threaded runtime is nondeterministic; a lucky interleaving
    // could sneak a message around the partition edge, so probe a few
    // seeds and require the loss to show somewhere.
    let caught = (0..5).any(|i| lost(run(ProtocolMutation::NoLeases, Run::threaded(37 + i))));
    assert!(caught, "removing leases must lose a partitioned job");
}

#[test]
fn explorer_catches_reintroduced_reoffer_to_rejector() {
    // PR 1 fix: a rejected job is re-offered to a *different* idle
    // worker. Strict mode is only sound without chaos, so this probe
    // runs deterministic delivery.
    //
    // One non-local job on a three-worker cluster: the correct
    // Baseline walks the offer through w0 → w1 → w2 and only then
    // returns to w0 (reject-once), so a *direct* bounce back to the
    // last rejector is unambiguous — no chaos, no racing jobs. The job
    // arrives once every worker has had time to announce itself idle
    // (20 virtual seconds are 20 real ms at the checker's time scale):
    // a reject that beat another worker's first `Idle` would leave the
    // rejector the only idle worker, and the strict oracle would flag
    // that legal re-offer (ROADMAP 1(e)).
    let sc = Scenario::new(
        "lone_job_baseline",
        Protocol::Baseline,
        3,
        small_jobs(&[20.0]),
    );
    for strict in [ExploreConfig::sim(5, 19), ExploreConfig::threaded(5, 19)] {
        let strict = strict.strict();
        // Contrast: the correct protocol passes the same strict probe.
        let clean = explore(&sc, &strict);
        assert!(clean.passed(), "{}", clean.render());
        let (text, f) = caught(&sc, &strict.mutated(ProtocolMutation::ReofferToRejector));
        assert!(
            f.shows(|v| matches!(v, Violation::ReofferToRejector { .. })),
            "{text}"
        );
    }
}

// ---------------------------------------------------------------------------
// Federation self-validation: each canonical way to break the
// exactly-once cross-shard hand-off must be caught by the federated
// oracle.
// ---------------------------------------------------------------------------

#[test]
fn oracle_catches_a_lost_spill() {
    let sc = Scenario::builtin("fed_2shard_spill");
    for cfg in [
        ExploreConfig::sim(2, 0xFED5EED),
        ExploreConfig::threaded(2, 0xFED5EED),
    ] {
        // Contrast: the correct hand-off passes the same sweep and spills.
        let clean = explore(&sc, &cfg);
        assert!(clean.passed(), "{}", clean.render());
        assert!(clean.activity.spills > 0, "{}", clean.render());

        let (text, f) = caught(&sc, &cfg.mutated(ProtocolMutation::LostSpill));
        assert!(
            f.shows(|v| matches!(
                v,
                Violation::SpillOutWithoutSpillIn { .. } | Violation::JobLost { .. }
            )),
            "{text}"
        );
    }
}

#[test]
fn oracle_catches_a_double_spill() {
    let sc = Scenario::builtin("fed_2shard_spill");
    for cfg in [
        ExploreConfig::sim(2, 0xFED5EED),
        ExploreConfig::threaded(2, 0xFED5EED),
    ] {
        let (text, f) = caught(&sc, &cfg.mutated(ProtocolMutation::DoubleSpill));
        assert!(
            f.shows(|v| matches!(
                v,
                Violation::CompletedTwice { .. } | Violation::CompletedAfterSpillOut { .. }
            )),
            "{text}"
        );
    }
}

// ---------------------------------------------------------------------------
// Atomizer self-validation.
// ---------------------------------------------------------------------------

#[test]
fn correct_atomizer_survives_both_runtimes_on_every_dag_builtin() {
    for cfg in [
        ExploreConfig::sim(sweep_iters(2), 0xDA61),
        ExploreConfig::threaded(sweep_iters(2), 0xDA61),
    ] {
        assert_all_pass(explore_builtins(&cfg, |s| {
            matches!(s.workload, Workload::Dags { .. })
        }));
    }
}

#[test]
fn explorer_catches_reintroduced_dag_gate_removal() {
    // The skewed-reduce DAG has wide fan-in: with the release gate
    // removed every reducer is offered at registration, long before
    // its maps complete — an OfferBeforePredecessor violation on the
    // very first seed.
    let sc = Scenario::builtin("dag_skewed_reduce");
    for cfg in [
        ExploreConfig::sim(4, 0xDA62),
        ExploreConfig::threaded(4, 0xDA62),
    ] {
        let (text, f) = caught(&sc, &cfg.mutated(ProtocolMutation::OfferBeforePredecessor));
        assert!(
            f.shows(|v| matches!(v, Violation::OfferBeforePredecessor { .. })),
            "{text}"
        );
    }
}

#[test]
fn explorer_catches_reintroduced_double_speculation() {
    // With the launched-once guard bypassed, every straggler sweep
    // re-replicates the same slow task — the second committed
    // SpecLaunch is a DuplicateSpeculation violation.
    let sc = Scenario::builtin("dag_straggler");
    for cfg in [
        ExploreConfig::sim(4, 0xDA63),
        ExploreConfig::threaded(4, 0xDA63),
    ] {
        let (text, f) = caught(&sc, &cfg.mutated(ProtocolMutation::DoubleSpeculate));
        assert!(
            f.shows(|v| matches!(v, Violation::DuplicateSpeculation { .. })),
            "{text}"
        );
    }
}

// ---------------------------------------------------------------------------
// Replicated-data-plane self-validation: the canonical ways to break
// the self-healing promise (committing a repair and never copying;
// evicting a sole surviving replica) must be caught on both runtimes.
// ---------------------------------------------------------------------------

#[test]
fn correct_replication_survives_both_runtimes_on_every_repl_builtin() {
    // The master-crash rows: repairs committed before a takeover must
    // still land exactly once under the elected standby.
    for cfg in [
        ExploreConfig::sim(sweep_iters(2), 0x9E97),
        ExploreConfig::sim(sweep_iters(2), 0x9E97).lossy(),
        ExploreConfig::sim(sweep_iters(2), 0x9E97).master_crash(),
        ExploreConfig::threaded(sweep_iters(2), 0x9E97),
        ExploreConfig::threaded(sweep_iters(2), 0x9E97).master_crash(),
    ] {
        assert_all_pass(explore_builtins(&cfg, |s| s.replication.is_some()));
    }
}

#[test]
fn explorer_catches_reintroduced_skipped_repair() {
    // The crash scenario loses worker 0's replicas mid-run, so the
    // master must commit `repair_start` entries. With the copy step
    // sabotaged every committed repair dangles — the oracle's
    // end-of-log RepairNeverCompleted catcher.
    let sc = Scenario::builtin("repl_f2_crash");
    for cfg in [
        ExploreConfig::sim(2, 0x9E98),
        ExploreConfig::threaded(2, 0x9E98),
    ] {
        let (text, f) = caught(&sc, &cfg.mutated(ProtocolMutation::SkipRepair));
        assert!(
            f.shows(|v| matches!(v, Violation::RepairNeverCompleted { .. })),
            "{text}"
        );
    }
}

#[test]
fn explorer_catches_reintroduced_last_copy_eviction() {
    // The eviction-pressure scenario's third insert must pass through
    // (both resident objects are pinned sole copies). With the pin
    // discipline sabotaged the store evicts a last copy instead — an
    // EvictedLastCopy violation at the drop event.
    let sc = Scenario::builtin("repl_f1_evict_pressure");
    for cfg in [
        ExploreConfig::sim(2, 0x9E99),
        ExploreConfig::threaded(2, 0x9E99),
    ] {
        let (text, f) = caught(&sc, &cfg.mutated(ProtocolMutation::EvictLastCopy));
        assert!(
            f.shows(|v| matches!(v, Violation::EvictedLastCopy { .. })),
            "{text}"
        );
    }
}
