//! The explorer: one sweep loop over seed tuples, for every scenario
//! and either runtime.
//!
//! One run explores one point of the schedule space. The explorer
//! sweeps many: for each iteration it derives a fresh [`ReplayTuple`]
//! — run seed, chaos seed, net seed, membership seed, master-crash
//! index, each on its own stream of the root seed so the axes vary
//! independently — runs the scenario under it, feeds every resulting
//! control-plane log to the invariant [`oracle`](crate::oracle), and
//! checks conservation: completions observed against the scenario's
//! own expected count on every run, and on the threaded runtime the
//! submission/completion counters against one deterministic run on the
//! simulation engine. It stops at the first violation and reports the
//! tuple, which is everything needed to replay the run
//! ([`ExploreConfig::run`] turns it back into the [`Run`]).
//!
//! When the scenario is a job list on a single master the failure is
//! also *shrunk*: jobs, then whole workers' fault schedules, are
//! dropped greedily, keeping each removal only if the violation still
//! reproduces, and the report carries the minimal scenario together
//! with the recorded delivery schedule of its failing run. DAG and
//! federated runs have nothing to shrink (tasks are entangled through
//! precedence edges, shards through the routing pre-pass) — there the
//! tuple *is* the repro.
//!
//! The threaded runtime is genuinely nondeterministic, so
//! "reproduces" means "within a few attempts under the same seeds";
//! the shrinker is conservative and keeps anything it cannot confirm
//! removable.

use std::collections::BTreeMap;

use crossbid_crossflow::{
    ChaosConfig, FedRuntimeKind, MasterFaultPlan, NetFaultPlan, ProtocolMutation, WorkerId,
};
use crossbid_simcore::{SeedSequence, SimTime};

use crate::oracle::Violation;
use crate::scenario::{Activity, Outcome, Run, Scenario, Workload};

/// Shrink attempts per removal candidate on the threaded runtime (a
/// violation counts as reproduced if any attempt shows one; the sim is
/// deterministic and needs one).
const REPRO_ATTEMPTS: u32 = 3;

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Seed tuples to sweep per scenario.
    pub iters: u32,
    /// Root seed; every element of every iteration's tuple derives
    /// from it.
    pub base_seed: u64,
    /// Which runtime executes the sweep.
    pub runtime: FedRuntimeKind,
    /// Reintroduced bug, if any (checker self-validation). Turns the
    /// conservation checks off — a mutated run may legitimately lose
    /// or duplicate work, and the oracle is what must notice.
    pub mutation: ProtocolMutation,
    /// Perturb message delivery at every master's intake
    /// (hold/reorder/duplicate/corrupt). Threaded runtime only.
    pub chaos: bool,
    /// Make the links lossy: this plan, re-seeded every iteration,
    /// with the reliability countermeasures armed.
    pub net: Option<NetFaultPlan>,
    /// Crash the master at a seeded log append index each iteration
    /// (bounded by a reference sim run's log length, so the crash
    /// lands mid-protocol); the elected standby must finish the
    /// scenario with exactly-once effects.
    pub master_crash: bool,
    /// Enforce the Baseline's reject-once re-offer routing. Only sound
    /// without chaos (reordering legitimizes re-offers), so the
    /// explorer ignores it whenever `chaos` is on.
    pub strict_reoffer: bool,
    /// Arm each scenario's [`Forcing`](crate::Forcing) plan.
    pub forced: bool,
}

impl ExploreConfig {
    /// An unperturbed sweep of the correct protocol on `runtime`.
    pub fn new(runtime: FedRuntimeKind, iters: u32, base_seed: u64) -> Self {
        ExploreConfig {
            iters,
            base_seed,
            runtime,
            mutation: ProtocolMutation::None,
            chaos: false,
            net: None,
            master_crash: false,
            strict_reoffer: false,
            forced: false,
        }
    }

    /// A deterministic sweep on the simulation engine.
    pub fn sim(iters: u32, base_seed: u64) -> Self {
        ExploreConfig::new(FedRuntimeKind::Sim, iters, base_seed)
    }

    /// A sweep on real threads, delivery otherwise faithful.
    pub fn threaded(iters: u32, base_seed: u64) -> Self {
        ExploreConfig::new(FedRuntimeKind::Threaded, iters, base_seed)
    }

    /// Arm intake chaos.
    pub fn chaos(mut self) -> Self {
        self.chaos = true;
        self
    }

    /// The explorer's standard lossy-link plan (seed 0; every
    /// iteration re-seeds it): moderate symmetric loss and duplication
    /// with small delays, plus one full partition window shorter than
    /// the placement-lease horizon, so every scenario must still
    /// complete with exactly-once effects.
    pub fn lossy_plan() -> NetFaultPlan {
        NetFaultPlan::lossy(0, 0.15, 0.05).with_partition(
            None::<WorkerId>,
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(4.0),
        )
    }

    /// Arm [`lossy_plan`](Self::lossy_plan). With chaos this is the
    /// harshest delivery environment the reliability layer must
    /// survive.
    pub fn lossy(mut self) -> Self {
        self.net = Some(Self::lossy_plan());
        self
    }

    /// Arm the master-crash axis. Crossed with lossy links, the
    /// elected standby inherits in-flight contests, unacked
    /// assignments and pending retries — and must still finish every
    /// job exactly once.
    pub fn master_crash(mut self) -> Self {
        self.master_crash = true;
        self
    }

    /// Reintroduce one bug.
    pub fn mutated(mut self, mutation: ProtocolMutation) -> Self {
        self.mutation = mutation;
        self
    }

    /// Arm the scenarios' forcing plans.
    pub fn forced(mut self) -> Self {
        self.forced = true;
        self
    }

    /// Enforce the Baseline re-offer routing invariant.
    pub fn strict(mut self) -> Self {
        self.strict_reoffer = true;
        self
    }

    /// The run that `tuple` identifies under this configuration.
    pub fn run(&self, tuple: &ReplayTuple) -> Run {
        Run {
            chaos: tuple.chaos.map(ChaosConfig::aggressive),
            net: tuple.net.map(|seed| NetFaultPlan {
                seed,
                ..self.net.clone().unwrap_or_else(NetFaultPlan::none)
            }),
            master: tuple
                .crash_index
                .map(|ix| MasterFaultPlan::new().crash_at(ix)),
            membership_seed: tuple.membership.unwrap_or(tuple.run),
            mutation: self.mutation,
            forced: self.forced,
            ..Run::new(self.runtime, tuple.run)
        }
    }
}

/// The seeds (and crash point) that replay one run of a scenario
/// exactly on the simulation engine, and re-arm the identical fault
/// schedule on the threaded runtime. `None` = that axis was not armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayTuple {
    /// Run seed (per-shard runtime seeds derive from it).
    pub run: u64,
    /// Threaded intake chaos.
    pub chaos: Option<u64>,
    /// Every drop, duplicate and delay draw of the lossy-link plan,
    /// and a federation's gossip-loss draws.
    pub net: Option<u64>,
    /// Every shard's churn schedule.
    pub membership: Option<u64>,
    /// 1-based log append attempt at which the master is crashed.
    pub crash_index: Option<u64>,
}

impl std::fmt::Display for ReplayTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let or_dash = |s: Option<u64>| s.map_or("-".into(), |s| s.to_string());
        write!(
            f,
            "run seed {}, chaos seed {}, net seed {}, membership seed {}, crash index {}",
            self.run,
            or_dash(self.chaos),
            or_dash(self.net),
            or_dash(self.membership),
            or_dash(self.crash_index),
        )
    }
}

/// A failing run, minimized where the scenario allows it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Iteration index at which the violation first appeared.
    pub iteration: u32,
    /// The replay tuple of the failing run.
    pub replay: ReplayTuple,
    /// Violations observed in the (minimal) repro, each tagged with
    /// the shard whose own log showed it (`None` = the whole run's
    /// log: the single master's, or the merged federation log).
    pub violations: Vec<(Option<usize>, Violation)>,
    /// Job indices of the minimal repro (empty when the scenario has
    /// nothing to shrink).
    pub kept_jobs: Vec<usize>,
    /// Workers whose fault schedules the minimal repro still needs.
    pub kept_fault_workers: Vec<u32>,
    /// The recorded delivery schedule of the failing run (empty when
    /// chaos was off).
    pub schedule: String,
}

impl Failure {
    /// Did any log show a violation matching `pred`?
    pub fn shows(&self, pred: impl Fn(&Violation) -> bool) -> bool {
        self.violations.iter().any(|(_, v)| pred(v))
    }
}

/// Result of exploring one scenario.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Scenario name.
    pub scenario: String,
    /// Protocol name.
    pub protocol: String,
    /// Which runtime ran the sweep.
    pub runtime: &'static str,
    /// Seed tuples actually run (stops early on failure).
    pub iterations_run: u32,
    /// Activity observed across the sweep, for [`Demand`]s to read.
    ///
    /// [`Demand`]: crate::scenario::Demand
    pub activity: Activity,
    /// Registry counters summed over every master of every run (the
    /// reliability layer's `net/…`, `acks/…`, `lease/…` among them).
    pub counters: BTreeMap<String, u64>,
    /// Conservation mismatches: expected vs observed completions, and
    /// threaded counters vs the simulation run.
    pub parity_mismatches: Vec<String>,
    /// The first failing run, if any iteration violated an invariant.
    pub failure: Option<Failure>,
}

impl ExploreReport {
    /// No violations and no conservation mismatches.
    pub fn passed(&self) -> bool {
        self.failure.is_none() && self.parity_mismatches.is_empty()
    }

    /// Human-readable report; on failure this is the full repro
    /// recipe (replay tuple, plus minimal scenario and delivery
    /// schedule where they exist).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} [{} on {}]: {} run(s){}",
            self.scenario, self.protocol, self.runtime, self.iterations_run, self.activity
        );
        if self.passed() {
            out.push_str(" — ok\n");
            return out;
        }
        out.push('\n');
        for m in &self.parity_mismatches {
            out.push_str(&format!("  parity: {m}\n"));
        }
        if let Some(f) = &self.failure {
            out.push_str(&format!(
                "  VIOLATION at iteration {} on the {} runtime ({})\n",
                f.iteration, self.runtime, f.replay
            ));
            for (shard, v) in &f.violations {
                match shard {
                    Some(s) => out.push_str(&format!("    shard {s}: {v}\n")),
                    None => out.push_str(&format!("    {v}\n")),
                }
            }
            if !f.kept_jobs.is_empty() {
                out.push_str(&format!(
                    "  minimal repro: jobs {:?}, faulted workers {:?}\n",
                    f.kept_jobs, f.kept_fault_workers
                ));
            }
            if !f.schedule.is_empty() {
                out.push_str("  delivery schedule of the failing run:\n");
                for line in f.schedule.lines() {
                    out.push_str(&format!("    {line}\n"));
                }
            }
        }
        out
    }
}

type Found = Vec<(Option<usize>, Violation)>;

/// One attempt: run (capturing the delivery schedule when chaos is
/// armed) + oracle.
fn attempt(sc: &Scenario, cfg: &ExploreConfig, run: &Run) -> (Outcome, Found, String) {
    let mut run = run.clone();
    let handle = run.chaos.take().map(|c| {
        let (c, h) = c.with_delivery_log();
        run.chaos = Some(c);
        h
    });
    let out = sc.run(&run);
    let violations = out.violations(cfg.strict_reoffer && !cfg.chaos);
    let schedule = handle.map(|h| h.lock().render()).unwrap_or_default();
    (out, violations, schedule)
}

/// Does the violation reproduce under this (shrunk) run?
fn reproduces(sc: &Scenario, cfg: &ExploreConfig, run: &Run) -> bool {
    let attempts = match cfg.runtime {
        FedRuntimeKind::Sim => 1,
        FedRuntimeKind::Threaded => REPRO_ATTEMPTS,
    };
    (0..attempts).any(|_| !attempt(sc, cfg, run).1.is_empty())
}

/// Greedy delta-debugging: drop jobs one at a time, then whole
/// workers' fault schedules, keeping each removal only if the
/// violation still reproduces.
fn shrink(sc: &Scenario, cfg: &ExploreConfig, seed_run: &Run) -> (Vec<usize>, Vec<u32>) {
    let n_jobs = match &sc.workload {
        Workload::Jobs(jobs) => jobs.len(),
        Workload::Dags { .. } => 0,
    };
    let mut jobs: Vec<usize> = (0..n_jobs).collect();
    for candidate in (0..n_jobs).rev() {
        if jobs.len() == 1 {
            break;
        }
        let trial: Vec<usize> = jobs.iter().copied().filter(|j| *j != candidate).collect();
        let run = Run {
            keep_jobs: Some(trial.clone()),
            ..seed_run.clone()
        };
        if reproduces(sc, cfg, &run) {
            jobs = trial;
        }
    }
    let mut fault_workers = sc.faulted_workers();
    for candidate in sc.faulted_workers() {
        let trial: Vec<u32> = fault_workers
            .iter()
            .copied()
            .filter(|w| *w != candidate)
            .collect();
        let run = Run {
            keep_jobs: Some(jobs.clone()),
            keep_fault_workers: Some(trial.clone()),
            ..seed_run.clone()
        };
        if reproduces(sc, cfg, &run) {
            fault_workers = trial;
        }
    }
    (jobs, fault_workers)
}

/// Sweep `cfg.iters` seed tuples of `sc`. Stops at (and, where the
/// scenario allows, shrinks) the first violation.
pub fn explore(sc: &Scenario, cfg: &ExploreConfig) -> ExploreReport {
    let threaded = cfg.runtime == FedRuntimeKind::Threaded;
    let clean = cfg.mutation.is_none();
    let mut report = ExploreReport {
        scenario: sc.name.to_string(),
        protocol: sc.protocol.name().to_string(),
        runtime: if threaded { "threaded" } else { "sim" },
        iterations_run: 0,
        activity: Activity::default(),
        counters: BTreeMap::new(),
        parity_mismatches: Vec::new(),
        failure: None,
    };
    // One deterministic reference run: conservation parity for the
    // threaded runtime, and its log length bounds the seeded crash
    // indices (a crashed run re-offers and so appends more, so an
    // index drawn from the first half reliably fires mid-run).
    let parity = threaded && clean && sc.shrinkable();
    let reference = (parity || cfg.master_crash).then(|| sc.run(&Run::sim(cfg.base_seed)));
    let crash_bound = cfg
        .master_crash
        .then(|| (reference.as_ref().map_or(0, |r| r.log().len() as u64) / 2).max(2));
    let churns = sc.federation.is_some_and(|f| f.churn);
    let seeds = SeedSequence::new(cfg.base_seed);
    for i in 0..cfg.iters {
        let stream = |axis: u64| seeds.seed_for(axis + i as u64);
        let replay = ReplayTuple {
            run: stream(0),
            chaos: (cfg.chaos && threaded).then(|| stream(0xC4A0_0000)),
            net: (cfg.net.is_some() || sc.federation.is_some()).then(|| stream(0x4E37_0000)),
            membership: churns.then(|| stream(0x4D42_0000)),
            crash_index: crash_bound.map(|b| 1 + stream(0xFA11_0000) % b),
        };
        let run = cfg.run(&replay);
        let (out, violations, schedule) = attempt(sc, cfg, &run);
        report.iterations_run = i + 1;
        report.activity += out.activity();
        for (name, v) in out.masters.iter().flat_map(|m| &m.metrics.counters) {
            *report.counters.entry(name.clone()).or_default() += v;
        }
        if clean && out.completed != out.expected {
            report.parity_mismatches.push(format!(
                "iteration {i}: expected {} completions, observed {}",
                out.expected, out.completed
            ));
        }
        if let Some(sim) = reference.as_ref().filter(|_| parity) {
            for (what, simv, thrv) in [
                ("jobs_completed", sim.completed, out.completed),
                (
                    "submissions",
                    sim.log().submissions() as u64,
                    out.log().submissions() as u64,
                ),
                (
                    "completions",
                    sim.log().completions() as u64,
                    out.log().completions() as u64,
                ),
            ] {
                if simv != thrv {
                    report
                        .parity_mismatches
                        .push(format!("iteration {i}: {what} sim={simv} threaded={thrv}"));
                }
            }
        }
        if violations.is_empty() {
            continue;
        }
        let mut failure = Failure {
            iteration: i,
            replay,
            violations,
            kept_jobs: Vec::new(),
            kept_fault_workers: sc.faulted_workers(),
            schedule,
        };
        if sc.shrinkable() {
            (failure.kept_jobs, failure.kept_fault_workers) = shrink(sc, cfg, &run);
            // Re-run the minimal scenario to capture its schedule and
            // violations; keep the original capture if the
            // nondeterminism refuses to cooperate one more time.
            let minimal = Run {
                keep_jobs: Some(failure.kept_jobs.clone()),
                keep_fault_workers: Some(failure.kept_fault_workers.clone()),
                ..run
            };
            for _ in 0..REPRO_ATTEMPTS {
                let (_, v, s) = attempt(sc, cfg, &minimal);
                if !v.is_empty() {
                    (failure.violations, failure.schedule) = (v, s);
                    break;
                }
            }
        }
        report.failure = Some(failure);
        break;
    }
    report
}

/// Explore every built-in scenario `pick` selects; one report each.
pub fn explore_builtins(
    cfg: &ExploreConfig,
    pick: impl Fn(&Scenario) -> bool,
) -> Vec<ExploreReport> {
    Scenario::builtins_where(pick)
        .iter()
        .map(|sc| explore(sc, cfg))
        .collect()
}
