//! The `repro check | netfault | failover | federate | atomize |
//! replicate` artifacts: one sweep driver over a table.
//!
//! Every artifact is a row of one table (`sweeps`) — which built-in checker
//! scenarios it covers, its default seed and iteration counts, its
//! [`Section`]s (a runtime plus the perturbation axes armed on it) and
//! an optional headline comparison. [`run`] drives a row: each section
//! is one [`explore`] sweep per scenario, so every run is checked by
//! the protocol oracle on every log it produced and for conservation
//! of its own expected completion count, and a failing line carries
//! the full replay tuple (see CONTRIBUTING.md "Replaying a failure").
//!
//! A sweep that never exercised the path under test proves nothing, so
//! a section also fails when a scenario's [`Demand`]s went unmet — a
//! spill scenario that never spilled, a straggler that was never
//! speculated on, a crash that triggered no repair — or, with the
//! master-crash axis armed, when no crash fired.
//!
//! | Artifact | Scenarios | Sections | Headline |
//! |---|---|---|---|
//! | `check` | single-master job lists | sim; threaded + chaos (with sim parity) | — |
//! | `netfault` | same | loss rate × partition window, each on sim and threaded | — |
//! | `failover` | same, plus `dag_*` on the sim | seeded master crashes on sim; × lossy links × chaos on threaded | — |
//! | `federate` | `fed_*` | sim; threaded + chaos | 1000 workers under four masters with churn: spillover must beat the saturated single master |
//! | `atomize` | `dag_*` | sim; threaded | task-level vs whole-job vs Spark-static: atomization must win on the straggler |
//! | `replicate` | `repl_*` | sim; sim + lossy links; threaded | factor {1,2,3} × holder crash × peer loss on both runtimes |

use crossbid_baselines::SparkStaticAllocator;
use crossbid_checker::{
    check_log, explore, Demand, ExploreConfig, Forcing, OracleOptions, Protocol, Replication, Run,
    Scenario, Workload,
};
use crossbid_core::BiddingAllocator;
use crossbid_crossflow::prelude::*;
use crossbid_simcore::{SeedSequence, SimTime};

/// Parameters of one sweep, as given on the `repro` command line.
#[derive(Debug, Clone, Default)]
pub struct SweepConfig {
    /// Seed tuples per scenario per section; `None` = the artifact's
    /// default (its smaller one under `smoke`). Sections on the
    /// threaded runtime of `federate` / `atomize` / `replicate` run at
    /// most two.
    pub iters: Option<u32>,
    /// Root seed; `None` = the artifact's default.
    pub seed: Option<u64>,
    /// Pick the reduced default iteration count and headline shape.
    pub smoke: bool,
}

/// Outcome of a sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Rendered report (one part per section, then the headline).
    pub body: String,
    /// `true` iff every run passed the oracle and conserved its work,
    /// every demanded activity was observed, and the headline
    /// comparison (if any) held.
    pub ok: bool,
}

/// One part of a sweep: a runtime and the perturbation axes armed.
#[derive(Debug, Clone)]
pub struct Section {
    /// Heading in the report.
    pub title: String,
    /// The runtime and the axes armed on it; the sweep fills in the
    /// iteration count and the root seed. While a lossy-link plan is
    /// armed the scenarios' own [`Demand`]s are waived (partition
    /// windows legitimately suppress peer traffic, and such a
    /// section's job is survival, not activity); while the master is
    /// crashed at least one failover must fire per scenario.
    pub axes: ExploreConfig,
    /// Upper bound on the iteration count.
    pub cap: Option<u32>,
}

impl Section {
    /// A section under `axes`, uncapped.
    pub fn new(title: &str, axes: ExploreConfig) -> Self {
        Section {
            title: title.to_string(),
            axes,
            cap: None,
        }
    }
}

/// Axes on the simulation engine / on real threads, before the sweep
/// fills in iterations and seed.
fn sim() -> ExploreConfig {
    ExploreConfig::sim(0, 0)
}
fn threaded() -> ExploreConfig {
    ExploreConfig::threaded(0, 0)
}

/// One artifact.
struct Sweep {
    name: &'static str,
    title: &'static str,
    /// Which built-in scenarios the sweep covers.
    pick: fn(&Scenario) -> bool,
    /// Further scenarios that only its simulation-engine sections cover.
    sim_only: fn(&Scenario) -> bool,
    seed: u64,
    /// Default iteration count: `(full, --smoke)`.
    iters: (u32, u32),
    sections: Vec<Section>,
    /// `(report body, root seed, smoke) -> ok`.
    headline: Option<fn(&mut String, u64, bool) -> bool>,
}

/// The names [`run`] accepts, in `repro` usage order.
pub const NAMES: [&str; 6] = [
    "check",
    "netfault",
    "failover",
    "federate",
    "atomize",
    "replicate",
];

/// The `netfault` grid: message loss rate (duplication rides along at
/// half the loss rate) × full-partition window, each cell on both
/// runtimes. Both windows are shorter than the lease + retry horizon,
/// so survival is the requirement, not a lucky draw.
fn netfault_sections() -> Vec<Section> {
    let mut sections = Vec::new();
    for loss in [0.1, 0.3] {
        for (pname, window) in [("none", None), ("2s", Some((2.0, 4.0)))] {
            let mut plan = NetFaultPlan::lossy(0, loss, loss / 2.0);
            if let Some((from, until)) = window {
                plan = plan.with_partition(
                    None,
                    SimTime::from_secs_f64(from),
                    SimTime::from_secs_f64(until),
                );
            }
            let cell = format!(
                "loss={:.0}% dup={:.0}% partition={pname}",
                loss * 100.0,
                loss * 50.0
            );
            for (axes, on) in [
                (sim(), "simulation engine"),
                (threaded(), "threaded runtime"),
            ] {
                let axes = ExploreConfig {
                    net: Some(plan.clone()),
                    ..axes
                };
                sections.push(Section::new(&format!("{cell} — {on}"), axes));
            }
        }
    }
    sections
}

fn sweeps() -> Vec<Sweep> {
    let capped = |title, axes| Section {
        cap: Some(2),
        ..Section::new(title, axes)
    };
    vec![
        Sweep {
            name: "check",
            title: "Protocol invariant check",
            pick: Scenario::is_plain,
            sim_only: |_| false,
            seed: 0xC0FFEE,
            iters: (8, 2),
            sections: vec![
                Section::new("Simulation engine — deterministic runs", sim()),
                Section::new(
                    "Threaded runtime — chaos-perturbed interleavings + sim parity",
                    threaded().chaos(),
                ),
            ],
            headline: None,
        },
        Sweep {
            name: "netfault",
            title: "Lossy-network survival sweep",
            pick: Scenario::is_plain,
            sim_only: |_| false,
            seed: 0xC0FFEE,
            iters: (4, 1),
            sections: netfault_sections(),
            headline: None,
        },
        Sweep {
            name: "failover",
            title: "Master failover check",
            pick: Scenario::is_plain,
            // The DAG half of the ledger — task release, the straggler
            // clock, frontier recovery — under the same crashes.
            sim_only: |s| matches!(s.workload, Workload::Dags { .. }),
            seed: 0xC0FFEE,
            iters: (8, 2),
            sections: vec![
                Section::new(
                    "Simulation engine — seeded crash indices, deterministic replay",
                    sim().master_crash(),
                ),
                Section::new(
                    "Threaded runtime — crash indices × lossy links × chaos",
                    threaded().master_crash().lossy().chaos(),
                ),
            ],
            headline: None,
        },
        Sweep {
            name: "federate",
            title: "Federation sweep",
            pick: |s| s.federation.is_some(),
            sim_only: |_| false,
            seed: 0xC0FFEE,
            iters: (4, 1),
            sections: vec![
                Section::new(
                    "Simulation engine — shard count × spill threshold × churn",
                    sim(),
                ),
                capped(
                    "Threaded runtime — the same axis under intake chaos",
                    threaded().chaos(),
                ),
            ],
            headline: Some(federate_headline),
        },
        Sweep {
            name: "atomize",
            title: "Atomizer sweep",
            pick: |s| matches!(s.workload, Workload::Dags { .. }),
            sim_only: |_| false,
            seed: 0xA70,
            iters: (4, 2),
            sections: vec![
                Section::new("Simulation engine — DAG shape × speculation knobs", sim()),
                capped("Threaded runtime — the same axis", threaded()),
            ],
            headline: Some(atomize_headline),
        },
        Sweep {
            name: "replicate",
            title: "Replication sweep",
            pick: |s| s.replication.is_some(),
            sim_only: |_| false,
            seed: 0x9E11,
            iters: (4, 2),
            sections: vec![
                Section::new(
                    "Simulation engine — factor × crash × peer loss × eviction pressure",
                    sim(),
                ),
                Section::new(
                    "Simulation engine — the same axis under lossy links",
                    sim().lossy(),
                ),
                capped(
                    "Threaded runtime — the same axis, demanded activity forced",
                    threaded().forced(),
                ),
            ],
            headline: Some(replicate_headline),
        },
    ]
}

/// The reliability counters worth showing under lossy links, in
/// render order: they show the at-least-once layer worked for a
/// living.
const NET_COUNTERS: [&str; 6] = [
    "net/dropped",
    "net/duplicated",
    "net/retries",
    "net/dedup_hits",
    "acks/received",
    "lease/expired",
];

/// Sweep `scenarios` through one section. Returns `false` on any
/// violation, conservation mismatch or unmet demand.
pub fn run_section(
    body: &mut String,
    scenarios: &[Scenario],
    section: &Section,
    iters: u32,
    seed: u64,
) -> bool {
    body.push_str(&format!("\n## {}\n\n", section.title));
    let cfg = ExploreConfig {
        iters: section.cap.map_or(iters, |cap| iters.clamp(1, cap)),
        base_seed: seed,
        ..section.axes.clone()
    };
    let mut ok = true;
    let mut net_counters = [0u64; NET_COUNTERS.len()];
    for sc in scenarios {
        let report = explore(sc, &cfg);
        let demands = sc
            .demands
            .iter()
            .filter(|_| cfg.net.is_none())
            .chain(cfg.master_crash.then_some(&Demand::Failover));
        let unmet: Vec<&str> = demands.filter_map(|d| d.unmet(&report.activity)).collect();
        ok &= report.passed() && unmet.is_empty();
        body.push_str(&report.render());
        for why in unmet {
            body.push_str(&format!("  FAIL: {why}\n"));
        }
        for (total, name) in net_counters.iter_mut().zip(NET_COUNTERS) {
            *total += report.counters.get(name).copied().unwrap_or(0);
        }
    }
    if cfg.net.is_some() {
        for (name, total) in NET_COUNTERS.iter().zip(net_counters) {
            body.push_str(&format!("{name}: {total}\n"));
        }
    }
    ok
}

/// Run the sweep called `name` (one of [`NAMES`]); `None` if there is
/// no such sweep. An explicit `cfg.iters` always wins; `cfg.smoke`
/// only picks the default and the headline shape.
pub fn run(name: &str, cfg: &SweepConfig) -> Option<SweepReport> {
    let sweep = sweeps().into_iter().find(|s| s.name == name)?;
    let iters = cfg.iters.unwrap_or(if cfg.smoke {
        sweep.iters.1
    } else {
        sweep.iters.0
    });
    let seed = cfg.seed.unwrap_or(sweep.seed);
    let everywhere = Scenario::builtins_where(sweep.pick);
    let on_sim = Scenario::builtins_where(|s| (sweep.pick)(s) || (sweep.sim_only)(s));
    let mut body = format!("# {} (iters={iters}, seed={seed})\n", sweep.title);
    let mut ok = true;
    for section in &sweep.sections {
        let scenarios = match section.axes.runtime {
            FedRuntimeKind::Sim => &on_sim,
            FedRuntimeKind::Threaded => &everywhere,
        };
        ok &= run_section(&mut body, scenarios, section, iters, seed);
    }
    if let Some(headline) = sweep.headline {
        ok &= headline(&mut body, seed, cfg.smoke);
    }
    body.push_str(&format!("\nresult: {}\n", if ok { "PASS" } else { "FAIL" }));
    Some(SweepReport { body, ok })
}

// ---------------------------------------------------------------------------
// `federate` headline: spillover beats the saturated master.
// ---------------------------------------------------------------------------

/// Shape of the headline multi-master scenario: `shards` masters, each
/// over `workers_per_shard` listed workers (the last one is a deferred
/// join), and a shard-0 burst of `jobs` CPU jobs.
#[derive(Debug, Clone)]
struct HeadlineShape {
    shards: usize,
    workers_per_shard: usize,
    jobs: usize,
    /// CPU seconds per burst job.
    cpu_secs: f64,
    /// Spill threshold of the federated run (the solo run uses ∞).
    spill_threshold_secs: f64,
    /// Churn instants `(join, drain, remove)`, applied on every shard:
    /// the spare (last listed) worker joins, then worker 0 drains,
    /// then worker 1 is removed.
    churn_at: (f64, f64, f64),
}

impl HeadlineShape {
    /// The acceptance-bar shape: 4 masters × 250 workers = 1000
    /// workers, overloaded roughly 2.4× past shard 0's capacity.
    fn full() -> Self {
        HeadlineShape {
            shards: 4,
            workers_per_shard: 250,
            jobs: 400,
            cpu_secs: 300.0,
            spill_threshold_secs: 2.0,
            churn_at: (5.0, 60.0, 120.0),
        }
    }

    /// A scaled-down copy of the same overload for CI smoke.
    fn smoke() -> Self {
        HeadlineShape {
            shards: 4,
            workers_per_shard: 10,
            jobs: 60,
            cpu_secs: 30.0,
            spill_threshold_secs: 4.0,
            churn_at: (5.0, 20.0, 40.0),
        }
    }

    /// One run; `spill` off replays the identical overload as one
    /// saturated master that never forwards. `seeds` = `(run, net)`.
    fn run(
        &self,
        runtime: FedRuntimeKind,
        spill: bool,
        seeds: (u64, u64),
        chaos: Option<u64>,
    ) -> FederationOutput {
        let (join, drain, remove) = self.churn_at;
        let membership = MembershipPlan::new()
            .join_at(
                SimTime::from_secs_f64(join),
                WorkerId((self.workers_per_shard - 1) as u32),
            )
            .drain_at(SimTime::from_secs_f64(drain), WorkerId(0))
            .remove_at(SimTime::from_secs_f64(remove), WorkerId(1));
        let shards = (0..self.shards)
            .map(|s| {
                ShardSpec::new(
                    (0..self.workers_per_shard)
                        .map(|i| WorkerSpec::builder(format!("s{s}w{i}")).build())
                        .collect(),
                )
                .faults(Faults::new().membership(membership.clone()))
            })
            .collect();
        let mut spec = FederationSpec::new(shards);
        spec.spill_threshold_secs = if spill {
            self.spill_threshold_secs
        } else {
            f64::INFINITY
        };
        spec.gossip_period_secs = 2.0;
        spec.spill_latency_secs = 0.5;
        (spec.seed, spec.net_seed) = seeds;
        spec.runtime = runtime;
        spec.chaos = chaos.map(ChaosConfig::aggressive);
        spec.engine = EngineConfig::ideal();
        spec.engine.max_events =
            (self.jobs as u64) * (self.workers_per_shard as u64 * 8 + 64) + 1_000_000;
        let burst = (0..self.jobs)
            .map(|i| FedArrival {
                at: SimTime::from_secs_f64(i as f64 * 0.5),
                home: ShardId(0),
                spec: JobSpec::compute(TaskId(0), self.cpu_secs, Payload::Index(i as u64)),
            })
            .collect();
        run_federation(&spec, burst, &BiddingAllocator::new(), |_| {
            let mut wf = Workflow::new();
            wf.add_sink("burst");
            wf
        })
    }

    /// Check one run: full conservation, both oracles clean, and
    /// (federated runs) real spill + churn activity.
    fn check(&self, body: &mut String, label: &str, out: &FederationOutput, spill: bool) -> bool {
        let shard_options = OracleOptions {
            expect_all_complete: true,
            strict_reoffer: false,
            workers: Some(self.workers_per_shard as u32),
            federated: false,
        };
        let merged_violations = check_log(
            &out.merged,
            OracleOptions {
                workers: None,
                federated: true,
                ..shard_options
            },
        );
        let shard_violations: usize = out
            .shards
            .iter()
            .map(|o| check_log(&o.sched_log, shard_options).len())
            .sum();
        let churn =
            out.merged.worker_joins() + out.merged.worker_drains() + out.merged.worker_removals();
        let conserved = out.jobs_completed == self.jobs as u64;
        let active = !spill || (!out.spills.is_empty() && churn > 0);
        let ok = merged_violations.is_empty() && shard_violations == 0 && conserved && active;
        body.push_str(&format!(
            "{label}: {} — {}/{} jobs completed, {} spill(s), {} churn event(s), {} merged + {} shard violation(s), makespan {:.1}s\n",
            if ok { "ok" } else { "FAIL" },
            out.jobs_completed,
            self.jobs,
            out.spills.len(),
            churn,
            merged_violations.len(),
            shard_violations,
            out.makespan_secs,
        ));
        for v in &merged_violations {
            body.push_str(&format!("  merged: {v}\n"));
        }
        ok
    }
}

/// 1000 workers under four masters with elastic churn on every shard,
/// a CPU burst aimed entirely at shard 0, run on both runtimes — and
/// the same overload replayed with spilling disabled, which must be
/// measurably slower than the federated run.
fn federate_headline(body: &mut String, seed: u64, smoke: bool) -> bool {
    let shape = if smoke {
        HeadlineShape::smoke()
    } else {
        HeadlineShape::full()
    };
    body.push_str(&format!(
        "\n## Headline — {} workers, {} masters, elastic churn on every shard\n\n",
        shape.shards * shape.workers_per_shard,
        shape.shards,
    ));
    let roots = SeedSequence::new(seed);
    let seeds = (roots.seed_for(0xFED0), roots.seed_for(0xFED1));
    let fed = shape.run(FedRuntimeKind::Sim, true, seeds, None);
    let mut ok = shape.check(body, "sim, federated", &fed, true);
    let chaos = Some(roots.seed_for(0xFED3));
    let threaded = shape.run(FedRuntimeKind::Threaded, true, seeds, chaos);
    ok &= shape.check(body, "threaded, federated + chaos", &threaded, true);
    let solo = shape.run(FedRuntimeKind::Sim, false, seeds, None);
    ok &= shape.check(body, "sim, spilling disabled", &solo, false);

    let beat = fed.makespan_secs < solo.makespan_secs;
    body.push_str(&format!(
        "\nspillover vs saturated single master: {:.1}s vs {:.1}s ({:.2}x) — {}\n",
        fed.makespan_secs,
        solo.makespan_secs,
        solo.makespan_secs / fed.makespan_secs.max(f64::MIN_POSITIVE),
        if beat {
            "cross-shard spillover wins"
        } else {
            "FAIL: spilling did not beat the overloaded master"
        },
    ));
    ok && beat
}

// ---------------------------------------------------------------------------
// `atomize` headline: task-level beats whole-job on the straggler.
// ---------------------------------------------------------------------------

/// Run a scenario's arrival stream with every DAG collapsed into one
/// whole job (`TaskDag::collapsed_spec`), on an identical cluster —
/// the allocation baseline the atomized run is compared against.
fn collapsed_run(sc: &Scenario, seed: u64, allocator: &dyn Allocator) -> RunOutput {
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let arrivals = sc
        .arrivals(seed, task, None)
        .into_iter()
        .map(|a| Arrival {
            at: a.at,
            spec: match &a.spec.dag {
                Some(dag) => dag.collapsed_spec(a.spec.task),
                None => a.spec,
            },
        })
        .collect();
    sc.spec(&Run::sim(seed))
        .sim()
        .run_iteration(&mut wf, allocator, arrivals)
}

/// Each built-in DAG scenario run three ways on an identical cluster —
/// **task-level** (atomized, tasks priced against their own input
/// locality, stragglers re-bid speculatively), **whole-job** (each DAG
/// collapsed into a single job carrying the summed work, placed by the
/// same protocol), and **Spark-static** (the collapsed jobs under the
/// centralized stage-synchronous baseline). The DAG count is kept
/// above the straggler scenario's cluster size so the collapsed
/// whole-job baseline cannot dodge the slow worker by round-robin
/// luck. On the straggler scenario the task-level run must beat the
/// whole-job run on makespan, with at least one speculative re-bid
/// observed; the skewed-reduce scenario's gating pressure is covered
/// by the oracle and its makespan rows are informational.
fn atomize_headline(body: &mut String, seed: u64, smoke: bool) -> bool {
    let dags = if smoke { 4 } else { 6 };
    let seed = seed ^ 0xDA6;
    body.push_str(&format!(
        "\n## Headline — task-level vs whole-job vs Spark-static ({dags} DAGs)\n\n"
    ));
    let mut all_ok = true;
    for mut sc in Scenario::builtins() {
        let Workload::Dags { count, .. } = &mut sc.workload else {
            continue;
        };
        *count = dags;
        let atomized = sc.run(&Run::sim(seed));
        let violations = atomized.violations(false);
        let speculations = atomized.activity().speculations;
        let whole = collapsed_run(&sc, seed, sc.protocol.allocator().as_ref());
        let spark = collapsed_run(&sc, seed, &SparkStaticAllocator::with_stage_barrier());

        let conserved = atomized.completed == atomized.expected;
        let collapsed_done = [&whole, &spark]
            .iter()
            .all(|o| o.record.jobs_completed == dags as u64);
        let demand_win = sc.demands.contains(&Demand::Speculate);
        let speculated = !demand_win || speculations > 0;
        let beat = !demand_win || atomized.makespan_secs < whole.record.makespan_secs;
        let ok = violations.is_empty() && conserved && collapsed_done && speculated && beat;
        all_ok &= ok;
        body.push_str(&format!(
            "{}: {} — {}/{} tasks done, {} speculative re-bid(s), {} violation(s)\n",
            sc.name,
            if ok { "ok" } else { "FAIL" },
            atomized.completed,
            atomized.expected,
            speculations,
            violations.len(),
        ));
        body.push_str(&format!(
            "  task-level {:.1}s vs whole-job {:.1}s vs spark-static {:.1}s{}\n",
            atomized.makespan_secs,
            whole.record.makespan_secs,
            spark.record.makespan_secs,
            match (demand_win, beat) {
                (false, _) => String::new(),
                (true, true) => format!(
                    " ({:.2}x) — atomization wins",
                    whole.record.makespan_secs / atomized.makespan_secs.max(f64::MIN_POSITIVE)
                ),
                (true, false) => " — FAIL: task-level did not beat whole-job".to_string(),
            },
        ));
        for (_, v) in &violations {
            body.push_str(&format!("  oracle: {v}\n"));
        }
        if !speculated {
            body.push_str("  FAIL: no speculative re-bid in the headline run\n");
        }
        if !collapsed_done {
            body.push_str("  FAIL: a collapsed baseline lost jobs\n");
        }
    }
    all_ok
}

// ---------------------------------------------------------------------------
// `replicate` headline: factor {1,2,3} × holder crash × peer loss.
// ---------------------------------------------------------------------------

/// The built-in crash scenario at replication factor `factor` with
/// half of all peer transfers lost. Its forcing plan makes a lost peer
/// transfer inevitable: worker 3 joins just before the job at 16 s
/// while the other three, among them the first artifact's holders, are
/// cut off (worker 0 crashes only at 21 s).
fn replicate_headline_scenario(factor: u32) -> Scenario {
    Scenario {
        name: match factor {
            1 => "repl_headline_f1",
            2 => "repl_headline_f2",
            _ => "repl_headline_f3",
        },
        protocol: Protocol::Bidding,
        replication: Some(Replication {
            factor,
            peer_drop_prob: 0.5,
        }),
        forcing: Some(Forcing {
            newcomer: 3,
            at_secs: 15.5,
            window_secs: 20.0,
        }),
        ..Scenario::builtin("repl_f2_crash")
    }
}

/// Replication factor {1, 2, 3} × a holder crash × peer loss, run on
/// **both** runtimes. Every cell must complete every job exactly once
/// with zero violations; the factor ≥ 2 cells must commit and complete
/// at least one re-replication, and each runtime must observe at least
/// one peer fetch retry across its row.
fn replicate_headline(body: &mut String, seed: u64, _smoke: bool) -> bool {
    body.push_str("\n## Headline — replication factor {1,2,3} × holder crash × peer loss\n\n");
    let mut ok = true;
    for (runtime, label) in [
        (FedRuntimeKind::Sim, "sim"),
        (FedRuntimeKind::Threaded, "threaded"),
    ] {
        let mut retries = 0;
        for factor in [1, 2, 3] {
            let run = Run {
                forced: true,
                ..Run::new(runtime, seed ^ 0x9E1)
            };
            let out = replicate_headline_scenario(factor).run(&run);
            let violations = out.violations(false);
            let seen = out.activity();
            retries += seen.fetch_retries;
            let repaired = factor < 2 || seen.repairs >= 1;
            let cell_ok = violations.is_empty() && out.completed == out.expected && repaired;
            ok &= cell_ok;
            body.push_str(&format!(
                "factor {factor} × crash × loss on {label}: {} — {}/{} jobs, {} peer fetch(es), {} retry(ies), {} repair(s), {} violation(s), makespan {:.1}s\n",
                if cell_ok { "ok" } else { "FAIL" },
                out.completed,
                out.expected,
                seen.peer_fetches,
                seen.fetch_retries,
                seen.repairs,
                violations.len(),
                out.makespan_secs,
            ));
            for (_, v) in &violations {
                body.push_str(&format!("  oracle: {v}\n"));
            }
            if !repaired {
                body.push_str("  FAIL: no committed re-replication completed\n");
            }
        }
        if retries == 0 {
            body.push_str(&format!(
                "  FAIL: no peer fetch retry observed across the {label} headline\n"
            ));
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str) -> SweepReport {
        let cfg = SweepConfig {
            smoke: true,
            ..SweepConfig::default()
        };
        let report = run(name, &cfg).expect("a known sweep");
        assert!(report.ok, "{}", report.body);
        assert!(report.body.contains("result: PASS"));
        report
    }

    #[test]
    fn smoke_check_passes() {
        smoke("check");
    }

    #[test]
    fn smoke_netfault_sweep_passes() {
        let report = smoke("netfault");
        // The sweep is only evidence if the faults actually fired.
        assert!(
            !report.body.contains("net/dropped: 0\n"),
            "no messages were ever dropped:\n{}",
            report.body
        );
    }

    #[test]
    fn smoke_failover_passes() {
        assert!(smoke("failover").body.contains("failover(s)"));
    }

    #[test]
    fn smoke_federate_passes() {
        assert!(smoke("federate").body.contains("spillover wins"));
    }

    #[test]
    fn smoke_atomize_passes() {
        assert!(smoke("atomize").body.contains("atomization wins"));
    }

    #[test]
    fn smoke_replicate_passes() {
        assert!(smoke("replicate").body.contains("repair(s)"));
    }

    #[test]
    fn every_name_is_a_sweep_and_nothing_else_is() {
        let names: Vec<_> = sweeps().iter().map(|s| s.name).collect();
        assert_eq!(names, NAMES);
        assert!(run("bench", &SweepConfig::default()).is_none());
    }

    #[test]
    fn a_rigged_headline_control_cannot_spill() {
        // The ∞-threshold control of the smoke shape: everything stays
        // on shard 0 and still completes (exactly-once without ever
        // handing off).
        let shape = HeadlineShape::smoke();
        let out = shape.run(FedRuntimeKind::Sim, false, (9, 9), None);
        assert!(out.spills.is_empty());
        assert_eq!(out.jobs_completed, shape.jobs as u64);
    }

    /// The activity demands ride on the scenario value, so they bind a
    /// renamed or hand-built scenario exactly as they bind a builtin:
    /// an inert sweep fails even though every run in it is clean.
    #[test]
    fn a_sweep_that_misses_its_demanded_activity_fails() {
        let section = Section::new("demands", sim());
        let run = |sc: Scenario| {
            let mut body = String::new();
            let ok = run_section(&mut body, &[sc], &section, 2, 0xC0FFEE);
            (ok, body)
        };
        for name in ["fed_2shard_nospill", "fed_2shard_spill"] {
            let (ok, body) = run(Scenario::builtin(name));
            assert!(ok, "{body}");
        }
        let (ok, body) = run(Scenario {
            demands: &[Demand::Spill],
            ..Scenario::builtin("fed_2shard_nospill")
        });
        assert!(!ok, "an ∞-threshold sweep cannot meet Demand::Spill");
        assert!(body.contains("— ok\n  FAIL: no spill fired"), "{body}");
        let (ok, body) = run(Scenario {
            demands: &[Demand::NoSpill],
            ..Scenario::builtin("fed_2shard_spill")
        });
        assert!(!ok, "a spilling sweep cannot meet Demand::NoSpill");
        assert!(
            body.contains("FAIL: the ∞-threshold baseline spilled"),
            "{body}"
        );
    }
}
