//! One measurement: a process runs one workload repeatedly for the
//! requested time and reports either the end-to-end metrics (tracing
//! off) or the per-layer metrics (tracing on).

use crossbid_metrics::Json;

use crate::layers;
use crate::spans::Spans;
use crate::stats::median;
use crate::sys::{self, Stopwatch};
use crate::workloads::{self, Counts, Observed, Workload};

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("cpu_us_per_job", "us"),
    ("events_per_job", "count"),
    ("allocs_per_job", "count"),
    ("peak_rss_mb", "MB"),
    ("makespan_sim_s", "s"),
    ("data_load_mb_per_job", "MB"),
    ("cache_miss_ratio", "ratio"),
    ("log_bytes_per_job", "bytes"),
    ("completed_share", "ratio"),
];

/// End-to-end metrics that are simulated statistics or counts: on a
/// sim workload they must repeat exactly for one seed.
pub const DETERMINISTIC: [&str; 6] = [
    "events_per_job",
    "makespan_sim_s",
    "data_load_mb_per_job",
    "cache_miss_ratio",
    "log_bytes_per_job",
    "completed_share",
];

/// Per-layer metrics, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("simcore.queue.events", "count"),
    ("simcore.queue.hold_ns", "ns"),
    ("simcore.queue.share", "ratio"),
    ("crossflow.engine.run_s", "s"),
    ("crossflow.engine.ns_per_event", "ns"),
    ("core.bidding.contests", "count"),
    ("core.bidding.bids_per_contest", "count"),
    ("core.bidding.timed_out_share", "ratio"),
    ("core.bidding.bid_ns_7", "ns"),
    ("core.bidding.bid_ns_256", "ns"),
    ("core.estimator.bid_ns", "ns"),
    ("crossflow.idle.op_ns", "ns"),
    ("crossflow.replog.append_ns", "ns"),
    ("crossflow.replog.apply_ns", "ns"),
    ("crossflow.replog.replay_s", "s"),
    ("crossflow.replog.entries_per_job", "count"),
    ("storage.store.hits", "count"),
    ("storage.store.misses", "count"),
    ("storage.store.evictions", "count"),
    ("storage.store.lookup_ns", "ns"),
    ("storage.store.insert_evict_ns", "ns"),
    ("storage.replica.update_ns", "ns"),
    ("storage.replica.under_replicated_ns", "ns"),
    ("storage.replica.peer_fetches", "count"),
    ("storage.replica.repairs", "count"),
    ("net.link.transfer_ns", "ns"),
    ("metrics.registry.record_ns", "ns"),
    ("metrics.registry.snapshot_s", "s"),
    ("crossflow.trace.overhead_share", "ratio"),
    ("crossflow.trace.log_events_per_job", "count"),
    ("crossflow.export.write_s", "s"),
    ("crossflow.export.write_ns_per_line", "ns"),
    ("crossflow.export.parse_s", "s"),
    ("crossflow.export.parse_ns_per_line", "ns"),
    ("crossflow.export.bytes_per_line", "bytes"),
    ("checker.oracle.check_s", "s"),
    ("checker.oracle.ns_per_event", "ns"),
    ("checker.oracle.violations", "count"),
    ("crossflow.atomize.tasks", "count"),
    ("crossflow.atomize.spec_launches", "count"),
    ("crossflow.atomize.straggler_ns_1k", "ns"),
    ("crossflow.atomize.straggler_ns_50k", "ns"),
    ("crossflow.atomize.done_ns", "ns"),
    ("crossflow.federation.run_s", "s"),
    ("crossflow.federation.spills", "count"),
    ("crossflow.federation.spill_share", "ratio"),
    ("crossflow.threaded.contest_p50_s", "s"),
    ("crossflow.threaded.contest_p99_s", "s"),
    ("crossflow.threaded.user_cpu_s", "s"),
    ("crossflow.threaded.sys_cpu_s", "s"),
    ("workload.generate_ns_per_job", "ns"),
    ("benchmark.trace_overhead_share", "ratio"),
];

/// Least set-ups timed per measurement (fewer if they take over a second).
const SETUP_SAMPLES: usize = 25;

/// What to measure.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    /// Keep starting runs until this much time has passed.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Divide every job count by 20.
    pub smoke: bool,
}

/// The result line of one measurement.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Why `correct` is false, for the human reading stderr.
    pub problems: Vec<String>,
    pub runs: usize,
}

impl Report {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, unit, value)| {
                            let v =
                                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
                            (name.to_string(), v)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One run of the workload: its set-up, its timed region and what was
/// read off its outputs.
struct Sample {
    traced: bool,
    setup_s: f64,
    generate_s: f64,
    wall_s: f64,
    run_s: f64,
    user_s: f64,
    sys_s: f64,
    allocs: u64,
    submitted: u64,
    counts: Counts,
    observed: Observed,
    spills: u64,
    replay_s: f64,
    replay_entries: u64,
}

fn one_run(req: &Request, traced: bool, spans: &mut Spans, problems: &mut Vec<String>) -> Sample {
    let w = req.workload;
    spans.set_on(traced);
    spans.next_run();

    let span = spans.enter("setup");
    let t = Stopwatch::start();
    let (prepared, generate_s) =
        workloads::setup(w, req.seed, w.arrivals(req.smoke), w.logs(), spans);
    let setup_s = t.secs();
    spans.exit(span);

    let span = spans.enter("timed");
    let allocs0 = sys::allocs();
    let (user0, sys0) = sys::cpu_secs();
    let steal0 = sys::steal_secs();
    let t = Stopwatch::start();
    let ran = workloads::run(w, prepared, spans);
    let wall_s = t.secs();
    let steal_s = sys::steal_secs() - steal0;
    let (user1, sys1) = sys::cpu_secs();
    let allocs = sys::allocs() - allocs0;
    spans.exit(span);

    eprintln!(
        "[{}] run: setup {setup_s:.6} s, timed {wall_s:.4} s, cpu {:.2} s, steal {steal_s:.2} s{}",
        w.name(),
        user1 - user0 + sys1 - sys0,
        if traced { ", traced" } else { "" }
    );
    let counts = Counts::of(w, &ran);
    let (replay_s, replay_entries, unplaced) = workloads::replay_logs(&ran);
    if unplaced > 0 {
        problems.push(format!("{unplaced} jobs unplaced after log replay"));
    }
    if let Some(fed) = &ran.fed {
        if fed.completed != ran.submitted {
            problems.push(format!(
                "federation completed {} of {}",
                fed.completed, ran.submitted
            ));
        }
    }
    Sample {
        traced,
        setup_s,
        generate_s,
        wall_s,
        run_s: ran.run_s,
        user_s: user1 - user0,
        sys_s: sys1 - sys0,
        allocs,
        submitted: ran.submitted,
        counts,
        observed: ran.observed,
        spills: ran.fed.as_ref().map_or(0, |fed| fed.spills),
        replay_s,
        replay_entries,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run the workload for `req.seconds` and report.
pub fn measure(req: &Request) -> (Report, Spans) {
    let w = req.workload;
    let mut spans = Spans::new();
    let mut problems = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();

    // At least two runs, so a sim workload can be checked against
    // itself; then as many as fit, rounding to the nearest whole run.
    let budget = Stopwatch::start();
    loop {
        // A traced measurement alternates untraced and traced runs, so
        // the difference between the two is the tracing overhead.
        let traced = req.trace && samples.len() % 2 == 1;
        samples.push(one_run(req, traced, &mut spans, &mut problems));
        let per_run = budget.secs() / samples.len() as f64;
        if samples.len() >= 2 && budget.secs() + 0.5 * per_run > req.seconds {
            break;
        }
    }

    // Set-up takes milliseconds, so the few before the runs are too
    // few for a steady median: set up again, without running, for a
    // quarter of a second and at least `SETUP_SAMPLES` samples.
    let mut setups: Vec<f64> = samples.iter().map(|s| s.setup_s).collect();
    spans.set_on(false);
    let extra = Stopwatch::start();
    while (setups.len() < SETUP_SAMPLES || extra.secs() < 0.25) && extra.secs() < 1.0 {
        let t = Stopwatch::start();
        drop(workloads::setup(
            w,
            req.seed,
            w.arrivals(req.smoke),
            w.logs(),
            &mut spans,
        ));
        setups.push(t.secs());
    }

    // Correctness of the measured runs.
    let attempted: u64 = samples.iter().map(|s| s.submitted).sum();
    let mut failed = 0;
    for s in &samples {
        // Speculative replicas of `sim-dag` tasks complete too, so
        // only lost units count here; exactly-once per task is the
        // probe's oracle's to check.
        failed += s.submitted.saturating_sub(s.counts.completed);
        if w != Workload::SimDag && s.counts.completed > s.submitted {
            failed += s.counts.completed - s.submitted;
        }
        failed += s.counts.anomalies + s.observed.violations;
        if s.observed.lines_parsed != s.observed.lines_written {
            problems.push(format!(
                "parsed {} of {} written lines",
                s.observed.lines_parsed, s.observed.lines_written
            ));
        }
    }
    if w.is_sim() {
        let first = &samples[0];
        for (i, s) in samples.iter().enumerate().skip(1) {
            if s.counts != first.counts || s.observed.bytes != first.observed.bytes {
                problems.push(format!(
                    "run {i} disagrees with run 0 on a simulated statistic"
                ));
            }
        }
    }

    // Read before the probe, whose parsed stream would count.
    let peak_rss_mb = sys::peak_rss_mb();

    // The traced probe: log volume per job for every workload, and the
    // oracle over every workload's protocol. `observe` measures this
    // already.
    spans.set_on(req.trace);
    spans.next_run();
    let (probe_jobs, probe) = if w.logs() {
        let s = samples.last().expect("at least two runs");
        (s.submitted, s.observed)
    } else {
        let span = spans.enter("probe");
        let (jobs, observed) = workloads::probe(w, req.seed, req.smoke, &mut spans);
        spans.exit(span);
        failed += observed.violations;
        if observed.lines_parsed != observed.lines_written {
            problems.push(format!(
                "probe parsed {} of {} written lines",
                observed.lines_parsed, observed.lines_written
            ));
        }
        if w == Workload::SimDag && observed.task_dones != jobs {
            problems.push(format!(
                "probe: {} effective task completions for {jobs} tasks",
                observed.task_dones
            ));
        }
        (jobs, observed)
    };
    let med = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let last = samples.last().expect("at least two runs");
    let jobs = last.submitted as f64;

    let metrics = if req.trace {
        layer_metrics(req, &samples, probe_jobs, &probe)
    } else {
        let c = &last.counts;
        let lookups = c.cache_hits + c.cache_misses + c.peer_fetches;
        let mut m = MetricSet::new(&END_TO_END);
        m.set("setup_s", median(&setups));
        m.set("jobs_per_s", med(&|s| ratio(s.submitted as f64, s.wall_s)));
        m.set(
            "cpu_us_per_job",
            med(&|s| ratio((s.user_s + s.sys_s) * 1e6, s.submitted as f64)),
        );
        m.set("events_per_job", ratio(c.events as f64, jobs));
        m.set(
            "allocs_per_job",
            med(&|s| ratio(s.allocs as f64, s.submitted as f64)),
        );
        m.set("peak_rss_mb", peak_rss_mb);
        m.set(
            "makespan_sim_s",
            if w.is_sim() {
                c.makespan_secs
            } else {
                workloads::sim_makespan_secs(w, req.seed, w.arrivals(req.smoke))
            },
        );
        m.set("data_load_mb_per_job", ratio(c.data_load_mb, jobs));
        m.set(
            "cache_miss_ratio",
            ratio((c.cache_misses + c.peer_fetches) as f64, lookups as f64),
        );
        m.set(
            "log_bytes_per_job",
            ratio(probe.bytes as f64, probe_jobs as f64),
        );
        m.set(
            "completed_share",
            1.0 - ratio(failed as f64, attempted as f64),
        );
        m.finish()
    };

    let report = Report {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        runs: samples.len(),
    };
    (report, spans)
}

/// Named values checked against a metric table: every name of the
/// table is set exactly once, whatever order the code sets them in.
struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            table,
            values: vec![None; table.len()],
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(self.values[i].is_none(), "metric {name} set twice");
        self.values[i] = Some(value);
    }

    fn finish(self) -> Vec<(&'static str, &'static str, f64)> {
        self.table
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), v)| {
                (
                    name,
                    unit,
                    v.unwrap_or_else(|| panic!("metric {name} never set")),
                )
            })
            .collect()
    }
}

/// The per-layer metrics of a traced measurement: counts read off the
/// last run, spans around the calls into each layer, and the layer
/// microbenchmarks.
fn layer_metrics(
    req: &Request,
    samples: &[Sample],
    probe_jobs: u64,
    probe: &Observed,
) -> Vec<(&'static str, &'static str, f64)> {
    let w = req.workload;
    let med = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let last = samples.last().expect("at least two runs");
    let c = &last.counts;
    let jobs = last.submitted as f64;
    let probe_jobs = probe_jobs as f64;
    let run_s = med(&|s| s.run_s);
    let ops = if req.smoke { 5_000 } else { 100_000 };
    let mut m = MetricSet::new(&PER_LAYER);

    // simcore: the event queue at this workload's depth.
    let hold_ns = layers::queue_hold_ns(4 * w.total_workers(), 4 * ops);
    m.set("simcore.queue.events", c.queue_events as f64);
    m.set("simcore.queue.hold_ns", hold_ns);
    m.set(
        "simcore.queue.share",
        ratio(c.queue_events as f64 * hold_ns * 1e-9, run_s),
    );
    m.set("crossflow.engine.run_s", run_s);
    m.set(
        "crossflow.engine.ns_per_event",
        ratio(run_s * 1e9, c.queue_events as f64),
    );

    // core: contests and the cost of a bid on either side.
    m.set("core.bidding.contests", c.contests as f64);
    m.set(
        "core.bidding.bids_per_contest",
        ratio(c.bids as f64, c.contests as f64),
    );
    m.set(
        "core.bidding.timed_out_share",
        ratio(c.contests_timed_out as f64, c.contests as f64),
    );
    m.set("core.bidding.bid_ns_7", layers::bidding_bid_ns(7, ops / 20));
    m.set(
        "core.bidding.bid_ns_256",
        layers::bidding_bid_ns(256, ops / 2_000 + 1),
    );
    m.set("core.estimator.bid_ns", layers::estimator_bid_ns(ops));
    m.set("crossflow.idle.op_ns", layers::idle_op_ns(256, ops));

    // replog: measured runs keep a log on `sim-fed` and `observe`;
    // elsewhere the probe's stands in.
    let (append_ns, apply_ns) = layers::replog_ns(ops / 4);
    m.set("crossflow.replog.append_ns", append_ns);
    m.set("crossflow.replog.apply_ns", apply_ns);
    if last.replay_entries > 0 {
        m.set("crossflow.replog.replay_s", med(&|s| s.replay_s));
        m.set(
            "crossflow.replog.entries_per_job",
            ratio(last.replay_entries as f64, jobs),
        );
    } else {
        m.set("crossflow.replog.replay_s", probe.replay_s);
        m.set(
            "crossflow.replog.entries_per_job",
            ratio(probe.sched_events as f64, probe_jobs),
        );
    }

    // storage and net: the data plane.
    let (lookup_ns, insert_evict_ns) = layers::store_ns(ops);
    let (update_ns, under_replicated_ns) = layers::replica_ns(577, ops);
    m.set("storage.store.hits", c.cache_hits as f64);
    m.set("storage.store.misses", c.cache_misses as f64);
    m.set("storage.store.evictions", c.evictions as f64);
    m.set("storage.store.lookup_ns", lookup_ns);
    m.set("storage.store.insert_evict_ns", insert_evict_ns);
    m.set("storage.replica.update_ns", update_ns);
    m.set("storage.replica.under_replicated_ns", under_replicated_ns);
    m.set("storage.replica.peer_fetches", c.peer_fetches as f64);
    m.set("storage.replica.repairs", c.repairs as f64);
    m.set("net.link.transfer_ns", layers::link_transfer_ns(ops));

    let (record_ns, snapshot_s) = layers::registry_cost(ops);
    m.set("metrics.registry.record_ns", record_ns);
    m.set("metrics.registry.snapshot_s", snapshot_s);

    // What the engine's event log costs the run that records it.
    let overhead = if w.logs() {
        let mut off = Spans::new();
        let (prepared, _) = workloads::setup(w, req.seed, w.arrivals(req.smoke), false, &mut off);
        let bare = workloads::run(w, prepared, &mut off);
        ratio(run_s, bare.run_s) - 1.0
    } else {
        0.0
    };
    m.set("crossflow.trace.overhead_share", overhead);
    m.set(
        "crossflow.trace.log_events_per_job",
        ratio(probe.trace_events as f64, probe_jobs),
    );

    // The observability pipeline (the probe's, except on `observe`).
    let lines = probe.lines_written as f64;
    m.set("crossflow.export.write_s", probe.write_s);
    m.set(
        "crossflow.export.write_ns_per_line",
        ratio(probe.write_s * 1e9, lines),
    );
    m.set("crossflow.export.parse_s", probe.parse_s);
    m.set(
        "crossflow.export.parse_ns_per_line",
        ratio(probe.parse_s * 1e9, probe.lines_parsed as f64),
    );
    m.set(
        "crossflow.export.bytes_per_line",
        ratio(probe.bytes as f64, lines),
    );
    m.set("checker.oracle.check_s", probe.check_s);
    m.set(
        "checker.oracle.ns_per_event",
        ratio(probe.check_s * 1e9, probe.sched_events as f64),
    );
    m.set("checker.oracle.violations", probe.violations as f64);

    // atomize: counts on `sim-dag` (speculations from the probe's log),
    // sweep and completion cost everywhere.
    let dag = w == Workload::SimDag;
    m.set("crossflow.atomize.tasks", if dag { jobs } else { 0.0 });
    m.set(
        "crossflow.atomize.spec_launches",
        probe.spec_launches as f64,
    );
    m.set(
        "crossflow.atomize.straggler_ns_1k",
        layers::straggler_ns(1_000, ops / 100),
    );
    m.set(
        "crossflow.atomize.straggler_ns_50k",
        layers::straggler_ns(50_000, ops / 2_000 + 1),
    );
    m.set("crossflow.atomize.done_ns", layers::dag_done_ns(ops / 2));

    let fed = w == Workload::SimFed;
    m.set("crossflow.federation.run_s", if fed { run_s } else { 0.0 });
    m.set("crossflow.federation.spills", last.spills as f64);
    m.set(
        "crossflow.federation.spill_share",
        ratio(last.spills as f64, jobs),
    );

    m.set("crossflow.threaded.contest_p50_s", c.contest_p50_s);
    m.set("crossflow.threaded.contest_p99_s", c.contest_p99_s);
    m.set("crossflow.threaded.user_cpu_s", med(&|s| s.user_s));
    m.set("crossflow.threaded.sys_cpu_s", med(&|s| s.sys_s));

    m.set(
        "workload.generate_ns_per_job",
        ratio(med(&|s| s.generate_s) * 1e9, w.arrivals(req.smoke) as f64),
    );
    let wall = |traced: bool| {
        let walls: Vec<f64> = samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.wall_s)
            .collect();
        median(&walls)
    };
    m.set(
        "benchmark.trace_overhead_share",
        ratio(wall(true), wall(false)) - 1.0,
    );
    m.finish()
}
