//! The seven workloads: what each one sets up, what its timed region
//! runs, and what is read off the outputs afterwards.
//!
//! Every workload is driven through the crates' public entry points
//! only (`RunSpec::builder`, `Runtime::run_iteration`,
//! `run_federation`, `write_run_stream`, `parse_run_stream`,
//! `check_log`, `SchedState::replay`) and never through
//! `crossbid_experiments::bench`, so that module can change without
//! changing the ruler.

use crossbid_checker::oracle::{check_log, OracleOptions};
use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    parse_run_stream, run_federation, write_run_stream, Arrival, EngineConfig, FedArrival,
    FederationSpec, ReplicationConfig, RunOutput, RunSpec, RunStreamLine, RunStreamMeta, Runtime,
    SchedLog, SchedState, ShardId, ShardSpec, Workflow,
};
use crossbid_metrics::SchedulerKind;
use crossbid_workload::{
    ArrivalProcess, DagConfig, JobConfig, JobMix, MixComponent, Repetition, SizeClass, WorkerConfig,
};

use crate::spans::Spans;
use crate::sys::Stopwatch;

/// One benchmark workload. The sizes are fixed (the simulated
/// statistics depend on them); only `--smoke` scales them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimNarrow,
    SimWide,
    SimDataplane,
    SimDag,
    SimFed,
    ThreadedNarrow,
    Observe,
}

/// The DAG shape of `sim-dag`: 4 maps feeding 2 reducers, reducer 0
/// skewed 2x — six tasks per arrival.
const DAG_SHAPE: DagConfig = DagConfig::MapReduceSkew {
    maps: 4,
    reduces: 2,
    skew_factor: 2.0,
};

/// Session iterations of one `observe` run (caches stay warm between
/// them, as in the paper's three-iteration sessions).
const OBSERVE_ITERATIONS: usize = 6;

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::SimNarrow,
        Workload::SimWide,
        Workload::SimDataplane,
        Workload::SimDag,
        Workload::SimFed,
        Workload::ThreadedNarrow,
        Workload::Observe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimNarrow => "sim-narrow",
            Workload::SimWide => "sim-wide",
            Workload::SimDataplane => "sim-dataplane",
            Workload::SimDag => "sim-dag",
            Workload::SimFed => "sim-fed",
            Workload::ThreadedNarrow => "threaded-narrow",
            Workload::Observe => "observe",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Real threads: host metrics jitter and nothing repeats exactly.
    pub fn is_sim(self) -> bool {
        self != Workload::ThreadedNarrow
    }

    /// The engine's event log is on in the measured runs, which push
    /// it through the observability pipeline.
    pub fn logs(self) -> bool {
        self == Workload::Observe
    }

    /// Arrivals per run at full size (DAGs on `sim-dag`, jobs per
    /// session iteration on `observe`). Sized so one run takes 2-3 s
    /// on the 2-core reference machine: long enough to repeat, short
    /// enough that a measurement holds several of them.
    fn full_arrivals(self) -> usize {
        match self {
            Workload::SimNarrow => 300_000,
            Workload::SimWide => 16_000,
            Workload::SimDataplane => 150_000,
            Workload::SimDag => 8_000,
            Workload::SimFed => 100_000,
            Workload::ThreadedNarrow => 7_500,
            Workload::Observe => 4_000,
        }
    }

    pub fn arrivals(self, smoke: bool) -> usize {
        if smoke {
            self.full_arrivals() / 20
        } else {
            self.full_arrivals()
        }
    }

    /// Arrivals of the traced probe run that follows the measurement
    /// (see [`probe`]): small, because every scheduler event of it is
    /// encoded, parsed and checked.
    pub fn probe_arrivals(self, smoke: bool) -> usize {
        let full = match self {
            Workload::SimWide => 400,
            Workload::SimDag => 200,
            Workload::ThreadedNarrow => 1_000,
            _ => 4_000,
        };
        if smoke {
            full / 4
        } else {
            full
        }
    }

    /// Schedulable units one arrival turns into.
    fn tasks_per_arrival(self) -> usize {
        match self {
            Workload::SimDag => DAG_SHAPE.tasks_per_dag(),
            _ => 1,
        }
    }

    /// Workers under one master.
    fn workers(self) -> usize {
        match self {
            Workload::SimNarrow | Workload::ThreadedNarrow => 7,
            Workload::SimWide => 256,
            Workload::SimDataplane | Workload::SimFed => 16,
            Workload::SimDag => 64,
            Workload::Observe => 32,
        }
    }

    fn shards(self) -> usize {
        match self {
            Workload::SimFed => 4,
            _ => 1,
        }
    }

    pub fn total_workers(self) -> usize {
        self.workers() * self.shards()
    }
}

/// Everything a run needs, built by [`setup`] outside the timed
/// region.
pub enum Prepared {
    /// One session; one arrival stream per session iteration.
    Single {
        rt: Box<dyn Runtime>,
        wf: Workflow,
        iterations: Vec<Vec<Arrival>>,
        meta: RunStreamMeta,
    },
    Fed {
        spec: Box<FederationSpec>,
        arrivals: Vec<FedArrival>,
    },
}

/// What the timed region of one run produced.
pub struct Ran {
    /// Schedulable units submitted (tasks on `sim-dag`).
    pub submitted: u64,
    /// Per-run (or per-shard) outputs, kept for [`Counts::of`]. Empty
    /// on `observe`, which drops each iteration's output inside the
    /// timed region and accumulates `counts` as it goes.
    pub outputs: Vec<RunOutput>,
    /// What only a federation run has.
    pub fed: Option<Fed>,
    /// Totals of the observability pipeline, on `observe` and in probes.
    pub observed: Observed,
    /// Seconds inside `run_iteration` / `run_federation`.
    pub run_s: f64,
    counts: Counts,
}

/// The federation-wide results of a `sim-fed` run.
pub struct Fed {
    /// Completions summed over shards.
    pub completed: u64,
    /// Hand-offs the router decided.
    pub spills: u64,
    /// The union of the shard logs, for the federated oracle.
    merged: SchedLog,
}

/// What the observability pipeline did over one or more run outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observed {
    pub bytes: u64,
    pub lines_written: u64,
    pub lines_parsed: u64,
    pub sched_events: u64,
    pub trace_events: u64,
    pub spec_launches: u64,
    pub task_dones: u64,
    pub violations: u64,
    pub write_s: f64,
    pub parse_s: f64,
    pub check_s: f64,
    pub replay_s: f64,
}

/// Counts read off the outputs of one run after its timed region.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub completed: u64,
    /// Sim: events delivered, summed over shards. Threaded: `control/messages`.
    pub events: u64,
    /// Events the sim queue delivered (0 on the threaded runtime).
    pub queue_events: u64,
    pub makespan_secs: f64,
    pub data_load_mb: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    pub anomalies: u64,
    pub contests: u64,
    pub contests_timed_out: u64,
    pub bids: u64,
    pub peer_fetches: u64,
    pub repairs: u64,
    pub contest_p50_s: f64,
    pub contest_p99_s: f64,
}

impl Counts {
    fn add(&mut self, w: Workload, out: &RunOutput) {
        let r = &out.record;
        self.completed += r.jobs_completed;
        self.queue_events += out.events;
        self.events += if w.is_sim() {
            out.events
        } else {
            out.metrics.counter("control/messages")
        };
        // Shards run side by side and a session's iterations run one
        // after another.
        if w == Workload::Observe {
            self.makespan_secs += r.makespan_secs;
        } else {
            self.makespan_secs = self.makespan_secs.max(r.makespan_secs);
        }
        self.data_load_mb += r.data_load_mb;
        self.cache_hits += r.cache_hits;
        self.cache_misses += r.cache_misses;
        self.evictions += r.evictions;
        self.anomalies += out.anomalies.len() as u64;
        self.contests += out.metrics.counter("contests/closed");
        self.contests_timed_out += r.contests_timed_out;
        self.bids += out.metrics.counter("bids/received");
        self.peer_fetches += out.metrics.counter("cache/peer_fetches");
        self.repairs += out.metrics.counter("data/repairs_completed");
        if let Some(h) = out.metrics.histogram("contest/bid_latency_secs") {
            self.contest_p50_s = self.contest_p50_s.max(h.quantile(0.50));
            self.contest_p99_s = self.contest_p99_s.max(h.quantile(0.99));
        }
    }

    pub fn of(w: Workload, ran: &Ran) -> Counts {
        let mut c = ran.counts;
        for out in &ran.outputs {
            c.add(w, out);
        }
        c
    }
}

fn engine_for(w: Workload, units: usize, log: bool) -> EngineConfig {
    let mut engine = EngineConfig::ideal();
    if w == Workload::SimDataplane {
        // Control latency, data latency and noise on.
        engine = EngineConfig::default();
        engine.replication = ReplicationConfig::with_factor(2);
    }
    // Every job is a broadcast to all workers plus a bid from each;
    // the cap only guards against a scheduler re-arming timers forever.
    engine.max_events = (units as u64) * (w.workers() as u64 * 6 + 64) + 1_000_000;
    engine.trace = log;
    engine
}

/// Generate the workload's inputs from `seed` and build its session;
/// also returns the seconds spent generating. `log` turns on the
/// engine's event log (`run_federation` turns it on regardless).
pub fn setup(
    w: Workload,
    seed: u64,
    arrivals: usize,
    log: bool,
    spans: &mut Spans,
) -> (Prepared, f64) {
    build(w, seed, arrivals, log, w.is_sim(), spans)
}

/// The makespan the sim engine gives `w`'s spec and arrivals: what
/// `threaded-narrow` reports as `makespan_sim_s`, because the threaded
/// runtime's own makespan is its wall clock restated (÷ `time_scale`)
/// and carries the host's noise, which a simulated statistic must not.
pub fn sim_makespan_secs(w: Workload, seed: u64, arrivals: usize) -> f64 {
    let mut off = Spans::new();
    let (prepared, _) = build(w, seed, arrivals, false, true, &mut off);
    Counts::of(w, &run(w, prepared, &mut off)).makespan_secs
}

fn build(
    w: Workload,
    seed: u64,
    arrivals: usize,
    log: bool,
    sim: bool,
    spans: &mut Spans,
) -> (Prepared, f64) {
    let poisson = |mean_interval_secs| ArrivalProcess::Poisson { mean_interval_secs };
    let mut wf = Workflow::new();
    let task = wf.add_sink("bench");

    let gen = spans.enter("workload.generate");
    let t = Stopwatch::start();
    let (stream, job_config): (Vec<Arrival>, &str) = match w {
        Workload::SimDataplane => (
            // Pool-only on purpose: an `AllDifferent` component
            // livelocks the factor-2 data plane between 60 000 and
            // 70 000 jobs (README, known hazards).
            JobMix::new()
                .with(MixComponent::data(
                    0.8,
                    SizeClass::Medium,
                    Repetition::Pool { n: 512 },
                ))
                .with(MixComponent::data(
                    0.2,
                    SizeClass::Large,
                    Repetition::Pool { n: 65 },
                ))
                .generate(seed, arrivals, task, &poisson(2.0))
                .arrivals,
            "pool-mix",
        ),
        Workload::SimDag => (
            DAG_SHAPE.generate(seed, arrivals, task, 0.25),
            DAG_SHAPE.name(),
        ),
        _ => (
            JobConfig::AllDiffEqual
                .generate(seed, arrivals, task, &poisson(0.05))
                .arrivals,
            JobConfig::AllDiffEqual.name(),
        ),
    };
    let generate_s = t.secs();
    spans.exit(gen);

    let build = spans.enter("spec.build");
    let worker_config = match w {
        Workload::SimDataplane => WorkerConfig::FastSlow,
        _ => WorkerConfig::AllEqual,
    };
    let engine = engine_for(w, arrivals * w.tasks_per_arrival(), log);
    let prepared = if w == Workload::SimFed {
        let mut spec = FederationSpec::new(
            (0..w.shards())
                .map(|_| ShardSpec::new(worker_config.specs(w.workers())))
                .collect(),
        );
        spec.engine = engine;
        spec.seed = seed;
        spec.net_seed = seed;
        spec.spill_threshold_secs = 5.0;
        spec.gossip_period_secs = 1.0;
        Prepared::Fed {
            spec: Box::new(spec),
            arrivals: stream
                .into_iter()
                .map(|a| FedArrival {
                    at: a.at,
                    home: ShardId(0),
                    spec: a.spec,
                })
                .collect(),
        }
    } else {
        let spec = RunSpec::builder()
            .workers(worker_config.specs(w.workers()))
            .names(worker_config.name(), job_config)
            .seed(seed)
            .engine(engine)
            .time_scale(1e-4)
            .build();
        let rt: Box<dyn Runtime> = if sim {
            Box::new(spec.sim())
        } else {
            Box::new(spec.threaded())
        };
        let meta = RunStreamMeta {
            runtime: rt.name().to_string(),
            scheduler: SchedulerKind::Bidding.name().to_string(),
            worker_config: worker_config.name().to_string(),
            job_config: job_config.to_string(),
            iteration: 0,
            seed,
        };
        let iterations = if w == Workload::Observe {
            vec![stream; OBSERVE_ITERATIONS]
        } else {
            vec![stream]
        };
        Prepared::Single {
            rt,
            wf,
            iterations,
            meta,
        }
    };
    spans.exit(build);
    (prepared, generate_s)
}

/// The timed region of one run.
pub fn run(w: Workload, prepared: Prepared, spans: &mut Spans) -> Ran {
    let allocator = BiddingAllocator::new();
    match prepared {
        Prepared::Fed { spec, arrivals } => {
            let submitted = arrivals.len() as u64;
            let span = spans.enter("run");
            let t = Stopwatch::start();
            let out = run_federation(&spec, arrivals, &allocator, |_| {
                let mut wf = Workflow::new();
                wf.add_sink("bench");
                wf
            });
            let run_s = t.secs();
            spans.exit_with(span, || boundary_counts(&out.shards));
            Ran {
                submitted,
                fed: Some(Fed {
                    completed: out.jobs_completed,
                    spills: out.spills.len() as u64,
                    merged: out.merged,
                }),
                outputs: out.shards,
                observed: Observed::default(),
                run_s,
                counts: Counts::default(),
            }
        }
        Prepared::Single {
            mut rt,
            mut wf,
            iterations,
            mut meta,
        } => {
            let mut ran = Ran {
                submitted: 0,
                outputs: Vec::new(),
                fed: None,
                observed: Observed::default(),
                run_s: 0.0,
                counts: Counts::default(),
            };
            for (i, arrivals) in iterations.into_iter().enumerate() {
                ran.submitted += (arrivals.len() * w.tasks_per_arrival()) as u64;
                let span = spans.enter("run");
                let t = Stopwatch::start();
                let out = rt.run_iteration(&mut wf, &allocator, arrivals);
                ran.run_s += t.secs();
                spans.exit_with(span, || boundary_counts(std::slice::from_ref(&out)));
                if w.logs() {
                    meta.iteration = i as u32;
                    observe(&out, &meta, spans, &mut ran.observed);
                    ran.counts.add(w, &out);
                } else {
                    ran.outputs.push(out);
                }
            }
            ran
        }
    }
}

/// Registry counters at the end of a `run` span, summed over shards.
fn boundary_counts(outputs: &[RunOutput]) -> Vec<(&'static str, u64)> {
    [
        "jobs/completed",
        "assignments",
        "contests/closed",
        "bids/received",
        "control/messages",
        "cache/hits",
        "cache/misses",
        "cache/peer_fetches",
    ]
    .into_iter()
    .map(|name| (name, outputs.iter().map(|o| o.metrics.counter(name)).sum()))
    .collect()
}

/// The observability pipeline over one run's output: encode the event
/// stream to JSONL in memory, parse it back, run the invariant oracle
/// over the scheduler log and rebuild the master's state by replaying
/// the parsed events.
pub fn observe(out: &RunOutput, meta: &RunStreamMeta, spans: &mut Spans, acc: &mut Observed) {
    let mut buf = Vec::new();
    let span = spans.enter("export.write");
    let t = Stopwatch::start();
    let lines = write_run_stream(&mut buf, meta, out).expect("writing to memory cannot fail");
    acc.write_s += t.secs();
    spans.exit(span);

    let span = spans.enter("export.parse");
    let t = Stopwatch::start();
    let text = std::str::from_utf8(&buf).expect("the stream is UTF-8");
    let parsed = parse_run_stream(text).expect("a written stream parses");
    acc.parse_s += t.secs();
    spans.exit(span);

    let span = spans.enter("oracle.check");
    let t = Stopwatch::start();
    let violations = check_log(&out.sched_log, OracleOptions::default());
    acc.check_s += t.secs();
    spans.exit(span);

    let span = spans.enter("replog.replay");
    let t = Stopwatch::start();
    let state = SchedState::replay(parsed.iter().filter_map(|l| match l {
        RunStreamLine::Sched(ev) => Some(ev),
        _ => None,
    }));
    std::hint::black_box(&state);
    acc.replay_s += t.secs();
    spans.exit(span);

    acc.bytes += buf.len() as u64;
    acc.lines_written += lines;
    acc.lines_parsed += parsed.len() as u64;
    acc.sched_events += out.sched_log.len() as u64;
    acc.trace_events += out.trace.len() as u64;
    acc.spec_launches += out.sched_log.spec_launches() as u64;
    acc.task_dones += out.sched_log.task_dones() as u64;
    acc.violations += violations.len() as u64;
}

/// A small traced run of the same workload shape, pushed through the
/// observability pipeline: gives every workload its log volume per
/// job and puts every workload's protocol in front of the oracle.
/// `observe` needs none — its measured runs already do this.
pub fn probe(w: Workload, seed: u64, smoke: bool, spans: &mut Spans) -> (u64, Observed) {
    let (prepared, _) = setup(w, seed, w.probe_arrivals(smoke), true, spans);
    let meta = match &prepared {
        Prepared::Single { meta, .. } => meta.clone(),
        Prepared::Fed { spec, .. } => RunStreamMeta {
            runtime: "sim".to_string(),
            scheduler: SchedulerKind::Bidding.name().to_string(),
            worker_config: "federation".to_string(),
            job_config: "federation".to_string(),
            iteration: 0,
            seed: spec.seed,
        },
    };
    let ran = run(w, prepared, spans);
    let mut observed = ran.observed;
    for out in &ran.outputs {
        observe(out, &meta, spans, &mut observed);
    }
    if let Some(fed) = &ran.fed {
        // Every hand-off pairs up across shards and a spilled job
        // completes only in its target shard.
        let opts = OracleOptions {
            federated: true,
            ..OracleOptions::default()
        };
        observed.violations += check_log(&fed.merged, opts).len() as u64;
    }
    (ran.submitted, observed)
}

/// Replay every output's scheduler log (on `sim-fed`, every shard's;
/// elsewhere the measured runs keep none) into master state. Returns
/// seconds spent, entries replayed, and jobs the replayed state still
/// holds unplaced — none, after a complete run.
pub fn replay_logs(ran: &Ran) -> (f64, u64, usize) {
    let t = Stopwatch::start();
    let (mut entries, mut unplaced) = (0, 0);
    for out in &ran.outputs {
        let state = SchedState::replay(out.sched_log.events());
        unplaced += state.unplaced_jobs().len();
        entries += out.sched_log.len() as u64;
    }
    (t.secs(), entries, unplaced)
}
