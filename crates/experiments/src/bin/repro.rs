//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [fig2|fig3|fig4|tables|summary|extensions|crash_sweep|crossover|replication|trace|check|netfault|failover|federate|atomize|replicate|all]
//!       [--smoke] [--seed N] [--out DIR] [--trace FILE]
//! ```
//!
//! With `--out DIR` every artifact is also written to
//! `DIR/<artifact>.md` and the raw grid records to `DIR/records.csv`.
//! With `--trace FILE` the run records behind the artifact are also
//! streamed to `FILE` as JSONL (`crossbid_crossflow::export` schema).
//!
//! `fig3`/`fig4`/`summary` share one grid execution; `fig2` runs the
//! Spark comparison; `tables` runs the threaded-runtime MSR
//! experiment. `--smoke` shrinks everything for a fast check.
//!
//! The `check` artifact runs every built-in checker scenario through
//! the protocol invariant oracle on both runtimes and exits nonzero
//! on any violation:
//!
//! ```text
//! repro check [--iters N] [--seed K]
//! ```
//!
//! The `netfault` artifact sweeps a loss-rate × partition-length grid
//! of lossy-link plans over the same scenarios on both runtimes and
//! exits nonzero unless every run completes all jobs with
//! exactly-once effects and zero violations:
//!
//! ```text
//! repro netfault [--iters N] [--seed K]
//! ```
//!
//! The `failover` artifact sweeps seeded master-crash indices over the
//! same scenarios on both runtimes — the leader dies mid-protocol and
//! an elected standby must finish every job exactly once by log
//! replay — and exits nonzero on any violation, lost job, or sweep in
//! which no crash actually fired:
//!
//! ```text
//! repro failover [--iters N] [--seed K]
//! ```
//!
//! The `federate` artifact sweeps the sharded multi-master federation
//! axis (shard count × spill threshold × membership churn) on both
//! runtimes, then runs the 1000-worker four-master headline scenario
//! and its spilling-disabled control; it exits nonzero on any oracle
//! violation, lost or duplicated hand-off, inert sweep, or if
//! cross-shard spillover fails to beat the saturated single master:
//!
//! ```text
//! repro federate [--iters N] [--seed K] [--smoke]
//! ```
//!
//! The `atomize` artifact sweeps the task-level DAG axis (atomizer +
//! speculative straggler re-bidding) on both runtimes, then runs the
//! headline task-level vs whole-job vs Spark-static comparison; it
//! exits nonzero on any oracle violation, lost task, sweep with no
//! speculative re-bid, or if task-level fails to beat whole-job on
//! the straggler scenario:
//!
//! ```text
//! repro atomize [--iters N] [--seed K] [--smoke]
//! ```
//!
//! The `replicate` artifact sweeps the replicated-data-plane axis
//! (replication factor × holder crash × peer-transfer loss × eviction
//! pressure) on both runtimes, then runs the factor {1,2,3} × crash ×
//! loss headline product; it exits nonzero on any oracle violation,
//! lost or duplicated job, sweep that never completed a
//! re-replication, or headline row with no peer fetch retry:
//!
//! ```text
//! repro replicate [--iters N] [--seed K] [--smoke]
//! ```
//!
//! The `trace` artifact runs one scenario with full observability on
//! either runtime and prints the phase-breakdown table:
//!
//! ```text
//! repro trace [--runtime sim|threaded] [--scheduler S] [--workers W]
//!             [--jobs J] [--n N] [--iterations I] [--seed K]
//!             [--trace FILE]
//! ```
//!
//! The `bench` artifact is the throughput harness: it sweeps worker
//! counts on both runtimes, measures jobs/sec and contest-latency
//! quantiles, and emits a versioned JSON document (see
//! [`crossbid_experiments::bench`]):
//!
//! ```text
//! repro bench [--smoke] [--jobs N] [--threaded-jobs N]
//!             [--workers 7,64,256] [--runtime sim|threaded|both]
//!             [--label STR] [--baseline FILE] [--json FILE]
//! repro bench --check FILE     # schema-validate an existing document
//! ```

use crossbid_experiments::atomize::{self, AtomizeConfig};
use crossbid_experiments::bench::{self, BenchConfig};
use crossbid_experiments::check::{self, CheckConfig};
use crossbid_experiments::failover::{self, FailoverConfig};
use crossbid_experiments::federate::{self, FederateConfig};
use crossbid_experiments::netfault::{self, NetFaultConfig};
use crossbid_experiments::replicate::{self, ReplicateConfig};
use crossbid_experiments::trace_run::{self, RuntimeChoice, TraceRunConfig};
use crossbid_experiments::{
    crash_sweep, crossover, extensions, fig2, fig3, fig4, replication, summary, tables,
    ExperimentConfig,
};
use crossbid_metrics::SchedulerKind;
use crossbid_workload::{JobConfig, WorkerConfig};

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// `JsonlWriter` already writes in large chunks; the `BufWriter` joins
/// the short streams of a many-iteration run. Both JSONL writers flush
/// before they report their line count, so no error is lost on drop.
fn create_trace_file(path: &str) -> std::io::BufWriter<std::fs::File> {
    std::io::BufWriter::new(std::fs::File::create(path).expect("create --trace file"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok());
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if let Some(d) = &out_dir {
        std::fs::create_dir_all(d).expect("create --out directory");
    }
    let trace_file = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let emit_trace_records = |records: &[crossbid_metrics::RunRecord]| {
        if let Some(path) = &trace_file {
            let f = create_trace_file(path);
            let lines = trace_run::write_records_jsonl(f, records).expect("write --trace JSONL");
            eprintln!("[repro] wrote {lines} JSONL lines to {path}");
        }
    };
    let emit = |name: &str, body: &str| {
        println!("{body}");
        if let Some(d) = &out_dir {
            let path = std::path::Path::new(d).join(format!("{name}.md"));
            std::fs::write(&path, body).expect("write artifact");
            eprintln!("[repro] wrote {}", path.display());
        }
    };
    let emit_records = |records: &[crossbid_metrics::RunRecord]| {
        if let Some(d) = &out_dir {
            let headers = [
                "scheduler",
                "worker_config",
                "job_config",
                "iteration",
                "makespan_secs",
                "cache_misses",
                "cache_hits",
                "data_load_mb",
                "control_messages",
            ];
            let rows: Vec<Vec<String>> = records
                .iter()
                .map(|r| {
                    vec![
                        r.scheduler.name().to_string(),
                        r.worker_config.clone(),
                        r.job_config.clone(),
                        r.iteration.to_string(),
                        format!("{:.3}", r.makespan_secs),
                        r.cache_misses.to_string(),
                        r.cache_hits.to_string(),
                        format!("{:.3}", r.data_load_mb),
                        r.control_messages.to_string(),
                    ]
                })
                .collect();
            let csv = crossbid_metrics::render_csv(&headers, &rows);
            let path = std::path::Path::new(d).join("records.csv");
            std::fs::write(&path, csv).expect("write records.csv");
            eprintln!("[repro] wrote {}", path.display());
        }
    };

    let mut cfg = if smoke {
        ExperimentConfig::smoke()
    } else {
        ExperimentConfig::default()
    };
    if let Some(s) = seed {
        cfg.seed = s;
    }

    let t0 = std::time::Instant::now();
    match what.as_str() {
        "fig2" => {
            let (rows, records) = fig2::run(&cfg);
            emit("fig2", &fig2::render(&rows));
            emit_records(&records);
        }
        "fig3" => {
            let (rows, records) = fig3::run(&cfg);
            emit("fig3", &fig3::render(&rows));
            emit_records(&records);
            emit_trace_records(&records);
        }
        "fig4" => {
            let (rows, records) = fig4::run(&cfg);
            emit("fig4", &fig4::render(&rows));
            emit_records(&records);
        }
        "summary" => {
            let (_, records) = fig3::run(&cfg);
            emit("summary", &summary::render(&summary::compute(&records)));
            emit_records(&records);
        }
        "extensions" => {
            let rows = extensions::run_faults(&cfg);
            emit("extensions", &extensions::render_faults(&rows));
        }
        "crash_sweep" => {
            let exp = if smoke {
                crash_sweep::CrashSweepExperiment::smoke()
            } else {
                crash_sweep::CrashSweepExperiment::default()
            };
            let cells = crash_sweep::run(&exp);
            emit("crash_sweep", &crash_sweep::render(&cells));
            let records: Vec<crossbid_metrics::RunRecord> =
                cells.iter().map(|c| c.record.clone()).collect();
            emit_trace_records(&records);
        }
        "crossover" => {
            let points = crossover::run(&cfg);
            emit("crossover", &crossover::render(&points));
        }
        "replication" => {
            let reps = args
                .iter()
                .position(|a| a == "--reps")
                .and_then(|i| args.get(i + 1))
                .and_then(|s| s.parse::<u32>().ok())
                .unwrap_or(5);
            let rs = replication::run(&cfg, reps);
            emit("replication", &replication::render(&rs));
        }
        "tables" => {
            let exp = if smoke {
                tables::MsrExperiment::smoke()
            } else {
                tables::MsrExperiment::default()
            };
            let res = tables::run(&exp);
            emit("tables", &tables::render(&res));
        }
        "check" => {
            let mut ccfg = CheckConfig::default();
            if let Some(v) = args
                .iter()
                .position(|a| a == "--iters")
                .and_then(|i| args.get(i + 1))
            {
                ccfg.iters = v.parse().unwrap_or_else(|e| die(&format!("--iters: {e}")));
            }
            if let Some(s) = seed {
                ccfg.seed = s;
            }
            if smoke {
                ccfg.iters = ccfg.iters.min(2);
            }
            let report = check::run(&ccfg);
            emit("check", &report.body);
            if !report.ok {
                eprintln!("[repro] check FAILED");
                std::process::exit(1);
            }
        }
        "netfault" => {
            let mut ncfg = NetFaultConfig::default();
            if let Some(v) = args
                .iter()
                .position(|a| a == "--iters")
                .and_then(|i| args.get(i + 1))
            {
                ncfg.iters = v.parse().unwrap_or_else(|e| die(&format!("--iters: {e}")));
            }
            if let Some(s) = seed {
                ncfg.seed = s;
            }
            if smoke {
                ncfg.iters = ncfg.iters.min(1);
            }
            let report = netfault::run(&ncfg);
            emit("netfault", &report.body);
            if !report.ok {
                eprintln!("[repro] netfault FAILED");
                std::process::exit(1);
            }
        }
        "failover" => {
            let mut fcfg = FailoverConfig::default();
            if let Some(v) = args
                .iter()
                .position(|a| a == "--iters")
                .and_then(|i| args.get(i + 1))
            {
                fcfg.iters = v.parse().unwrap_or_else(|e| die(&format!("--iters: {e}")));
            }
            if let Some(s) = seed {
                fcfg.seed = s;
            }
            if smoke {
                fcfg.iters = fcfg.iters.min(2);
            }
            let report = failover::run(&fcfg);
            emit("failover", &report.body);
            if !report.ok {
                eprintln!("[repro] failover FAILED");
                std::process::exit(1);
            }
        }
        "federate" => {
            let mut fcfg = if smoke {
                FederateConfig::smoke()
            } else {
                FederateConfig::default()
            };
            if let Some(v) = args
                .iter()
                .position(|a| a == "--iters")
                .and_then(|i| args.get(i + 1))
            {
                fcfg.iters = v.parse().unwrap_or_else(|e| die(&format!("--iters: {e}")));
            }
            if let Some(s) = seed {
                fcfg.seed = s;
            }
            let report = federate::run(&fcfg);
            emit("federate", &report.body);
            if !report.ok {
                eprintln!("[repro] federate FAILED");
                std::process::exit(1);
            }
        }
        "replicate" => {
            let mut rcfg = if smoke {
                ReplicateConfig::smoke()
            } else {
                ReplicateConfig::default()
            };
            if let Some(v) = args
                .iter()
                .position(|a| a == "--iters")
                .and_then(|i| args.get(i + 1))
            {
                rcfg.iters = v.parse().unwrap_or_else(|e| die(&format!("--iters: {e}")));
            }
            if let Some(s) = seed {
                rcfg.seed = s;
            }
            let report = replicate::run(&rcfg);
            emit("replicate", &report.body);
            if !report.ok {
                eprintln!("[repro] replicate FAILED");
                std::process::exit(1);
            }
        }
        "atomize" => {
            let mut acfg = if smoke {
                AtomizeConfig::smoke()
            } else {
                AtomizeConfig::default()
            };
            if let Some(v) = args
                .iter()
                .position(|a| a == "--iters")
                .and_then(|i| args.get(i + 1))
            {
                acfg.iters = v.parse().unwrap_or_else(|e| die(&format!("--iters: {e}")));
            }
            if let Some(s) = seed {
                acfg.seed = s;
            }
            let report = atomize::run(&acfg);
            emit("atomize", &report.body);
            if !report.ok {
                eprintln!("[repro] atomize FAILED");
                std::process::exit(1);
            }
        }
        "trace" => {
            let flag = |name: &str| {
                args.iter()
                    .position(|a| a == name)
                    .and_then(|i| args.get(i + 1))
            };
            let mut tcfg = TraceRunConfig {
                seed: seed.unwrap_or(0xC0FFEE),
                ..TraceRunConfig::default()
            };
            if smoke {
                tcfg.n_jobs = 12;
            }
            if let Some(v) = flag("--runtime") {
                tcfg.runtime = RuntimeChoice::from_name(v)
                    .unwrap_or_else(|| die(&format!("unknown runtime '{v}' (sim|threaded)")));
            }
            if let Some(v) = flag("--scheduler") {
                tcfg.scheduler = SchedulerKind::from_name(v)
                    .unwrap_or_else(|| die(&format!("unknown scheduler '{v}'")));
            }
            if let Some(v) = flag("--workers") {
                tcfg.worker_config = WorkerConfig::ALL
                    .into_iter()
                    .find(|w| w.name() == v)
                    .unwrap_or_else(|| die(&format!("unknown worker config '{v}'")));
            }
            if let Some(v) = flag("--jobs") {
                tcfg.job_config = JobConfig::ALL
                    .into_iter()
                    .find(|j| j.name() == v)
                    .unwrap_or_else(|| die(&format!("unknown job config '{v}'")));
            }
            if let Some(v) = flag("--n") {
                tcfg.n_jobs = v.parse().unwrap_or_else(|e| die(&format!("--n: {e}")));
            }
            if let Some(v) = flag("--iterations") {
                tcfg.iterations = v
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--iterations: {e}")));
            }
            let runs = trace_run::run(&tcfg).unwrap_or_else(|e| die(&e));
            emit("trace", &trace_run::render_phase_table(&runs));
            if let Some(path) = &trace_file {
                let f = create_trace_file(path);
                let lines = trace_run::write_streams(f, &runs).expect("write --trace JSONL");
                eprintln!("[repro] wrote {lines} JSONL lines to {path}");
            } else {
                let lines = trace_run::write_streams(std::io::stdout().lock(), &runs)
                    .expect("write JSONL to stdout");
                eprintln!("[repro] streamed {lines} JSONL lines to stdout");
            }
        }
        "all" => {
            let (rows2, _) = fig2::run(&cfg);
            emit("fig2", &fig2::render(&rows2));
            let (rows3, records) = fig3::run(&cfg);
            emit("fig3", &fig3::render(&rows3));
            emit("fig4", &fig4::render(&fig4::rows_from_records(&records)));
            emit("summary", &summary::render(&summary::compute(&records)));
            emit_records(&records);
            let exp = if smoke {
                tables::MsrExperiment::smoke()
            } else {
                tables::MsrExperiment::default()
            };
            let res = tables::run(&exp);
            emit("tables", &tables::render(&res));
            let rows = extensions::run_faults(&cfg);
            emit("extensions", &extensions::render_faults(&rows));
            let sweep = if smoke {
                crash_sweep::CrashSweepExperiment::smoke()
            } else {
                crash_sweep::CrashSweepExperiment::default()
            };
            let cells = crash_sweep::run(&sweep);
            emit("crash_sweep", &crash_sweep::render(&cells));
            let points = crossover::run(&cfg);
            emit("crossover", &crossover::render(&points));
        }
        "bench" => {
            let flag = |name: &str| {
                args.iter()
                    .position(|a| a == name)
                    .and_then(|i| args.get(i + 1))
            };
            if let Some(path) = flag("--check") {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| die(&format!("--check {path}: {e}")));
                match bench::BenchDoc::parse(&text) {
                    Ok(doc) => {
                        eprintln!(
                            "[repro] bench --check {path}: ok ({} current rows, speedup_sim_64={:?})",
                            doc.current.rows.len(),
                            doc.speedup_sim_64
                        );
                        return;
                    }
                    Err(e) => die(&format!("--check {path}: schema drift: {e}")),
                }
            }
            let mut bcfg = if smoke {
                BenchConfig::smoke()
            } else {
                BenchConfig::full()
            };
            if let Some(s) = seed {
                bcfg.seed = s;
            }
            if let Some(v) = flag("--jobs") {
                bcfg.sim_jobs = v.parse().unwrap_or_else(|e| die(&format!("--jobs: {e}")));
            }
            if let Some(v) = flag("--threaded-jobs") {
                bcfg.threaded_jobs = v
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--threaded-jobs: {e}")));
            }
            if let Some(v) = flag("--workers") {
                bcfg.workers = v
                    .split(',')
                    .map(|w| w.trim().parse())
                    .collect::<Result<Vec<usize>, _>>()
                    .unwrap_or_else(|e| die(&format!("--workers: {e}")));
            }
            if let Some(v) = flag("--runtime") {
                bcfg.runtimes = match v.as_str() {
                    "sim" => vec![RuntimeChoice::Sim],
                    "threaded" => vec![RuntimeChoice::Threaded],
                    "both" => vec![RuntimeChoice::Sim, RuntimeChoice::Threaded],
                    other => die(&format!("unknown runtime '{other}' (sim|threaded|both)")),
                };
            }
            if let Some(v) = flag("--label") {
                bcfg.label = v.clone();
            }
            let baseline = flag("--baseline").map(|path| {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| die(&format!("--baseline {path}: {e}")));
                let doc = bench::BenchDoc::parse(&text)
                    .unwrap_or_else(|e| die(&format!("--baseline {path}: {e}")));
                doc.current
            });
            let current = bench::run_sweep(&bcfg);
            let doc = bench::BenchDoc::assemble(baseline, current);
            let body = doc.render();
            if let Some(path) = flag("--json") {
                std::fs::write(path, &body).expect("write --json file");
                eprintln!("[repro] wrote {path}");
            } else {
                println!("{body}");
            }
        }
        other => {
            eprintln!("unknown artifact '{other}'; use fig2|fig3|fig4|tables|summary|extensions|crash_sweep|crossover|replication|trace|check|netfault|failover|federate|atomize|replicate|bench|all");
            std::process::exit(2);
        }
    }
    eprintln!("[repro] {what} done in {:.1}s", t0.elapsed().as_secs_f64());
}
