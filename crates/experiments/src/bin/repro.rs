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
//! The six sweep artifacts (`check`, `netfault`, `failover`,
//! `federate`, `atomize`, `replicate`) hold both runtimes to the
//! protocol invariant oracle over the built-in checker scenarios —
//! see [`crossbid_experiments::sweep`] for what each one covers. Each
//! exits nonzero on any oracle violation, lost or duplicated job,
//! sweep that never showed the activity it exists to exercise (no
//! spill, no speculative re-bid, no repair, no master crash), or
//! failed headline comparison:
//!
//! ```text
//! repro check|netfault|failover|federate|atomize|replicate
//!       [--iters N] [--seed K] [--smoke]
//! ```
//!
//! An explicit `--iters` always wins; `--smoke` only picks the smaller
//! default and the reduced headline shape. A flag value that does not
//! parse (`--seed 0xC0FFEE`: seeds are decimal) exits 2 before
//! anything runs.
//!
//! The `trace` artifact runs one scenario with full observability on
//! either runtime and prints the phase-breakdown table:
//!
//! ```text
//! repro trace [--runtime sim|threaded] [--scheduler S] [--workers W]
//!             [--jobs J] [--n N] [--iterations I] [--seed K]
//!             [--trace FILE]
//! ```

use crossbid_experiments::sweep::{self, SweepConfig};
use crossbid_experiments::trace_run::{self, RuntimeChoice, TraceRunConfig};
use crossbid_experiments::{
    crash_sweep, crossover, extensions, fig2, fig3, fig4, seed_study, summary, tables,
    ExperimentConfig,
};
use crossbid_metrics::SchedulerKind;
use crossbid_workload::{JobConfig, WorkerConfig};

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value following the flag `name`, if the flag is present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
}

/// The value of the flag `name`, parsed. A value that does not parse
/// exits 2: silently falling back to the default would run a
/// different experiment than the one asked for — for a replay seed,
/// report a failing tuple as fixed.
fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    flag(args, name).map(|v| {
        v.parse()
            .unwrap_or_else(|e| die(&format!("{name} {v}: {e}")))
    })
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
    let seed: Option<u64> = parsed(&args, "--seed");
    let out_dir = flag(&args, "--out").cloned();
    if let Some(d) = &out_dir {
        std::fs::create_dir_all(d).expect("create --out directory");
    }
    let trace_file = flag(&args, "--trace").cloned();
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
            let reps: u32 = parsed(&args, "--reps").unwrap_or(5);
            let rs = seed_study::run(&cfg, reps);
            emit("replication", &seed_study::render(&rs));
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
        name if sweep::NAMES.contains(&name) => {
            let scfg = SweepConfig {
                iters: parsed(&args, "--iters"),
                seed,
                smoke,
            };
            let report = sweep::run(name, &scfg).expect("every name in NAMES is a sweep");
            emit(name, &report.body);
            if !report.ok {
                eprintln!("[repro] {name} FAILED");
                std::process::exit(1);
            }
        }
        "trace" => {
            let mut tcfg = TraceRunConfig {
                seed: seed.unwrap_or(0xC0FFEE),
                ..TraceRunConfig::default()
            };
            if smoke {
                tcfg.n_jobs = 12;
            }
            if let Some(v) = flag(&args, "--runtime") {
                tcfg.runtime = RuntimeChoice::from_name(v)
                    .unwrap_or_else(|| die(&format!("unknown runtime '{v}' (sim|threaded)")));
            }
            if let Some(v) = flag(&args, "--scheduler") {
                tcfg.scheduler = SchedulerKind::from_name(v)
                    .unwrap_or_else(|| die(&format!("unknown scheduler '{v}'")));
            }
            if let Some(v) = flag(&args, "--workers") {
                tcfg.worker_config = WorkerConfig::ALL
                    .into_iter()
                    .find(|w| w.name() == v)
                    .unwrap_or_else(|| die(&format!("unknown worker config '{v}'")));
            }
            if let Some(v) = flag(&args, "--jobs") {
                tcfg.job_config = JobConfig::ALL
                    .into_iter()
                    .find(|j| j.name() == v)
                    .unwrap_or_else(|| die(&format!("unknown job config '{v}'")));
            }
            if let Some(n) = parsed(&args, "--n") {
                tcfg.n_jobs = n;
            }
            if let Some(n) = parsed(&args, "--iterations") {
                tcfg.iterations = n;
            }
            let runs = trace_run::run(&tcfg);
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
        other => {
            eprintln!("unknown artifact '{other}'; use fig2|fig3|fig4|tables|summary|extensions|crash_sweep|crossover|replication|trace|check|netfault|failover|federate|atomize|replicate|all");
            std::process::exit(2);
        }
    }
    eprintln!("[repro] {what} done in {:.1}s", t0.elapsed().as_secs_f64());
}
