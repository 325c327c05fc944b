//! Command line: one measurement (what the driver and the suite's own
//! children run), the whole suite, and the comparison of two results.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crossbid_metrics::Json;

use crate::measure::{self, Request, DETERMINISTIC, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::Workload;

const USAGE: &str = "\
usage: benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
       benchmark/run.sh [--smoke] [--reps N] [--seed S] [--seconds S] [--only <workload>] [--out DIR]
       benchmark/run.sh --compare A.json B.json";

/// Where the suite writes `result.json` and traced runs their spans
/// unless `--out` says otherwise, relative to the repository root
/// `run.sh` changes into.
const OUT_DIR: &str = "benchmark/out";
const SPEC_FILE: &str = "BENCHMARK.json";
const SCHEMA: &str = "crossbid-benchmark/v1";

struct Cli {
    workload: Option<Workload>,
    only: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    reps: usize,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        only: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        reps: 5,
        out: PathBuf::from(OUT_DIR),
        compare: None,
    };
    let mut it = args.iter();
    let workload = |v: &String| {
        Workload::from_name(v).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {v:?}; one of {}", names.join(", "))
        })
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(workload(value()?)?),
            "--only" => cli.only = Some(workload(value()?)?),
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(v));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                cli.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--reps" => {
                let v = value()?;
                cli.reps = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(v))?;
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = PathBuf::from(value()?),
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                cli.compare = Some((a, b));
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let cli = match parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let outcome = if let Some((a, b)) = &cli.compare {
        compare(a, b)
    } else if let Some(w) = cli.workload {
        one(&cli, w)
    } else {
        suite(&cli)
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    }
}

/// One measurement in this process; the result is the last line of
/// standard output.
fn one(cli: &Cli, w: Workload) -> Result<bool, String> {
    let req = Request {
        workload: w,
        seed: cli.seed,
        seconds: match cli.seconds {
            Some(s) => s,
            None => run_seconds()?,
        },
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let (report, spans) = measure::measure(&req);
    eprintln!(
        "[{}] seed {} trace {}: {} runs, {} of {} failed",
        w.name(),
        req.seed,
        u8::from(req.trace),
        report.runs,
        report.failed,
        report.attempted
    );
    for p in &report.problems {
        eprintln!("[{}] incorrect: {p}", w.name());
    }
    if req.trace {
        let path = cli.out.join(format!("trace-{}.json", w.name()));
        std::fs::create_dir_all(&cli.out)
            .and_then(|()| std::fs::write(&path, spans.to_json(w.name()).render() + "\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", report.to_json().render());
    Ok(report.correct)
}

/// The result line of one child, or why there is none.
fn child(cli: &Cli, w: Workload, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out)
        .stdout(Stdio::piped());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let mut proc = cmd.spawn().map_err(|e| format!("spawning child: {e}"))?;
    // A run that takes ten times what it should is a hang (the
    // data-plane livelock in README's known hazards), not a slow run.
    let limit = Duration::from_secs_f64(10.0 * (seconds + 6.0));
    let started = Instant::now();
    loop {
        match proc.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if started.elapsed() > limit => {
                // Errors here mean the child is already gone.
                let _ = proc.kill();
                let _ = proc.wait();
                return Err(format!("killed after {:.0} s", limit.as_secs_f64()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => return Err(format!("waiting for child: {e}")),
        }
    }
    let mut out = String::new();
    proc.stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut out)
        .map_err(|e| format!("reading child output: {e}"))?;
    let line = out.lines().last().ok_or("child printed no result")?;
    Json::parse(line).map_err(|e| format!("child result: {}", e.0))
}

/// Values of one end-to-end metric over the repetitions.
fn metric_values(results: &[Json], name: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// All workloads (or `--only` one): repetitions round-robin, then one
/// traced repetition each; prints every metric and writes
/// `result.json`. False when any workload failed.
fn suite(cli: &Cli) -> Result<bool, String> {
    let seconds = match cli.seconds {
        Some(s) => s,
        None if cli.smoke => 0.5,
        None => run_seconds()?,
    };
    let workloads: Vec<Workload> = Workload::ALL
        .into_iter()
        .filter(|w| cli.only.is_none_or(|o| o == *w))
        .collect();

    // Repetition 1 of every workload, then repetition 2, ... so slow
    // drift of the machine spreads over all workloads alike.
    let mut reps: Vec<Vec<Json>> = vec![Vec::new(); workloads.len()];
    let mut problems: Vec<Vec<String>> = vec![Vec::new(); workloads.len()];
    for rep in 0..cli.reps {
        for (i, &w) in workloads.iter().enumerate() {
            eprintln!("[suite] {} repetition {}/{}", w.name(), rep + 1, cli.reps);
            match child(cli, w, seconds, false) {
                Ok(r) => reps[i].push(r),
                Err(e) => problems[i].push(format!("repetition {}: {e}", rep + 1)),
            }
        }
    }
    let mut traced = Vec::new();
    for (i, &w) in workloads.iter().enumerate() {
        eprintln!("[suite] {} traced repetition", w.name());
        traced.push(child(cli, w, seconds, true).unwrap_or_else(|e| {
            problems[i].push(format!("traced repetition: {e}"));
            Json::Null
        }));
    }

    let mut docs = Vec::new();
    let mut all_ok = true;
    for (i, &w) in workloads.iter().enumerate() {
        let results = &reps[i];
        for r in results.iter().chain([&traced[i]]) {
            if r.get("correct").and_then(Json::as_bool) != Some(true) {
                problems[i].push("a repetition reported incorrect outputs".to_string());
            }
        }
        println!("\n== {} ==", w.name());
        let mut e2e = Vec::new();
        for (name, unit) in END_TO_END {
            let values = metric_values(results, name);
            if values.len() != cli.reps {
                problems[i].push(format!("{name} missing from a repetition"));
            }
            if w.is_sim()
                && DETERMINISTIC.contains(&name)
                && values.windows(2).any(|p| p[0] != p[1])
            {
                problems[i].push(format!("{name} differs between repetitions: {values:?}"));
            }
            let (q1, med, q3) = quartiles(&values);
            println!(
                "{name:<34} {med:>16.4} {unit:<7} [q1 {q1:.4}, q3 {q3:.4}, n {}]",
                values.len()
            );
            e2e.push((
                name.to_string(),
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("median", Json::Num(med)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        let layers = traced[i]
            .get("metrics")
            .cloned()
            .unwrap_or(Json::Obj(Vec::new()));
        if let Json::Obj(fields) = &layers {
            for (name, v) in fields {
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{name:<34} {value:>16.4} {unit}");
            }
        }
        let sum = |key: &str| -> u64 { results.iter().filter_map(|r| r.get(key)?.as_u64()).sum() };
        for p in &problems[i] {
            println!("FAILED: {p}");
        }
        all_ok &= problems[i].is_empty();
        docs.push(Json::obj([
            ("name", Json::str(w.name())),
            ("ok", Json::Bool(problems[i].is_empty())),
            (
                "problems",
                Json::Arr(problems[i].iter().map(Json::str).collect()),
            ),
            ("attempted", Json::UInt(sum("attempted"))),
            ("failed", Json::UInt(sum("failed"))),
            ("end_to_end", Json::Obj(e2e)),
            ("per_layer", layers),
        ]));
    }

    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("seed", Json::UInt(cli.seed)),
        ("reps", Json::UInt(cli.reps as u64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(cli.smoke)),
        ("available_parallelism", Json::UInt(threads as u64)),
        ("workloads", Json::Arr(docs)),
    ]);
    let path = cli.out.join("result.json");
    std::fs::create_dir_all(&cli.out)
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(all_ok)
}

/// How long one measurement runs unless `--seconds` says otherwise.
fn run_seconds() -> Result<f64, String> {
    load(Path::new(SPEC_FILE))?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{SPEC_FILE} has no run_seconds"))
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {}", path.display(), e.0))
}

/// `(median, q1, q3)` of one metric of one workload in a result file.
fn summary(doc: &Json, workload: &str, metric: &str) -> Option<(f64, f64, f64)> {
    let w = doc
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?;
    let m = w.get("end_to_end")?.get(metric)?;
    Some((
        m.get("median")?.as_f64()?,
        m.get("q1")?.as_f64()?,
        m.get("q3")?.as_f64()?,
    ))
}

/// Per workload and end-to-end metric: both medians, the change, the
/// bound and a verdict. False when anything regressed.
fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = load(Path::new(SPEC_FILE))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut regressed = false;
    for w in Workload::ALL {
        for m in metrics {
            let name = m.req_str("name").map_err(|e| e.0)?;
            let bound = m.req_f64("bound").map_err(|e| e.0)?;
            let lower_is_better = m.req_str("better").map_err(|e| e.0)? == "lower";
            let (Some((am, aq1, aq3)), Some((bm, bq1, bq3))) =
                (summary(&a, w.name(), name), summary(&b, w.name(), name))
            else {
                continue;
            };
            // Change relative to A, positive when B is worse.
            let change = if am == 0.0 {
                0.0
            } else if lower_is_better {
                (bm - am) / am.abs()
            } else {
                (am - bm) / am.abs()
            };
            let spread = |q1: f64, q3: f64, med: f64| {
                if med == 0.0 {
                    0.0
                } else {
                    (q3 - q1) / med.abs()
                }
            };
            let widest = spread(aq1, aq3, am).max(spread(bq1, bq3, bm));
            let verdict = if widest > bound {
                format!("unresolved (spread {:.1}%)", widest * 100.0)
            } else if change > bound {
                regressed = true;
                "regressed".to_string()
            } else {
                "ok".to_string()
            };
            println!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}",
                w.name(),
                name,
                am,
                bm,
                change * 100.0,
                bound * 100.0,
                verdict
            );
        }
    }
    Ok(!regressed)
}
