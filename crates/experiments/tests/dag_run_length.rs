//! Run-length curves: does the cost of one unit of work depend on how
//! much work the run has already done?
//!
//! Two measurements, both `#[ignore]`d because they time things (and
//! timings do not repeat; the count-based guards in `alloc_budget.rs`
//! do): print them with
//!
//! ```text
//! cargo test --release -p crossbid-experiments --test dag_run_length -- --ignored --nocapture --test-threads 1
//! ```
//!
//! * the repo benchmark's `sim-dag` shape at four run lengths — tasks
//!   per second should be flat, and the simulated statistics printed
//!   next to it are what a change to `DagState` or `LocalStore` must
//!   leave exactly as they were;
//! * one `run_stream_lines` pass over a short and a ten times longer
//!   event stream — nanoseconds per line should be flat.

use std::time::Instant;

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    run_stream_lines, write_run_stream, EngineConfig, RunOutput, RunSpec, RunStreamMeta, Workflow,
};
use crossbid_workload::{ArrivalProcess, DagConfig, JobConfig, WorkerConfig};

const SEED: u64 = 1;

fn ideal_engine(units: usize, workers: usize, trace: bool) -> EngineConfig {
    let mut engine = EngineConfig::ideal();
    engine.max_events = units as u64 * (workers as u64 * 6 + 64) + 1_000_000;
    engine.trace = trace;
    engine
}

/// `sim-dag` as `benchmark/src/workloads.rs` builds it: 64 equal
/// workers, ideal engine, one 4-map / 2-reduce DAG (reducer 0 skewed
/// 2×) every 0.25 s.
fn run_sim_dag(dags: usize) -> (RunOutput, f64) {
    const SHAPE: DagConfig = DagConfig::MapReduceSkew {
        maps: 4,
        reduces: 2,
        skew_factor: 2.0,
    };
    const WORKERS: usize = 64;
    let mut wf = Workflow::new();
    let task = wf.add_sink("bench");
    let arrivals = SHAPE.generate(SEED, dags, task, 0.25);
    let mut rt = RunSpec::builder()
        .workers(WorkerConfig::AllEqual.specs(WORKERS))
        .seed(SEED)
        .engine(ideal_engine(dags * SHAPE.tasks_per_dag(), WORKERS, false))
        .build()
        .sim();
    let t = Instant::now();
    let out = rt.run_iteration(&mut wf, &BiddingAllocator::new(), arrivals);
    (out, t.elapsed().as_secs_f64())
}

#[test]
#[ignore = "a timing curve, not a check: run with --ignored --nocapture"]
fn sim_dag_tasks_per_second_by_run_length() {
    println!("sim-dag shape, seed {SEED}: tasks/s by run length");
    for dags in [2_000, 8_000, 15_000, 30_000] {
        let (out, secs) = run_sim_dag(dags);
        let r = &out.record;
        // Every task completes; a cancelled speculation loser counts
        // as completed too.
        let tasks = 6 * dags as u64;
        assert!(r.jobs_completed >= tasks, "every task completes");
        println!(
            "  {:>6} DAGs {:>7} tasks: {:>8.0} tasks/s | completed {} events {} makespan {:.2} s \
             load {:.3} MB hits {} misses {} evictions {}",
            dags,
            tasks,
            tasks as f64 / secs,
            r.jobs_completed,
            out.events,
            r.makespan_secs,
            r.data_load_mb,
            r.cache_hits,
            r.cache_misses,
            r.evictions,
        );
    }
}

#[test]
#[ignore = "a timing curve, not a check: run with --ignored --nocapture"]
fn run_stream_parse_ns_per_line_by_stream_length() {
    const WORKERS: usize = 32;
    println!("run_stream_lines over one traced {WORKERS}-worker run: ns/line by stream length");
    for jobs in [4_000, 40_000] {
        let mut wf = Workflow::new();
        let task = wf.add_sink("bench");
        let process = ArrivalProcess::Poisson {
            mean_interval_secs: 0.05,
        };
        let stream = JobConfig::AllDiffEqual.generate(SEED, jobs, task, &process);
        let mut rt = RunSpec::builder()
            .workers(WorkerConfig::AllEqual.specs(WORKERS))
            .seed(SEED)
            .engine(ideal_engine(jobs, WORKERS, true))
            .trace(true)
            .build()
            .sim();
        let out = rt.run_iteration(&mut wf, &BiddingAllocator::new(), stream.arrivals);
        let meta = RunStreamMeta {
            runtime: "sim".to_string(),
            scheduler: "bidding".to_string(),
            worker_config: WorkerConfig::AllEqual.name().to_string(),
            job_config: JobConfig::AllDiffEqual.name().to_string(),
            iteration: 0,
            seed: SEED,
        };
        let mut bytes = Vec::new();
        let written = write_run_stream(&mut bytes, &meta, &out).expect("write to memory");
        drop(out);
        let text = std::str::from_utf8(&bytes).expect("JSONL is UTF-8");
        // Best of three: the first pass also pays for faulting the
        // text in.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            let parsed = run_stream_lines(text).try_fold(0u64, |n, line| line.map(|_| n + 1));
            best = best.min(t.elapsed().as_secs_f64());
            assert_eq!(parsed, Ok(written));
        }
        println!(
            "  {:>6} jobs {:>8} lines {:>6.1} MB: {:>6.1} ns/line",
            jobs,
            written,
            bytes.len() as f64 / 1e6,
            best * 1e9 / written as f64,
        );
    }
}
