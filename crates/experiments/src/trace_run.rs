//! `repro trace` — run one scenario on either runtime with full
//! observability: per-job lifecycle trace, scheduler event log, and
//! the typed metrics registry, streamed as JSONL
//! (see [`crossbid_crossflow::export`]) plus a phase-breakdown table
//! (queue wait / transfer / processing — the decomposition the
//! paper's §6.3.2 discussion reasons about).

use std::io::{self, Write};

use crossbid_crossflow::{
    write_run_stream, RunOutput, RunSpec, RunStreamLine, RunStreamMeta, Runtime,
};
use crossbid_metrics::table::f2;
use crossbid_metrics::{HistogramSnapshot, SchedulerKind, Table};
use crossbid_simcore::SeedSequence;
use crossbid_workload::{ArrivalProcess, JobConfig, WorkerConfig};

use crate::runner::allocator_for;

/// Which executor `repro trace` drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeChoice {
    /// The deterministic discrete-event engine.
    Sim,
    /// The real-threaded runtime.
    Threaded,
}

impl RuntimeChoice {
    /// Parse a `--runtime` value.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(RuntimeChoice::Sim),
            "threaded" => Some(RuntimeChoice::Threaded),
            _ => None,
        }
    }
}

/// One traced scenario.
#[derive(Debug, Clone)]
pub struct TraceRunConfig {
    /// Executor.
    pub runtime: RuntimeChoice,
    /// Allocation algorithm.
    pub scheduler: SchedulerKind,
    /// Cluster shape.
    pub worker_config: WorkerConfig,
    /// Job stream shape.
    pub job_config: JobConfig,
    /// Jobs in the stream.
    pub n_jobs: usize,
    /// Warm-cache iterations.
    pub iterations: u32,
    /// Root seed.
    pub seed: u64,
}

impl Default for TraceRunConfig {
    fn default() -> Self {
        TraceRunConfig {
            runtime: RuntimeChoice::Sim,
            scheduler: SchedulerKind::Bidding,
            worker_config: WorkerConfig::AllEqual,
            job_config: JobConfig::Pct80Large,
            n_jobs: 60,
            iterations: 2,
            seed: 0xC0FFEE,
        }
    }
}

/// Run the scenario: one warm-cache session, traces and metrics on.
/// Returns `(stream header, run output)` per iteration.
pub fn run(cfg: &TraceRunConfig) -> Vec<(RunStreamMeta, RunOutput)> {
    // No shared metrics sink: each iteration snapshots its own
    // private registry, so the phase table is per-iteration rather
    // than cumulative.
    let spec = RunSpec::builder()
        .workers(cfg.worker_config.paper_specs())
        .names(cfg.worker_config.name(), cfg.job_config.name())
        .seed(cfg.seed)
        .trace(true)
        .time_scale(2e-4)
        .build();
    let mut rt: Box<dyn Runtime> = match cfg.runtime {
        RuntimeChoice::Sim => Box::new(spec.sim()),
        RuntimeChoice::Threaded => Box::new(spec.threaded()),
    };
    let allocator = allocator_for(cfg.scheduler);
    let mut wf = crossbid_crossflow::Workflow::new();
    let task = wf.add_sink("scan");
    let stream = cfg.job_config.generate(
        cfg.seed,
        cfg.n_jobs,
        task,
        &ArrivalProcess::evaluation_default(),
    );
    let mut runs = Vec::new();
    for i in 0..cfg.iterations {
        let out = rt.run_iteration(&mut wf, allocator.as_ref(), stream.arrivals.clone());
        let meta = RunStreamMeta {
            runtime: rt.name().to_string(),
            scheduler: cfg.scheduler.name().to_string(),
            worker_config: cfg.worker_config.name().to_string(),
            job_config: cfg.job_config.name().to_string(),
            iteration: i,
            seed: SeedSequence::new(cfg.seed).seed_for(1000 + i as u64),
        };
        runs.push((meta, out));
    }
    runs
}

/// Render the per-iteration phase breakdown from the metrics
/// registry: how each job's latency splits into queue wait, resource
/// transfer, and processing.
pub fn render_phase_table(runs: &[(RunStreamMeta, RunOutput)]) -> String {
    let title = match runs.first() {
        Some((m, _)) => format!(
            "Phase breakdown — {} on {} ({} × {})",
            m.scheduler, m.runtime, m.worker_config, m.job_config
        ),
        None => "Phase breakdown".to_string(),
    };
    let mut t = Table::new(
        title,
        &[
            "iter",
            "jobs",
            "makespan (s)",
            "wait mean (s)",
            "wait p95 (s)",
            "fetch mean (s)",
            "fetches",
            "proc mean (s)",
            "timeouts",
            "fallbacks",
        ],
    );
    for (meta, out) in runs {
        let snap = &out.metrics;
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0.0,
            buckets: Vec::new(),
        };
        let wait = snap.histogram("job/queue_wait_secs").unwrap_or(&empty);
        let fetch = snap.histogram("job/fetch_secs").unwrap_or(&empty);
        let proc = snap.histogram("job/proc_secs").unwrap_or(&empty);
        t.row([
            meta.iteration.to_string(),
            out.record.jobs_completed.to_string(),
            f2(out.record.makespan_secs),
            f2(wait.mean()),
            f2(wait.quantile(0.95)),
            f2(fetch.mean()),
            fetch.count.to_string(),
            f2(proc.mean()),
            out.record.contests_timed_out.to_string(),
            out.record.contests_fallback.to_string(),
        ]);
    }
    t.render()
}

/// Write every iteration's full run stream (header, trace events,
/// scheduler events, record, metrics snapshot), concatenated, to
/// `out`. Returns total lines.
pub fn write_streams<W: Write>(mut out: W, runs: &[(RunStreamMeta, RunOutput)]) -> io::Result<u64> {
    let mut total = 0;
    for (meta, run) in runs {
        total += write_run_stream(&mut out, meta, run)?;
    }
    Ok(total)
}

/// Write bare records (no per-job events) as a parseable run stream —
/// what `repro <artifact> --trace FILE` emits for grid artifacts,
/// whose cells run without tracing. Returns lines written.
pub fn write_records_jsonl<W: Write>(
    out: W,
    records: &[crossbid_metrics::RunRecord],
) -> io::Result<u64> {
    let mut w = crossbid_metrics::JsonlWriter::new(out);
    for r in records {
        w.write_with(|line| RunStreamLine::Record(Box::new(r.clone())).render_into(line))?;
    }
    let lines = w.lines();
    w.finish()?;
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbid_crossflow::parse_run_stream;

    fn smoke_cfg(runtime: RuntimeChoice) -> TraceRunConfig {
        TraceRunConfig {
            runtime,
            n_jobs: 12,
            iterations: 2,
            ..TraceRunConfig::default()
        }
    }

    #[test]
    fn sim_trace_run_streams_and_parses() {
        let runs = run(&smoke_cfg(RuntimeChoice::Sim));
        assert_eq!(runs.len(), 2);
        let mut buf = Vec::new();
        let lines = write_streams(&mut buf, &runs).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = parse_run_stream(&text).unwrap();
        assert_eq!(parsed.len() as u64, lines);
        let metas = parsed
            .iter()
            .filter(|l| matches!(l, RunStreamLine::Meta(_)))
            .count();
        assert_eq!(metas, 2, "one header per iteration");
        let traces = parsed
            .iter()
            .filter(|l| matches!(l, RunStreamLine::Trace(_)))
            .count();
        assert!(traces >= 12 * 3 * 2, "every job queues, starts, finishes");
        let table = render_phase_table(&runs);
        assert!(table.contains("Phase breakdown"), "{table}");
        assert!(table.contains("bidding"), "{table}");
    }

    #[test]
    fn threaded_trace_run_streams_and_parses() {
        let runs = run(&smoke_cfg(RuntimeChoice::Threaded));
        let mut buf = Vec::new();
        write_streams(&mut buf, &runs).unwrap();
        let parsed = parse_run_stream(&String::from_utf8(buf).unwrap()).unwrap();
        let records = parsed
            .iter()
            .filter_map(|l| match l {
                RunStreamLine::Record(r) => Some(r),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].jobs_completed, 12);
    }

    #[test]
    fn threaded_trace_run_takes_any_scheduler() {
        let cfg = TraceRunConfig {
            scheduler: SchedulerKind::Random,
            ..smoke_cfg(RuntimeChoice::Threaded)
        };
        let runs = run(&cfg);
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|(_, out)| out.record.jobs_completed == 12));
    }
}
