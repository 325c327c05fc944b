//! Crash sweep on the **real-threaded runtime**: the threaded
//! counterpart of [`extensions`](crate::extensions)' simulated
//! fault-tolerance table. For each scheduler we first run a healthy
//! reference, then re-run the same workload while crashing 1, 2, …
//! workers at 25 % of the simulated healthy makespan — real threads going
//! silent, the master detecting them and redistributing the stranded
//! backlog. Reported per cell: makespan, jobs completed, jobs
//! redistributed, accumulated downtime.

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    Allocator, BaselineAllocator, FaultPlan, RunSpec, Runtime, WorkerId, Workflow,
};
use crossbid_metrics::table::{f2, fpct};
use crossbid_metrics::{percent_reduction, RunRecord, Table};
use crossbid_net::NoiseModel;
use crossbid_simcore::SimTime;
use crossbid_workload::{ArrivalProcess, JobConfig, WorkerConfig};

/// Parameters of the threaded crash sweep.
#[derive(Debug, Clone)]
pub struct CrashSweepExperiment {
    /// Root seed for workload generation and the runtime.
    pub seed: u64,
    /// Cluster size; must exceed the largest crash count so survivors
    /// can absorb the redistributed work.
    pub n_workers: usize,
    /// Jobs in the generated stream.
    pub n_jobs: usize,
    /// How many workers to crash, one row per entry (0 = the healthy
    /// reference row).
    pub crash_counts: Vec<usize>,
    /// Real seconds per virtual second.
    pub time_scale: f64,
    /// Bidding contest window (virtual seconds).
    pub window_secs: f64,
}

impl Default for CrashSweepExperiment {
    fn default() -> Self {
        CrashSweepExperiment {
            seed: 0xFA11,
            n_workers: 4,
            n_jobs: 40,
            crash_counts: vec![0, 1, 2],
            time_scale: 2e-4,
            window_secs: 1.0,
        }
    }
}

impl CrashSweepExperiment {
    /// A tiny configuration for tests.
    pub fn smoke() -> Self {
        CrashSweepExperiment {
            n_workers: 3,
            n_jobs: 12,
            crash_counts: vec![0, 1],
            time_scale: 5e-5,
            ..Default::default()
        }
    }
}

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct CrashCell {
    /// Scheduler name.
    pub scheduler: &'static str,
    /// Workers crashed in this run.
    pub crashes: usize,
    /// The run's record.
    pub record: RunRecord,
    /// The scheduler's healthy (0-crash) makespan, for the cost column.
    pub healthy_makespan_secs: f64,
}

impl CrashCell {
    /// Relative makespan cost of the crashes (positive = slower).
    pub fn makespan_cost_pct(&self) -> f64 {
        // `+ 0.0` keeps the healthy reference row at 0.0, not -0.0.
        -percent_reduction(self.healthy_makespan_secs, self.record.makespan_secs) + 0.0
    }
}

/// One run on real threads, or on the sim engine when `sim`.
fn one_run(
    exp: &CrashSweepExperiment,
    allocator: &dyn Allocator,
    faults: FaultPlan,
    sim: bool,
) -> RunRecord {
    // A fresh session per run: every run starts cold.
    let spec = RunSpec::builder()
        .workers(WorkerConfig::AllEqual.specs(exp.n_workers))
        .names("all-equal", "80pct_large")
        .seed(exp.seed)
        .time_scale(exp.time_scale)
        .contest_window_secs(exp.window_secs)
        .noise(NoiseModel::None)
        .speed_learning(true)
        .faults(faults)
        .build();
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let stream = JobConfig::Pct80Large.generate(
        exp.seed,
        exp.n_jobs,
        task,
        &ArrivalProcess::evaluation_default(),
    );
    let mut rt: Box<dyn Runtime> = if sim {
        Box::new(spec.sim())
    } else {
        Box::new(spec.threaded())
    };
    rt.run_iteration(&mut wf, allocator, stream.arrivals).record
}

/// Run the sweep for Bidding and Baseline. Crash times are anchored
/// to each scheduler's own healthy makespan (25 %), so every crashed
/// run dies mid-backlog regardless of how fast the scheduler is. The
/// anchor is the sim's makespan: a threaded one carries the host's
/// stalls, and one stall in the healthy run could push the crash past
/// the end of the crashed run, which only ever takes longer than the
/// sim's.
pub fn run(exp: &CrashSweepExperiment) -> Vec<CrashCell> {
    assert!(
        exp.crash_counts.iter().all(|k| *k < exp.n_workers),
        "at least one worker must survive every cell"
    );
    let schedulers: [(&str, &dyn Allocator); 2] = [
        ("bidding", &BiddingAllocator::new()),
        ("baseline", &BaselineAllocator),
    ];
    let mut cells = Vec::new();
    for (name, sched) in schedulers {
        let healthy = one_run(exp, sched, FaultPlan::none(), false);
        let anchor = one_run(exp, sched, FaultPlan::none(), true).makespan_secs;
        let crash_at = SimTime::from_secs_f64(anchor * 0.25);
        let healthy_makespan = healthy.makespan_secs;
        for &k in &exp.crash_counts {
            let record = if k == 0 {
                healthy.clone()
            } else {
                let mut plan = FaultPlan::new();
                for w in 0..k as u32 {
                    plan = plan.crash_at(crash_at, WorkerId(w));
                }
                one_run(exp, sched, plan, false)
            };
            cells.push(CrashCell {
                scheduler: name,
                crashes: k,
                record,
                healthy_makespan_secs: healthy_makespan,
            });
        }
    }
    cells
}

/// Render the sweep as one table.
pub fn render(cells: &[CrashCell]) -> String {
    let mut t = Table::new(
        "Threaded crash sweep — workers crashed at 25% of the simulated healthy makespan (80pct_large, all-equal)",
        &[
            "scheduler",
            "crashed",
            "makespan (s)",
            "cost",
            "completed",
            "redistributed",
            "downtime (s)",
        ],
    );
    for c in cells {
        t.row([
            c.scheduler.to_string(),
            c.crashes.to_string(),
            f2(c.record.makespan_secs),
            fpct(c.makespan_cost_pct()),
            c.record.jobs_completed.to_string(),
            c.record.jobs_redistributed.to_string(),
            f2(c.record.recovery_secs),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_masks_crashes() {
        let exp = CrashSweepExperiment::smoke();
        let cells = run(&exp);
        assert_eq!(cells.len(), 4, "2 schedulers x 2 crash counts");
        for c in &cells {
            // Survivors always exist, so the crash must be fully
            // masked: no job lost in any cell.
            assert_eq!(
                c.record.jobs_completed as usize, exp.n_jobs,
                "{} with {} crashes lost jobs",
                c.scheduler, c.crashes
            );
            assert_eq!(c.record.worker_crashes as usize, c.crashes);
            if c.crashes == 0 {
                assert_eq!(c.record.jobs_redistributed, 0);
                assert_eq!(c.record.recovery_secs, 0.0);
            } else {
                assert!(
                    c.record.recovery_secs > 0.0,
                    "{}: downtime runs to end of run",
                    c.scheduler
                );
            }
        }
        let rendered = render(&cells);
        assert!(rendered.contains("bidding"));
        assert!(rendered.contains("baseline"));
        assert!(rendered.contains("redistributed"));
    }
}
