//! Tables 1–3 — the "non-simulated" MSR experiments (§6.4): three
//! runs of the full MSR pipeline per scheduler on the **real-threaded
//! runtime**, cold caches, workers learning their speeds from observed
//! transfers. Reported per run: end-to-end time (Table 1), data load
//! in MB (Table 2), cache-miss count (Table 3).

use std::sync::Arc;

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{Allocator, BaselineAllocator, RunSpec, Workflow};
use crossbid_metrics::table::f2;
use crossbid_metrics::{RunRecord, Table};
use crossbid_msr::github::GitHubParams;
use crossbid_msr::{build_pipeline, library_arrivals, SyntheticGitHub};
use crossbid_simcore::SeedSequence;
use crossbid_workload::WorkerConfig;

/// Parameters of the §6.4 experiment.
#[derive(Debug, Clone)]
pub struct MsrExperiment {
    /// Root seed.
    pub seed: u64,
    /// Runs per scheduler (the paper's 3).
    pub runs: u32,
    /// GitHub universe shape.
    pub github: GitHubParams,
    /// Fraction of search hits that are false positives (cloned then
    /// discarded by the scan), modelling recall-oriented search.
    pub false_positive_rate: f64,
    /// Seconds between library arrivals.
    pub library_interval_secs: f64,
    /// Real seconds per virtual second.
    pub time_scale: f64,
    /// Per-worker store capacity in GB. t3.micro-class instances ship
    /// with small EBS volumes (8 GB default), far below the repository
    /// catalog — the §6.4 data-load numbers imply exactly this kind of
    /// eviction churn.
    pub storage_gb: f64,
}

impl Default for MsrExperiment {
    fn default() -> Self {
        MsrExperiment {
            seed: 0xD00D,
            runs: 3,
            github: GitHubParams {
                n_repos: 40,
                n_libraries: 80,
                mean_deps: 10.0,
                popularity_skew: 0.9,
            },
            false_positive_rate: 0.1,
            library_interval_secs: 15.0,
            time_scale: 2e-5,
            storage_gb: 8.0,
        }
    }
}

impl MsrExperiment {
    /// A tiny configuration for tests.
    pub fn smoke() -> Self {
        MsrExperiment {
            runs: 1,
            github: GitHubParams {
                n_repos: 6,
                n_libraries: 12,
                mean_deps: 4.0,
                popularity_skew: 0.9,
            },
            library_interval_secs: 1.0,
            ..Default::default()
        }
    }
}

/// Results of the three tables, one record per (scheduler, run).
#[derive(Debug, Clone)]
pub struct MsrResults {
    /// Per-run records for the Bidding Scheduler.
    pub bidding: Vec<RunRecord>,
    /// Per-run records for the Baseline.
    pub baseline: Vec<RunRecord>,
}

/// Execute the §6.4 experiment on the threaded runtime. Every run
/// starts with cold caches ("none of the workers have any locally
/// downloaded repositories") and §6.4 speed learning enabled.
pub fn run(exp: &MsrExperiment) -> MsrResults {
    let seq = SeedSequence::new(exp.seed);
    let do_runs = |allocator: &dyn Allocator| -> Vec<RunRecord> {
        (0..exp.runs)
            .map(|i| {
                let run_seed = seq.seed_for(500 + i as u64);
                // Same universe across runs and schedulers: only the
                // allocation differs.
                let gh = Arc::new(SyntheticGitHub::generate(exp.seed, &exp.github));
                let mut wf = Workflow::new();
                let pipe = build_pipeline(&mut wf, gh, exp.seed, exp.false_positive_rate);
                let arrivals =
                    library_arrivals(&pipe, exp.github.n_libraries, exp.library_interval_secs);
                let mut specs = WorkerConfig::AllEqual.paper_specs();
                for s in &mut specs {
                    s.storage_bytes = (exp.storage_gb * 1e9) as u64;
                }
                // A fresh session per run: every run starts cold.
                let spec = RunSpec::builder()
                    .workers(specs)
                    .names("aws-t3-like", "msr")
                    .seed(run_seed)
                    .time_scale(exp.time_scale)
                    .speed_learning(true)
                    .build();
                let mut r = spec
                    .threaded()
                    .run_iteration(&mut wf, allocator, arrivals)
                    .record;
                r.iteration = i;
                r
            })
            .collect()
    };
    MsrResults {
        bidding: do_runs(&BiddingAllocator::new()),
        baseline: do_runs(&BaselineAllocator),
    }
}

/// Render Tables 1–3 in the paper's layout.
pub fn render(res: &MsrResults) -> String {
    let mut t1 = Table::new(
        "Table 1 — MSR execution times (s)",
        &["MSR", "Bidding", "Baseline"],
    );
    let mut t2 = Table::new("Table 2 — Data load (MB)", &["MSR", "Bidding", "Baseline"]);
    let mut t3 = Table::new(
        "Table 3 — Cache miss count",
        &["MSR", "Bidding", "Baseline"],
    );
    for (i, (b, base)) in res.bidding.iter().zip(&res.baseline).enumerate() {
        let run = format!("run {}", i + 1);
        t1.row([run.clone(), f2(b.makespan_secs), f2(base.makespan_secs)]);
        t2.row([run.clone(), f2(b.data_load_mb), f2(base.data_load_mb)]);
        t3.row([
            run,
            b.cache_misses.to_string(),
            base.cache_misses.to_string(),
        ]);
    }
    format!("{}\n{}\n{}", t1.render(), t2.render(), t3.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_paired_records() {
        let res = run(&MsrExperiment::smoke());
        assert_eq!(res.bidding.len(), 1);
        assert_eq!(res.baseline.len(), 1);
        let b = &res.bidding[0];
        let base = &res.baseline[0];
        assert!(b.jobs_completed > 0);
        assert_eq!(
            b.jobs_completed, base.jobs_completed,
            "same universe, same pipeline, same job count"
        );
        assert!(b.cache_misses > 0, "cold caches must fetch");
        let s = render(&res);
        assert!(s.contains("Table 1"));
        assert!(s.contains("Table 3"));
        assert!(s.contains("run 1"));
    }
}
