//! The real-threaded runtime end to end (the paper's §6.4
//! "non-simulated" configuration): one OS thread pair per worker,
//! crossbeam channels as the messaging fabric, scaled virtual time,
//! and workers learning their speeds from observed transfers.

use std::sync::Arc;

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{Allocator, BaselineAllocator, RunSpec, Workflow};
use crossbid_examples::metric_line;
use crossbid_msr::github::GitHubParams;
use crossbid_msr::{build_pipeline, library_arrivals, SyntheticGitHub};
use crossbid_workload::WorkerConfig;

fn main() {
    let params = GitHubParams {
        n_repos: 15,
        n_libraries: 30,
        mean_deps: 6.0,
        popularity_skew: 0.9,
    };
    let github = Arc::new(SyntheticGitHub::generate(11, &params));

    let allocators: [(&str, &dyn Allocator); 2] = [
        ("bidding", &BiddingAllocator::new()),
        ("baseline", &BaselineAllocator),
    ];
    for (label, allocator) in allocators {
        let mut wf = Workflow::new();
        let pipe = build_pipeline(&mut wf, Arc::clone(&github), 11, 0.1);
        let arrivals = library_arrivals(&pipe, params.n_libraries, 10.0);
        let spec = RunSpec::builder()
            .workers(WorkerConfig::AllEqual.paper_specs())
            .names("all-equal", "msr-threaded")
            .seed(3)
            // 1 virtual second = 0.1 ms real: a ~2500 s run finishes in
            // ~0.3 s of wall-clock time.
            .time_scale(1e-4)
            .speed_learning(true)
            .build();
        let t0 = std::time::Instant::now();
        let record = spec
            .threaded()
            .run_iteration(&mut wf, allocator, arrivals)
            .record;
        println!(
            "{}   (virtual; {:.2}s real, {} jobs)",
            metric_line(label, &record),
            t0.elapsed().as_secs_f64(),
            record.jobs_completed
        );
    }
    println!("\n(Real threads, real races: repeated runs will differ slightly —\n that nondeterminism is the point of the non-simulated experiment.)");
}
