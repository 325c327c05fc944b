//! Golden-file test pinning the `repro trace` phase-breakdown table.
//!
//! The table is the artifact humans read to see where job latency
//! goes (queue wait / transfer / processing), so its *shape* — title,
//! column set, row count per iteration — is a contract. Digits are
//! normalized to `#` before comparison: the sim run is deterministic,
//! but pinning magnitudes rather than exact values lets engine tuning
//! move numbers within an order of magnitude without churning the
//! golden file.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p crossbid-integration --test phase_table_golden
//! ```

use crossbid_experiments::trace_run::{self, RuntimeChoice, TraceRunConfig};
use crossbid_metrics::SchedulerKind;
use crossbid_workload::{JobConfig, WorkerConfig};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/phase_table.txt");
const GOLDEN: &str = include_str!("../golden/phase_table.txt");

/// Every ASCII digit becomes `#`, so only layout and magnitude are
/// pinned.
fn normalize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_digit() { '#' } else { c })
        .collect()
}

#[test]
fn phase_table_matches_golden() {
    let cfg = TraceRunConfig {
        runtime: RuntimeChoice::Sim,
        scheduler: SchedulerKind::Bidding,
        worker_config: WorkerConfig::AllEqual,
        job_config: JobConfig::Pct80Large,
        n_jobs: 12,
        iterations: 2,
        seed: 0xC0FFEE,
    };
    let runs = trace_run::run(&cfg);
    let table = trace_run::render_phase_table(&runs);
    let actual = normalize(&table);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("bless golden file");
        return;
    }
    assert_eq!(
        actual, GOLDEN,
        "phase table diverged from tests/golden/phase_table.txt;\n\
         re-bless with BLESS_GOLDEN=1 if the change is intentional.\n\
         rendered table:\n{table}"
    );
}
