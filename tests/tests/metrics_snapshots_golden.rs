//! Golden-file test pinning what the sim engine *reports* about a run:
//! the `record` and `metrics` lines of its JSONL stream.
//!
//! The other goldens pin decisions (scheduler logs, traces); none of
//! them reads a counter, a gauge or a histogram. Each row here runs one
//! built-in checker scenario on one master — the single-master job
//! lists, `dag_*` and `repl_*` — on the sim at seeds 1 and 2, and holds
//! FNV-1a of the rendered `record` line and of the rendered `metrics`
//! line. Every counter, every gauge, every histogram bucket and the
//! bits of every histogram sum are in those bytes, so a change to how
//! the runtime metrics are recorded or published shows up here even
//! where no decision moves.
//!
//! To regenerate after an intentional change to what a run reports:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p crossbid-integration --test metrics_snapshots_golden
//! ```

use std::fmt::Write;

use crossbid_checker::{Run, Scenario};
use crossbid_crossflow::RunStreamLine;
use crossbid_integration::text_digest;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/metrics_snapshots.txt");
const GOLDEN: &str = include_str!("../golden/metrics_snapshots.txt");

const SEEDS: [u64; 2] = [1, 2];

#[test]
fn sim_metrics_snapshots_match_golden() {
    let mut actual = String::new();
    for sc in Scenario::builtins_where(|s| s.federation.is_none()) {
        for seed in SEEDS {
            let out = sc.run(&Run::sim(seed));
            let [run] = &out.masters[..] else {
                unreachable!("one master per unfederated scenario");
            };
            let record = RunStreamLine::Record(Box::new(run.record.clone())).render();
            let metrics = RunStreamLine::Metrics(Box::new(run.metrics.clone())).render();
            writeln!(
                actual,
                "{} seed={seed}: record {}, metrics {}",
                sc.name,
                text_digest(&record),
                text_digest(&metrics),
            )
            .unwrap();
        }
    }
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("bless golden file");
        return;
    }
    assert_eq!(
        actual, GOLDEN,
        "sim runs reported differently from tests/golden/metrics_snapshots.txt;\n\
         re-bless with BLESS_GOLDEN=1 only if what a run reports was meant to change."
    );
}
