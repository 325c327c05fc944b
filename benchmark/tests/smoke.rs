//! `cargo test` inside `benchmark/` (not part of the root workspace's
//! tier-1 tests): one `--smoke` suite run, checked against
//! `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crossbid_metrics::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {}", path.display(), e.0))
}

fn spec() -> Json {
    load(&repo_root().join("BENCHMARK.json"))
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
}

struct Smoke {
    out: PathBuf,
    took: Duration,
    result: Json,
}

/// The smoke suite, run once for all tests.
fn smoke() -> &'static Smoke {
    static RUN: OnceLock<Smoke> = OnceLock::new();
    RUN.get_or_init(|| {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
        let started = Instant::now();
        let status = Command::new(env!("CARGO_BIN_EXE_crossbid-benchmark"))
            .args(["--smoke", "--reps", "1", "--out"])
            .arg(&out)
            .current_dir(repo_root())
            .status()
            .expect("the benchmark binary runs");
        let took = started.elapsed();
        assert!(status.success(), "smoke suite failed: {status}");
        Smoke {
            result: load(&out.join("result.json")),
            out,
            took,
        }
    })
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn spec_is_well_formed() {
    let spec = spec();
    let mut names = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for item in list(&spec, key) {
            let name = item.req_str("name").expect("every entry has a name");
            assert!(valid_name(name), "bad name {name:?}");
            names.push(name.to_string());
        }
    }
    let n = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), n, "a name is used twice");

    for m in list(&spec, "end_to_end") {
        let name = m.req_str("name").unwrap();
        assert!(!m.req_str("unit").unwrap().is_empty(), "{name} has a unit");
        let better = m.req_str("better").unwrap();
        assert!(better == "lower" || better == "higher", "{name}: {better}");
        let bound = m.req_f64("bound").unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
    }
    assert!(
        list(&spec, "end_to_end").iter().any(|m| {
            m.req_str("name") == Ok("setup_s")
                && m.req_str("unit") == Ok("s")
                && m.req_str("better") == Ok("lower")
        }),
        "setup_s is an end-to-end metric"
    );
    assert_eq!(list(&spec, "workloads").len(), 7);
    assert_eq!(list(&spec, "end_to_end").len(), 11);
}

#[test]
fn smoke_run_is_quick_and_emits_every_metric() {
    let spec = spec();
    let smoke = smoke();
    assert!(
        smoke.took < Duration::from_secs(30),
        "smoke suite took {:?}",
        smoke.took
    );
    let workloads = list(&smoke.result, "workloads");
    for w in list(&spec, "workloads") {
        let name = w.req_str("name").unwrap();
        let got = workloads
            .iter()
            .find(|r| r.req_str("name") == Ok(name))
            .unwrap_or_else(|| panic!("workload {name} missing from result.json"));
        assert_eq!(
            got.req_bool("ok"),
            Ok(true),
            "{name}: {:?}",
            got.get("problems")
        );
        assert_eq!(got.req_u64("failed"), Ok(0), "{name}");
        for (section, key) in [("end_to_end", "median"), ("per_layer", "value")] {
            for m in list(&spec, section) {
                let metric = m.req_str("name").unwrap();
                let entry = got
                    .get(section)
                    .and_then(|s| s.get(metric))
                    .unwrap_or_else(|| panic!("{name}: {metric} missing"));
                assert_eq!(entry.req_str("unit"), m.req_str("unit"), "{name}: {metric}");
                let value = entry.req_f64(key).unwrap();
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                if section == "end_to_end" {
                    assert!(value > 0.0, "{name}: {metric} must never be 0");
                }
            }
        }
    }
}

#[test]
fn span_files_parse_and_parents_exist() {
    let smoke = smoke();
    for w in list(&spec(), "workloads") {
        let name = w.req_str("name").unwrap();
        let doc = load(&smoke.out.join(format!("trace-{name}.json")));
        let spans = list(&doc, "spans");
        assert!(!spans.is_empty(), "{name}: no spans");
        let ids: Vec<u64> = spans.iter().map(|s| s.req_u64("id").unwrap()).collect();
        for s in spans {
            assert!(s.req_f64("end_s").unwrap() >= s.req_f64("start_s").unwrap());
            match s.get("parent") {
                Some(Json::Null) => {}
                Some(p) => {
                    let p = p.as_u64().expect("parent is an id");
                    assert!(ids.contains(&p), "{name}: parent {p} does not exist");
                }
                None => panic!("{name}: span without parent field"),
            }
        }
        for required in ["setup", "workload.generate", "spec.build", "timed", "run"] {
            assert!(
                spans.iter().any(|s| s.req_str("name") == Ok(required)),
                "{name}: no {required} span"
            );
        }
    }
}
