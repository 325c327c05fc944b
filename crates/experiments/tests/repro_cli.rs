//! `repro`'s command line: a flag value that does not parse stops the
//! program before anything runs.

use std::process::Command;

/// `--seed 0xC0FFEE` (seeds are decimal) used to fall back silently to
/// the default seed and print PASS — which, in a replay tool, reports
/// a failing tuple as fixed.
#[test]
fn an_unparsable_flag_value_exits_2_and_runs_nothing() {
    for args in [
        ["check", "--seed", "0xC0FFEE"],
        ["check", "--iters", "many"],
        ["replication", "--reps", "five"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(args[1]) && stderr.contains(args[2]),
            "{args:?}: the error names the flag and its value: {stderr}"
        );
        assert!(
            out.stdout.is_empty() && !stderr.contains("[repro]"),
            "{args:?}: nothing ran: {stderr}"
        );
    }
}
