#!/usr/bin/env bash
# The one command of the repo benchmark: builds the package (release,
# offline) and runs it from the repository root.
#
#   benchmark/run.sh                      all workloads -> benchmark/out/result.json
#   benchmark/run.sh --smoke              the same at 1/20 size
#   benchmark/run.sh --reps N --seed S --only <workload>
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one measurement; last stdout line is its JSON
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/crossbid-benchmark" "$@"
