#!/usr/bin/env bash
# Checks a results tree against the headline bands in
# crates/bench/src/bands.rs: forwards to `repro check`, which prints one
# `ok   <id>: ...` or `FAIL <id>: ...` line per band on stdout and exits 1
# on any failure. Kept at this path for the llr_bench repro-quick
# workload, which calls it. No `cd`, so a relative <results-dir> resolves
# against the caller's directory.
# Usage: scripts/check_headlines.sh <results-dir>
root="$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path "$root/Cargo.toml" \
  -p repro-bench --bin repro -- check "$@"
