#!/usr/bin/env bash
# Smoke run of the benchmark: its self-tests, then every workload both ways
# (end-to-end and per-layer/traced) at 2 repetitions of a few dozen frames.
# Exits non-zero on a failed test, an output mismatch, a failed frame or a
# watchdog expiry. Not wired into .github/workflows/ci.yml yet: the PR that
# added the benchmark may not touch files outside its own directory.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke "$@"
