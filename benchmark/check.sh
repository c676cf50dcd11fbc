#!/usr/bin/env bash
# Gate for the benchmark package: formatting, lints, its own tests, and a
# smoke run of every workload (untraced, then traced).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --offline --all-targets -- -D warnings

echo "== cargo test"
cargo test --offline -q

echo "== smoke runs"
run=(cargo --config cargo-config.toml run --offline --release -q --)
"${run[@]}" --smoke
"${run[@]}" --smoke --trace 1
