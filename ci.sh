#!/usr/bin/env bash
# CI gate: formatting, lints, full target compile, tier-1 tests.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== benchmark package compiles against the library's API"
# Seconds here, instead of surfacing only in benchmark/check.sh, the
# last step, after the full suite.
cargo check --offline --all-targets --manifest-path benchmark/Cargo.toml

echo "== cargo doc (workspace, broken links and missing docs are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== smoke-compile examples, bench binaries and benches"
cargo build --workspace --bins --benches --examples

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== run the examples that drive RomMvm::mvm and a popcount-backend CimConv2d"
cargo run --release -q --example quickstart
cargo run --release -q --example cim_inference

echo "== build release bench binaries (repro_all launches its siblings)"
cargo build --release -p yoloc-bench --bins

echo "== workspace unit tests and doctests"
cargo test -q --workspace

echo "== quantization and lowering arithmetic in release (overflow checks off)"
# Every other test step builds with overflow checks on, where an integer
# overflow panics; release builds wrap silently instead, so the
# saturation properties and the conv staging oracle run here too.
cargo test -q --release -p yoloc-quant -p yoloc-tensor
# The kernel parity suites in release too: the counter fold is portable
# Rust whose speed, and vector code, are whatever the compiler makes of
# it, and every other test step builds at the dev profile's opt-level 2.
cargo test -q --release -p yoloc-cim
# The remainder suite too, whose batch sizes straddle the `u8` fold's
# 32- and 64-lane panel blocks, also with the AVX2 tier pinned as the
# engines' programmed default.
cargo test -q --release --test kernel_remainder
YOLOC_KERNEL=avx2 cargo test -q --release --test kernel_remainder
# The quantizer against its truncation reference on all 2^32 inputs,
# and every kernel tier's compiled quantizer against it on all of them.
cargo test -q --release -p yoloc-quant -- --ignored
cargo test -q --release -p yoloc-cim --lib -- --ignored --exact \
  kernels::tests::quantizer_tiers_match_quantize_value_on_every_bit_pattern
cargo test -q --release -p yoloc-core --lib qconv::tests::forward_in_matches_staging_oracle
# The code planes run only in the transposed layout, which the scalar
# tier never picks for a conv, and under `auto` on an AVX-512 host only
# blocks of at most 8 lanes reach the AVX2 transposed kernels: pin each
# SIMD tier too. Each layer quantizes at its engine's tier, so with the
# scalar run the three pin every tier's quantizer end to end.
YOLOC_KERNEL=scalar cargo test -q --release -p yoloc-core --lib qconv::tests::forward_in_matches_staging_oracle
YOLOC_KERNEL=avx2 cargo test -q --release -p yoloc-core --lib qconv::tests::forward_in_matches_staging_oracle
YOLOC_KERNEL=avx512 cargo test -q --release -p yoloc-core --lib qconv::tests::forward_in_matches_staging_oracle

echo "== fusion parity suite (YOLOC_SMOKE=1)"
YOLOC_SMOKE=1 cargo test -q --test fusion_parity

echo "== arena-executor parity suite (YOLOC_SMOKE=1)"
YOLOC_SMOKE=1 cargo test -q --test arena_parity

echo "== kernel-parity suites under forced scalar tier (YOLOC_KERNEL=scalar)"
YOLOC_KERNEL=scalar cargo test -q -p yoloc-cim
YOLOC_KERNEL=scalar YOLOC_SMOKE=1 cargo test -q --test arena_parity

echo "== kernel-parity suites under forced AVX2 tier (YOLOC_KERNEL=avx2)"
# On hosts without AVX2 the dispatch downgrades to scalar with a note
# (see kernel_override_is_honored_across_the_arena_suite).
YOLOC_KERNEL=avx2 cargo test -q -p yoloc-cim
YOLOC_KERNEL=avx2 YOLOC_SMOKE=1 cargo test -q --test arena_parity

echo "== kernel-parity suites under forced AVX-512 tier (YOLOC_KERNEL=avx512)"
# Hosts without the required subsets (F+BW+VL+VPOPCNTDQ) downgrade to
# AVX2 (or scalar) with a note, so this leg runs everywhere.
YOLOC_KERNEL=avx512 cargo test -q -p yoloc-cim
YOLOC_KERNEL=avx512 YOLOC_SMOKE=1 cargo test -q --test arena_parity

echo "== remainder-lane kernel parity suite (both layouts, all tiers)"
cargo test -q --test kernel_remainder
YOLOC_KERNEL=avx512 cargo test -q --test kernel_remainder

echo "== plan round-trip + cache-hit parity suite (YOLOC_SMOKE=1)"
YOLOC_SMOKE=1 cargo test -q --test plan_roundtrip

echo "== plan-cache corruption hardening suite"
cargo test -q --test plan_cache_corruption

echo "== fault-injection parity suite (zero-fault identity, oracle consistency)"
# A faulted ADC puts an engine on the quantizing mask stream, whose
# popcount body differs per tier: pin every tier.
cargo test -q --test fault_parity
YOLOC_KERNEL=scalar cargo test -q --test fault_parity
YOLOC_KERNEL=avx2 cargo test -q --test fault_parity
YOLOC_KERNEL=avx512 cargo test -q --test fault_parity

echo "== chaos serving suite (canary detect -> quarantine -> repair -> recover)"
cargo test -q --test chaos_sim

echo "== serving simulation suite (byte-stability + invariants, YOLOC_SMOKE=1)"
YOLOC_SMOKE=1 cargo test -q --test serve_sim

echo "== serving parity suite (broker == direct inference, YOLOC_SMOKE=1)"
YOLOC_SMOKE=1 cargo test -q --test serve_parity

echo "== zero-allocation steady-state gate"
cargo test -q -p yoloc-bench --test alloc_steady_state

echo "== plan-cache cold/warm gate (zero warm recompiles, by counter)"
YOLOC_SMOKE=1 cargo run --release -q -p yoloc-bench --bin bench_plan_cache -- --smoke

echo "== serving bench smoke + self schema gate"
cargo run --release -q -p yoloc-bench --bin bench_serve -- --smoke --check-schema

echo "== kernel-tier smoke gate (bit-identical tiers, speedup >= 1.0)"
cargo run --release -q -p yoloc-bench --bin bench_kernels -- --smoke

echo "== validate committed BENCH_engine.json (schema v8 gates incl. plan_cache + kernel_tier)"
cargo run --release -q -p yoloc-bench --bin bench_engine -- --check-schema BENCH_engine.json
cargo run --release -q -p yoloc-bench --bin bench_kernels -- --check-schema BENCH_engine.json

echo "== bench_engine --smoke leaves the committed BENCH_engine.json byte-identical"
cp BENCH_engine.json target/BENCH_engine.committed.json
cargo run --release -q -p yoloc-bench --bin bench_engine -- --smoke
cmp BENCH_engine.json target/BENCH_engine.committed.json

echo "== validate committed BENCH_serve.json (schema yoloc-bench-serve/3 gates)"
cargo run --release -q -p yoloc-bench --bin bench_serve -- --check-schema BENCH_serve.json

echo "== fault bench smoke + self schema gate"
cargo run --release -q -p yoloc-bench --bin bench_faults -- --smoke --check-schema

echo "== validate committed BENCH_faults.json (schema yoloc-bench-faults/1 gates)"
cargo run --release -q -p yoloc-bench --bin bench_faults -- --check-schema BENCH_faults.json

echo "== run every bench binary on tiny configs (repro_all --smoke)"
cargo run --release -q -p yoloc-bench --bin repro_all -- --smoke

echo "== benchmark package gate (fmt, clippy, tests, smoke runs of every workload)"
benchmark/check.sh

echo "CI green."
