//! Kernel-tier benchmark and `BENCH_engine.json` patcher.
//!
//! Measures the tier-3 kernel work (runtime-dispatched SIMD with the
//! AVX-512 tier and batch-transposed MVM layouts in `yoloc-cim`) on the
//! lowered im2col shapes of the zoo networks the engine harness runs:
//! per unique `(outs, ins)` shape, one `u8` run step and one stats fold
//! (`run_batch_transposed` over a pre-staged panel of contiguous lanes
//! where `batch_layout` asks for it, `run_batch` otherwise, then one
//! `fold_stats` over every vector; a conv's plane lowering, gap lanes
//! and per-tile folds are not timed) is timed under the forced scalar
//! tier and under the runtime-dispatched tier (asserting bit-identical
//! accumulators and `MvmStats` between the two), and
//! the MVM-weighted aggregate `speedup_vs_scalar`, the per-shape time
//! shares/layouts and the selected ISA are recorded as the schema-v7
//! `kernel_tier` block. The
//! measurement lives in [`yoloc_bench::kernel_tier`] and is shared with
//! `bench_engine`.
//!
//! The full run **patches** the block into an existing
//! `BENCH_engine.json` of the current schema (every other field
//! preserved byte-for-byte, a report of another schema refused
//! untouched) so the committed baseline can pick up fresh kernel numbers
//! without re-running the whole engine harness. Under
//! `--smoke`/`YOLOC_SMOKE=1` the committed report is left untouched and
//! the block goes to `target/BENCH_kernels.smoke.json`.
//!
//! `--check-schema [PATH]` validates the `kernel_tier` block of an
//! existing report instead of measuring: selected tier in
//! {scalar, avx2, avx512}, all tiers bit-identical, time shares
//! summing to one, and for committed full runs that selected a SIMD
//! tier a speedup of at least 2.5x on every small (`outs <= 4`)
//! shape and at least a 3.0x MVM-weighted aggregate — the CI gate
//! for the tier-3 kernel acceptance criterion.
//!
//! Usage: `bench_kernels [--smoke | --check-schema] [PATH]` (default
//! path `BENCH_engine.json`).

use yoloc_bench::kernel_tier::{kernel_tier_violations, measure_kernel_tier};
use yoloc_bench::plan_cache::zoo_nets;
use yoloc_bench::report::{patch_engine_report, Json};
use yoloc_bench::{fmt_x, print_table, smoke};

const SEED: u64 = 2022;

/// `--check-schema` mode: validate the committed baseline's block.
fn check_schema(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    let errs = kernel_tier_violations(&doc);
    if errs.is_empty() {
        let s = doc
            .get("kernel_tier")
            .and_then(|k| k.get("speedup_vs_scalar"))
            .and_then(Json::as_num)
            .unwrap_or(f64::NAN);
        println!("{path}: kernel_tier OK (speedup_vs_scalar {s:.2}x)");
        std::process::exit(0);
    }
    eprintln!("{path}: {} kernel_tier violation(s):", errs.len());
    for e in &errs {
        eprintln!("  - {e}");
    }
    std::process::exit(1);
}

fn main() {
    if std::env::args().any(|a| a == "--check-schema") {
        let path = std::env::args()
            .skip_while(|a| a != "--check-schema")
            .nth(1)
            .unwrap_or_else(|| "BENCH_engine.json".to_string());
        check_schema(&path);
    }
    let path = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "BENCH_engine.json".to_string());

    let tier = measure_kernel_tier(&zoo_nets(), SEED + 13);
    print_table(
        "Kernel tiers on the zoo's lowered MVM shapes (scalar vs dispatched)",
        &[
            "Shape (outs x ins)",
            "MVMs/pass",
            "Scalar (ns/mvm)",
            "Dispatched (ns/mvm)",
            "Layout",
            "Time share",
            "Speedup",
            "Bit-identical",
        ],
        &tier.rows(),
    );
    println!(
        "\nselected tier: {} (avx2 detected: {}, avx512 detected: {}), MVM-weighted speedup {}",
        tier.selected.label(),
        tier.avx2_detected,
        tier.avx512_detected,
        fmt_x(tier.speedup_vs_scalar)
    );
    if let Some(e) = &tier.end_to_end {
        println!(
            "end-to-end (informational, {}): scalar {:.2} ms vs dispatched {:.2} ms = {} \
             (bounded by the non-MVM share of an inference)",
            e.model,
            e.scalar_s * 1e3,
            e.dispatched_s * 1e3,
            fmt_x(e.scalar_s / e.dispatched_s)
        );
    }
    let block = tier.json();

    if smoke() {
        // Smoke runs measure tiny configurations; never patch the
        // committed baseline with them.
        let out = "target/BENCH_kernels.smoke.json";
        let doc = Json::obj([("smoke", Json::Bool(true)), ("kernel_tier", block)]);
        std::fs::write(out, doc.render()).expect("write smoke kernel report");
        let errs = kernel_tier_violations(&doc);
        assert!(errs.is_empty(), "smoke kernel_tier gates failed: {errs:?}");
        println!("\nwrote {out} (smoke mode: committed baseline untouched)");
        return;
    }

    let doc = patch_engine_report(&path, "kernel_tier", block).unwrap_or_else(|e| panic!("{e}"));
    let errs = kernel_tier_violations(&doc);
    assert!(
        errs.is_empty(),
        "kernel_tier gates failed (block written to {path} anyway): {errs:?}"
    );
    println!("\npatched {path}: kernel_tier block refreshed");
    println!("validate with: bench_engine --check-schema {path}");
}
