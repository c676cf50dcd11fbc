//! Cold-vs-warm plan-cache benchmark and `BENCH_engine.json` patcher.
//!
//! Measures, for every zoo network the engine harness covers, a **cold**
//! deploy (full graph compile + serialized-plan store) against a **warm**
//! deploy served from the content-addressed on-disk plan cache
//! ([`yoloc_core::compiler::cache`]), counting recompilations with the
//! process-wide [`yoloc_core::compiler::compile_count`] counter and
//! checking that the cached plan executes bit-identically to the fresh
//! compile. The measurement itself lives in
//! [`yoloc_bench::plan_cache`] and is shared with `bench_engine`.
//!
//! The resulting `plan_cache` block is **patched into** an existing
//! `BENCH_engine.json` of the current schema
//! ([`yoloc_bench::report::patch_engine_report`]: every other field
//! preserved byte-for-byte — the shim's renderer round-trips the
//! committed report exactly — and a report of another schema refused
//! untouched), so the committed baseline can pick up fresh plan-cache
//! numbers without re-running the full engine harness. Under
//! `--smoke`/`YOLOC_SMOKE=1` the committed report is left untouched: the
//! block goes to `target/BENCH_plan_cache.smoke.json` instead.
//!
//! Usage: `bench_plan_cache [--smoke] [PATH]` (default path
//! `BENCH_engine.json`).

use yoloc_bench::plan_cache::{measure_plan_cache, plan_cache_json, plan_cache_rows, zoo_nets};
use yoloc_bench::report::{patch_engine_report, Json};
use yoloc_bench::{print_table, smoke};

const SEED: u64 = 2022;

fn main() {
    let path = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "BENCH_engine.json".to_string());

    let entries = measure_plan_cache(&zoo_nets(), SEED + 7);
    print_table(
        "Content-addressed plan cache (cold compile vs warm disk deploy)",
        &[
            "Network",
            "Cold compile (ms)",
            "Warm deploy (ms)",
            "Speedup",
            "Compiles (cold/warm)",
            "Bit-identical",
        ],
        &plan_cache_rows(&entries),
    );
    let block = plan_cache_json(&entries);
    assert!(
        entries.iter().all(|e| e.compiles_warm == 0),
        "a warm deploy recompiled — the plan cache is broken"
    );
    assert!(
        entries.iter().all(|e| e.bit_identical),
        "a cached plan diverged from its cold compile"
    );

    if smoke() {
        // Smoke runs measure tiny configurations; never patch the
        // committed baseline with them.
        let out = "target/BENCH_plan_cache.smoke.json";
        let doc = Json::obj([("smoke", Json::Bool(true)), ("plan_cache", block)]);
        std::fs::write(out, doc.render()).expect("write smoke plan-cache report");
        println!("\nwrote {out} (smoke mode: committed baseline untouched)");
        return;
    }

    patch_engine_report(&path, "plan_cache", block).unwrap_or_else(|e| panic!("{e}"));
    println!("\npatched {path}: plan_cache block refreshed");
    println!("validate with: bench_engine --check-schema {path}");
}
