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
//! `BENCH_engine.json` (schema bumped to `yoloc-bench-engine/7`,
//! every other field preserved byte-for-byte — the shim's renderer
//! round-trips the committed report exactly), so the committed baseline
//! can pick up fresh plan-cache numbers without re-running the full
//! engine harness. Under `--smoke`/`YOLOC_SMOKE=1` the committed report
//! is left untouched: the block goes to
//! `target/BENCH_plan_cache.smoke.json` instead.
//!
//! Usage: `bench_plan_cache [--smoke] [PATH]` (default path
//! `BENCH_engine.json`).

use yoloc_bench::plan_cache::{measure_plan_cache, plan_cache_json, plan_cache_rows, zoo_nets};
use yoloc_bench::report::Json;
use yoloc_bench::{print_table, smoke};

const SEED: u64 = 2022;

/// Sets `key` in a JSON object, replacing an existing entry in place
/// (preserving its position) or appending a new one.
fn set_field(doc: &mut Json, key: &str, value: Json) {
    let Json::Obj(fields) = doc else {
        panic!("report root must be a JSON object");
    };
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => fields.push((key.to_string(), value)),
    }
}

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

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run bench_engine first)"));
    let mut doc = Json::parse(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    set_field(&mut doc, "schema", Json::str("yoloc-bench-engine/7"));
    set_field(&mut doc, "plan_cache", block);
    std::fs::write(&path, doc.render()).expect("write patched engine report");
    println!("\npatched {path}: schema yoloc-bench-engine/7, plan_cache block refreshed");
    println!("validate with: bench_engine --check-schema {path}");
}
