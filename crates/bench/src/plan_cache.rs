//! Cold-vs-warm plan-cache measurement behind `bench_engine`'s
//! `plan_cache` block.
//!
//! For every network the harness performs one **cold** deploy through a
//! fresh on-disk [`PlanCache`] (a full compile plus a serialized-plan
//! store) and one **warm** deploy through a *second* cache instance on
//! the same directory — modeling a process restart served purely from
//! disk. Recompilation is counted with the process-wide
//! [`compile_count`] counter, not inferred from wall clock, so the
//! `compiles_warm == 0` acceptance gate is stable on arbitrarily slow or
//! noisy hosts. Each warm deploy is additionally checked to execute
//! **bit-identically** to its cold twin (logits and the full
//! `ExecutionReport`, under identically seeded RNGs).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Json;
use serde::Serialize;
use yoloc_core::compiler::cache::PlanCache;
use yoloc_core::compiler::{compile_count, CompileOptions};
use yoloc_models::NetworkDesc;
use yoloc_tensor::Tensor;

/// The scaled zoo architectures the engine harness measures (smallest to
/// largest; tiny configurations under [`crate::smoke`]). Shared between
/// `bench_engine` and `bench_kernels` so the standalone kernel-tier
/// patcher measures exactly the networks the committed report covers.
pub fn zoo_nets() -> Vec<NetworkDesc> {
    use yoloc_models::zoo;
    if crate::smoke() {
        vec![
            zoo::scaled(&zoo::vgg8(4), 16, (16, 16)),
            zoo::scaled(&zoo::tiny_yolo(4, 2), 32, (32, 32)),
        ]
    } else {
        vec![
            zoo::scaled(&zoo::vgg8(10), 16, (16, 16)),
            zoo::scaled(&zoo::resnet18(10), 16, (32, 32)),
            zoo::scaled(&zoo::tiny_yolo(4, 2), 16, (64, 64)),
            zoo::scaled(&zoo::darknet19(8), 16, (64, 64)),
            zoo::scaled(&zoo::yolo_v2(4, 2), 32, (64, 64)),
        ]
    }
}

/// One network's cold/warm deploy measurement.
pub struct PlanCacheEntry {
    /// Zoo network name.
    pub model: String,
    /// Wall seconds of the cold deploy (compile + serialize + store).
    pub cold_compile_s: f64,
    /// Wall seconds of the warm deploy (disk read + deserialize).
    pub warm_lookup_s: f64,
    /// Compiles performed by the cold deploy (>= 1 by construction).
    pub compiles_cold: u64,
    /// Compiles performed by the warm deploy (the gate: must be 0).
    pub compiles_warm: u64,
    /// Whether the warm deploy executed bit-identically to the cold one.
    pub bit_identical: bool,
}

impl PlanCacheEntry {
    /// Serializes the entry for the report's `plan_cache` block. Compile
    /// counters ride the shim's exact `UInt` variant — the schema gate
    /// reads them back with `as_u64`, not through a lossy f64.
    pub fn json(&self) -> Json {
        Json::obj([
            ("model", Json::str(self.model.clone())),
            ("cold_compile_s", Json::Num(self.cold_compile_s)),
            ("warm_lookup_s", Json::Num(self.warm_lookup_s)),
            (
                "warm_speedup",
                Json::Num(self.cold_compile_s / self.warm_lookup_s),
            ),
            ("compiles_cold", self.compiles_cold.to_json()),
            ("compiles_warm", self.compiles_warm.to_json()),
            ("bit_identical", Json::Bool(self.bit_identical)),
        ])
    }
}

/// Measures every network in `descs` through a scratch on-disk cache
/// (removed afterwards), returning one [`PlanCacheEntry`] per network.
///
/// # Panics
///
/// Panics if a zoo description fails to compile or a cache deploy errors
/// — both mean the harness itself is broken.
pub fn measure_plan_cache(descs: &[NetworkDesc], seed: u64) -> Vec<PlanCacheEntry> {
    let dir = std::env::temp_dir().join(format!("yoloc-bench-plan-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CompileOptions::paper_default;
    let mut entries = Vec::new();
    for desc in descs {
        println!(
            "[plan-cache:{}] cold deploy (compile + store) ...",
            desc.name
        );
        let cold_cache = PlanCache::at(&dir);
        let before = compile_count();
        let t0 = Instant::now();
        let cold = cold_cache
            .compile_random(desc, seed, opts())
            .expect("zoo description must compile");
        let cold_compile_s = t0.elapsed().as_secs_f64();
        let compiles_cold = compile_count() - before;

        // A fresh cache on the same directory models a server restart;
        // every hit, this one included, comes from the disk store.
        println!("[plan-cache:{}] warm deploy (disk lookup) ...", desc.name);
        let warm_cache = PlanCache::at(&dir);
        let before = compile_count();
        let t1 = Instant::now();
        let warm = warm_cache
            .compile_random(desc, seed, opts())
            .expect("warm deploy");
        let warm_lookup_s = t1.elapsed().as_secs_f64();
        let compiles_warm = compile_count() - before;

        let (c, h, w) = cold.input_shape();
        let mut rng = StdRng::seed_from_u64(seed + 3);
        let x = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng);
        let mut rng_a = StdRng::seed_from_u64(seed + 5);
        let mut rng_b = StdRng::seed_from_u64(seed + 5);
        let (ya, ra) = cold.infer(&x, &mut rng_a);
        let (yb, rb) = warm.infer(&x, &mut rng_b);
        let bit_identical = ya.data() == yb.data() && ra == rb;

        entries.push(PlanCacheEntry {
            model: desc.name.clone(),
            cold_compile_s,
            warm_lookup_s,
            compiles_cold,
            compiles_warm,
            bit_identical,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    entries
}

/// Renders the `plan_cache` report block (a plain array of per-network
/// entries) from measured entries.
pub fn plan_cache_json(entries: &[PlanCacheEntry]) -> Json {
    Json::Arr(entries.iter().map(PlanCacheEntry::json).collect())
}

/// Table rows (`model | cold | warm | speedup | recompiles | identical`)
/// for [`crate::print_table`].
pub fn plan_cache_rows(entries: &[PlanCacheEntry]) -> Vec<Vec<String>> {
    entries
        .iter()
        .map(|e| {
            vec![
                e.model.clone(),
                format!("{:.1}", e.cold_compile_s * 1e3),
                format!("{:.2}", e.warm_lookup_s * 1e3),
                crate::fmt_x(e.cold_compile_s / e.warm_lookup_s),
                format!("{} / {}", e.compiles_cold, e.compiles_warm),
                if e.bit_identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect()
}
