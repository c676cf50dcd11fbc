//! The graph-compiled model-zoo scaling table of the batched CiM
//! inference engine: `BENCH_engine.json` writer and schema gate.
//!
//! Zoo `NetworkDesc` architectures (width/resolution-scaled so the
//! functional simulator executes them in milliseconds) are compiled with
//! `CompiledNetwork::compile_random` and run end-to-end through
//! `infer_batch`, producing a per-network table — parameters, MACs,
//! subarray placement, the pass-pipeline effect (op counts, planned arena
//! vs per-op allocation), the per-op latency profile, the modeled
//! latency and energy, and the modeled intra-sample scaling of a
//! *single* inference across macro-cluster lanes
//! (`ExecutionReport::intra_sample_latency_ns`). Each network's
//! `single_thread` block counts the heap allocations of a warmed-up
//! `CompiledNetwork::infer_in` loop through a reused `ExecArena` (the
//! counting global allocator in [`yoloc_bench::alloc_track`]).
//!
//! The `plan_cache` block times, per zoo network, a cold deploy (full
//! compile + serialized-plan store) against a warm deploy served from
//! the content-addressed on-disk plan cache
//! ([`yoloc_core::compiler::cache`]), with the recompilation count of
//! each measured via the process-wide compile counter
//! ([`yoloc_core::compiler::compile_count`]) — the acceptance gate is
//! `compiles_warm == 0` by counter, not wall clock. The standalone
//! `bench_plan_cache` binary regenerates just this block and patches it
//! into the committed report without re-running the full harness.
//!
//! The `kernel_tier` block times, per unique lowered im2col shape across
//! the zoo, the batch entry inference dispatches under the forced scalar
//! kernel tier vs the runtime-dispatched tier, with bit-identity asserted
//! between the two, and records the MVM-weighted aggregate
//! `speedup_vs_scalar` plus the selected ISA. The measurement lives in
//! [`yoloc_bench::kernel_tier`]; the standalone `bench_kernels` binary
//! regenerates just this block and patches it into the committed report.
//!
//! Host throughput is the host benchmark's (`benchmark/`), measured
//! against its parent in alternating runs, so schema v8 carries no
//! per-inference wall times and no throughput baseline.
//!
//! Emits `BENCH_engine.json` (schema [`ENGINE_SCHEMA`], documented
//! in `README.md`); under `--smoke`/`YOLOC_SMOKE=1` the workload shrinks
//! and the report goes to `target/BENCH_engine.smoke.json` so the
//! committed baseline is not clobbered by tiny-config numbers.
//!
//! `--check-schema` validates an existing report instead of measuring:
//! it parses the committed `BENCH_engine.json` with the shim's JSON
//! parser and checks the schema version, the required fields, and the
//! acceptance properties (modeled intra-sample speedup > 1.5x at 4
//! lanes; planned arena strictly below per-op allocation; zero
//! steady-state allocations; zero warm-deploy recompiles in the
//! `plan_cache` block, and for full runs `warm_speedup >= 1.0`; and the
//! `kernel_tier` gates — bit-identical tiers, speedup at least 1.0
//! always and at least 3.0 for committed SIMD runs), exiting non-zero on
//! any violation — the CI gate for the baseline.

use rand::rngs::StdRng;
use rand::SeedableRng;

use yoloc_bench::alloc_track::allocations;
use yoloc_bench::report::{to_json, Json, ENGINE_SCHEMA};
use yoloc_bench::{fmt, fmt_x, print_table, smoke, smoke_or, WorkerPool};
use yoloc_core::compiler::{CompileOptions, CompiledNetwork};
use yoloc_models::NetworkDesc;
use yoloc_tensor::Tensor;

const SEED: u64 = 2022;

fn batch() -> usize {
    smoke_or(4, 16)
}

/// Heap allocations of a warmed-up single-thread inference loop through
/// a reused `ExecArena` (gated to zero), summed over its `loops` calls.
fn steady_state_allocs(net: &CompiledNetwork, x: &Tensor, loops: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(SEED + 11);
    let mut arena = net.take_arena();
    // Warm-up: grow every slot and scratch buffer to steady footprint.
    for _ in 0..2 {
        let (y, r) = net.infer_in(x, &mut rng, &mut arena);
        std::hint::black_box((y.data()[0], r.latency_ns));
    }
    // Allocation window: warmed loop, single thread, no pools open.
    let before = allocations();
    for _ in 0..loops {
        let (y, r) = net.infer_in(x, &mut rng, &mut arena);
        std::hint::black_box((y.data()[0], r.latency_ns));
    }
    let allocs = allocations() - before;
    net.give_arena(arena);
    allocs
}

/// Compiles one scaled zoo architecture, runs it end-to-end through the
/// batched engine, and reports its modeled intra-sample scaling, arena
/// planning, the zero-allocation steady state and the live energy
/// breakdown.
fn measure_zoo_network(desc: &NetworkDesc, seed: u64) -> (Json, Vec<String>) {
    let batch = batch();
    println!("[zoo:{}] compiling onto the macro fabric ...", desc.name);
    let net = CompiledNetwork::compile_random(desc, seed, CompileOptions::paper_default())
        .expect("zoo description must compile");
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let (c, h, w) = net.input_shape();
    let x = Tensor::rand_uniform(&[batch, c, h, w], 0.0, 1.0, &mut rng);
    println!("[zoo:{}] executing through infer_batch ...", desc.name);
    let (_, report) = WorkerPool::with(4, |pool| net.infer_batch(&x, seed, pool));

    // Intra-sample scaling of ONE sample is modeled: the report spreads
    // each CiM op's macro latency over its placement-derived tiles at
    // 1/2/4/8 macro-cluster lanes. The host runs the sample serially.
    let one = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng);
    let (_, one_report) = net.infer(&one, &mut rng);
    let modeled_speedup_4l = one_report
        .intra_sample_speedup(4)
        .expect("4-lane model present");

    println!("[zoo:{}] single-thread arena steady state ...", desc.name);
    let alloc_loops = 5;
    let steady_allocs = steady_state_allocs(&net, &one, alloc_loops);
    let single_thread = Json::obj([(
        "steady_state_allocs",
        Json::Num(steady_allocs as f64 / alloc_loops as f64),
    )]);

    let params = desc.param_count();
    let macs = desc.macs().expect("analyzable");
    let per_sample = |v: f64| v / batch as f64;
    let energy_per_sample_uj = per_sample(report.energy.total_uj());
    let intra_sample = Json::obj([
        (
            "lanes",
            Json::Arr(
                yoloc_core::compiler::ExecutionReport::INTRA_SAMPLE_LANES
                    .iter()
                    .map(|&l| Json::Num(l as f64))
                    .collect(),
            ),
        ),
        (
            "modeled_latency_ns",
            Json::Arr(
                one_report
                    .intra_sample_latency_ns
                    .iter()
                    .map(|&v| Json::Num(v))
                    .collect(),
            ),
        ),
        ("speedup_4w", Json::Num(modeled_speedup_4l)),
    ]);
    let json = Json::obj([
        ("model", Json::str(desc.name.clone())),
        ("params", to_json(&params)),
        ("macs", to_json(&macs)),
        ("samples", to_json(&batch)),
        ("subarrays_naive", to_json(&net.mapping.subarrays_naive)),
        ("subarrays_packed", to_json(&net.mapping.subarrays_packed)),
        (
            "utilization_packed",
            Json::Num(net.mapping.utilization_packed),
        ),
        (
            "pass_pipeline",
            Json::Arr(
                net.pass_reports
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("pass", Json::str(p.pass)),
                            ("ops_before", to_json(&p.ops_before)),
                            ("ops_after", to_json(&p.ops_after)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("peak_arena_bytes", to_json(&one_report.peak_arena_bytes)),
        ("naive_arena_bytes", to_json(&one_report.naive_arena_bytes)),
        (
            "per_op_latency_ns",
            Json::Arr(
                one_report
                    .per_op_latency_ns
                    .iter()
                    .map(|&v| Json::Num(v))
                    .collect(),
            ),
        ),
        ("intra_sample", intra_sample),
        ("single_thread", single_thread),
        (
            "latency_ms_per_sample",
            Json::Num(per_sample(report.latency_ns) / 1e6),
        ),
        ("energy_uj_per_sample", Json::Num(energy_per_sample_uj)),
        // The live, measured breakdown — serialized straight from the
        // executor's EnergyBreakdown via the serde shim.
        ("energy_breakdown_uj_per_batch", to_json(&report.energy)),
        (
            "dram_traffic_bits_per_batch",
            to_json(&report.dram_traffic_bits),
        ),
        (
            "noc_traffic_bits_per_batch",
            to_json(&report.noc_traffic_bits),
        ),
    ]);
    let row = vec![
        desc.name.clone(),
        format!("{:.2} M", params as f64 / 1e6),
        format!("{:.1} M", macs as f64 / 1e6),
        format!(
            "{} / {}",
            net.mapping.subarrays_packed, net.mapping.subarrays_naive
        ),
        format!("{steady_allocs}"),
        fmt_x(modeled_speedup_4l),
        format!(
            "{:.0} / {:.0} KiB",
            one_report.peak_arena_bytes as f64 / 1024.0,
            one_report.naive_arena_bytes as f64 / 1024.0
        ),
        fmt(energy_per_sample_uj, 2),
    ];
    (json, row)
}

/// Validates an existing `BENCH_engine.json` against the v8 schema and
/// the acceptance properties; returns every violation found.
fn schema_violations(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let smoke_doc = doc.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            errs.push(msg.to_string());
        }
    };
    check(
        doc.get("schema").and_then(Json::as_str) == Some(ENGINE_SCHEMA),
        &format!("schema must be {ENGINE_SCHEMA:?}"),
    );
    for key in ["host_parallelism", "batch"] {
        check(
            doc.get(key).is_some(),
            &format!("missing top-level {key:?}"),
        );
    }
    let zoo = doc.get("zoo").and_then(Json::as_arr).unwrap_or(&[]);
    check(!zoo.is_empty(), "zoo scaling table must be non-empty");
    for entry in zoo {
        let model = entry
            .get("model")
            .and_then(Json::as_str)
            .unwrap_or("<unnamed>")
            .to_string();
        let mut check = |cond: bool, msg: &str| {
            if !cond {
                errs.push(format!("zoo[{model}]: {msg}"));
            }
        };
        for key in [
            "params",
            "macs",
            "subarrays_packed",
            "pass_pipeline",
            "per_op_latency_ns",
            "energy_breakdown_uj_per_batch",
        ] {
            check(entry.get(key).is_some(), &format!("missing {key:?}"));
        }
        check(
            entry
                .get("per_op_latency_ns")
                .and_then(Json::as_arr)
                .is_some_and(|a| !a.is_empty()),
            "per_op_latency_ns must be a non-empty array",
        );
        // Byte counts are read back exactly (`as_u64`), not through a
        // lossy f64 — see the shim's integer-preserving JSON variants.
        let peak = entry.get("peak_arena_bytes").and_then(Json::as_u64);
        let naive = entry.get("naive_arena_bytes").and_then(Json::as_u64);
        check(peak.is_some(), "missing peak_arena_bytes");
        check(naive.is_some(), "missing naive_arena_bytes");
        if let (Some(p), Some(n)) = (peak, naive) {
            check(
                p < n,
                &format!("planned arena ({p} B) must beat per-op allocation ({n} B)"),
            );
        }
        let speedup = entry
            .get("intra_sample")
            .and_then(|i| i.get("speedup_4w"))
            .and_then(Json::as_num);
        check(speedup.is_some(), "missing intra_sample.speedup_4w");
        if let Some(s) = speedup {
            check(
                s > 1.5,
                &format!("intra-sample speedup at 4 workers is {s:.2}, need > 1.5"),
            );
        }
        // The arena steady state must be allocation-free.
        let allocs = entry
            .get("single_thread")
            .and_then(|st| st.get("steady_state_allocs"))
            .and_then(Json::as_num);
        check(
            allocs.is_some(),
            "missing single_thread.steady_state_allocs",
        );
        if let Some(a) = allocs {
            check(
                a == 0.0,
                &format!("steady-state inference allocated ({a} allocs/inference), need 0"),
            );
        }
    }
    // v5 gates: the content-addressed plan cache must serve every warm
    // deploy without recompiling (counted, not timed), the cached plan
    // must execute bit-identically to the cold compile, and the warm
    // deploy must be at least as fast as the cold one.
    let plan_cache = doc.get("plan_cache").and_then(Json::as_arr);
    if plan_cache.is_none_or(|a| a.is_empty()) {
        errs.push("plan_cache block must be a non-empty array".to_string());
    }
    for entry in plan_cache.unwrap_or(&[]) {
        let model = entry
            .get("model")
            .and_then(Json::as_str)
            .unwrap_or("<unnamed>")
            .to_string();
        let mut check = |cond: bool, msg: &str| {
            if !cond {
                errs.push(format!("plan_cache[{model}]: {msg}"));
            }
        };
        check(
            entry
                .get("cold_compile_s")
                .and_then(Json::as_num)
                .is_some_and(|v| v > 0.0),
            "cold_compile_s must be positive",
        );
        check(
            entry
                .get("warm_lookup_s")
                .and_then(Json::as_num)
                .is_some_and(|v| v > 0.0),
            "warm_lookup_s must be positive",
        );
        // Compile counters are exact integers; `as_u64` reads them back
        // without the 2^53 f64 precision cliff.
        check(
            entry
                .get("compiles_cold")
                .and_then(Json::as_u64)
                .is_some_and(|c| c >= 1),
            "compiles_cold must be >= 1 (a cold deploy compiles)",
        );
        let warm = entry.get("compiles_warm").and_then(Json::as_u64);
        check(warm.is_some(), "missing compiles_warm");
        if let Some(w) = warm {
            check(
                w == 0,
                &format!("warm deploy recompiled ({w} compiles, need 0)"),
            );
        }
        check(
            entry.get("bit_identical").and_then(Json::as_bool) == Some(true),
            "cached plan must execute bit-identically to the cold compile",
        );
        // A disk tier only pays when restoring a plan beats compiling
        // it. Smoke configs are single timings of tiny networks, where
        // compiling costs about as much as parsing, so only full runs
        // are held to it.
        let speedup = entry.get("warm_speedup").and_then(Json::as_num);
        check(speedup.is_some(), "missing warm_speedup");
        if let Some(s) = speedup.filter(|_| !smoke_doc) {
            check(
                s >= 1.0,
                &format!("warm deploy is {s:.2}x a cold compile, need >= 1.0x"),
            );
        }
    }
    // v6 gates: the dispatched kernel tier must be bit-identical to the
    // scalar reference and at least break even (>= 3x on committed SIMD
    // runs) — shared with the standalone `bench_kernels` patcher.
    errs.extend(yoloc_bench::kernel_tier::kernel_tier_violations(doc));
    errs
}

/// `--check-schema` mode: parse + validate the committed baseline.
fn check_schema(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    let errs = schema_violations(&doc);
    if errs.is_empty() {
        println!("{path}: schema {ENGINE_SCHEMA} OK ({} bytes)", text.len());
        std::process::exit(0);
    }
    eprintln!("{path}: {} schema violation(s):", errs.len());
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
    let host = std::thread::available_parallelism().map_or(1, |v| v.get());

    // Graph-compiled zoo architectures, smallest to largest — the
    // per-network scaling table. Scaled to an executable footprint (the
    // full-size graphs are identical in topology; see zoo::scaled).
    let zoo_nets = yoloc_bench::plan_cache::zoo_nets();
    let (zoo_json, zoo_rows): (Vec<Json>, Vec<Vec<String>>) = zoo_nets
        .iter()
        .map(|desc| measure_zoo_network(desc, SEED + 7))
        .unzip();
    print_table(
        "Graph-compiled zoo networks (pass pipeline + arena runtime)",
        &[
            "Network",
            "Params",
            "MACs",
            "Subarrays (packed/naive)",
            "Steady allocs",
            "Intra-sample x4 (modeled)",
            "Arena (planned/naive)",
            "Energy (uJ/sample)",
        ],
        &zoo_rows,
    );

    // v5: cold vs warm deploys through the content-addressed plan cache
    // (recompiles counted, warm gated to zero, bit-identical execution).
    let cache_entries = yoloc_bench::plan_cache::measure_plan_cache(&zoo_nets, SEED + 7);
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
        &yoloc_bench::plan_cache::plan_cache_rows(&cache_entries),
    );

    // v6/v7: the kernel-tier block — scalar vs dispatched batch entries
    // on the zoo's lowered shapes, bit-identity asserted, speedup gated;
    // v7 adds per-shape time shares.
    let kernel_tier = yoloc_bench::kernel_tier::measure_kernel_tier(&zoo_nets, SEED + 13);
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
        &kernel_tier.rows(),
    );
    println!(
        "selected kernel tier: {} (avx2 detected: {}, avx512 detected: {}), MVM-weighted speedup {}",
        kernel_tier.selected.label(),
        kernel_tier.avx2_detected,
        kernel_tier.avx512_detected,
        fmt_x(kernel_tier.speedup_vs_scalar)
    );

    let doc = Json::obj([
        ("schema", Json::str(ENGINE_SCHEMA)),
        ("host_parallelism", to_json(&host)),
        ("smoke", Json::Bool(smoke())),
        ("batch", to_json(&batch())),
        ("zoo", Json::Arr(zoo_json)),
        (
            "plan_cache",
            yoloc_bench::plan_cache::plan_cache_json(&cache_entries),
        ),
        ("kernel_tier", kernel_tier.json()),
    ]);
    let path = if smoke() {
        "target/BENCH_engine.smoke.json"
    } else {
        "BENCH_engine.json"
    };
    // Write before self-validating so a violation never discards the
    // measurements (the file is what a bootstrap or debugging run needs).
    std::fs::write(path, doc.render()).expect("write engine report");
    let violations = schema_violations(&doc);
    assert!(
        violations.is_empty(),
        "generated report violates its own schema (written to {path} anyway): {violations:?}"
    );
    println!("\nwrote {path} (schema {ENGINE_SCHEMA}, see README.md)");
    println!(
        "note: the zoo table runs graph-compiled NetworkDesc architectures \
         end-to-end (epilogue fusion + arena runtime + batched MVM kernel) \
         with live memory-hierarchy energy accounting; 'Steady allocs' is \
         the heap allocations of a warmed-up inference (gated to zero), \
         and 'Intra-sample x4' the modeled single-inference speedup at 4 \
         macro-cluster lanes."
    );
}
