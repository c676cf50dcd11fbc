//! Baseline benchmark of the batched CiM inference engine, plus the
//! graph-compiled model-zoo scaling table.
//!
//! Part 1 measures samples/sec through a deployed `TinyCnn` on two
//! configurations and asserts their equivalence:
//!
//! * **serial_fast_path** — one thread, the popcount backend;
//! * **batched** — `infer_batch` over the persistent [`WorkerPool`] at
//!   a sweep of worker counts.
//!
//! Part 2 exercises the pass-based graph compiler: zoo `NetworkDesc`
//! architectures (width/resolution-scaled so the functional simulator
//! executes them in milliseconds) are compiled with
//! `CompiledNetwork::compile_random` and run end-to-end through
//! `infer_batch`, producing a per-network scaling table — parameters,
//! MACs, subarray placement, the pass-pipeline effect (op counts, planned
//! arena vs per-op allocation), the per-op latency profile, and the
//! modeled intra-sample scaling of a *single* inference across
//! macro-cluster lanes (`ExecutionReport::intra_sample_latency_ns`).
//!
//! Schema v4 adds the arena-runtime acceptance measurements per zoo
//! network: a `single_thread` block with the per-inference wall-time
//! median through a reused `ExecArena` (`CompiledNetwork::infer_in`),
//! the steady-state heap-allocation count of that loop (measured by the
//! counting global allocator in [`yoloc_bench::alloc_track`]), and the
//! throughput ratio against the committed v3 baseline's serial
//! per-inference median (carried forward from the previous
//! `BENCH_engine.json` at generation time).
//!
//! Schema v5 adds the `plan_cache` block: per zoo network, the wall time
//! of a cold deploy (full compile + serialized-plan store) vs a warm
//! deploy served from the content-addressed on-disk plan cache
//! ([`yoloc_core::compiler::cache`]), with the recompilation count of
//! each measured via the process-wide compile counter
//! ([`yoloc_core::compiler::compile_count`]) — the acceptance gate is
//! `compiles_warm == 0` by counter, not wall clock. The standalone
//! `bench_plan_cache` binary regenerates just this block and patches it
//! into the committed report without re-running the full harness.
//!
//! Schema v6 adds the `kernel_tier` block: per unique lowered im2col
//! shape across the zoo, the batch entry inference dispatches timed
//! under the forced scalar kernel tier vs the runtime-dispatched tier
//! (AVX2 where the host has it), bit-identity asserted between the two, and the MVM-weighted
//! aggregate `speedup_vs_scalar` plus the selected ISA recorded. The
//! measurement lives in [`yoloc_bench::kernel_tier`]; the standalone
//! `bench_kernels` binary regenerates just this block and patches it
//! into the committed report.
//!
//! Emits `BENCH_engine.json` (schema `yoloc-bench-engine/7`, documented
//! in `README.md`); under `--smoke`/`YOLOC_SMOKE=1` the workload shrinks
//! and the report goes to `target/BENCH_engine.smoke.json` so the
//! committed baseline is not clobbered by tiny-config numbers.
//!
//! `--check-schema` validates an existing report instead of measuring:
//! it parses the committed `BENCH_engine.json` with the shim's JSON
//! parser and checks the schema version, the required fields, and the
//! acceptance properties (modeled intra-sample speedup > 1.5x at 4
//! lanes; planned arena strictly below per-op allocation; zero
//! steady-state allocations; for committed full runs >= 1.5x
//! single-thread throughput over the v3 baseline; zero warm-deploy
//! recompiles in the `plan_cache` block, and for full runs
//! `warm_speedup >= 1.0`; and the `kernel_tier` gates — bit-identical
//! tiers, speedup >= 1.0 always and >= 2.0 for committed AVX2 runs),
//! exiting non-zero on any violation — the CI gate for the baseline.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use yoloc_bench::alloc_track::allocations;
use yoloc_bench::report::{to_json, Json};
use yoloc_bench::{fmt, fmt_x, print_table, smoke, smoke_or, WorkerPool};
use yoloc_core::compiler::{CompileOptions, CompiledNetwork};
use yoloc_core::strategies::{pretrain_base, TrainConfig};
use yoloc_core::tiny_models::Family;
use yoloc_data::classification::{TransferSuite, IMG_C, IMG_H, IMG_W};
use yoloc_models::NetworkDesc;
use yoloc_tensor::Tensor;

const SEED: u64 = 2022;

fn batch() -> usize {
    smoke_or(4, 16)
}

fn reps() -> usize {
    smoke_or(1, 3)
}

fn worker_sweep() -> Vec<usize> {
    smoke_or(vec![1, 4], vec![1, 2, 4, 8])
}

/// Median wall-clock seconds of `reps` runs of `f` (one untimed warm-up).
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One timed configuration of a deployment on the popcount backend.
struct Measured {
    workers: Option<usize>,
    seconds: f64,
    samples: usize,
}

impl Measured {
    fn samples_per_sec(&self) -> f64 {
        self.samples as f64 / self.seconds
    }

    fn json(&self) -> Json {
        let mut fields = vec![("path", Json::str("popcount"))];
        if let Some(w) = self.workers {
            fields.push(("workers", to_json(&w)));
        }
        fields.push(("seconds", Json::Num(self.seconds)));
        fields.push(("samples_per_sec", Json::Num(self.samples_per_sec())));
        Json::obj(fields)
    }
}

fn measure_model(
    family: Family,
    channels: &[usize],
    name: &str,
    seed: u64,
) -> (Json, Vec<Vec<String>>) {
    let batch = batch();
    let reps = reps();
    let suite = TransferSuite::new(seed);
    println!("[{name}] training at smoke scale ...");
    let model = pretrain_base(
        family,
        channels,
        &suite.pretrain,
        TrainConfig::smoke(),
        seed,
    );
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let (cal, _) = suite.pretrain.batch(8, &mut rng);
    let (desc, weights) = model.to_network((IMG_C, IMG_H, IMG_W));
    let deployed = CompiledNetwork::compile(&desc, &weights, &cal, CompileOptions::paper_default())
        .expect("a TinyCnn export compiles");
    let (x, _) = suite.pretrain.batch(batch, &mut rng);

    println!("[{name}] measuring serial popcount path ...");
    let serial_logits = deployed.infer(&x, &mut rng).0;
    let serial = Measured {
        workers: None,
        seconds: median_secs(reps, || {
            std::hint::black_box(deployed.infer(&x, &mut rng));
        }),
        samples: batch,
    };

    let deployed = &deployed; // shared borrow for the pool jobs
    let batched: Vec<Measured> = worker_sweep()
        .into_iter()
        .map(|workers| {
            println!("[{name}] measuring batched engine at {workers} worker(s) ...");
            WorkerPool::with(workers, |pool| {
                let batched_logits = deployed.infer_batch(&x, SEED, pool).0;
                assert_eq!(
                    serial_logits.data(),
                    batched_logits.data(),
                    "batched logits must be bit-identical to serial"
                );
                Measured {
                    workers: Some(workers),
                    seconds: median_secs(reps, || {
                        std::hint::black_box(deployed.infer_batch(&x, SEED, pool));
                    }),
                    samples: batch,
                }
            })
        })
        .collect();

    let mut rows = Vec::new();
    for m in std::iter::once(&serial).chain(batched.iter()) {
        rows.push(vec![
            name.to_string(),
            match m.workers {
                None => "serial (popcount)".to_string(),
                Some(w) => format!("batched x{w}"),
            },
            fmt(m.seconds * 1e3, 1),
            fmt(m.samples_per_sec(), 1),
            fmt_x(m.samples_per_sec() / serial.samples_per_sec()),
        ]);
    }

    let json = Json::obj([
        ("model", Json::str(name)),
        ("samples", to_json(&batch)),
        ("serial_fast_path", serial.json()),
        (
            "batched",
            Json::Arr(batched.iter().map(Measured::json).collect()),
        ),
        ("bit_identical", Json::Bool(true)),
    ]);
    (json, rows)
}

/// Loads the previous committed report (if any) and maps each zoo model
/// name to its serial single-thread per-inference median: the v3
/// baseline the v4 acceptance gate measures against, carried forward
/// from report to report as `single_thread.v3_serial_wall_secs`.
fn load_v3_baselines(path: &str) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return Vec::new();
    };
    let mut baselines = Vec::new();
    for entry in doc.get("zoo").and_then(Json::as_arr).unwrap_or(&[]) {
        let Some(model) = entry.get("model").and_then(Json::as_str) else {
            continue;
        };
        let secs = entry
            .get("single_thread")
            .and_then(|s| s.get("v3_serial_wall_secs"))
            .and_then(Json::as_num);
        if let Some(secs) = secs {
            baselines.push((model.to_string(), secs));
        }
    }
    baselines
}

/// Measures the arena runtime's steady state on one compiled network: a
/// per-inference wall-time median through a reused `ExecArena` and the
/// heap-allocation count of the warmed loop (gated to zero).
fn measure_single_thread(
    net: &CompiledNetwork,
    x: &Tensor,
    reps: usize,
    baseline_v3: Option<f64>,
) -> (Json, f64, u64) {
    let mut rng = StdRng::seed_from_u64(SEED + 11);
    let mut arena = net.take_arena();
    // Warm-up: grow every slot and scratch buffer to steady footprint.
    for _ in 0..2 {
        let (y, r) = net.infer_in(x, &mut rng, &mut arena);
        std::hint::black_box((y.data()[0], r.latency_ns));
    }
    let per_inference_s = median_secs(reps, || {
        let (y, r) = net.infer_in(x, &mut rng, &mut arena);
        std::hint::black_box((y.data()[0], r.latency_ns));
    });
    // Allocation window: warmed loop, single thread, no pools open.
    let alloc_loops = 5u64;
    let before = allocations();
    for _ in 0..alloc_loops {
        let (y, r) = net.infer_in(x, &mut rng, &mut arena);
        std::hint::black_box((y.data()[0], r.latency_ns));
    }
    let steady_allocs = allocations() - before;
    net.give_arena(arena);
    let mut fields = vec![
        ("per_inference_s", Json::Num(per_inference_s)),
        ("samples_per_sec", Json::Num(1.0 / per_inference_s)),
        (
            "steady_state_allocs",
            Json::Num(steady_allocs as f64 / alloc_loops as f64),
        ),
    ];
    let mut speedup = f64::NAN;
    if let Some(v3) = baseline_v3 {
        speedup = v3 / per_inference_s;
        fields.push(("v3_serial_wall_secs", Json::Num(v3)));
        fields.push(("speedup_vs_v3", Json::Num(speedup)));
    }
    (Json::obj(fields), speedup, steady_allocs)
}

/// Compiles one scaled zoo architecture, runs it end-to-end through the
/// batched engine, and reports throughput, modeled intra-sample scaling,
/// arena planning, the zero-allocation steady state and the live energy
/// breakdown.
fn measure_zoo_network(
    desc: &NetworkDesc,
    seed: u64,
    baseline_v3: Option<f64>,
) -> (Json, Vec<String>) {
    let batch = batch();
    let reps = reps();
    println!("[zoo:{}] compiling onto the macro fabric ...", desc.name);
    let net = CompiledNetwork::compile_random(desc, seed, CompileOptions::paper_default())
        .expect("zoo description must compile");
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let (c, h, w) = net.input_shape();
    let x = Tensor::rand_uniform(&[batch, c, h, w], 0.0, 1.0, &mut rng);
    println!("[zoo:{}] executing through infer_batch ...", desc.name);
    let (report, seconds) = WorkerPool::with(4, |pool| {
        let (_, report) = net.infer_batch(&x, seed, pool);
        let seconds = median_secs(reps, || {
            std::hint::black_box(net.infer_batch(&x, seed, pool));
        });
        (report, seconds)
    });

    // Intra-sample scaling of ONE sample is modeled: the report spreads
    // each CiM op's macro latency over its placement-derived tiles at
    // 1/2/4/8 macro-cluster lanes. The host runs the sample serially.
    let one = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng);
    let (_, one_report) = net.infer(&one, &mut rng);
    let modeled_speedup_4l = one_report
        .intra_sample_speedup(4)
        .expect("4-lane model present");

    // v4: the arena runtime's steady state — per-inference median,
    // zero-allocation gate, and throughput vs the committed v3 baseline.
    println!("[zoo:{}] single-thread arena steady state ...", desc.name);
    let (single_thread, speedup_vs_v3, steady_allocs) =
        measure_single_thread(&net, &one, reps, baseline_v3);

    let params = desc.param_count();
    let macs = desc.macs().expect("analyzable");
    let per_sample = |v: f64| v / batch as f64;
    let energy_per_sample_uj = per_sample(report.energy.total_uj());
    let samples_per_sec = batch as f64 / seconds;
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
        ("samples_per_sec", Json::Num(samples_per_sec)),
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
        fmt(samples_per_sec, 1),
        if speedup_vs_v3.is_nan() {
            "-".to_string()
        } else {
            fmt_x(speedup_vs_v3)
        },
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

/// Validates an existing `BENCH_engine.json` against the v6 schema and
/// the acceptance properties; returns every violation found.
fn schema_violations(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let smoke_doc = doc.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    // A bootstrap run (no previous committed report to read baselines
    // from) legitimately carries no v3 ratios: it *is* the new baseline.
    let bootstrap_doc = doc
        .get("baseline_bootstrap")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            errs.push(msg.to_string());
        }
    };
    check(
        doc.get("schema").and_then(Json::as_str) == Some("yoloc-bench-engine/7"),
        "schema must be \"yoloc-bench-engine/7\"",
    );
    for key in ["host_parallelism", "batch", "reps", "workloads"] {
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
        // v4 gates: the arena steady state must be allocation-free, and
        // committed full runs must beat the v3 baseline by >= 1.5x
        // single-thread (smoke configs have no comparable baseline).
        let st = entry.get("single_thread");
        check(st.is_some(), "missing single_thread block");
        if let Some(st) = st {
            check(
                st.get("per_inference_s")
                    .and_then(Json::as_num)
                    .is_some_and(|v| v > 0.0),
                "single_thread.per_inference_s must be positive",
            );
            let allocs = st.get("steady_state_allocs").and_then(Json::as_num);
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
            if !smoke_doc {
                let vs_v3 = st.get("speedup_vs_v3").and_then(Json::as_num);
                check(
                    vs_v3.is_some() || bootstrap_doc,
                    "missing single_thread.speedup_vs_v3 (v3 baseline not carried)",
                );
                if let Some(s) = vs_v3 {
                    check(
                        s >= 1.5,
                        &format!("single-thread speedup over v3 baseline is {s:.2}x, need >= 1.5x"),
                    );
                }
            }
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
    // scalar reference and at least break even (>= 2x on committed AVX2
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
        println!(
            "{path}: schema yoloc-bench-engine/7 OK ({} bytes)",
            text.len()
        );
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
    let mut workloads = Vec::new();
    let mut rows = Vec::new();
    for (family, channels, name) in [
        (Family::Vgg, &[8usize, 10][..], "vgg-style-8-10"),
        (Family::ResNet, &[8usize, 10][..], "resnet-style-8-10"),
    ] {
        let (json, model_rows) = measure_model(family, channels, name, SEED);
        workloads.push(json);
        rows.extend(model_rows);
    }
    print_table(
        "Batched CiM inference engine (model-zoo workload)",
        &[
            "Model",
            "Configuration",
            "Batch time (ms)",
            "Samples/sec",
            "vs serial",
        ],
        &rows,
    );

    // Part 2: graph-compiled zoo architectures, smallest to largest — the
    // per-network scaling table. Scaled to an executable footprint (the
    // full-size graphs are identical in topology; see zoo::scaled).
    let zoo_nets = yoloc_bench::plan_cache::zoo_nets();
    // Full runs compare the arena runtime against the previously
    // committed baseline's serial per-inference medians; smoke configs
    // have no comparable baseline entry and skip the ratio.
    let baselines = if smoke() {
        Vec::new()
    } else {
        load_v3_baselines("BENCH_engine.json")
    };
    let mut zoo_json = Vec::new();
    let mut zoo_rows = Vec::new();
    for desc in &zoo_nets {
        let baseline = baselines
            .iter()
            .find(|(m, _)| *m == desc.name)
            .map(|&(_, s)| s);
        let (json, row) = measure_zoo_network(desc, SEED + 7, baseline);
        zoo_json.push(json);
        zoo_rows.push(row);
    }
    print_table(
        "Graph-compiled zoo networks (pass pipeline + arena runtime)",
        &[
            "Network",
            "Params",
            "MACs",
            "Subarrays (packed/naive)",
            "Samples/sec",
            "vs v3 (1-thread)",
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
        ("schema", Json::str("yoloc-bench-engine/7")),
        ("host_parallelism", to_json(&host)),
        ("smoke", Json::Bool(smoke())),
        (
            "baseline_bootstrap",
            Json::Bool(!smoke() && baselines.is_empty()),
        ),
        ("batch", to_json(&batch())),
        ("reps", to_json(&reps())),
        (
            "worker_sweep",
            Json::Arr(
                worker_sweep()
                    .into_iter()
                    .map(|w| Json::Num(w as f64))
                    .collect(),
            ),
        ),
        ("workloads", Json::Arr(workloads)),
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
    println!("\nwrote {path} (schema yoloc-bench-engine/7, see README.md)");
    println!(
        "note: 'serial' runs one thread on the popcount backend; the \
         batched rows add the worker pool on top — all emit bit-identical \
         logits. The zoo \
         table runs graph-compiled NetworkDesc architectures end-to-end \
         (epilogue fusion + arena runtime + batched MVM kernel) with live \
         memory-hierarchy energy accounting; 'vs v3 (1-thread)' is the \
         measured single-thread speedup of the arena runtime over the \
         committed v3 baseline, \
         'Steady allocs' the heap allocations of a warmed-up inference \
         (gated to zero), and 'Intra-sample x4' the modeled \
         single-inference speedup at 4 macro-cluster lanes."
    );
}
