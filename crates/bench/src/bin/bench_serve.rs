//! Continuous-batching serving benchmark: `BENCH_serve.json` writer and
//! schema gate.
//!
//! Deploys the serving zoo twice through a content-addressed on-disk
//! [`PlanCache`] — a **cold** deploy (compile + store) and a **warm**
//! deploy from a fresh cache instance on the same directory (a server
//! restart served purely from disk, `compiles_warm == 0` counted with
//! the process-wide compile counter) — then serves a seeded mixed
//! traffic trace (Poisson + bursty + ramp streams across the resident
//! models) through the [`Broker`] on the virtual clock and writes the
//! aggregated [`ServeReport`](yoloc_core::serve::ServeReport) as
//! `BENCH_serve.json`, schema
//! `yoloc-bench-serve/2`.
//!
//! Every virtual-clock field in the report is a pure function of the
//! seeds (the simulated timeline never reads the host's clock or
//! entropy), so those fields regenerate byte-identically on any machine
//! — sustained QPS included, which is why a kernel-tier speedup cannot
//! move it. Schema v2 adds the one deliberate exception: a `measured`
//! block with the host wall-clock of the broker run
//! (`host_wall_serve_s`, `wall_completed_per_sec`), where the kernel
//! tier *does* show up. It is validated for presence and positivity
//! only, never for a specific value; wall-clock deploy timings still go
//! to stdout only.
//!
//! Usage:
//!
//! * `bench_serve` — full run, writes `BENCH_serve.json` (under
//!   `--smoke`/`YOLOC_SMOKE=1`: tiny config, writes
//!   `target/BENCH_serve.smoke.json`, committed baseline untouched);
//! * `bench_serve --smoke --check-schema` — smoke run, then validate
//!   the report it just wrote (the CI gate);
//! * `bench_serve --check-schema [PATH]` — validate an existing report
//!   (default `BENCH_serve.json`) without running anything.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use serde::Serialize;
use yoloc_bench::report::Json;
use yoloc_bench::{print_table, smoke};
use yoloc_core::compiler::cache::PlanCache;
use yoloc_core::compiler::{compile_count, CompileOptions, CompiledNetwork};
use yoloc_core::engine::WorkerPool;
use yoloc_core::serve::{
    AdmissionPolicy, ArrivalPattern, Broker, BrokerConfig, LoadGen, TenantConfig, TrafficSpec,
    VirtualClock,
};
use yoloc_models::{zoo, NetworkDesc};
use yoloc_tensor::Tensor;

const SCHEMA: &str = "yoloc-bench-serve/2";
const COMPILE_SEED: u64 = 2022;
const LOADGEN_SEED: u64 = 77;
const INFER_SEED: u64 = 0x5E12_F00D;
const WORKERS: usize = 4;
const WINDOW_NS: u64 = 50_000;

/// The resident serving zoo (tiny under smoke).
fn serve_nets() -> Vec<NetworkDesc> {
    if smoke() {
        vec![
            zoo::scaled(&zoo::vgg8(4), 16, (16, 16)),
            zoo::scaled(&zoo::tiny_yolo(4, 2), 32, (32, 32)),
        ]
    } else {
        vec![
            zoo::scaled(&zoo::vgg8(8), 16, (16, 16)),
            zoo::scaled(&zoo::resnet18(8), 16, (32, 32)),
            zoo::scaled(&zoo::tiny_yolo(4, 2), 32, (32, 32)),
        ]
    }
}

/// The mixed traffic mix over `n` resident models: a deadline-bound
/// Poisson stream, a queue-flooding bursty stream, and a ramp, spread
/// round-robin across the tenants.
fn traffic(n: usize) -> Vec<TrafficSpec> {
    vec![
        TrafficSpec {
            model: 0,
            pattern: ArrivalPattern::Poisson { rate_rps: 80_000.0 },
            deadline_ns: Some(120_000),
        },
        TrafficSpec {
            model: 1 % n,
            pattern: ArrivalPattern::Bursty {
                period_ns: 120_000,
                burst: 20,
            },
            deadline_ns: Some(400_000),
        },
        TrafficSpec {
            model: 2 % n,
            pattern: ArrivalPattern::Ramp {
                start_rps: 10_000.0,
                end_rps: 120_000.0,
            },
            deadline_ns: None,
        },
    ]
}

fn duration_ns() -> u64 {
    if smoke() {
        600_000
    } else {
        2_000_000
    }
}

/// One model's cold/warm cache deploy, counters only (wall timings are
/// printed, never serialized — the report must regenerate
/// byte-identically on any host).
struct Deploy {
    net: CompiledNetwork,
    model: String,
    compiles_cold: u64,
    compiles_warm: u64,
    bit_identical: bool,
    cold_s: f64,
    warm_s: f64,
}

/// Deploys every net cold then warm through an on-disk cache (removed
/// afterwards), returning the *warm* networks for serving.
fn deploy_zoo(descs: &[NetworkDesc]) -> Vec<Deploy> {
    let dir = std::env::temp_dir().join(format!("yoloc-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CompileOptions::paper_default;
    let mut out = Vec::new();
    for desc in descs {
        println!("[deploy:{}] cold (compile + store) ...", desc.name);
        let before = compile_count();
        let t0 = Instant::now();
        let cold = PlanCache::at(&dir)
            .compile_random(desc, COMPILE_SEED, opts())
            .expect("zoo description must compile");
        let cold_s = t0.elapsed().as_secs_f64();
        let compiles_cold = compile_count() - before;

        println!("[deploy:{}] warm (disk lookup) ...", desc.name);
        let before = compile_count();
        let t1 = Instant::now();
        let warm = PlanCache::at(&dir)
            .compile_random(desc, COMPILE_SEED, opts())
            .expect("warm deploy");
        let warm_s = t1.elapsed().as_secs_f64();
        let compiles_warm = compile_count() - before;

        let (c, h, w) = cold.input_shape();
        let x = Tensor::rand_uniform(
            &[1, c, h, w],
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(COMPILE_SEED + 3),
        );
        let (ya, ra) = cold.infer(&x, &mut StdRng::seed_from_u64(COMPILE_SEED + 5));
        let (yb, rb) = warm.infer(&x, &mut StdRng::seed_from_u64(COMPILE_SEED + 5));
        let bit_identical = ya.data() == yb.data() && ra == rb;

        out.push(Deploy {
            net: warm,
            model: desc.name.clone(),
            compiles_cold,
            compiles_warm,
            bit_identical,
            cold_s,
            warm_s,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn pattern_json(p: &ArrivalPattern) -> Json {
    match *p {
        ArrivalPattern::Poisson { rate_rps } => Json::obj([
            ("kind", Json::str("poisson")),
            ("rate_rps", Json::Num(rate_rps)),
        ]),
        ArrivalPattern::Bursty { period_ns, burst } => Json::obj([
            ("kind", Json::str("bursty")),
            ("period_ns", period_ns.to_json()),
            ("burst", (burst as u64).to_json()),
        ]),
        ArrivalPattern::Ramp { start_rps, end_rps } => Json::obj([
            ("kind", Json::str("ramp")),
            ("start_rps", Json::Num(start_rps)),
            ("end_rps", Json::Num(end_rps)),
        ]),
    }
}

/// Appends `what` to `errs` when `ok` does not hold.
fn check(errs: &mut Vec<String>, ok: bool, what: String) {
    if !ok {
        errs.push(what);
    }
}

/// Validates one parsed report, returning every violation.
fn schema_violations(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    check(
        &mut errs,
        doc.get("schema").and_then(Json::as_str) == Some(SCHEMA),
        format!("schema must be {SCHEMA:?}"),
    );
    // Warm plan-cache deploys: no recompiles, bit-identical execution.
    let deploy = doc.get("deploy").and_then(Json::as_arr).unwrap_or(&[]);
    check(
        &mut errs,
        !deploy.is_empty(),
        "deploy block must be a non-empty array".to_string(),
    );
    for entry in deploy {
        let model = entry
            .get("model")
            .and_then(Json::as_str)
            .unwrap_or("<unnamed>");
        check(
            &mut errs,
            entry.get("compiles_cold").and_then(Json::as_u64) >= Some(1),
            format!("deploy[{model}]: cold deploy must compile at least once"),
        );
        check(
            &mut errs,
            entry.get("compiles_warm").and_then(Json::as_u64) == Some(0),
            format!("deploy[{model}]: warm deploy must not recompile (compiles_warm == 0)"),
        );
        check(
            &mut errs,
            entry.get("bit_identical").and_then(Json::as_bool) == Some(true),
            format!("deploy[{model}]: warm deploy must execute bit-identically to the cold one"),
        );
    }
    let serve = doc.get("serve");
    let field = |k: &str| serve.and_then(|s| s.get(k)).and_then(Json::as_u64);
    check(
        &mut errs,
        field("horizon_ns") > Some(0),
        "serve.horizon_ns must be positive".to_string(),
    );
    // Global accounting: every offered request is completed, shed or
    // rejected.
    match (
        field("offered"),
        field("completed"),
        field("shed"),
        field("rejected"),
    ) {
        (Some(o), Some(c), Some(s), Some(r)) => {
            check(
                &mut errs,
                o > 0,
                "serve.offered must be positive".to_string(),
            );
            check(
                &mut errs,
                c + s + r == o,
                "completed + shed + rejected must equal offered".to_string(),
            );
        }
        _ => errs.push("serve block must carry the four request counters".to_string()),
    }
    let models = serve
        .and_then(|s| s.get("models"))
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    check(
        &mut errs,
        models.len() >= 2,
        "at least 2 resident models must be served".to_string(),
    );
    for m in models {
        let name = m.get("model").and_then(Json::as_str).unwrap_or("<unnamed>");
        let f = |k: &str| m.get(k).and_then(Json::as_u64);
        match (f("offered"), f("completed"), f("shed"), f("rejected")) {
            (Some(o), Some(c), Some(s), Some(r)) => check(
                &mut errs,
                c + s + r == o,
                format!("serve.models[{name}]: per-model request accounting broke"),
            ),
            _ => errs.push(format!("serve.models[{name}]: missing request counters")),
        }
        match (f("deadline_hits"), f("deadline_misses"), f("completed")) {
            (Some(h), Some(miss), Some(c)) => check(
                &mut errs,
                h + miss == c,
                format!("serve.models[{name}]: deadline accounting must cover completions"),
            ),
            _ => errs.push(format!("serve.models[{name}]: missing deadline counters")),
        }
        check(
            &mut errs,
            f("p99_ns").is_some(),
            format!("serve.models[{name}]: p99 latency must be recorded"),
        );
        check(
            &mut errs,
            m.get("sustained_qps").and_then(Json::as_num) > Some(0.0),
            format!("serve.models[{name}]: sustained QPS must be positive"),
        );
    }
    // v2: the host wall-clock block. Host-dependent by design, so the
    // gate only checks presence and positivity — never a specific value.
    let measured = doc.get("measured");
    for k in ["host_wall_serve_s", "wall_completed_per_sec"] {
        check(
            &mut errs,
            measured
                .and_then(|m| m.get(k))
                .and_then(Json::as_num)
                .is_some_and(|v| v > 0.0),
            format!("measured.{k} must be present and positive"),
        );
    }
    errs
}

/// `--check-schema` mode: parse + validate a report file.
fn check_schema(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    let errs = schema_violations(&doc);
    if errs.is_empty() {
        println!("{path}: schema {SCHEMA} OK ({} bytes)", text.len());
        std::process::exit(0);
    }
    eprintln!("{path}: {} schema violation(s):", errs.len());
    for e in &errs {
        eprintln!("  - {e}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_flag = args.iter().any(|a| a == "--smoke");
    let check_flag = args.iter().any(|a| a == "--check-schema");
    if check_flag && !smoke_flag {
        let path = args
            .iter()
            .skip_while(|a| *a != "--check-schema")
            .nth(1)
            .cloned()
            .unwrap_or_else(|| "BENCH_serve.json".to_string());
        check_schema(&path);
    }

    let descs = serve_nets();
    let deploys = deploy_zoo(&descs);
    print_table(
        "Plan-cache serving deploys (cold compile vs warm disk deploy)",
        &[
            "Model",
            "Cold (ms)",
            "Warm (ms)",
            "Compiles (cold/warm)",
            "Bit-identical",
        ],
        &deploys
            .iter()
            .map(|d| {
                vec![
                    d.model.clone(),
                    format!("{:.1}", d.cold_s * 1e3),
                    format!("{:.2}", d.warm_s * 1e3),
                    format!("{} / {}", d.compiles_cold, d.compiles_warm),
                    if d.bit_identical { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    assert!(
        deploys.iter().all(|d| d.compiles_warm == 0),
        "a warm deploy recompiled — the plan cache is broken"
    );

    let specs = traffic(deploys.len());
    let trace = LoadGen::new(LOADGEN_SEED).trace(&specs, duration_ns());
    println!(
        "\nserving {} requests across {} models ({} ns simulated) ...",
        trace.len(),
        deploys.len(),
        duration_ns()
    );
    let serve_t0 = Instant::now();
    let out = WorkerPool::with(WORKERS, |pool| {
        let mut broker = Broker::new(
            VirtualClock::new(),
            BrokerConfig {
                infer_seed: INFER_SEED,
                batch_overhead_ns: 20_000,
                capture: false,
                health: None,
            },
        );
        for (i, d) in deploys.iter().enumerate() {
            broker.deploy(
                &d.model,
                &d.net,
                TenantConfig {
                    queue_cap: 16,
                    admission: if i % 2 == 0 {
                        AdmissionPolicy::ShedOldest
                    } else {
                        AdmissionPolicy::RejectNew
                    },
                    max_batch: 8,
                    window_ns: WINDOW_NS,
                },
            );
        }
        broker.run(&trace, pool)
    });
    let host_wall_serve_s = serve_t0.elapsed().as_secs_f64();
    let r = &out.report;
    print_table(
        "Continuous-batching serving (virtual clock)",
        &[
            "Model",
            "Offered",
            "Done/Shed/Rej",
            "p50/p99 (us)",
            "QPS",
            "Deadline miss",
        ],
        &r.models
            .iter()
            .map(|m| {
                vec![
                    m.name.clone(),
                    m.offered.to_string(),
                    format!("{}/{}/{}", m.completed, m.shed, m.rejected),
                    format!("{:.1}/{:.1}", m.p50_ns as f64 / 1e3, m.p99_ns as f64 / 1e3),
                    format!("{:.0}", m.sustained_qps),
                    m.deadline_misses.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("smoke", Json::Bool(smoke())),
        (
            "deploy",
            Json::Arr(
                deploys
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("model", Json::str(d.model.clone())),
                            ("compiles_cold", d.compiles_cold.to_json()),
                            ("compiles_warm", d.compiles_warm.to_json()),
                            ("bit_identical", Json::Bool(d.bit_identical)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "traffic",
            Json::obj([
                ("loadgen_seed", LOADGEN_SEED.to_json()),
                ("duration_ns", duration_ns().to_json()),
                ("requests", (trace.len() as u64).to_json()),
                (
                    "specs",
                    Json::Arr(
                        specs
                            .iter()
                            .map(|s| {
                                Json::obj([
                                    ("model", (s.model as u64).to_json()),
                                    ("pattern", pattern_json(&s.pattern)),
                                    (
                                        "deadline_ns",
                                        match s.deadline_ns {
                                            Some(d) => d.to_json(),
                                            None => Json::Null,
                                        },
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("serve", r.to_json()),
        // Host wall clock of the broker run — the only host-dependent
        // fields in the report (see the module docs); everything above
        // regenerates byte-identically from the seeds.
        (
            "measured",
            Json::obj([
                ("host_wall_serve_s", Json::Num(host_wall_serve_s)),
                (
                    "wall_completed_per_sec",
                    Json::Num(r.completed as f64 / host_wall_serve_s),
                ),
            ]),
        ),
    ]);

    let path = if smoke() {
        "target/BENCH_serve.smoke.json".to_string()
    } else {
        args.iter()
            .find(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_serve.json".to_string())
    };
    std::fs::write(&path, doc.render()).expect("write serve report");
    println!("\nwrote {path}");

    // Self-gate: the document we just wrote must satisfy its own
    // schema (this is what `--smoke --check-schema` runs in CI).
    let errs = schema_violations(&doc);
    if !errs.is_empty() {
        eprintln!("{path}: {} schema violation(s):", errs.len());
        for e in &errs {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
    println!("{path}: schema {SCHEMA} OK");
}
