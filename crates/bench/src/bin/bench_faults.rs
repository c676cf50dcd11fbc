//! Fault-injection benchmark: `BENCH_faults.json` writer and schema
//! gate.
//!
//! Two experiments, both pure functions of their seeds:
//!
//! 1. **Accuracy vs fault rate** — the zoo's VGG compiled at a sweep
//!    of uniform fault rates (stuck ROM bits, dead subarrays, faulty
//!    ADC columns, degraded links); each faulted deployment classifies
//!    a fixed random input batch and is scored against the pristine
//!    deployment: top-1 agreement, exact-logit match fraction, mean
//!    absolute logit deviation. Rate 0 must score perfect agreement —
//!    the zero-fault path is bit-identical by construction.
//! 2. **Detect / repair / recover** — the `chaos_sim` scenario as a
//!    measurement: a faulty twin is injected into a health-monitored
//!    [`Broker`] mid-trace, and the report records the canary's
//!    detection latency, the repair (quarantine) time, the requests
//!    lost while degraded, the retry volume, and — via captures
//!    checked against the pristine oracle — that **zero** corrupt
//!    responses were released.
//!
//! Usage:
//!
//! * `bench_faults` — full run, writes `BENCH_faults.json` (under
//!   `--smoke`/`YOLOC_SMOKE=1`: tiny config, writes
//!   `target/BENCH_faults.smoke.json`, committed baseline untouched);
//! * `bench_faults --smoke --check-schema` — smoke run, then validate
//!   the report it just wrote (the CI gate);
//! * `bench_faults --check-schema [PATH]` — validate an existing
//!   report (default `BENCH_faults.json`) without running anything.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use serde::Serialize;
use yoloc_bench::report::Json;
use yoloc_bench::{print_table, smoke};
use yoloc_cim::FaultSpec;
use yoloc_core::compiler::{CompileOptions, CompiledNetwork, FaultConfig};
use yoloc_core::engine::{sample_stream_seed, WorkerPool};
use yoloc_core::serve::{
    AdmissionPolicy, ArrivalPattern, Broker, BrokerConfig, Disposition, HealthConfig, LoadGen,
    TenantConfig, TrafficSpec, VirtualClock,
};
use yoloc_models::{zoo, NetworkDesc};
use yoloc_tensor::Tensor;

const SCHEMA: &str = "yoloc-bench-faults/1";
const COMPILE_SEED: u64 = 2022;
const FAULT_SEED: u64 = 5;
const LOADGEN_SEED: u64 = 29;
const INFER_SEED: u64 = 0xFA17_CA57;
const CHAOS_AT_NS: u64 = 600_000;
const REPAIR_NS: u64 = 1_000_000;
const SPARES: u64 = 4;

fn bench_desc() -> NetworkDesc {
    if smoke() {
        zoo::scaled(&zoo::vgg8(3), 16, (16, 16))
    } else {
        zoo::scaled(&zoo::vgg8(8), 16, (16, 16))
    }
}

fn fault_rates() -> Vec<f64> {
    if smoke() {
        vec![0.0, 1e-3, 1e-2]
    } else {
        vec![0.0, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2]
    }
}

fn eval_batch() -> usize {
    if smoke() {
        4
    } else {
        16
    }
}

fn compile_at_rate(desc: &NetworkDesc, rate: f64) -> CompiledNetwork {
    let mut opts = CompileOptions::paper_default();
    if rate > 0.0 {
        opts.faults = Some(FaultConfig::sized(
            FaultSpec::uniform(FAULT_SEED, rate),
            SPARES,
        ));
    } else {
        opts.faults = Some(FaultConfig::sized(FaultSpec::none(), SPARES));
    }
    CompiledNetwork::compile_random(desc, COMPILE_SEED, opts).expect("faulted compile")
}

/// One point of the accuracy-vs-fault-rate curve.
struct CurvePoint {
    rate: f64,
    dead_subarrays: u64,
    top1_agreement: f64,
    exact_match_fraction: f64,
    mean_abs_dev: f64,
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

fn fault_curve(desc: &NetworkDesc) -> Vec<CurvePoint> {
    let pristine =
        CompiledNetwork::compile_random(desc, COMPILE_SEED, CompileOptions::paper_default())
            .expect("pristine compile");
    let (c, h, w) = pristine.input_shape();
    let inputs: Vec<Tensor> = (0..eval_batch())
        .map(|i| {
            Tensor::rand_uniform(
                &[1, c, h, w],
                0.0,
                1.0,
                &mut StdRng::seed_from_u64(sample_stream_seed(COMPILE_SEED, i)),
            )
        })
        .collect();
    let reference: Vec<Vec<f32>> = inputs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let mut rng = StdRng::seed_from_u64(sample_stream_seed(INFER_SEED, i));
            pristine.infer(x, &mut rng).0.data().to_vec()
        })
        .collect();

    fault_rates()
        .into_iter()
        .map(|rate| {
            let net = compile_at_rate(desc, rate);
            let dead = net.fault_map.as_ref().map_or(0, |fm| fm.dead.len() as u64);
            let mut top1 = 0usize;
            let mut exact = 0usize;
            let mut dev_sum = 0.0f64;
            let mut dev_n = 0usize;
            for (i, x) in inputs.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(sample_stream_seed(INFER_SEED, i));
                let y = net.infer(x, &mut rng).0.data().to_vec();
                let r = &reference[i];
                if argmax(&y) == argmax(r) {
                    top1 += 1;
                }
                if &y == r {
                    exact += 1;
                }
                for (a, b) in y.iter().zip(r) {
                    dev_sum += f64::from((a - b).abs());
                    dev_n += 1;
                }
            }
            CurvePoint {
                rate,
                dead_subarrays: dead,
                top1_agreement: top1 as f64 / inputs.len() as f64,
                exact_match_fraction: exact as f64 / inputs.len() as f64,
                mean_abs_dev: dev_sum / dev_n as f64,
            }
        })
        .collect()
}

/// The serving-layer chaos measurement.
struct ChaosOutcome {
    offered: u64,
    completed: u64,
    shed: u64,
    rejected: u64,
    timed_out: u64,
    retried: u64,
    probes: u64,
    detection_latency_ns: u64,
    recovery_ns: u64,
    lost_during_repair: u64,
    post_repair_completions: u64,
    corrupt_released: u64,
}

fn chaos_measurement(desc: &NetworkDesc) -> ChaosOutcome {
    let pristine =
        CompiledNetwork::compile_random(desc, COMPILE_SEED, CompileOptions::paper_default())
            .expect("pristine compile");
    let mut opts = CompileOptions::paper_default();
    opts.faults = Some(FaultConfig::sized(
        FaultSpec {
            stuck_rate: 0.02,
            dead_subarray_rate: 0.10,
            adc_fault_rate: 0.05,
            ..FaultSpec::uniform(FAULT_SEED, 0.0)
        },
        SPARES,
    ));
    let faulty = CompiledNetwork::compile_random(desc, COMPILE_SEED, opts).expect("twin compile");

    let trace = LoadGen::new(LOADGEN_SEED).trace(
        &[TrafficSpec {
            model: 0,
            pattern: ArrivalPattern::Poisson {
                rate_rps: 100_000.0,
            },
            deadline_ns: None,
        }],
        if smoke() { 1_500_000 } else { 3_000_000 },
    );
    let out = WorkerPool::with(4, |pool| {
        let mut broker = Broker::new(
            VirtualClock::new(),
            BrokerConfig {
                infer_seed: INFER_SEED,
                batch_overhead_ns: 20_000,
                capture: true,
                health: Some(HealthConfig {
                    canary_period_ns: 100_000,
                    canary_seed: 0xCA_11A2,
                    max_retries: 3,
                    repair_ns: REPAIR_NS,
                }),
            },
        );
        broker.deploy(
            &desc.name,
            &pristine,
            TenantConfig {
                queue_cap: trace.len().max(1),
                admission: AdmissionPolicy::RejectNew,
                max_batch: 8,
                window_ns: 40_000,
            },
        );
        broker.inject_fault(0, CHAOS_AT_NS, &faulty);
        broker.run(&trace, pool)
    });

    let hs = &out.health[0];
    let detect = hs.failures_at_ns.first().copied().unwrap_or(0);
    let repair = hs.repairs_at_ns.first().copied().unwrap_or(detect);
    let lost_during_repair = out
        .outcomes
        .iter()
        .filter(|o| {
            matches!(o.disposition, Disposition::Shed | Disposition::TimedOut)
                && o.finish_ns >= detect
                && o.finish_ns <= repair
        })
        .count() as u64;
    let post_repair_completions = out
        .outcomes
        .iter()
        .filter(|o| o.disposition == Disposition::Completed && o.start_ns >= repair)
        .count() as u64;

    // Score every released capture against the pristine oracle: any
    // mismatch is a corrupt response that escaped the canary.
    let (c, h, w) = pristine.input_shape();
    let mut oracle: HashMap<u64, Vec<f32>> = HashMap::new();
    let mut arena = pristine.take_arena();
    for a in &trace {
        let x = Tensor::rand_uniform(
            &[1, c, h, w],
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(a.input_seed),
        );
        let mut rng = StdRng::seed_from_u64(sample_stream_seed(INFER_SEED, a.id as usize));
        let (y, _) = pristine.infer_in(&x, &mut rng, &mut arena);
        oracle.insert(a.id, y.data().to_vec());
    }
    pristine.give_arena(arena);
    let corrupt_released = out
        .captures
        .iter()
        .filter(|cap| oracle.get(&cap.id).map(Vec::as_slice) != Some(cap.logits.as_slice()))
        .count() as u64;

    ChaosOutcome {
        offered: out.report.offered,
        completed: out.report.completed,
        shed: out.report.shed,
        rejected: out.report.rejected,
        timed_out: out.report.timed_out,
        retried: out.report.retried,
        probes: hs.probes,
        detection_latency_ns: detect.saturating_sub(CHAOS_AT_NS),
        recovery_ns: repair.saturating_sub(detect),
        lost_during_repair,
        post_repair_completions,
        corrupt_released,
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
    let curve = doc.get("fault_curve").and_then(Json::as_arr).unwrap_or(&[]);
    check(
        &mut errs,
        curve.len() >= 2,
        "fault_curve must sweep at least 2 rates".to_string(),
    );
    let mut prev_rate = f64::NEG_INFINITY;
    for (i, p) in curve.iter().enumerate() {
        let rate = p.get("rate").and_then(Json::as_num).unwrap_or(f64::NAN);
        check(
            &mut errs,
            rate > prev_rate,
            format!("fault_curve[{i}]: rates must be strictly increasing"),
        );
        prev_rate = rate;
        let top1 = p
            .get("top1_agreement")
            .and_then(Json::as_num)
            .unwrap_or(-1.0);
        check(
            &mut errs,
            (0.0..=1.0).contains(&top1),
            format!("fault_curve[{i}]: top1_agreement must be a fraction"),
        );
        if i == 0 {
            check(
                &mut errs,
                rate == 0.0,
                "fault_curve[0] must be the zero-fault baseline".to_string(),
            );
            check(
                &mut errs,
                p.get("exact_match_fraction").and_then(Json::as_num) == Some(1.0),
                "fault_curve[0]: the zero-fault deployment must match the pristine \
                 one bit-for-bit"
                    .to_string(),
            );
        }
    }
    let serving = doc.get("serving");
    let f = |k: &str| serving.and_then(|s| s.get(k)).and_then(Json::as_u64);
    match (
        f("offered"),
        f("completed"),
        f("shed"),
        f("rejected"),
        f("timed_out"),
    ) {
        (Some(o), Some(c), Some(s), Some(r), Some(t)) => {
            check(
                &mut errs,
                o > 0,
                "serving.offered must be positive".to_string(),
            );
            check(
                &mut errs,
                c + s + r + t == o,
                "completed + shed + rejected + timed_out must equal offered".to_string(),
            );
        }
        _ => errs.push("serving block must carry the five request counters".to_string()),
    }
    check(
        &mut errs,
        f("probes") > Some(0),
        "serving.probes: canaries must have run".to_string(),
    );
    check(
        &mut errs,
        f("recovery_ns") > Some(0),
        "serving.recovery_ns: the quarantine must lapse into a repair".to_string(),
    );
    check(
        &mut errs,
        f("detection_latency_ns").is_some(),
        "serving.detection_latency_ns must be recorded".to_string(),
    );
    check(
        &mut errs,
        f("retried") > Some(0),
        "serving.retried: the failed canary must void and retry work".to_string(),
    );
    check(
        &mut errs,
        f("post_repair_completions") > Some(0),
        "serving.post_repair_completions: service must recover after repair".to_string(),
    );
    check(
        &mut errs,
        f("corrupt_released") == Some(0),
        "serving.corrupt_released must be zero — no corrupt response may ship".to_string(),
    );
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
            .unwrap_or_else(|| "BENCH_faults.json".to_string());
        check_schema(&path);
    }

    let desc = bench_desc();
    println!("accuracy vs fault rate ({}) ...", desc.name);
    let curve = fault_curve(&desc);
    print_table(
        "Accuracy vs uniform fault rate (vs pristine deployment)",
        &[
            "Rate",
            "Dead subarrays",
            "Top-1 agree",
            "Exact",
            "Mean |dev|",
        ],
        &curve
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0e}", p.rate),
                    p.dead_subarrays.to_string(),
                    format!("{:.2}", p.top1_agreement),
                    format!("{:.2}", p.exact_match_fraction),
                    format!("{:.3e}", p.mean_abs_dev),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!("\nchaos serving measurement (canary detect -> repair -> recover) ...");
    let chaos = chaos_measurement(&desc);
    print_table(
        "Fault detection and recovery (virtual clock)",
        &["Metric", "Value"],
        &[
            vec![
                "detection latency (us)".to_string(),
                format!("{:.1}", chaos.detection_latency_ns as f64 / 1e3),
            ],
            vec![
                "recovery / repair (us)".to_string(),
                format!("{:.1}", chaos.recovery_ns as f64 / 1e3),
            ],
            vec![
                "lost during repair".to_string(),
                chaos.lost_during_repair.to_string(),
            ],
            vec!["retried".to_string(), chaos.retried.to_string()],
            vec!["timed out".to_string(), chaos.timed_out.to_string()],
            vec![
                "post-repair completions".to_string(),
                chaos.post_repair_completions.to_string(),
            ],
            vec![
                "corrupt released".to_string(),
                chaos.corrupt_released.to_string(),
            ],
        ],
    );

    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("smoke", Json::Bool(smoke())),
        ("model", Json::str(desc.name.clone())),
        ("fault_seed", FAULT_SEED.to_json()),
        (
            "fault_curve",
            Json::Arr(
                curve
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("rate", Json::Num(p.rate)),
                            ("dead_subarrays", p.dead_subarrays.to_json()),
                            ("top1_agreement", Json::Num(p.top1_agreement)),
                            ("exact_match_fraction", Json::Num(p.exact_match_fraction)),
                            ("mean_abs_dev", Json::Num(p.mean_abs_dev)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "serving",
            Json::obj([
                ("chaos_at_ns", CHAOS_AT_NS.to_json()),
                ("repair_ns", REPAIR_NS.to_json()),
                ("offered", chaos.offered.to_json()),
                ("completed", chaos.completed.to_json()),
                ("shed", chaos.shed.to_json()),
                ("rejected", chaos.rejected.to_json()),
                ("timed_out", chaos.timed_out.to_json()),
                ("retried", chaos.retried.to_json()),
                ("probes", chaos.probes.to_json()),
                ("detection_latency_ns", chaos.detection_latency_ns.to_json()),
                ("recovery_ns", chaos.recovery_ns.to_json()),
                ("lost_during_repair", chaos.lost_during_repair.to_json()),
                (
                    "post_repair_completions",
                    chaos.post_repair_completions.to_json(),
                ),
                ("corrupt_released", chaos.corrupt_released.to_json()),
            ]),
        ),
    ]);

    let path = if smoke() {
        "target/BENCH_faults.smoke.json".to_string()
    } else {
        args.iter()
            .find(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_faults.json".to_string())
    };
    std::fs::write(&path, doc.render()).expect("write fault report");
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
