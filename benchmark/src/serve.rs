//! The `serve-mixed` workload, and the broker replay every other
//! workload's traced run makes on its own networks.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deploy::{cold_warm, infer_once, record_deploy_times};
use crate::digest::{self, Fnv};
use crate::run::{work_dir, Run, ROUNDS_RESERVED};
use crate::stats::{median, percentile};
use yoloc_core::compiler::{CompileOptions, CompiledNetwork};
use yoloc_core::engine::{sample_stream_seed, WorkerPool};
use yoloc_core::serve::{
    AdmissionPolicy, Arrival, ArrivalPattern, Broker, BrokerConfig, LoadGen, ServeOutput,
    TenantConfig, TrafficSpec, VirtualClock,
};
use yoloc_models::{zoo, NetworkDesc};
use yoloc_tensor::Tensor;

pub const NAME: &str = "serve-mixed";

/// Simulated traffic per round, ns.
const HORIZON_NS: u64 = 20_000_000;
/// Simulated traffic of the broker replay in other workloads, ns.
const REPLAY_HORIZON_NS: u64 = 2_000_000;
/// Rounds per run at minimum.
const MIN_ROUNDS: usize = 10;
/// Completed requests per network replayed outside the broker.
const DIRECT_PER_NET: usize = 64;

/// The resident serving zoo of `bench_serve`.
pub fn descs() -> Vec<NetworkDesc> {
    vec![
        zoo::scaled(&zoo::vgg8(8), 16, (16, 16)),
        zoo::scaled(&zoo::resnet18(8), 16, (32, 32)),
        zoo::scaled(&zoo::tiny_yolo(4, 2), 32, (32, 32)),
    ]
}

/// `bench_serve`'s traffic mix over `n` tenants: a deadline-bound
/// Poisson stream, a queue-flooding bursty stream and a ramp, spread
/// round-robin.
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

/// Lanes of the serving pool: two, or fewer on a smaller host.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One fresh broker on the virtual clock serving `trace` over `nets`.
fn serve_round<'m, 'env>(
    nets: &'m [CompiledNetwork],
    trace: &[Arrival],
    pool: &WorkerPool<'env>,
    infer_seed: u64,
    capture: bool,
) -> ServeOutput
where
    'm: 'env,
{
    let mut broker = Broker::new(
        VirtualClock::new(),
        BrokerConfig {
            infer_seed,
            batch_overhead_ns: 20_000,
            capture,
            health: None,
        },
    );
    for (i, net) in nets.iter().enumerate() {
        broker.deploy(
            &net.name,
            net,
            TenantConfig {
                queue_cap: 16,
                admission: if i % 2 == 0 {
                    AdmissionPolicy::ShedOldest
                } else {
                    AdmissionPolicy::RejectNew
                },
                max_batch: 8,
                window_ns: 50_000,
            },
        );
    }
    broker.run(trace, pool)
}

/// Host timing of one broker round.
struct RoundStat {
    broker_ns: f64,
    loadgen_ns: f64,
    completed_per_net: Vec<u64>,
}

fn completed_per_net(out: &ServeOutput) -> Vec<u64> {
    out.report.models.iter().map(|m| m.completed).collect()
}

/// Whether every offered request of `trace` is accounted for once.
fn accounted(out: &ServeOutput, trace: &[Arrival]) -> bool {
    let r = &out.report;
    r.offered == trace.len() as u64 && r.completed + r.shed + r.rejected + r.timed_out == r.offered
}

/// Records the `serve.*` metrics and the modelled serving metrics:
/// counts and virtual-clock figures from `first` (round 0), host times
/// as medians over `rounds`. The dispatch ratio compares the broker's
/// lane time with what its completed requests cost through `infer_in`
/// directly (`per_net_us`).
fn record(
    run: &mut Run,
    first: &ServeOutput,
    rounds: &[RoundStat],
    workers: usize,
    per_net_us: &[f64],
) {
    let r = &first.report;
    let batches: u64 = r.models.iter().map(|m| m.batches).sum();
    let latencies: Vec<f64> = first
        .outcomes
        .iter()
        .filter_map(|o| o.latency_ns())
        .map(|ns| ns as f64 / 1e3)
        .collect();
    let hits = first.outcomes.iter().filter(|o| o.deadline_hit()).count();
    let ratios: Vec<f64> = rounds
        .iter()
        .map(|s| {
            let direct_ns: f64 = s
                .completed_per_net
                .iter()
                .zip(per_net_us)
                .map(|(&c, us)| c as f64 * us * 1e3)
                .sum();
            s.broker_ns * workers as f64 / direct_ns
        })
        .collect();
    let v = &mut run.values;
    v.set(
        "serve.broker_run_ms",
        median(&rounds.iter().map(|s| s.broker_ns / 1e6).collect::<Vec<_>>()),
    );
    v.set(
        "serve.loadgen_trace_ms",
        median(
            &rounds
                .iter()
                .map(|s| s.loadgen_ns / 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    v.set("serve.dispatch_ratio", median(&ratios));
    v.set("serve.batches", batches as f64);
    v.set(
        "serve.mean_batch",
        r.completed as f64 / batches.max(1) as f64,
    );
    v.set(
        "serve.max_queue_depth",
        r.models
            .iter()
            .map(|m| m.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    v.set("serve.shed", r.shed as f64);
    v.set("serve.rejected", r.rejected as f64);
    v.set(
        "modelled_p99_us",
        if latencies.is_empty() {
            0.0
        } else {
            percentile(&latencies, 99.0)
        },
    );
    v.set(
        "modelled_goodput_frac",
        hits as f64 / r.offered.max(1) as f64,
    );
}

/// One broker round over another workload's networks, single lane, on
/// a short trace: the serve layer's metrics for that workload.
pub fn replay(run: &mut Run, nets: &[CompiledNetwork], per_net_us: &[f64]) {
    let specs = traffic(nets.len());
    let (seed, infer_seed) = (run.cfg.seed, run.cfg.seed_of(4, 0));
    let (trace, loadgen_ns) = run.tracer.time("serve.loadgen", 0, || {
        LoadGen::new(seed).trace(&specs, REPLAY_HORIZON_NS)
    });
    let (out, broker_ns) = WorkerPool::with(1, |pool| {
        run.tracer.time("serve.broker_run", 0, || {
            serve_round(nets, &trace, pool, infer_seed, false)
        })
    });
    if !accounted(&out, &trace) {
        run.fail(trace.len() as u64, "broker replay lost requests");
    }
    let stat = RoundStat {
        broker_ns,
        loadgen_ns,
        completed_per_net: completed_per_net(&out),
    };
    record(run, &out, &[stat], 1, per_net_us);
}

/// The `serve-mixed` workload (see the crate docs).
pub fn run(run: &mut Run, write_golden: bool) -> Result<(), String> {
    let descs = descs();
    let dir = work_dir(NAME);
    let weight_seed = run.cfg.weight_seed();
    let setup = |run: &mut Run| -> Result<Vec<CompiledNetwork>, String> {
        let nets: Vec<CompiledNetwork> = descs
            .iter()
            .map(|d| {
                CompiledNetwork::compile_random(d, weight_seed, CompileOptions::paper_default())
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        // Warm each network's arena pool with one inference.
        for (i, net) in nets.iter().enumerate() {
            let (c, h, w) = net.input_shape();
            let mut rng = StdRng::seed_from_u64(run.cfg.seed_of(1, i));
            let x = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng);
            infer_once(run, net, &x, 0, i as u64);
        }
        Ok(nets)
    };
    // Each set-up repetition also deploys the networks cold and warm
    // through the plan cache, outside `setup_s`: the deploy metrics.
    let mut deploys = Vec::new();
    let mut repeat = |run: &mut Run| {
        deploys.push(cold_warm(run, &descs, &dir)?.times);
        run.setup(setup)
    };
    let nets = repeat(run)?;

    let workers = workers();
    let specs = traffic(nets.len());
    let (seed, infer_seed) = (run.cfg.seed, run.cfg.seed_of(4, 0));
    let min_rounds = run.cfg.min_rounds(MIN_ROUNDS);
    let (first, trace0, stats, rounds) = WorkerPool::with(workers, |pool| {
        // Round 0 once more, untimed and capturing every output: the
        // reference the golden digests and modelled metrics come from.
        let trace0 = LoadGen::new(seed).trace(&specs, HORIZON_NS);
        let first = serve_round(&nets, &trace0, pool, infer_seed, true);
        if !accounted(&first, &trace0) {
            run.fail(trace0.len() as u64, "capture round lost requests");
        }
        let report0 = first.report.render();
        let mut stats = Vec::with_capacity(ROUNDS_RESERVED);
        let rounds = run.rounds(min_rounds, repeat, |run, r| {
            let (trace, loadgen_ns) = run.tracer.time("serve.loadgen", r as u64, || {
                LoadGen::new(seed.wrapping_add(r as u64)).trace(&specs, HORIZON_NS)
            });
            let (out, broker_ns) = run.tracer.time("serve.broker_run", r as u64, || {
                serve_round(&nets, &trace, pool, infer_seed, false)
            });
            run.attempted += trace.len() as u64;
            if !accounted(&out, &trace) {
                run.fail(trace.len() as u64, format!("round {r} lost requests"));
            } else if r == 0 && out.report.render() != report0 {
                run.fail(trace.len() as u64, "round 0 differs from its capture run");
            }
            stats.push(RoundStat {
                broker_ns,
                loadgen_ns,
                completed_per_net: completed_per_net(&out),
            });
            out.report.completed as f64 / (broker_ns / 1e9)
        });
        (first, trace0, stats, rounds)
    });
    run.record_throughput(&rounds);
    record_deploy_times(run, &deploys);
    run.peak_rss();
    let mut caps = Fnv::default();
    for c in &first.captures {
        caps.u64(c.id).u64(digest::inference(&c.logits, &c.exec));
    }
    let report = Fnv::default()
        .bytes(first.report.render().as_bytes())
        .finish();
    run.check_golden(NAME, &[caps.finish(), report], write_golden);

    if run.cfg.traced {
        // Replay round 0's completed requests through `infer_in` outside
        // the broker, checking each against its captured output.
        let mut per_net: Vec<Vec<f64>> = vec![Vec::new(); nets.len()];
        for c in &first.captures {
            let a = &trace0[c.id as usize];
            if per_net[a.model].len() >= DIRECT_PER_NET {
                continue;
            }
            let net = &nets[a.model];
            let (ch, h, w) = net.input_shape();
            let x = Tensor::rand_uniform(
                &[1, ch, h, w],
                0.0,
                1.0,
                &mut StdRng::seed_from_u64(a.input_seed),
            );
            let noise = sample_stream_seed(infer_seed, c.id as usize);
            let (d, _, us) = infer_once(run, net, &x, noise, c.id);
            if d != digest::inference(&c.logits, &c.exec) {
                run.fail(
                    1,
                    format!("request {}: broker output differs from infer_in", c.id),
                );
            }
            per_net[a.model].push(us);
        }
        let per_net_us: Vec<f64> = per_net.iter().map(|v| median(v)).collect();
        let reports: Vec<_> = first.captures.iter().map(|c| c.exec.clone()).collect();
        crate::layers::reference_metrics(run, &reports);
        crate::layers::infer_metrics(run, &per_net_us, &per_net.concat());
        crate::layers::replay_all(run, &descs, &dir, &deploys, workers)?;
        record(run, &first, &stats, workers, &per_net_us);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
