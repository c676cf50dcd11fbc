//! Deploying through the plan cache, and the `deploy-restart` workload.
//!
//! A **cold** deploy goes through one `PlanCache::at` on an empty
//! directory: compile, serialize and write each network. A **warm**
//! deploy then goes through a fresh `PlanCache::at` per network on that
//! directory, as a restarted server would: read, checksum, parse and
//! program. `detect-stream` and `serve-mixed` deploy their networks this
//! way alongside each set-up repetition; `deploy-restart` does nothing
//! else.

use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::digest;
use crate::run::{work_dir, Run};
use crate::stats::median;
use yoloc_core::compiler::cache::{content_key, PlanCache};
use yoloc_core::compiler::{compile_count, CompileOptions, CompiledNetwork, ExecutionReport};
use yoloc_models::{zoo, NetworkDesc};
use yoloc_tensor::Tensor;

pub const NAME: &str = "deploy-restart";

/// Rounds per run at minimum.
const MIN_ROUNDS: usize = 5;

/// The five networks of the plan-cache bench, at their bench sizes.
pub fn descs() -> Vec<NetworkDesc> {
    vec![
        zoo::scaled(&zoo::vgg8(10), 16, (16, 16)),
        zoo::scaled(&zoo::resnet18(10), 16, (32, 32)),
        zoo::scaled(&zoo::tiny_yolo(4, 2), 16, (64, 64)),
        zoo::scaled(&zoo::darknet19(8), 16, (64, 64)),
        zoo::scaled(&zoo::yolo_v2(4, 2), 32, (64, 64)),
    ]
}

/// Per-network times of one cold-then-warm deploy, ms, in description
/// order.
#[derive(Debug, Clone)]
pub struct DeployTimes {
    pub cold_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
}

/// One cold-then-warm deploy of a set of networks.
pub struct Deployment {
    /// The cold-deployed networks, in description order.
    pub cold: Vec<CompiledNetwork>,
    /// The warm-deployed networks, in description order.
    pub warm: Vec<CompiledNetwork>,
    pub times: DeployTimes,
}

/// Deploys `descs` through `cache` (`None`: a fresh cache per network),
/// timing each network; the whole pass is one span named `span`.
fn deploy_each(
    run: &mut Run,
    descs: &[NetworkDesc],
    span: &'static str,
    dir: &Path,
    cache: Option<&PlanCache>,
) -> Result<(Vec<CompiledNetwork>, Vec<f64>), String> {
    let seed = run.cfg.weight_seed();
    let open = run.tracer.begin(span, 0);
    let mut nets = Vec::new();
    let mut times = Vec::new();
    for (i, d) in descs.iter().enumerate() {
        let (net, ns) = run.tracer.time("cache.compile_random", i as u64, || {
            let opts = CompileOptions::paper_default();
            match cache {
                Some(cache) => cache.compile_random(d, seed, opts),
                None => PlanCache::at(dir).compile_random(d, seed, opts),
            }
        });
        nets.push(net);
        times.push(ns / 1e6);
    }
    run.tracer.end(open);
    let nets = nets.into_iter().collect::<Result<_, _>>();
    Ok((nets.map_err(|e| e.to_string())?, times))
}

/// Deploys `descs` cold into `dir` (emptied first), then warm from it.
///
/// # Errors
///
/// A failed compile, or a warm deploy that recompiled (the cache missed
/// an entry it had just stored).
pub fn cold_warm(run: &mut Run, descs: &[NetworkDesc], dir: &Path) -> Result<Deployment, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = PlanCache::at(dir);
    let (cold, cold_ms) = deploy_each(run, descs, "cache.cold_deploy", dir, Some(&cache))?;
    let before = compile_count();
    let (warm, warm_ms) = deploy_each(run, descs, "cache.warm_deploy", dir, None)?;
    let recompiles = compile_count() - before;
    if recompiles > 0 {
        return Err(format!("warm deploy recompiled {recompiles} network(s)"));
    }
    Ok(Deployment {
        cold,
        warm,
        times: DeployTimes { cold_ms, warm_ms },
    })
}

/// The fastest cold and warm deploy of each network over `deploys`,
/// summed over networks, ms. Interference on a shared host only ever
/// slows a deploy down, so the fastest one is the steadiest estimate of
/// what the code costs.
pub fn best_deploy_ms(deploys: &[DeployTimes]) -> (f64, f64) {
    let best = |pick: fn(&DeployTimes) -> &Vec<f64>| -> f64 {
        (0..pick(&deploys[0]).len())
            .map(|n| {
                deploys
                    .iter()
                    .map(|d| pick(d)[n])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    (best(|d| &d.cold_ms), best(|d| &d.warm_ms))
}

/// Records `cold_deploy_ms` and `warm_deploy_ms` (see [`best_deploy_ms`]).
pub fn record_deploy_times(run: &mut Run, deploys: &[DeployTimes]) {
    let (cold, warm) = best_deploy_ms(deploys);
    run.values.set("cold_deploy_ms", cold);
    run.values.set("warm_deploy_ms", warm);
}

/// The plan-cache entry file `desc` was stored under in `dir`.
pub fn entry_path(dir: &Path, desc: &NetworkDesc, weight_seed: u64) -> std::path::PathBuf {
    let key = content_key(desc, &CompileOptions::paper_default(), weight_seed);
    dir.join(format!("{key:016x}.json"))
}

/// One inference of `net` on a fresh arena from its pool, with the
/// seeded noise stream `noise_seed`: the output digest, the report, and
/// the `infer_in` time in microseconds.
pub fn infer_once(
    run: &mut Run,
    net: &CompiledNetwork,
    x: &Tensor,
    noise_seed: u64,
    request: u64,
) -> (u64, ExecutionReport, f64) {
    let mut arena = net.take_arena();
    let mut rng = StdRng::seed_from_u64(noise_seed);
    let open = run.tracer.begin("compiler.infer_in", request);
    let (y, report) = net.infer_in(x, &mut rng, &mut arena);
    let us = run.tracer.end(open) / 1e3;
    let out = (digest::inference(y.data(), report), report.clone(), us);
    net.give_arena(arena);
    out
}

/// The `deploy-restart` workload (see the crate docs).
pub fn run(run: &mut Run, write_golden: bool) -> Result<(), String> {
    let descs = descs();
    let dir = work_dir(NAME);
    let seed = run.cfg.weight_seed();

    // Set-up: compile the reference networks directly (no cache), make
    // one check input per network, and record the reference outputs.
    let setup = |run: &mut Run| -> Result<_, String> {
        let nets: Vec<CompiledNetwork> = descs
            .iter()
            .map(|d| CompiledNetwork::compile_random(d, seed, CompileOptions::paper_default()))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let mut inputs = Vec::new();
        let mut want = Vec::new();
        let mut reports = Vec::new();
        for (i, net) in nets.iter().enumerate() {
            let (c, h, w) = net.input_shape();
            let mut rng = StdRng::seed_from_u64(run.cfg.seed_of(1, i));
            let x = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng);
            let noise = run.cfg.seed_of(2, i);
            let (d, r, _) = infer_once(run, net, &x, noise, i as u64);
            inputs.push(x);
            want.push(d);
            reports.push(r);
        }
        Ok((inputs, want, reports))
    };
    let (inputs, want, reports) = run.setup(setup)?;

    let mut entry_digests = Vec::new();
    let mut deploys = Vec::new();
    let mut infer_us: Vec<Vec<f64>> = vec![Vec::new(); descs.len()];
    let mut last_warm = Vec::new();
    let min_rounds = run.cfg.min_rounds(MIN_ROUNDS);
    let rounds = run.rounds(
        min_rounds,
        |run| run.setup(setup),
        |run, r| {
            let n = descs.len() as u64;
            run.attempted += 2 * n;
            let d = match cold_warm(run, &descs, &dir) {
                Ok(d) => d,
                Err(e) => {
                    run.fail(2 * n, e);
                    return 0.0;
                }
            };
            if r == 0 {
                for desc in &descs {
                    let bytes = std::fs::read(entry_path(&dir, desc, seed)).unwrap_or_default();
                    entry_digests.push(digest::Fnv::default().bytes(&bytes).finish());
                }
            }
            for (i, x) in inputs.iter().enumerate() {
                let noise = run.cfg.seed_of(2, i);
                for net in [&d.cold[i], &d.warm[i]] {
                    let (got, _, us) = infer_once(run, net, x, noise, i as u64);
                    infer_us[i].push(us);
                    if got != want[i] {
                        run.fail(1, format!("{}: deployed output differs", descs[i].name));
                    }
                }
            }
            let round_ms: f64 = d.times.cold_ms.iter().chain(&d.times.warm_ms).sum();
            deploys.push(d.times);
            last_warm = d.warm;
            (2 * n) as f64 / (round_ms / 1e3)
        },
    );
    run.record_throughput(&rounds);
    record_deploy_times(run, &deploys);
    run.peak_rss();
    let mut golden = want;
    golden.extend(&entry_digests);
    run.check_golden(NAME, &golden, write_golden);

    if run.cfg.traced {
        let per_net_us: Vec<f64> = infer_us.iter().map(|v| median(v)).collect();
        crate::layers::reference_metrics(run, &reports);
        crate::layers::infer_metrics(run, &per_net_us, &infer_us.concat());
        crate::layers::replay_all(run, &descs, &dir, &deploys, 1)?;
        crate::serve::replay(run, &last_warm, &per_net_us);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
