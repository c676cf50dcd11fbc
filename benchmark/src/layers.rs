//! Per-layer measurements for the traced run.
//!
//! Each layer is timed from outside, through its public functions, on
//! the workload's own networks. The executor is timed inside the
//! workload's loop; `qconv` and `cim` are replayed standalone, because
//! the plan's ops are not public: each CiM conv is rebuilt with
//! `CimConv2d::compile` from its `NetworkDesc::analyze()` shape, seeded
//! `kaiming_normal` weights and an input of the layer's shape. The
//! compiler, serializer, cache and worker pool are replayed on the same
//! networks.

use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deploy::{best_deploy_ms, entry_path, DeployTimes};
use crate::run::Run;
use crate::stats::{mean, median, percentile};
use yoloc_cim::backend::{program_backend, BackendKind, MvmScratch};
use yoloc_cim::kernels::transposed_pad;
use yoloc_cim::{MacroParams, MatmulLayout, MvmStats};
use yoloc_core::compiler::cache::PlanCache;
use yoloc_core::compiler::{compile_count, CompileOptions, CompiledNetwork, ExecutionReport};
use yoloc_core::engine::WorkerPool;
use yoloc_core::qconv::{CimConv2d, CimScratch};
use yoloc_models::{LayerSpec, NetworkDesc};
use yoloc_quant::PerChannelQuant;
use yoloc_tensor::{init, Tensor};

/// Timed repetitions of each standalone layer call (the median counts).
const CONV_REPS: usize = 5;
/// Repetitions of the compile / serialize / cache replays.
const SERIAL_REPS: usize = 3;
/// Timed `WorkerPool::run` calls.
const POOL_REPS: usize = 200;

/// Records the modelled chip metrics, the CiM event counts and the
/// arena footprint as means over the workload's reference inferences.
pub fn reference_metrics(run: &mut Run, reports: &[ExecutionReport]) {
    let avg =
        |f: &dyn Fn(&ExecutionReport) -> f64| mean(&reports.iter().map(f).collect::<Vec<_>>());
    let v = &mut run.values;
    v.set("modelled_latency_us", avg(&|r| r.latency_ns / 1e3));
    v.set("modelled_energy_uj", avg(&|r| r.energy.total_uj()));
    v.set(
        "cim.adc_conversions",
        avg(&|r| (r.rom.adc_conversions + r.sram.adc_conversions) as f64),
    );
    v.set(
        "cim.wl_pulses",
        avg(&|r| (r.rom.wl_pulses + r.sram.wl_pulses) as f64),
    );
    v.set(
        "compiler.peak_arena_bytes",
        avg(&|r| r.peak_arena_bytes as f64),
    );
}

/// Records the executor's `infer_in` time: the mean over networks of
/// each network's median, and the p99 of every sample pooled.
pub fn infer_metrics(run: &mut Run, per_net_median_us: &[f64], pooled_us: &[f64]) {
    run.values
        .set("compiler.infer_in_us", mean(per_net_median_us));
    run.values
        .set("compiler.infer_in_p99_us", percentile(pooled_us, 99.0));
}

/// Replays every standalone layer on `descs`: the CiM convs, the
/// compiler and cache (whose entries `dir` holds from the workload's
/// last deploy; `deploys` are its deploy times), and a pool of
/// `workers` lanes.
///
/// # Errors
///
/// A replay whose output disagrees with the deployed path.
pub fn replay_all(
    run: &mut Run,
    descs: &[NetworkDesc],
    dir: &Path,
    deploys: &[DeployTimes],
    workers: usize,
) -> Result<(), String> {
    conv_replay(run, descs);
    serial_replay(run, descs, dir, deploys)?;
    pool_replay(run, workers);
    Ok(())
}

/// Standalone `qconv` and `cim` calls for every conv of every network:
/// per inference, summed over a network's convs, averaged over
/// networks.
fn conv_replay(run: &mut Run, descs: &[NetworkDesc]) {
    let params = MacroParams::rom_paper();
    let (mut im2col, mut forward, mut mvm) = (Vec::new(), Vec::new(), Vec::new());
    for (n, desc) in descs.iter().enumerate() {
        let shapes = desc.analyze().expect("zoo descriptions analyze");
        let mut rng = StdRng::seed_from_u64(run.cfg.seed_of(3, n));
        let (mut net_im2col, mut net_forward, mut net_mvm) = (0.0, 0.0, 0.0);
        for (layer, shape) in desc.layers.iter().zip(&shapes) {
            let LayerSpec::Conv {
                out_ch,
                kernel,
                stride,
                padding,
                ..
            } = *layer
            else {
                continue;
            };
            let (c, h, w) = shape.in_shape;
            let weight = init::kaiming_normal(&[out_ch, c, kernel, kernel], &mut rng);
            let x = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng);
            let conv = CimConv2d::compile(&weight, stride, padding, &[&x], params);
            let (oh, ow) = conv.output_hw(h, w);
            let mut out = vec![0.0f32; out_ch * oh * ow];
            let mut scratch = CimScratch::new();
            let backend = program_backend(
                BackendKind::Popcount,
                params,
                &PerChannelQuant::quantize(&weight, params.weight_bits).values,
                out_ch,
                c * kernel * kernel,
            );
            let cols = conv.lower(&x);
            let (patch, positions) = (cols.shape()[0], cols.shape()[1]);
            let layout = backend.batch_layout(positions);
            let n_pad = transposed_pad(positions);
            let mut acts = vec![0i32; patch * n_pad];
            for r in 0..patch {
                for p in 0..positions {
                    let code = conv
                        .act_params
                        .quantize_value(cols.data()[r * positions + p]);
                    match layout {
                        MatmulLayout::Transposed => acts[r * n_pad + p] = code,
                        MatmulLayout::RowMajor => acts[p * patch + r] = code,
                    }
                }
            }
            let mut accs = vec![0i64; positions * out_ch];
            let mut mvm_scratch = MvmScratch::new();
            let (mut t_lower, mut t_fwd, mut t_mvm) = (Vec::new(), Vec::new(), Vec::new());
            // One untimed pass grows every scratch buffer first.
            for rep in 0..=CONV_REPS {
                let req = n as u64;
                let (cols, lo) = run.tracer.time("qconv.im2col", req, || conv.lower(&x));
                std::hint::black_box(cols);
                let mut noise = StdRng::seed_from_u64(0);
                let (_, fw) = run.tracer.time("qconv.forward_in", req, || {
                    conv.forward_in(x.data(), 1, h, w, &mut out, &mut scratch, &mut noise)
                });
                let mut stats = MvmStats::default();
                let (_, mv) = run.tracer.time("cim.mvm_batch", req, || match layout {
                    MatmulLayout::Transposed => backend.mvm_batch_transposed(
                        &acts,
                        positions,
                        n_pad,
                        &mut accs,
                        &mut stats,
                        &mut mvm_scratch,
                        &mut noise,
                    ),
                    MatmulLayout::RowMajor => backend.mvm_batch(
                        &acts[..positions * patch],
                        positions,
                        &mut accs,
                        &mut stats,
                        &mut mvm_scratch,
                        &mut noise,
                    ),
                });
                if rep > 0 {
                    t_lower.push(lo);
                    t_fwd.push(fw);
                    t_mvm.push(mv);
                }
            }
            net_im2col += median(&t_lower) / 1e3;
            net_forward += median(&t_fwd) / 1e3;
            net_mvm += median(&t_mvm) / 1e3;
        }
        im2col.push(net_im2col);
        forward.push(net_forward);
        mvm.push(net_mvm);
    }
    let (forward, mvm) = (mean(&forward), mean(&mvm));
    let v = &mut run.values;
    v.set("qconv.im2col_us", mean(&im2col));
    v.set("qconv.forward_us", forward);
    v.set("cim.mvm_batch_us", mvm);
    v.set("qconv.staging_share", (forward - mvm) / forward);
    let infer = v.get("compiler.infer_in_us").expect("infer_metrics first");
    v.set("compiler.executor_self_us", infer - forward);
}

/// Compile, serialize, read, deserialize and in-memory hit, each timed
/// per network (fastest of the reps, like the deploy times they are
/// subtracted from) and summed over networks; the cache's own time is
/// what the fastest deploys took beyond those steps.
fn serial_replay(
    run: &mut Run,
    descs: &[NetworkDesc],
    dir: &Path,
    deploys: &[DeployTimes],
) -> Result<(), String> {
    let seed = run.cfg.weight_seed();
    let opts = CompileOptions::paper_default;
    let mut sums = [0.0f64; 5];
    let mut entry_bytes = 0usize;
    for (i, desc) in descs.iter().enumerate() {
        let req = i as u64;
        let mut times: [Vec<f64>; 5] = Default::default();
        let mut net_bytes = 0;
        for _ in 0..SERIAL_REPS {
            let (net, t) = run.tracer.time("compiler.compile", req, || {
                CompiledNetwork::compile_random(desc, seed, opts())
            });
            times[0].push(t);
            let net = net.map_err(|e| e.to_string())?;
            let (text, t) = run
                .tracer
                .time("compiler.serialize", req, || net.serialize_plan());
            times[1].push(t);
            let (raw, t) = run.tracer.time("cache.read", req, || {
                std::fs::read_to_string(entry_path(dir, desc, seed))
            });
            times[2].push(t);
            let raw = raw.map_err(|e| format!("{}: cache entry: {e}", desc.name))?;
            net_bytes = raw.len();
            let body = raw.split_once('\n').map_or("", |(_, body)| body);
            if body != text {
                return Err(format!(
                    "{}: stored plan differs from a fresh compile",
                    desc.name
                ));
            }
            let (back, t) = run.tracer.time("compiler.deserialize", req, || {
                CompiledNetwork::deserialize_plan(body)
            });
            times[3].push(t);
            back?;
            let cache = PlanCache::at(dir);
            cache
                .compile_random(desc, seed, opts())
                .map_err(|e| e.to_string())?;
            let before = compile_count();
            let (hit, t) = run.tracer.time("cache.mem_hit", req, || {
                cache.compile_random(desc, seed, opts())
            });
            times[4].push(t);
            hit.map_err(|e| e.to_string())?;
            if compile_count() != before || cache.misses() != 0 {
                return Err(format!("{}: cache lookup recompiled", desc.name));
            }
        }
        for (sum, t) in sums.iter_mut().zip(&times) {
            *sum += t.iter().copied().fold(f64::INFINITY, f64::min) / 1e6;
        }
        entry_bytes += net_bytes;
    }
    let [compile, serialize, read, deserialize, mem_hit] = sums;
    let (cold, warm) = best_deploy_ms(deploys);
    let v = &mut run.values;
    v.set("compiler.compile_ms", compile);
    v.set("compiler.serialize_ms", serialize);
    v.set("compiler.deserialize_ms", deserialize);
    v.set("cache.read_ms", read);
    v.set("cache.mem_hit_ms", mem_hit);
    v.set("cache.store_self_ms", cold - compile - serialize);
    v.set("cache.hit_self_ms", warm - read - deserialize);
    v.set("cache.entry_bytes", entry_bytes as f64);
    Ok(())
}

/// `WorkerPool::run` of one empty job per lane: the pool's fan-out and
/// join cost.
fn pool_replay(run: &mut Run, workers: usize) {
    let tracer = &mut run.tracer;
    let times = WorkerPool::with(workers, |pool| {
        (0..=POOL_REPS)
            .map(|r| {
                let jobs: Vec<_> = (0..workers).map(|_| || ()).collect();
                tracer
                    .time("engine.pool_run", r as u64, || pool.run(jobs))
                    .1
            })
            .skip(1)
            .collect::<Vec<_>>()
    });
    run.values.set("engine.pool_run_us", median(&times) / 1e3);
}
