//! The `detect-stream` workload: one client streaming frames through
//! the Darknet-19 detector, closed loop, on one thread.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deploy::{cold_warm, record_deploy_times};
use crate::digest;
use crate::run::{work_dir, Run};
use crate::stats::median;
use yoloc_core::compiler::{CompileOptions, CompiledNetwork, ExecArena, ExecutionReport};
use yoloc_models::{zoo, NetworkDesc};
use yoloc_tensor::Tensor;

pub const NAME: &str = "detect-stream";

/// Distinct seeded frames, streamed round-robin.
const INPUTS: usize = 64;
/// Length of one timed round, s (throughput is the best round's).
const ROUND_S: f64 = 1.0;

/// `yolo-v2/w32@64x64`: the paper's Darknet-19 detector.
pub fn desc() -> NetworkDesc {
    zoo::scaled(&zoo::yolo_v2(4, 2), 32, (64, 64))
}

/// The compiled detector with its frames, their first-run outputs, and
/// the warm arena every timed inference reuses.
struct Stream {
    net: CompiledNetwork,
    inputs: Vec<Tensor>,
    want: Vec<u64>,
    reports: Vec<ExecutionReport>,
    arena: ExecArena,
}

/// The `detect-stream` workload (see the crate docs).
pub fn run(run: &mut Run, write_golden: bool) -> Result<(), String> {
    let descs = vec![desc()];
    let dir = work_dir(NAME);
    let seed = run.cfg.weight_seed();
    let setup = |run: &mut Run| -> Result<Stream, String> {
        let net = CompiledNetwork::compile_random(&descs[0], seed, CompileOptions::paper_default())
            .map_err(|e| e.to_string())?;
        let (c, h, w) = net.input_shape();
        let inputs: Vec<Tensor> = (0..INPUTS)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(run.cfg.seed_of(1, i));
                Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng)
            })
            .collect();
        // The first pass warms the arena and records each frame's
        // reference output.
        let mut arena = net.take_arena();
        let mut want = Vec::new();
        let mut reports = Vec::new();
        for (i, x) in inputs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(run.cfg.seed_of(2, i));
            let (y, r) = net.infer_in(x, &mut rng, &mut arena);
            want.push(digest::inference(y.data(), r));
            reports.push(r.clone());
        }
        Ok(Stream {
            net,
            inputs,
            want,
            reports,
            arena,
        })
    };
    // Each set-up repetition also deploys the detector cold and warm
    // through the plan cache, outside `setup_s`: the deploy metrics.
    let mut deploys = Vec::new();
    let mut repeat = |run: &mut Run| {
        deploys.push(cold_warm(run, &descs, &dir)?.times);
        run.setup(setup)
    };
    let Stream {
        net,
        inputs,
        want,
        reports,
        mut arena,
    } = repeat(run)?;

    let round_s = run.cfg.seconds.min(ROUND_S);
    let mut samples_us = Vec::new();
    let mut next = 0usize;
    let rounds = run.rounds(1, repeat, |run, _| {
        let start = Instant::now();
        let mut count = 0u64;
        while start.elapsed().as_secs_f64() < round_s {
            let i = next % INPUTS;
            next += 1;
            let mut rng = StdRng::seed_from_u64(run.cfg.seed_of(2, i));
            let open = run.tracer.begin("compiler.infer_in", i as u64);
            let (y, r) = net.infer_in(&inputs[i], &mut rng, &mut arena);
            let us = run.tracer.end(open) / 1e3;
            // Only traced runs read the samples. Untraced runs keep none,
            // so the vector's growth cannot land between a set-up
            // repetition's allocations at a time-dependent point and
            // move `peak_rss_mb`.
            if run.cfg.traced {
                samples_us.push(us);
            }
            if digest::inference(y.data(), r) != want[i] {
                run.fail(1, format!("frame {i}: output differs from its first run"));
            }
            count += 1;
        }
        run.attempted += count;
        count as f64 / start.elapsed().as_secs_f64()
    });
    run.record_throughput(&rounds);
    record_deploy_times(run, &deploys);
    run.peak_rss();
    run.check_golden(NAME, &want, write_golden);

    if run.cfg.traced {
        let p50 = median(&samples_us);
        crate::layers::reference_metrics(run, &reports);
        crate::layers::infer_metrics(run, &[p50], &samples_us);
        crate::layers::replay_all(run, &descs, &dir, &deploys, 1)?;
        crate::serve::replay(run, std::slice::from_ref(&net), &[p50]);
    }
    net.give_arena(arena);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
