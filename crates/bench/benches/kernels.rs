//! Criterion micro-benchmarks of the kernels every experiment is built
//! on: the analog macro MVM, convolution lowering, quantization
//! bit-plane decomposition, weight mapping, and a detector training step.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use yoloc_cim::backend::{program_backend, BackendKind};
use yoloc_cim::macro_model::MacroParams;
use yoloc_core::mapping::map_network;
use yoloc_models::zoo;
use yoloc_quant::bitplane::{signed_bitplanes, unsigned_chunks};
use yoloc_tensor::ops::{im2col, Conv2dGeometry};
use yoloc_tensor::Tensor;

fn bench_macro_mvm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let (outs, ins) = (32, 128);
    let codes: Vec<i32> = (0..outs * ins)
        .map(|i| ((i * 37) % 255) as i32 - 127)
        .collect();
    let acts: Vec<i32> = (0..ins).map(|i| ((i * 13) % 256) as i32).collect();
    // The batch kernels on one vector (what `mvm` runs on a noiseless
    // macro) vs the cell-accurate analog walk of a twin programmed from
    // the same codes — the single-macro view of the engine speedup.
    let params = MacroParams::rom_paper();
    let engine = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
    let twin = program_backend(BackendKind::Analog, params, &codes, outs, ins);
    assert_eq!(engine.mvm(&acts, &mut rng), twin.mvm(&acts, &mut rng));
    c.bench_function("rom_mvm_128x32_8b_fast", |b| {
        b.iter(|| engine.mvm(std::hint::black_box(&acts), &mut rng))
    });
    c.bench_function("rom_mvm_128x32_8b_analog", |b| {
        b.iter(|| twin.mvm(std::hint::black_box(&acts), &mut rng))
    });
}

fn bench_worker_pool(c: &mut Criterion) {
    use yoloc_bench::WorkerPool;
    // Dispatch overhead of the persistent pool on trivially small jobs.
    c.bench_function("worker_pool_64_jobs_4_workers", |b| {
        WorkerPool::with(4, |pool| {
            b.iter(|| {
                pool.run(
                    (0..64u64)
                        .map(|i| move || std::hint::black_box(i * i))
                        .collect::<Vec<_>>(),
                )
            })
        })
    });
}

fn bench_im2col(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let x = Tensor::randn(&[4, 32, 32, 32], 0.0, 1.0, &mut rng);
    let geom = Conv2dGeometry {
        in_channels: 32,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    c.bench_function("im2col_4x32x32x32_k3", |b| {
        b.iter(|| im2col(std::hint::black_box(&x), &geom))
    });
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let a = Tensor::randn(&[128, 288], 0.0, 1.0, &mut rng);
    let bm = Tensor::randn(&[288, 256], 0.0, 1.0, &mut rng);
    c.bench_function("matmul_128x288x256", |b| {
        b.iter(|| std::hint::black_box(&a).matmul(&bm))
    });
}

fn bench_bitplanes(c: &mut Criterion) {
    let weights: Vec<i32> = (0..4096).map(|i| ((i * 37) % 255) - 127).collect();
    let acts: Vec<i32> = (0..4096).map(|i| (i * 13) % 256).collect();
    c.bench_function("signed_bitplanes_4096x8b", |b| {
        b.iter(|| signed_bitplanes(std::hint::black_box(&weights), 8))
    });
    c.bench_function("unsigned_chunks_4096x8b", |b| {
        b.iter(|| unsigned_chunks(std::hint::black_box(&acts), 8, 2))
    });
}

fn bench_mapping(c: &mut Criterion) {
    let yolo = zoo::yolo_v2(20, 5);
    let params = MacroParams::rom_paper();
    c.bench_function("map_network_yolo_v2", |b| {
        b.iter(|| map_network(std::hint::black_box(&yolo), &params))
    });
}

fn bench_system_eval(c: &mut Criterion) {
    use yoloc_core::system::{evaluate, SystemKind, SystemParams};
    let p = SystemParams::paper_default();
    let yolo = zoo::yolo_v2(20, 5);
    c.bench_function("system_evaluate_yoloc_yolo", |b| {
        b.iter(|| evaluate(std::hint::black_box(&yolo), SystemKind::Yoloc, &p))
    });
}

fn bench_detector_step(c: &mut Criterion) {
    use yoloc_core::detector::TinyYoloDetector;
    use yoloc_data::detection::DetectionTask;
    let mut rng = StdRng::seed_from_u64(4);
    let task = DetectionTask::generate("bench", 3, 0.0, 1, 2);
    let data = task.dataset(8, &mut rng);
    let imgs: Vec<Tensor> = data.iter().map(|(i, _)| i.clone()).collect();
    let gts: Vec<_> = data.iter().map(|(_, g)| g.clone()).collect();
    let x = Tensor::stack(&imgs).unwrap();
    c.bench_function("detector_train_step_b8", |b| {
        b.iter_batched(
            || TinyYoloDetector::new(&[8, 12, 16], 3, &mut StdRng::seed_from_u64(5)),
            |mut det| det.train_step(std::hint::black_box(&x), &gts, 0.05),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_macro_mvm, bench_worker_pool, bench_im2col, bench_matmul,
              bench_bitplanes, bench_mapping, bench_system_eval,
              bench_detector_step
}
criterion_main!(kernels);
