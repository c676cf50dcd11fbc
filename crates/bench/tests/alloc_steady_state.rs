//! The zero-allocation gate: after warm-up, inference through a reused
//! `ExecArena` must never touch the heap — not one allocation per call.
//!
//! This file intentionally holds a single test so no sibling test thread
//! allocates concurrently while the counter window is open (the counting
//! allocator in `yoloc_bench::alloc_track` counts process-wide).

use rand::rngs::StdRng;
use rand::SeedableRng;

use yoloc_bench::alloc_track::allocations;
use yoloc_core::compiler::{CompileOptions, CompiledNetwork};
use yoloc_models::zoo;
use yoloc_tensor::Tensor;

#[test]
fn steady_state_inference_allocates_nothing() {
    // Four representative graph families: plain feed-forward with
    // fused pool epilogues, residuals with projections, the same
    // residual graph as ReBranch groups (the arena's ReBranch arm and
    // its three branch intermediates), and the YOLO passthrough head.
    let resnet = zoo::scaled(&zoo::resnet18(3), 16, (32, 32));
    let nets = [
        zoo::scaled(&zoo::vgg8(3), 16, (16, 16)),
        zoo::rebranched(&resnet, 2, 2),
        resnet,
        zoo::scaled(&zoo::tiny_yolo(4, 2), 16, (32, 32)),
    ];
    for desc in &nets {
        let net = CompiledNetwork::compile_random(desc, 7, CompileOptions::paper_default())
            .expect("zoo network compiles");
        let (c, h, w) = net.input_shape();
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng);
        let mut arena = net.take_arena();
        // Warm-up: grows every slot and scratch buffer to its steady
        // footprint for this input shape.
        for _ in 0..2 {
            let (y, r) = net.infer_in(&x, &mut rng, &mut arena);
            std::hint::black_box((y.data()[0], r.latency_ns));
        }
        let before = allocations();
        for _ in 0..5 {
            let (y, r) = net.infer_in(&x, &mut rng, &mut arena);
            std::hint::black_box((y.data()[0], r.latency_ns));
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{}: steady-state inference touched the allocator {} time(s)",
            desc.name,
            after - before
        );
        net.give_arena(arena);
    }
}
