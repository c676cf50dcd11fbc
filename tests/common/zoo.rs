//! Shared zoo-compile helpers for the parity-style suites
//! (`arena_parity`, `fusion_parity`, `plan_roundtrip`,
//! `serve_parity`): one copy of the mapping-strategy sweep, the fixed
//! representative graphs, and the compile-or-panic boilerplate.
//!
//! Each suite only links the helpers it calls, so everything here is
//! `allow(dead_code)` to survive `clippy -D warnings` in every binary.
#![allow(dead_code)]

use yoloc::cim::BackendKind;
use yoloc::core::compiler::{CompileOptions, CompiledNetwork};
use yoloc::core::mapping::MappingStrategy;
use yoloc::models::{zoo, NetworkDesc};

/// Worker counts the parity suites sweep the pool across.
pub const WORKER_SWEEP: [usize; 3] = [1, 2, 8];

/// All three mapping strategies, in sweep order.
pub fn strategies() -> [MappingStrategy; 3] {
    [
        MappingStrategy::Naive,
        MappingStrategy::Packed,
        MappingStrategy::Sharded { chips: 3 },
    ]
}

/// The fixed representative graphs every parity suite pins:
/// feed-forward (VGG), residual with projections (ResNet), the same
/// ResNet with every spatial conv a ReBranch group (random, so nonzero,
/// branch weights), and a passthrough detection head (YOLO).
pub fn named_zoo_nets() -> [NetworkDesc; 4] {
    let resnet = zoo::scaled(&zoo::resnet18(3), 16, (32, 32));
    let rebranch = zoo::rebranched(&resnet, 2, 2);
    [
        zoo::scaled(&zoo::vgg8(3), 16, (16, 16)),
        resnet,
        rebranch,
        zoo::scaled(&zoo::yolo_v2(4, 2), 32, (64, 64)),
    ]
}

/// Compiles `desc` with the paper-default pipeline under `strategy`,
/// panicking with the network's name on failure.
pub fn compile(desc: &NetworkDesc, seed: u64, strategy: MappingStrategy) -> CompiledNetwork {
    compile_on(desc, seed, strategy, BackendKind::Popcount)
}

/// [`compile`] with every CiM layer on `backend`.
pub fn compile_on(
    desc: &NetworkDesc,
    seed: u64,
    strategy: MappingStrategy,
    backend: BackendKind,
) -> CompiledNetwork {
    let mut opts = CompileOptions::paper_default();
    opts.mapping = strategy;
    opts.backend = backend;
    CompiledNetwork::compile_random(desc, seed, opts)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", desc.name))
}
