//! Fusion parity suite: the optimizing pass pipeline must be
//! **bit-identical** — logits *and* `MvmStats` — to the legacy serial
//! walk (the same graph compiled with `PassPipeline::none()` and run
//! through the clone-based interpreter), across random zoo graphs and
//! all three mapping strategies.
//!
//! This is the acceptance gate of the pass-based-compiler refactor: every
//! optimization (epilogue fusion, dead-op elimination, arena planning,
//! tile decomposition, chiplet sharding) is required to be *scheduling*,
//! never *arithmetic*.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use yoloc::core::compiler::{CompileOptions, CompiledNetwork, PassPipeline};
use yoloc::core::mapping::MappingStrategy;
use yoloc::models::zoo;
use yoloc::tensor::Tensor;

mod common;
use common::zoo::{named_zoo_nets, strategies};

/// Compiles `desc` twice — legacy oracle (no passes) and fully optimized —
/// and checks that the two agree bit-for-bit in logits and per-domain
/// `MvmStats`.
fn assert_parity(desc: &yoloc::models::NetworkDesc, seed: u64, strategy: MappingStrategy) {
    let mut legacy_opts = CompileOptions::paper_default();
    legacy_opts.mapping = strategy;
    legacy_opts.passes = PassPipeline::none();
    let mut fused_opts = CompileOptions::paper_default();
    fused_opts.mapping = strategy;

    let legacy = CompiledNetwork::compile_random(desc, seed, legacy_opts)
        .unwrap_or_else(|e| panic!("{}: legacy compile failed: {e}", desc.name));
    let fused = CompiledNetwork::compile_random(desc, seed, fused_opts)
        .unwrap_or_else(|e| panic!("{}: fused compile failed: {e}", desc.name));

    let (c, h, w) = legacy.input_shape();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let x = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng);

    let (logits_legacy, report_legacy) = legacy.infer(&x, &mut rng);
    let (logits_fused, report_fused) = fused.infer(&x, &mut rng);
    assert_eq!(
        logits_legacy.data(),
        logits_fused.data(),
        "{}: fusion changed the logits",
        desc.name
    );
    assert_eq!(
        (report_legacy.rom, report_legacy.sram),
        (report_fused.rom, report_fused.sram),
        "{}: fusion changed the MvmStats",
        desc.name
    );
    // Fusion must not *increase* cache traffic (strictly decreases
    // whenever an epilogue folded).
    assert!(report_fused.buffer_traffic_bits <= report_legacy.buffer_traffic_bits);
}

#[test]
fn named_zoo_networks_hold_parity_across_all_strategies() {
    for desc in &named_zoo_nets() {
        for strategy in strategies() {
            assert_parity(desc, 41, strategy);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_random_zoo_graphs_hold_parity(seed in 0u64..100_000) {
        // Random shape-consistent graphs (convs, activations, pooling,
        // plain and projected residuals, linear heads); the mapping
        // strategy rotates with the seed so the sweep covers all three.
        let desc = zoo::random_zoo(seed);
        let strategy = strategies()[(seed % 3) as usize];
        assert_parity(&desc, seed, strategy);
    }
}
