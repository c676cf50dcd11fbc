//! Fault-injection parity suite.
//!
//! Pins the three contracts of deterministic fault injection across
//! the whole compile/execute stack:
//!
//! 1. **Zero faults change nothing**: compiling with a `FaultConfig`
//!    whose spec is `FaultSpec::none()` produces bit-identical logits,
//!    `MvmStats` and `ExecutionReport` to the pristine compile, under
//!    every mapping strategy — the fault machinery is free until a
//!    fault actually fires.
//! 2. **Faults are deterministic and tier-consistent**: the same seed
//!    corrupts the same way twice, and the staged kernel path agrees
//!    bit-for-bit with the analog oracle (the same network compiled
//!    with `CompileOptions::backend = BackendKind::Analog`) on the
//!    *faulted* deployment. `ci.sh` re-runs this suite under
//!    forced `YOLOC_KERNEL` tiers, so every SIMD tier is held to the
//!    same oracle.
//! 3. **Faulted plans round-trip**: serialize → deserialize preserves
//!    the fault map, the per-layer fault records, and bit-identical
//!    execution; `remap_faults` moves hit placements onto spares
//!    without disturbing healthy layers.

use rand::rngs::StdRng;
use rand::SeedableRng;

use yoloc::cim::{BackendKind, FaultSpec};
use yoloc::core::compiler::{CompileOptions, CompiledNetwork, FaultConfig};
use yoloc::core::mapping::MappingStrategy;
use yoloc::models::NetworkDesc;
use yoloc::tensor::Tensor;

mod common;
use common::zoo::{compile, named_zoo_nets, strategies};

const SEED: u64 = 21;

fn compile_faulted(
    desc: &NetworkDesc,
    strategy: MappingStrategy,
    faults: FaultConfig,
) -> CompiledNetwork {
    compile_faulted_on(desc, strategy, faults, BackendKind::Popcount)
}

fn compile_faulted_on(
    desc: &NetworkDesc,
    strategy: MappingStrategy,
    faults: FaultConfig,
    backend: BackendKind,
) -> CompiledNetwork {
    let mut opts = CompileOptions::paper_default();
    opts.mapping = strategy;
    opts.faults = Some(faults);
    opts.backend = backend;
    CompiledNetwork::compile_random(desc, SEED, opts)
        .unwrap_or_else(|e| panic!("{}: faulted compile failed: {e}", desc.name))
}

fn infer(net: &CompiledNetwork, input_seed: u64) -> (Vec<f32>, yoloc::core::ExecutionReport) {
    let (c, h, w) = net.input_shape();
    let x = Tensor::rand_uniform(
        &[1, c, h, w],
        0.0,
        1.0,
        &mut StdRng::seed_from_u64(input_seed),
    );
    let mut rng = StdRng::seed_from_u64(17);
    let (y, report) = net.infer(&x, &mut rng);
    (y.data().to_vec(), report)
}

/// A spec that exercises every fault class at rates high enough to hit
/// a small fabric deterministically.
fn lively_spec() -> FaultSpec {
    FaultSpec {
        stuck_rate: 0.02,
        dead_subarray_rate: 0.10,
        adc_fault_rate: 0.05,
        ..FaultSpec::uniform(5, 0.0)
    }
}

#[test]
fn zero_fault_config_is_bit_identical_to_pristine_compile() {
    let descs = named_zoo_nets();
    for desc in &descs[..3] {
        for strategy in strategies() {
            let pristine = compile(desc, SEED, strategy);
            let guarded = compile_faulted(desc, strategy, FaultConfig::sized(FaultSpec::none(), 4));
            let fm = guarded
                .fault_map
                .as_ref()
                .expect("fault-aware compile records a fault map");
            assert!(fm.dead.is_empty(), "{}: no faults, no deaths", desc.name);
            assert_eq!(fm.spare, 4);
            let (y_p, r_p) = infer(&pristine, 3);
            let (y_g, r_g) = infer(&guarded, 3);
            assert_eq!(
                y_p, y_g,
                "{}/{strategy:?}: zero-fault logits diverged",
                desc.name
            );
            assert_eq!(
                r_p, r_g,
                "{}/{strategy:?}: zero-fault report diverged",
                desc.name
            );
        }
    }
}

#[test]
fn faulted_deployments_are_deterministic_and_oracle_consistent() {
    let descs = named_zoo_nets();
    for desc in &descs[..3] {
        for strategy in strategies() {
            let clean = compile(desc, SEED, strategy);
            let faulted = compile_faulted(desc, strategy, FaultConfig::sized(lively_spec(), 4));
            let (y_clean, _) = infer(&clean, 3);
            let (y_fault, r_fault) = infer(&faulted, 3);
            assert_ne!(
                y_clean, y_fault,
                "{}/{strategy:?}: lively faults must corrupt the logits",
                desc.name
            );
            // Same seed, same corruption: a twin compile reproduces the
            // faulted outputs bit-for-bit.
            let twin = compile_faulted(desc, strategy, FaultConfig::sized(lively_spec(), 4));
            let (y_twin, r_twin) = infer(&twin, 3);
            assert_eq!(y_fault, y_twin, "{}/{strategy:?}", desc.name);
            assert_eq!(r_fault, r_twin, "{}/{strategy:?}", desc.name);
            // The staged kernel path (whatever tier the host resolved)
            // agrees with the analog oracle on faulted hardware.
            let oracle = compile_faulted_on(
                desc,
                strategy,
                FaultConfig::sized(lively_spec(), 4),
                BackendKind::Analog,
            );
            let (y_oracle, _) = infer(&oracle, 3);
            assert_eq!(
                y_fault, y_oracle,
                "{}/{strategy:?}: kernel tier diverged from the analog oracle under faults",
                desc.name
            );
        }
    }
}

#[test]
fn faulted_plans_round_trip_bit_identically() {
    let desc = &named_zoo_nets()[0];
    let net = compile_faulted(
        desc,
        MappingStrategy::Naive,
        FaultConfig::sized(lively_spec(), 4),
    );
    let text = net.serialize_plan();
    assert!(text.contains("yoloc-plan/2"));
    let back = CompiledNetwork::deserialize_plan(&text).expect("faulted plan deserializes");
    assert_eq!(net.fault_map, back.fault_map, "fault map must survive");
    let (y_a, r_a) = infer(&net, 3);
    let (y_b, r_b) = infer(&back, 3);
    assert_eq!(y_a, y_b, "faulted logits diverged after round trip");
    assert_eq!(r_a, r_b, "faulted report diverged after round trip");
    assert_eq!(text, back.serialize_plan(), "document must be stable");
}

#[test]
fn remap_moves_dead_placements_onto_spares_without_collateral() {
    let desc = &named_zoo_nets()[0];
    // No random faults: every observable change must come from the
    // remap itself — and with healthy spares, there must be none.
    let mut net = compile_faulted(
        desc,
        MappingStrategy::Naive,
        FaultConfig::sized(FaultSpec::none(), 8),
    );
    let (y_before, r_before) = infer(&net, 3);
    let victim = net.mapping.placements[0]
        .subarray_ids
        .as_ref()
        .expect("fault-aware placements carry physical ids")[0];
    let affected = net.remap_faults(&[victim]).expect("spares available");
    assert!(
        affected.contains(&0),
        "the placement using the dead subarray must be remapped"
    );
    let fm = net.fault_map.as_ref().expect("fault map");
    assert!(fm.is_dead(victim), "the victim must be recorded dead");
    assert!(
        !net.mapping.placements[0]
            .subarray_ids
            .as_ref()
            .expect("ids")
            .contains(&victim),
        "the repaired placement must no longer use the dead subarray"
    );
    let (y_after, r_after) = infer(&net, 3);
    assert_eq!(
        y_before, y_after,
        "remap onto healthy spares must restore bit-identical outputs"
    );
    assert_eq!(r_before, r_after, "remap must not disturb the report");
}

#[test]
fn remap_under_stuck_faults_is_deterministic() {
    let desc = &named_zoo_nets()[0];
    let spec = FaultSpec {
        stuck_rate: 0.02,
        ..FaultSpec::uniform(5, 0.0)
    };
    let mut a = compile_faulted(desc, MappingStrategy::Naive, FaultConfig::sized(spec, 8));
    let mut b = compile_faulted(desc, MappingStrategy::Naive, FaultConfig::sized(spec, 8));
    let victim = a.mapping.placements[0].subarray_ids.as_ref().expect("ids")[0];
    let aff_a = a.remap_faults(&[victim]).expect("spares");
    let aff_b = b.remap_faults(&[victim]).expect("spares");
    assert_eq!(aff_a, aff_b, "remap must pick the same spares twice");
    let (y_a, r_a) = infer(&a, 3);
    let (y_b, r_b) = infer(&b, 3);
    assert_eq!(y_a, y_b, "post-remap execution must be deterministic");
    assert_eq!(r_a, r_b);
}

/// The physical ids of every fault record in the plan document, in
/// document order: one list per CiM conv or linear, a ReBranch group's
/// four convs in placement order.
fn plan_phys_ids(net: &CompiledNetwork) -> Vec<Vec<u64>> {
    let doc = net.serialize_plan();
    let key = "\"phys_ids\": [";
    doc.match_indices(key)
        .map(|(at, _)| {
            let list = &doc[at + key.len()..];
            let list = &list[..list.find(']').expect("closed id list")];
            list.split(',')
                .filter_map(|id| id.trim().parse().ok())
                .collect()
        })
        .collect()
}

#[test]
fn remap_rehomes_each_conv_of_a_rebranch_group() {
    // Placements 0..4 are the stem ReBranch's trunk, compress, res-conv
    // and decompress. Killing a subarray of each must re-home exactly
    // that conv: the plan's fault records keep naming the mapping's ids,
    // placement by placement, and healthy spares change no output.
    let desc = &named_zoo_nets()[2];
    let mut net = compile_faulted(
        desc,
        MappingStrategy::Naive,
        FaultConfig::sized(FaultSpec::none(), 8),
    );
    let mapped = |net: &CompiledNetwork| -> Vec<Vec<u64>> {
        let ids = net
            .mapping
            .placements
            .iter()
            .map(|p| p.subarray_ids.clone());
        ids.map(|ids| ids.expect("fault-aware placements carry ids"))
            .collect()
    };
    assert_eq!(plan_phys_ids(&net), mapped(&net), "fresh compile");
    let (y_before, r_before) = infer(&net, 3);
    for part in 0..4 {
        let victim = mapped(&net)[part][0];
        let affected = net.remap_faults(&[victim]).expect("spares available");
        assert_eq!(affected, [part], "only placement {part} uses {victim}");
        assert_eq!(
            plan_phys_ids(&net),
            mapped(&net),
            "re-homing placement {part} must re-program that conv"
        );
    }
    let (y_after, r_after) = infer(&net, 3);
    assert_eq!(y_before, y_after, "healthy spares keep the outputs");
    assert_eq!(r_before, r_after);
}
