//! Round-trip serialization of compiled execution plans.
//!
//! A [`CompiledNetwork`] is a pure function of its inputs (description,
//! weights, calibration, options) — everything the executors read is
//! value state: plan ops with their quantized weight codes and
//! dequantization tables, the memory hierarchy, placement, and the
//! buffer plan. This module persists exactly that state as a
//! `yoloc-plan/2` JSON document and rebuilds it so that a deserialized
//! network executes **bit-identically** to the fresh compile (logits,
//! `MvmStats`, the full `ExecutionReport` — the `plan_roundtrip`
//! integration suite is the gate). The MVM engines themselves are
//! re-programmed from the retained [`crate::qconv`] `ProgramSpec`s
//! rather than walked, since programming is deterministic.
//!
//! Numbers survive exactly: integer counts ride the shim's
//! `UInt`/`Int` variants (no 2^53 truncation), `f32` state widens
//! losslessly to `f64`, and floats render shortest-round-trip.
//!
//! Each layer's `ProgramSpec` carries its `BackendKind`, so a
//! deserialized layer runs on the execution path it was compiled for.
//! What is *not* captured, by design, is the recycled arena pool: one
//! arena is re-materialized from the buffer plan on load, mirroring what
//! `compile` does, so the first inference starts from pre-sized slots.
//!
//! The document is the value format of the content-addressed plan cache
//! ([`crate::compiler::cache`]); its top-level `schema` string is the
//! cache's format-invalidation handle (a reader rejects unknown
//! schemas, which the cache treats as a miss-and-overwrite).

use std::sync::Mutex;

use serde::json::Value as Json;
use serde::Serialize;

use super::arena::ExecArena;
use super::{CompiledNetwork, ExecPlan, OpSource};
use crate::qconv::json_field;

/// Schema tag of serialized plan documents. `/2` adds the fabric fault
/// map and per-layer fault records; `/1` documents (no fault fields)
/// still deserialize — see [`PLAN_SCHEMA_V1`].
pub const PLAN_SCHEMA: &str = "yoloc-plan/2";

/// The pre-fault schema tag, accepted on read for backward
/// compatibility: every fault-carrying field is an `Option` that
/// defaults to `None` when missing, so a `/1` document rebuilds the
/// identical pristine deployment it always did.
pub const PLAN_SCHEMA_V1: &str = "yoloc-plan/1";

fn plan_to_json(plan: &ExecPlan) -> Json {
    Json::obj([
        ("memory", plan.memory.to_json()),
        ("n_chips", plan.n_chips.to_json()),
        ("chip_of", plan.chip_of.to_json()),
        ("out_elems", plan.out_elems.to_json()),
        ("buffer_plan", plan.buffer_plan.to_json()),
        ("ops", plan.ops.to_json()),
    ])
}

fn plan_from_json(v: &Json) -> Result<ExecPlan, String> {
    let plan = ExecPlan {
        ops: json_field(v, "ops")?,
        memory: json_field(v, "memory")?,
        out_elems: json_field(v, "out_elems")?,
        chip_of: json_field(v, "chip_of")?,
        n_chips: json_field(v, "n_chips")?,
        buffer_plan: json_field(v, "buffer_plan")?,
        arena_pool: Mutex::new(Vec::new()),
    };
    // The executors index earlier ops' outputs by every side source.
    for (i, op) in plan.ops.iter().enumerate() {
        for source in op.sources() {
            if let OpSource::Op(j) = source {
                if j >= i {
                    return Err(format!("op {i} reads op {j}, which does not precede it"));
                }
            }
        }
    }
    let ops = plan.ops.len();
    if plan.out_elems.len() != ops || plan.chip_of.len() != ops {
        return Err(format!(
            "inconsistent plan: {ops} ops, {} out_elems, {} chip_of",
            plan.out_elems.len(),
            plan.chip_of.len()
        ));
    }
    if let Some(bp) = &plan.buffer_plan {
        if bp.slot_of_op.len() != ops {
            return Err(format!(
                "inconsistent buffer plan: {ops} ops, {} slot assignments",
                bp.slot_of_op.len()
            ));
        }
        if bp
            .slot_of_op
            .iter()
            .any(|&slot| slot >= bp.slot_elems.len())
        {
            return Err("buffer plan references a slot out of range".to_string());
        }
        // Every read must find its source's slot as the producer left it:
        // no op up to and including the reader may write that slot.
        let last_use = plan.last_use();
        let mut tenant: Vec<Option<usize>> = vec![None; bp.slots()];
        for (k, &slot) in bp.slot_of_op.iter().enumerate() {
            if let Some(t) = tenant[slot] {
                if last_use[t] >= k {
                    return Err(format!(
                        "op {k} overwrites slot {slot}, whose tenant op {t} is read by op {}",
                        last_use[t]
                    ));
                }
            }
            tenant[slot] = Some(k);
        }
    }
    Ok(plan)
}

impl CompiledNetwork {
    /// Serializes the network into a `yoloc-plan/2` value tree (the
    /// content format of the plan cache).
    pub fn to_plan_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(PLAN_SCHEMA)),
            ("name", self.name.to_json()),
            ("input", self.input.to_json()),
            ("strategy", self.strategy.to_json()),
            ("mapping", self.mapping.to_json()),
            ("pass_reports", self.pass_reports.to_json()),
            ("fault_map", self.fault_map.to_json()),
            ("fault_config", self.fault_config.to_json()),
            ("plan", plan_to_json(&self.plan)),
        ])
    }

    /// Rebuilds a network from a [`CompiledNetwork::to_plan_json`] tree,
    /// re-programming every MVM backend and re-materializing one
    /// execution arena from the buffer plan (what `compile` does).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on schema or shape
    /// mismatch — including an unknown `schema` tag, the cache's
    /// invalidation signal.
    pub fn from_plan_json(v: &Json) -> Result<Self, String> {
        let schema: String = json_field(v, "schema")?;
        if schema != PLAN_SCHEMA && schema != PLAN_SCHEMA_V1 {
            return Err(format!(
                "unsupported plan schema {schema:?} (expected {PLAN_SCHEMA:?} or {PLAN_SCHEMA_V1:?})"
            ));
        }
        let plan = plan_from_json(v.get("plan").ok_or("missing field \"plan\"")?)
            .map_err(|e| format!("plan: {e}"))?;
        if let Some(bp) = &plan.buffer_plan {
            let mut arena = ExecArena::new();
            arena.materialize(bp, 1);
            plan.give_arena(arena);
        }
        Ok(CompiledNetwork {
            plan,
            name: json_field(v, "name")?,
            mapping: json_field(v, "mapping")?,
            pass_reports: json_field(v, "pass_reports")?,
            strategy: json_field(v, "strategy")?,
            input: json_field(v, "input")?,
            fault_map: json_field(v, "fault_map")?,
            fault_config: json_field(v, "fault_config")?,
        })
    }

    /// Renders the plan document as pretty-printed JSON (stable
    /// byte-for-byte for identical networks).
    pub fn serialize_plan(&self) -> String {
        self.to_plan_json().render()
    }

    /// Parses and rebuilds a [`CompiledNetwork::serialize_plan`]
    /// document.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax, schema or shape
    /// error.
    pub fn deserialize_plan(text: &str) -> Result<Self, String> {
        Self::from_plan_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::super::cache::fnv1a;
    use super::super::{CompileOptions, CompiledNetwork};
    use yoloc_models::zoo;
    use yoloc_tensor::Tensor;

    #[test]
    fn plan_documents_are_pinned() {
        // The bytes of two whole documents, by checksum: vgg8's convs and
        // linear head, resnet18's residual stages, projections and head.
        // A round trip still passes when the writer and the reader change
        // together; these fail on any change to what a plan holds or how
        // it renders.
        for (desc, want) in [
            (
                zoo::scaled(&zoo::vgg8(10), 16, (16, 16)),
                0x1c1d_9e2b_7205_c852_u64,
            ),
            (
                zoo::scaled(&zoo::resnet18(10), 16, (32, 32)),
                0x572d_656f_2b60_de9a,
            ),
        ] {
            let net = CompiledNetwork::compile_random(&desc, 1, CompileOptions::paper_default())
                .expect("compiles");
            let got = fnv1a(net.serialize_plan().as_bytes());
            assert_eq!(got, want, "{}: plan digest {got:#018x}", desc.name);
        }
    }

    #[test]
    fn serialized_plan_round_trips_bit_identically() {
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let net = CompiledNetwork::compile_random(&desc, 11, CompileOptions::paper_default())
            .expect("compiles");
        let text = net.serialize_plan();
        let back = CompiledNetwork::deserialize_plan(&text).expect("deserializes");
        assert_eq!(net.name, back.name);
        assert_eq!(net.mapping, back.mapping);
        assert_eq!(net.pass_reports, back.pass_reports);
        assert_eq!(net.input_shape(), back.input_shape());

        let (c, h, w) = net.input_shape();
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng);
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let (ya, ra) = net.infer(&x, &mut rng_a);
        let (yb, rb) = back.infer(&x, &mut rng_b);
        assert_eq!(ya.data(), yb.data(), "logits diverged after round trip");
        assert_eq!(ra, rb, "report diverged after round trip");

        // The document itself is stable: serialize(deserialize(s)) == s.
        assert_eq!(text, back.serialize_plan());
    }

    #[test]
    fn deserialize_rejects_wrong_schema_and_shapes() {
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let net = CompiledNetwork::compile_random(&desc, 11, CompileOptions::paper_default())
            .expect("compiles");
        let text = net.serialize_plan();
        let bad = text.replace("yoloc-plan/2", "yoloc-plan/0");
        let err = match CompiledNetwork::deserialize_plan(&bad) {
            Ok(_) => panic!("wrong schema must be rejected"),
            Err(e) => e,
        };
        assert!(err.contains("unsupported plan schema"), "{err}");
        assert!(CompiledNetwork::deserialize_plan("{}").is_err());
        assert!(CompiledNetwork::deserialize_plan("not json").is_err());
    }

    #[test]
    fn v1_documents_still_deserialize() {
        // A pristine compile carries no fault state, so re-tagging its
        // document as `yoloc-plan/1` models exactly what a pre-fault
        // cache entry looks like: same fields minus the fault ones.
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let net = CompiledNetwork::compile_random(&desc, 11, CompileOptions::paper_default())
            .expect("compiles");
        let v1 = net.serialize_plan().replace("yoloc-plan/2", "yoloc-plan/1");
        let back = CompiledNetwork::deserialize_plan(&v1).expect("v1 documents must read");
        assert!(back.fault_map.is_none());
        assert!(back.fault_config.is_none());
        let (c, h, w) = net.input_shape();
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng);
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let (ya, ra) = net.infer(&x, &mut rng_a);
        let (yb, rb) = back.infer(&x, &mut rng_b);
        assert_eq!(ya.data(), yb.data());
        assert_eq!(ra, rb);
        // Re-serializing writes the current schema.
        assert!(back.serialize_plan().contains("yoloc-plan/2"));
    }
}
