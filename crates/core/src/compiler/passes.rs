//! The optimizing pass framework over the [`ExecPlan`] IR.
//!
//! Compilation lowers a `NetworkDesc` to a *raw* plan — one op per IR
//! layer, digital ops standing alone between CiM ops. The pass pipeline
//! then rewrites the plan in place:
//!
//! 1. Epilogue fusion folds digital epilogues (activation, max-pooling,
//!    projection-free residual merges) into the CiM conv/linear op that
//!    produces their input. The fused intermediate no longer round-trips
//!    the activation cache or the NoC, which is where the measured
//!    traffic/energy win comes from. Fusion is purely a *scheduling*
//!    rewrite: the arithmetic (and hence the logits and
//!    [`yoloc_cim::macro_model::MvmStats`]) is bit-identical to the
//!    unfused plan, which the parity tests pin.
//! 2. Dead-op elimination sweeps the identity `PlanOp::Nop`s fusion
//!    leaves behind and remaps every `OpSource` onto the surviving op
//!    indices.
//! 3. Buffer liveness computes output live ranges and plans the
//!    slot-reuse activation arena (see [`super::buffers`]), replacing
//!    per-op allocation; the planned and naive footprints surface in every
//!    `ExecutionReport`.
//!
//! Each pass is a function over the plan, named by a `PassKind`; a
//! [`PassPipeline`] (a value type, so `CompileOptions` stays `Clone`)
//! runs them in order, and each run returns a [`PassReport`] describing
//! what changed.

use super::{EpilogueOp, ExecPlan, OpSource, PlanOp};
use crate::compiler::buffers::BufferPlan;

/// What one pass did to a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassReport {
    /// Pass name (stable, used in bench reports).
    pub pass: &'static str,
    /// Op count before the pass ran.
    pub ops_before: usize,
    /// Op count after.
    pub ops_after: usize,
    /// Human-readable summary of the rewrite.
    pub detail: String,
}

/// The pass name is an interned `&'static str`, so serialization is
/// hand-written: `to_json` emits the fields in declaration order and
/// `from_value` re-interns the name against `PassKind::name` over the
/// closed pass set (an unknown name is a clear error, which doubles as
/// format validation for on-disk plans).
impl serde::Serialize for PassReport {
    fn to_json(&self) -> serde::json::Value {
        serde::json::Value::obj([
            ("pass", self.pass.to_json()),
            ("ops_before", self.ops_before.to_json()),
            ("ops_after", self.ops_after.to_json()),
            ("detail", self.detail.to_json()),
        ])
    }
}

impl serde::Deserialize for PassReport {
    fn from_value(v: &serde::json::Value) -> Result<Self, String> {
        let name: String = crate::qconv::json_field(v, "pass")?;
        let pass = PassKind::ALL
            .into_iter()
            .map(PassKind::name)
            .find(|n| *n == name)
            .ok_or_else(|| format!("unknown pass {name:?}"))?;
        Ok(PassReport {
            pass,
            ops_before: crate::qconv::json_field(v, "ops_before")?,
            ops_after: crate::qconv::json_field(v, "ops_after")?,
            detail: crate::qconv::json_field(v, "detail")?,
        })
    }
}

/// The named passes the pipeline can run (a closed, `Copy` set so
/// `CompileOptions` remains a plain value type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub(crate) enum PassKind {
    /// Fold digital act/pool/residual epilogues into CiM ops.
    EpilogueFusion,
    /// Sweep `Nop`s and remap sources.
    DeadOpElimination,
    /// Plan the slot-reuse activation arena.
    BufferLiveness,
}

impl PassKind {
    /// Every pass, in the default pipeline's order.
    const ALL: [PassKind; 3] = [
        PassKind::EpilogueFusion,
        PassKind::DeadOpElimination,
        PassKind::BufferLiveness,
    ];

    /// Stable pass name (in [`PassReport`]s and bench reports).
    fn name(self) -> &'static str {
        match self {
            PassKind::EpilogueFusion => "epilogue-fusion",
            PassKind::DeadOpElimination => "dead-op-elimination",
            PassKind::BufferLiveness => "buffer-liveness",
        }
    }

    /// Rewrites `plan` in place, returning a summary of what changed.
    fn run(self, plan: &mut ExecPlan) -> String {
        match self {
            PassKind::EpilogueFusion => epilogue_fusion(plan),
            PassKind::DeadOpElimination => dead_op_elimination(plan),
            PassKind::BufferLiveness => buffer_liveness(plan),
        }
    }
}

/// An ordered list of passes to run over a freshly lowered plan.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PassPipeline {
    kinds: Vec<PassKind>,
}

impl PassPipeline {
    /// The default optimizing pipeline: fusion, then the `Nop` sweep, then
    /// arena planning.
    pub fn paper_default() -> Self {
        PassPipeline {
            kinds: PassKind::ALL.to_vec(),
        }
    }

    /// No passes: the legacy unfused plan, kept as the parity oracle.
    pub fn none() -> Self {
        PassPipeline { kinds: Vec::new() }
    }

    /// Runs every pass over `plan` in order, collecting reports.
    pub fn run(&self, plan: &mut ExecPlan) -> Vec<PassReport> {
        self.kinds
            .iter()
            .map(|&kind| {
                let ops_before = plan.len();
                let detail = kind.run(plan);
                PassReport {
                    pass: kind.name(),
                    ops_before,
                    ops_after: plan.len(),
                    detail,
                }
            })
            .collect()
    }
}

/// Epilogue fusion (see the module docs). Legality: a digital op fuses
/// into the preceding CiM op only when no other op reads the CiM op's raw
/// output, and a fusion chain stops as soon as a fused op's own output is
/// still read elsewhere (its `Nop` placeholder must keep yielding exactly
/// that value).
fn epilogue_fusion(plan: &mut ExecPlan) -> String {
    let n = plan.ops.len();
    // How many ops read each op's output through an OpSource.
    let mut refs = vec![0usize; n];
    for op in &plan.ops {
        for src in op.sources() {
            if let OpSource::Op(i) = src {
                refs[i] += 1;
            }
        }
    }
    let mut fused = 0usize;
    let mut i = 0usize;
    while i < n {
        let fusable_target = matches!(
            plan.ops[i],
            PlanOp::Conv { .. } | PlanOp::ReBranch { .. } | PlanOp::Linear { .. }
        );
        if !fusable_target || refs[i] > 0 {
            i += 1;
            continue;
        }
        let spatial = !matches!(plan.ops[i], PlanOp::Linear { .. });
        loop {
            // Next op that still does something.
            let mut j = i + 1;
            while j < n && matches!(plan.ops[j], PlanOp::Nop) {
                j += 1;
            }
            if j >= n {
                break;
            }
            let folded = match &plan.ops[j] {
                PlanOp::Activation(kind) => Some(EpilogueOp::Act(*kind)),
                PlanOp::MaxPool { kernel, stride } if spatial => Some(EpilogueOp::MaxPool {
                    kernel: *kernel,
                    stride: *stride,
                }),
                PlanOp::ResidualAdd {
                    source,
                    projection: None,
                } if spatial => {
                    // The skip source must predate the CiM op: its
                    // value is unaffected by the fusion.
                    let ok = match source {
                        OpSource::Input => true,
                        OpSource::Op(s) => *s < i,
                    };
                    ok.then_some(EpilogueOp::Residual { source: *source })
                }
                _ => None,
            };
            let Some(e) = folded else { break };
            match &mut plan.ops[i] {
                PlanOp::Conv { epilogue, .. }
                | PlanOp::ReBranch { epilogue, .. }
                | PlanOp::Linear { epilogue, .. } => epilogue.push(e),
                _ => unreachable!("fusable target checked above"),
            }
            plan.ops[j] = PlanOp::Nop;
            plan.out_elems[i] = plan.out_elems[j];
            fused += 1;
            // If anything still reads op j's output, its Nop must keep
            // yielding exactly this value: stop the chain here.
            if refs[j] > 0 {
                break;
            }
        }
        i += 1;
    }
    format!("folded {fused} digital op(s) into CiM epilogues")
}

/// Sweeps [`PlanOp::Nop`]s and remaps every [`OpSource`] onto the
/// surviving op indices (a `Nop`'s value is the output of the last
/// surviving op before it, or the network input when none exists).
fn dead_op_elimination(plan: &mut ExecPlan) -> String {
    let n = plan.ops.len();
    // value_map[old] = where old op's value lives after the sweep.
    let mut value_map = Vec::with_capacity(n);
    let mut last_kept: Option<usize> = None;
    let mut kept = 0usize;
    for op in &plan.ops {
        if matches!(op, PlanOp::Nop) {
            value_map.push(match last_kept {
                Some(k) => OpSource::Op(k),
                None => OpSource::Input,
            });
        } else {
            value_map.push(OpSource::Op(kept));
            last_kept = Some(kept);
            kept += 1;
        }
    }
    let removed = n - kept;
    let remap = |src: &mut OpSource| {
        if let OpSource::Op(s) = src {
            *src = value_map[*s];
        }
    };
    let mut ops = std::mem::take(&mut plan.ops);
    let out_elems = std::mem::take(&mut plan.out_elems);
    let chip_of = std::mem::take(&mut plan.chip_of);
    for (idx, mut op) in ops.drain(..).enumerate() {
        if matches!(op, PlanOp::Nop) {
            continue;
        }
        match &mut op {
            PlanOp::Passthrough { source, .. } | PlanOp::ResidualAdd { source, .. } => {
                remap(source)
            }
            PlanOp::Conv { epilogue, .. }
            | PlanOp::ReBranch { epilogue, .. }
            | PlanOp::Linear { epilogue, .. } => {
                for e in epilogue {
                    if let EpilogueOp::Residual { source } = e {
                        remap(source);
                    }
                }
            }
            _ => {}
        }
        plan.ops.push(op);
        plan.out_elems.push(out_elems[idx]);
        plan.chip_of.push(chip_of[idx]);
    }
    format!("removed {removed} dead op(s)")
}

/// Computes output live ranges and stores the planned slot-reuse arena on
/// the plan (see [`BufferPlan`]).
fn buffer_liveness(plan: &mut ExecPlan) -> String {
    let bp = BufferPlan::plan(&plan.out_elems, &plan.last_use());
    let detail = format!(
        "{} outputs -> {} arena slots; peak {} vs naive {} elems/sample",
        plan.len(),
        bp.slots(),
        bp.peak_elems,
        bp.naive_elems
    );
    plan.buffer_plan = Some(bp);
    detail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CompileOptions, CompiledNetwork};
    use yoloc_models::zoo;

    fn compile(passes: PassPipeline) -> CompiledNetwork {
        let desc = zoo::scaled(&zoo::vgg8(4), 16, (16, 16));
        let mut opts = CompileOptions::paper_default();
        opts.passes = passes;
        CompiledNetwork::compile_random(&desc, 3, opts).unwrap()
    }

    #[test]
    fn fusion_shrinks_the_plan_and_dce_reports_it() {
        let raw = compile(PassPipeline::none());
        let fused = compile(PassPipeline::paper_default());
        assert!(raw.pass_reports.is_empty());
        assert_eq!(fused.pass_reports.len(), 3);
        assert_eq!(fused.pass_reports[0].pass, "epilogue-fusion");
        assert_eq!(fused.pass_reports[1].pass, "dead-op-elimination");
        assert_eq!(fused.pass_reports[2].pass, "buffer-liveness");
        // VGG-8 interleaves conv/act/pool: fusion must fold a good chunk.
        assert!(
            fused.plan().len() < raw.plan().len(),
            "fused {} vs raw {}",
            fused.plan().len(),
            raw.plan().len()
        );
        assert_eq!(
            fused.pass_reports[1].ops_after,
            fused.plan().len(),
            "DCE report must reflect the final op count"
        );
        // The arena plan exists and beats per-op allocation.
        let bp = fused.plan().buffer_plan().expect("liveness ran");
        assert!(bp.peak_elems < bp.naive_elems);
    }

    #[test]
    fn fused_plan_keeps_identical_fabric_footprint() {
        // Fusion moves digital work; the programmed subarrays (the CiM
        // fabric) must be untouched.
        let raw = compile(PassPipeline::none());
        let fused = compile(PassPipeline::paper_default());
        assert_eq!(raw.programmed_subarrays(), fused.programmed_subarrays());
    }
}
