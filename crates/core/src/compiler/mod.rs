//! Graph compiler and executor: lower **any** [`NetworkDesc`] onto the
//! macro fabric and run it.
//!
//! It is the one deployment path: a trained `TinyCnn` deploys through
//! its [`crate::tiny_models::TinyCnn::to_network`] export like any zoo
//! graph. Compilation walks the IR, routes each
//! [`LayerSpec`] through the `mapping.rs` placement model (naive vs the
//! paper's packed scheme) into programmed subarrays, and emits an
//! [`ExecPlan`]: a flat list of executable ops — CiM convolutions and
//! linears on the macro engine (the popcount fast path, or the analog
//! reference path the parity suites compile; see [`BackendKind`]),
//! ReBranch groups (Fig. 7: ROM trunk, compress and decompress around an
//! SRAM res-conv), and the digital ops (activations, pooling, residual
//! merges, passthrough reorg) that run through the cache in Fig. 9.
//!
//! Execution is *measured*, not modelled: every inference walks the
//! quantized datapath and threads the actual per-layer activation traffic
//! through the memory-hierarchy models ([`SramBuffer`], [`MeshNoc`],
//! [`DramModel`]), so each call returns a live [`EnergyBreakdown`]
//! alongside the outputs — the executable counterpart of `system.rs`'s
//! static Fig. 13/14 evaluation.
//!
//! Cross-layer packing ([`MappingStrategy::Packed`]) shares
//! partially-filled subarrays between layers. It is functionally
//! transparent — co-located layers occupy disjoint columns, so each MVM
//! still sees exactly its own weights — and therefore affects the
//! placement/area accounting ([`CompiledNetwork::subarrays`]) rather than
//! the simulated datapath.
//!
//! # The staged pipeline
//!
//! Compilation is now a staged pipeline over the [`ExecPlan`] IR:
//!
//! ```text
//! NetworkDesc ──lower──▶ raw ExecPlan ──[passes]──▶ optimized ExecPlan
//!                                          │
//!               EpilogueFusion ── fold act/pool/residual into the
//!               │                 consuming CiM conv/linear op
//!               DeadOpElimination ── sweep fused-away ops, remap sources
//!               BufferLiveness ── live ranges → BufferPlan (slot-reuse
//!                                 arena, peak bytes in ExecutionReport)
//! ```
//!
//! The pass framework lives in [`passes`], the arena planner in
//! [`buffers`], and the zero-allocation runtime that *executes on* the
//! planned arena in [`arena`]. [`ExecPlan::execute`] runs on a recycled
//! [`ExecArena`] whenever a buffer plan exists;
//! [`ExecPlan::execute_cloned`] — the clone-based serial interpreter —
//! is kept as the **parity oracle**: the arena runtime must reproduce it
//! bit for bit (logits, stats and energy alike) on the same plan, and a
//! plan compiled with [`passes::PassPipeline::none`] is the legacy
//! unfused reference the optimized plan is pinned against (logits and
//! [`MvmStats`]).
//!
//! Under [`MappingStrategy::Sharded`] the compiled layers are spread
//! across SRAM/ROM-CiM chiplets; the plan records each op's chiplet and
//! both executors price activation traffic that crosses a die boundary
//! through the [`yoloc_memory::ChipletLink`] (the `link_uj` /
//! `link_traffic_bits` fields of the report), on top of the per-chip mesh
//! NoC.
//!
//! # Examples
//!
//! Compile a zoo network and run it end to end, getting logits *and* a
//! live energy breakdown:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use yoloc_core::compiler::{CompileOptions, CompiledNetwork};
//! use yoloc_models::zoo;
//!
//! let desc = zoo::scaled(&zoo::vgg8(4), 16, (16, 16));
//! let net = CompiledNetwork::compile_random(&desc, 7, CompileOptions::paper_default())?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let x = yoloc_tensor::Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
//! let (logits, report) = net.infer(&x, &mut rng);
//! assert_eq!(logits.shape(), &[1, 4]);
//! assert!(report.energy.total_uj() > 0.0);
//! assert!(report.energy.dram_uj > 0.0); // input fetch is paid
//! // The pass pipeline planned the activation arena: slot reuse beats
//! // per-op allocation.
//! assert!(report.peak_arena_bytes < report.naive_arena_bytes);
//! # Ok::<(), yoloc_models::NetworkError>(())
//! ```
//!
//! Shard the same network across four chiplets — functionally
//! transparent, but the die-to-die activation stream now shows up in the
//! report:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use yoloc_core::compiler::{CompileOptions, CompiledNetwork};
//! use yoloc_core::mapping::MappingStrategy;
//! use yoloc_models::zoo;
//!
//! let desc = zoo::scaled(&zoo::vgg8(4), 16, (16, 16));
//! let mut opts = CompileOptions::paper_default();
//! opts.mapping = MappingStrategy::Sharded { chips: 4 };
//! let net = CompiledNetwork::compile_random(&desc, 7, opts)?;
//! assert_eq!(net.mapping.shard.as_ref().expect("shard plan").chips, 4);
//! let mut rng = StdRng::seed_from_u64(1);
//! let x = yoloc_tensor::Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
//! let (_, report) = net.infer(&x, &mut rng);
//! assert!(report.link_traffic_bits > 0);
//! assert!(report.energy.link_uj > 0.0);
//! # Ok::<(), yoloc_models::NetworkError>(())
//! ```

pub mod arena;
pub mod buffers;
pub mod cache;
pub mod passes;
pub mod serial;

pub use arena::ExecArena;
pub use buffers::BufferPlan;
pub use passes::{PassKind, PassPipeline, PassReport};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::engine::{sample_stream_seed, WorkerPool};
use crate::mapping::{
    assign_subarrays, map_network_with, remap_placements, FaultMap, MapFaultError, MappingStrategy,
    NetworkMapping,
};
use crate::qconv::{CimConv2d, CimLinear, LayerFaults};
use crate::system::EnergyBreakdown;
use yoloc_cim::backend::BackendKind;
use yoloc_cim::faults::{FaultPlan, FaultSpec};
use yoloc_cim::macro_model::{MacroParams, MvmStats};
use yoloc_memory::{ChipletLink, DramModel, MeshNoc, SramBuffer};
use yoloc_models::{
    rebranch_widths, ActKind, LayerSpec, NetworkDesc, NetworkError, Shape, REBRANCH_CONVS,
};
use yoloc_tensor::layers::MaxPool2d;
use yoloc_tensor::ops::conv2d_reference;
use yoloc_tensor::{Layer, Tensor};

/// Which memory domain a CiM layer's weights live in (Fig. 9's split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemDomain {
    /// Mask-programmed ROM-CiM (frozen trunk weights).
    Rom,
    /// SRAM-CiM (trainable residual convs and the prediction head).
    Sram,
}

/// The memory hierarchy an [`ExecPlan`] threads its live traffic through.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryParams {
    /// On-chip activation cache (Fig. 9 "cache").
    pub buffer: SramBuffer,
    /// Off-chip DRAM interface (input fetch / output writeback).
    pub dram: DramModel,
    /// Mesh NoC between the cache and the CiM macro clusters.
    pub noc: MeshNoc,
    /// Chip-to-chip link activation traffic crosses when a
    /// [`MappingStrategy::Sharded`] deployment places producer and
    /// consumer layers on different chiplets.
    pub link: ChipletLink,
    /// Activation precision moved through the hierarchy, bits.
    pub act_bits: u8,
    /// System energy overhead factor on CiM compute (controller, clock
    /// tree); 1.0 = macro-only energy. Matches `SystemParams`.
    pub peripheral_overhead: f64,
}

impl MemoryParams {
    /// The same calibration constants as `SystemParams::paper_default`.
    pub fn paper_default() -> Self {
        MemoryParams {
            buffer: SramBuffer::new_28nm(2 * 1024 * 1024),
            dram: DramModel::lpddr4(),
            noc: MeshNoc::new_28nm(4, 4),
            link: ChipletLink::simba(),
            act_bits: 8,
            peripheral_overhead: 1.3,
        }
    }

    /// Macro clusters one chip's mesh serves — the fan-out the compiler
    /// derives per-layer tile counts from.
    pub fn clusters(&self) -> usize {
        (self.noc.width * self.noc.height).max(1)
    }
}

/// Live measurements of one executed inference: per-domain macro activity
/// plus the memory-hierarchy energy it actually moved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionReport {
    /// ROM-CiM macro activity (trunk convs, branch projections).
    pub rom: MvmStats,
    /// SRAM-CiM macro activity (residual convs, prediction head).
    pub sram: MvmStats,
    /// Per-inference energy breakdown (live counterpart of Fig. 14a/c).
    pub energy: EnergyBreakdown,
    /// End-to-end latency: serial CiM walk + NoC + link + DRAM, ns.
    pub latency_ns: f64,
    /// Modeled latency of each plan op (CiM walk plus the NoC/link
    /// transfers its activations paid), ns, in op order.
    pub per_op_latency_ns: Vec<f64>,
    /// The intra-sample latency model: modeled end-to-end latency when
    /// each op's CiM work spreads its placement-derived tiles across
    /// [`ExecutionReport::INTRA_SAMPLE_LANES`] parallel macro-cluster
    /// lanes (NoC/link/DRAM transfers stay serial — activations stream op
    /// to op, shard topology included). Index-aligned with the lane
    /// constant; `[0]` (one lane) equals the serial walk.
    pub intra_sample_latency_ns: Vec<f64>,
    /// Activation bits moved through the on-chip cache.
    pub buffer_traffic_bits: u64,
    /// Activation bits moved across the mesh NoC.
    pub noc_traffic_bits: u64,
    /// Activation bits that crossed a chiplet boundary (0 unless the plan
    /// was compiled with [`MappingStrategy::Sharded`]).
    pub link_traffic_bits: u64,
    /// Bits crossing the chip boundary (input fetch + output writeback;
    /// weights are resident, the point of the paper).
    pub dram_traffic_bits: u64,
    /// Peak activation-arena footprint of this execution under the
    /// compiled [`BufferPlan`] (slot-reuse allocation), bytes.
    pub peak_arena_bytes: u64,
    /// The same footprint under naive per-op allocation (every op output
    /// kept live), bytes — the baseline the buffer-liveness pass shrinks.
    pub naive_arena_bytes: u64,
}

impl ExecutionReport {
    /// The lane counts [`ExecutionReport::intra_sample_latency_ns`] is
    /// evaluated at.
    pub const INTRA_SAMPLE_LANES: [usize; 4] = [1, 2, 4, 8];

    /// Modeled intra-sample speedup at `lanes` parallel lanes (serial
    /// latency over the lane-parallel makespan); `None` when `lanes` is
    /// not in [`ExecutionReport::INTRA_SAMPLE_LANES`] or the report is
    /// empty.
    #[must_use]
    pub fn intra_sample_speedup(&self, lanes: usize) -> Option<f64> {
        let idx = Self::INTRA_SAMPLE_LANES.iter().position(|&l| l == lanes)?;
        let serial = *self.intra_sample_latency_ns.first()?;
        let at = *self.intra_sample_latency_ns.get(idx)?;
        (at > 0.0).then(|| serial / at)
    }

    /// Accumulates another execution's measurements (used to reduce
    /// per-sample reports from the batched engine, in sample order).
    /// Traffic, energy and latency add; arena footprints take the max
    /// (samples share the arena, they do not stack); per-op latencies add
    /// element-wise when the plans match (adopting `other`'s when this
    /// report is fresh).
    pub fn merge(&mut self, other: &ExecutionReport) {
        self.rom.merge(&other.rom);
        self.sram.merge(&other.sram);
        self.energy.accumulate(&other.energy);
        self.latency_ns += other.latency_ns;
        fn zip_add(dst: &mut Vec<f64>, src: &[f64]) {
            if dst.is_empty() {
                dst.extend_from_slice(src);
            } else if dst.len() == src.len() {
                for (a, b) in dst.iter_mut().zip(src) {
                    *a += b;
                }
            }
        }
        zip_add(&mut self.per_op_latency_ns, &other.per_op_latency_ns);
        zip_add(
            &mut self.intra_sample_latency_ns,
            &other.intra_sample_latency_ns,
        );
        self.buffer_traffic_bits += other.buffer_traffic_bits;
        self.noc_traffic_bits += other.noc_traffic_bits;
        self.link_traffic_bits += other.link_traffic_bits;
        self.dram_traffic_bits += other.dram_traffic_bits;
        self.peak_arena_bytes = self.peak_arena_bytes.max(other.peak_arena_bytes);
        self.naive_arena_bytes = self.naive_arena_bytes.max(other.naive_arena_bytes);
    }

    /// Total CiM macro energy across both domains, pJ — the single place
    /// the per-domain stats are summed (every site used to re-add the
    /// fields by hand).
    #[must_use]
    pub fn cim_energy_pj(&self) -> f64 {
        self.rom.energy_pj + self.sram.energy_pj
    }
}

/// Where a residual / passthrough op reads its second operand from.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) enum OpSource {
    /// The network input.
    Input,
    /// The output of an earlier op in the plan.
    Op(usize),
}

/// A digital op folded into the tail of a CiM op by the epilogue-fusion
/// pass: it runs on the op's output before the result round-trips the
/// cache, so the intermediate map never moves through the hierarchy.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) enum EpilogueOp {
    /// Elementwise activation.
    Act(ActKind),
    /// Max pooling.
    MaxPool { kernel: usize, stride: usize },
    /// Projection-free residual merge with an earlier op's output.
    Residual { source: OpSource },
}

/// One executable operation of a compiled plan.
#[derive(Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)] // few ops, long-lived, boxed engines inside
pub(crate) enum PlanOp {
    /// A CiM-mapped convolution (plus any fused epilogue).
    Conv {
        conv: CimConv2d,
        domain: MemDomain,
        epilogue: Vec<EpilogueOp>,
    },
    /// A ReBranch group (Fig. 7): ROM trunk + compress, SRAM res-conv,
    /// ROM decompress, summed (plus any fused epilogue).
    ReBranch {
        trunk: CimConv2d,
        compress: CimConv2d,
        res_conv: CimConv2d,
        decompress: CimConv2d,
        epilogue: Vec<EpilogueOp>,
    },
    /// A CiM-mapped fully-connected layer (plus any fused epilogue).
    Linear {
        linear: CimLinear,
        domain: MemDomain,
        epilogue: Vec<EpilogueOp>,
    },
    /// Elementwise activation (digital).
    Activation(ActKind),
    /// Max pooling (digital).
    MaxPool { kernel: usize, stride: usize },
    /// Global average pooling to `(N, C)` (digital).
    GlobalAvgPool,
    /// YOLO passthrough: space-to-depth reorg of an earlier map,
    /// channel-fitted to `extra_ch` and concatenated (digital).
    Passthrough { source: OpSource, extra_ch: usize },
    /// Residual merge, optionally through a CiM 1x1 projection.
    ResidualAdd {
        source: OpSource,
        projection: Option<Box<(CimConv2d, MemDomain)>>,
    },
    /// Identity left behind by a fusion pass; swept (and its references
    /// remapped) by dead-op elimination.
    Nop,
}

impl PlanOp {
    /// How many mapping placements the op programs: one per CiM matrix,
    /// so four for a ReBranch group and none for a digital op.
    pub(crate) fn placements(&self) -> usize {
        match self {
            PlanOp::Conv { .. }
            | PlanOp::Linear { .. }
            | PlanOp::ResidualAdd {
                projection: Some(_),
                ..
            } => 1,
            PlanOp::ReBranch { .. } => REBRANCH_CONVS.len(),
            _ => 0,
        }
    }

    pub(crate) fn is_cim(&self) -> bool {
        self.placements() > 0
    }

    /// The fused epilogue of a CiM op (empty for digital ops).
    pub(crate) fn epilogue(&self) -> &[EpilogueOp] {
        match self {
            PlanOp::Conv { epilogue, .. }
            | PlanOp::ReBranch { epilogue, .. }
            | PlanOp::Linear { epilogue, .. } => epilogue,
            _ => &[],
        }
    }

    /// Every earlier-op output this op reads besides the running
    /// activation (skip sources, passthrough sources, fused residuals).
    pub(crate) fn sources(&self) -> Vec<OpSource> {
        let mut srcs = Vec::new();
        match self {
            PlanOp::Passthrough { source, .. } | PlanOp::ResidualAdd { source, .. } => {
                srcs.push(*source);
            }
            _ => {}
        }
        for e in self.epilogue() {
            if let EpilogueOp::Residual { source } = e {
                srcs.push(*source);
            }
        }
        srcs
    }
}

/// Physical subarrays an op programs, `(rom, sram)`.
pub(crate) fn op_subarrays(op: &PlanOp) -> (usize, usize) {
    match op {
        PlanOp::Conv { conv, domain, .. } => match domain {
            MemDomain::Rom => (conv.subarrays(), 0),
            MemDomain::Sram => (0, conv.subarrays()),
        },
        PlanOp::ReBranch {
            trunk,
            compress,
            res_conv,
            decompress,
            ..
        } => (
            trunk.subarrays() + compress.subarrays() + decompress.subarrays(),
            res_conv.subarrays(),
        ),
        PlanOp::Linear { linear, domain, .. } => match domain {
            MemDomain::Rom => (linear.subarrays(), 0),
            MemDomain::Sram => (0, linear.subarrays()),
        },
        PlanOp::ResidualAdd {
            projection: Some(p),
            ..
        } => match p.1 {
            MemDomain::Rom => (p.0.subarrays(), 0),
            MemDomain::Sram => (0, p.0.subarrays()),
        },
        _ => (0, 0),
    }
}

/// Measurements of one executed plan op. The arena interpreter and the
/// clone-based oracle produce these identically (same per-op stat folds,
/// same traffic attribution) and both reduce them through
/// [`ExecPlan::finalize_into`] — the construction that makes their
/// reports bit-identical.
#[derive(Debug, Clone, Default)]
pub(crate) struct PerOpExec {
    /// ROM-domain stats, folded from zero in the op's canonical order.
    pub rom: MvmStats,
    /// SRAM-domain stats, folded from zero.
    pub sram: MvmStats,
    /// Running-activation input bits.
    pub in_bits: u64,
    /// Side-operand bits (skip/passthrough/fused-residual sources).
    pub side_bits: u64,
    /// Output bits (post-epilogue).
    pub out_bits: u64,
    /// Bits among the above that crossed a chiplet boundary.
    pub cross_bits: u64,
    /// Placement-derived tiles the op's CiM work splits into (0/1 for
    /// digital ops): the width the intra-sample latency model divides the
    /// op's macro latency by when lanes are available.
    pub tiles: usize,
}

impl PerOpExec {
    pub(crate) fn add(&mut self, domain: MemDomain, s: &MvmStats) {
        match domain {
            MemDomain::Rom => self.rom.merge(s),
            MemDomain::Sram => self.sram.merge(s),
        }
    }
}

/// Global average pool `(N, C, H, W) -> (N, C)`.
pub(crate) fn gap(x: &Tensor) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let mut out = Tensor::zeros(&[n, c]);
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let s: f32 = x.data()[base..base + h * w].iter().sum();
            *out.at_mut(&[ni, ci]) = s / (h * w) as f32;
        }
    }
    out
}

/// Applies an IR activation elementwise (ReLU, or leaky ReLU slope 0.1).
pub(crate) fn apply_act(x: &Tensor, kind: ActKind) -> Tensor {
    match kind {
        ActKind::Relu => x.map(|v| v.max(0.0)),
        ActKind::Leaky => x.map(|v| if v > 0.0 { v } else { 0.1 * v }),
    }
}

/// Flattens a rank-4 map to `(N, C*H*W)` (identity on rank-2 inputs).
pub(crate) fn flatten_2d(x: &Tensor) -> Tensor {
    if x.ndim() == 2 {
        return x.clone();
    }
    let n = x.shape()[0];
    let rest: usize = x.shape()[1..].iter().product();
    Tensor::from_vec(x.data().to_vec(), &[n, rest]).expect("flatten preserves length")
}

/// [`flatten_2d`] for owned tensors: row-major order makes the flatten a
/// pure reinterpretation, so this moves the buffer instead of copying it
/// ([`Tensor::into_reshaped`]).
pub(crate) fn flatten_2d_owned(x: Tensor) -> Tensor {
    if x.ndim() == 2 {
        return x;
    }
    let n = x.shape()[0];
    let rest: usize = x.shape()[1..].iter().product();
    x.into_reshaped(&[n, rest])
        .expect("flatten preserves length")
}

/// The parameter-free passthrough reorg of the IR: space-to-depth the
/// source map (`(N, C, 2H, 2W)` -> `(N, 4C, H, W)`, offset-major), fit to
/// `extra_ch` channels (truncating or cycling), and concatenate onto
/// `cur`.
///
/// # Panics
///
/// Panics if the source spatial dims are not exactly twice `cur`'s.
pub(crate) fn passthrough_concat(src: &Tensor, cur: &Tensor, extra_ch: usize) -> Tensor {
    let (n, c, h, w) = (
        cur.shape()[0],
        cur.shape()[1],
        cur.shape()[2],
        cur.shape()[3],
    );
    let sc = src.shape()[1];
    assert_eq!(
        (src.shape()[2], src.shape()[3]),
        (2 * h, 2 * w),
        "passthrough source must be at twice the current resolution"
    );
    let reorg_ch = 4 * sc;
    let mut out = Tensor::zeros(&[n, c + extra_ch, h, w]);
    for ni in 0..n {
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    *out.at_mut(&[ni, ci, y, x]) = cur.at(&[ni, ci, y, x]);
                }
            }
        }
        for e in 0..extra_ch {
            // Offset-major reorg: channel index walks (dy, dx, src channel).
            let r = e % reorg_ch;
            let (dy, dx, sci) = (r / (2 * sc), (r / sc) % 2, r % sc);
            for y in 0..h {
                for x in 0..w {
                    *out.at_mut(&[ni, c + e, y, x]) = src.at(&[ni, sci, 2 * y + dy, 2 * x + dx]);
                }
            }
        }
    }
    out
}

/// Monotone count of full plan compilations in this process
/// ([`CompiledNetwork::compile`] entries, cache hits excluded) — the
/// counter the plan-cache CI gate asserts on: a warm deploy of an
/// already-cached network must leave it unchanged.
static COMPILES: AtomicU64 = AtomicU64::new(0);

/// Number of full compilations performed by this process so far.
pub fn compile_count() -> u64 {
    COMPILES.load(Ordering::Relaxed)
}

/// An executable plan: ops in execution order plus the memory hierarchy
/// their live traffic is priced against.
pub struct ExecPlan {
    pub(crate) ops: Vec<PlanOp>,
    pub(crate) memory: MemoryParams,
    /// Per-sample output element count of each op (post-epilogue).
    pub(crate) out_elems: Vec<usize>,
    /// Chiplet each op executes on (all on chip 0 without sharding).
    pub(crate) chip_of: Vec<usize>,
    /// Number of chiplets the plan is sharded across.
    pub(crate) n_chips: usize,
    /// Arena plan from the buffer-liveness pass (`None` until it runs).
    pub(crate) buffer_plan: Option<BufferPlan>,
    /// Recycled execution arenas: `execute`/`execute_batch` draw from and
    /// return to this pool, so steady-state inference reuses warmed
    /// buffers instead of touching the allocator. Grows to the peak
    /// concurrency ever seen.
    pub(crate) arena_pool: Mutex<Vec<ExecArena>>,
}

impl ExecPlan {
    pub(crate) fn new(memory: MemoryParams) -> Self {
        ExecPlan {
            ops: Vec::new(),
            memory,
            out_elems: Vec::new(),
            chip_of: Vec::new(),
            n_chips: 1,
            buffer_plan: None,
            arena_pool: Mutex::new(Vec::new()),
        }
    }

    /// Takes a recycled [`ExecArena`] from the plan's pool (or a fresh
    /// one when the pool is empty).
    pub fn take_arena(&self) -> ExecArena {
        self.arena_pool
            .lock()
            .expect("arena pool lock")
            .pop()
            .unwrap_or_default()
    }

    /// Returns an arena to the pool for reuse by later executions.
    pub fn give_arena(&self, arena: ExecArena) {
        self.arena_pool.lock().expect("arena pool lock").push(arena);
    }

    /// Appends an op producing `out_elems` elements per sample, returning
    /// its index (used as an [`OpSource`]).
    pub(crate) fn push(&mut self, op: PlanOp, out_elems: usize) -> usize {
        self.ops.push(op);
        self.out_elems.push(out_elems);
        self.chip_of.push(0);
        self.ops.len() - 1
    }

    /// Number of ops in the plan.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The memory hierarchy this plan prices traffic against.
    pub fn memory(&self) -> &MemoryParams {
        &self.memory
    }

    /// The arena plan computed by the buffer-liveness pass, if it ran.
    pub fn buffer_plan(&self) -> Option<&BufferPlan> {
        self.buffer_plan.as_ref()
    }

    /// Number of chiplets the plan is sharded across (1 = single chip).
    pub fn chips(&self) -> usize {
        self.n_chips
    }

    /// For each op, the index of the last op that reads its output (its
    /// own index when nothing does): the live ranges the buffer-liveness
    /// pass plans the arena from. The final op is pinned live to the end
    /// of the plan (it is the network output).
    pub(crate) fn last_use(&self) -> Vec<usize> {
        let n = self.ops.len();
        let mut last = (0..n).collect::<Vec<_>>();
        for (i, op) in self.ops.iter().enumerate() {
            // The running activation: op i consumes op i-1's output.
            if i > 0 {
                last[i - 1] = last[i - 1].max(i);
            }
            for src in op.sources() {
                if let OpSource::Op(j) = src {
                    last[j] = last[j].max(i);
                }
            }
        }
        if n > 0 {
            last[n - 1] = n; // network output: live past the final op
        }
        last
    }

    /// Assigns each op its chiplet from the placement-aligned
    /// [`crate::mapping::ShardPlan`]: the plan's CiM ops program the
    /// mapping's placements in order (convs, linears and residual
    /// projections one each, ReBranch groups four, whatever backend they
    /// execute on), so each CiM op takes its first placement's die — the
    /// shard keeps a group's placements together — and digital ops ride
    /// with the CiM op that feeds them. The
    /// executors and the reported shard layout therefore describe the
    /// *same* partition by construction, and activation traffic between
    /// ops on different chips is priced through the [`ChipletLink`].
    pub(crate) fn assign_chips(&mut self, shard: &crate::mapping::ShardPlan) {
        self.n_chips = shard.chips.max(1);
        let mut cim_idx = 0usize;
        let mut current = 0usize;
        for i in 0..self.ops.len() {
            let placements = self.ops[i].placements();
            if placements > 0 {
                current = shard.chip_of.get(cim_idx).copied().unwrap_or(current);
                cim_idx += placements;
            }
            self.chip_of[i] = current;
        }
        debug_assert_eq!(
            cim_idx,
            shard.chip_of.len(),
            "plan CiM ops must align 1:1 with the mapping placements"
        );
    }

    /// Moves the engine behind placement `cim_idx` (a conv, linear,
    /// projection or one conv of a ReBranch group) onto new physical
    /// subarrays and re-programs it — the repair path. Returns `false`
    /// when no op owns that placement.
    pub(crate) fn reprogram_cim_ids(&mut self, cim_idx: usize, phys_ids: &[u64]) -> bool {
        let mut first = 0usize;
        for op in &mut self.ops {
            let placements = op.placements();
            if (first..first + placements).contains(&cim_idx) {
                match op {
                    PlanOp::Conv { conv, .. } => conv.set_fault_ids(phys_ids),
                    PlanOp::ReBranch {
                        trunk,
                        compress,
                        res_conv,
                        decompress,
                        ..
                    } => [trunk, compress, res_conv, decompress][cim_idx - first]
                        .set_fault_ids(phys_ids),
                    PlanOp::Linear { linear, .. } => linear.set_fault_ids(phys_ids),
                    PlanOp::ResidualAdd {
                        projection: Some(p),
                        ..
                    } => p.0.set_fault_ids(phys_ids),
                    _ => unreachable!("only CiM ops own placements"),
                }
                return true;
            }
            first += placements;
        }
        false
    }

    /// Sets every CiM conv's tile hint (the macro-cluster width the
    /// intra-sample latency model spreads the conv over) to `tiles`.
    pub(crate) fn set_tile_hints(&mut self, tiles: usize) {
        for op in &mut self.ops {
            match op {
                PlanOp::Conv { conv, .. } => conv.set_tile_hint(tiles),
                PlanOp::ReBranch {
                    trunk,
                    compress,
                    res_conv,
                    decompress,
                    ..
                } => {
                    trunk.set_tile_hint(tiles);
                    compress.set_tile_hint(tiles);
                    res_conv.set_tile_hint(tiles);
                    decompress.set_tile_hint(tiles);
                }
                PlanOp::ResidualAdd {
                    projection: Some(p),
                    ..
                } => p.0.set_tile_hint(tiles),
                _ => {}
            }
        }
    }

    /// Physical subarrays programmed, `(rom, sram)` (exclusive per-layer
    /// tiling; see [`CompiledNetwork::subarrays`] for the packed count).
    pub fn subarrays(&self) -> (usize, usize) {
        let mut rom = 0;
        let mut sram = 0;
        for op in &self.ops {
            let (r, s) = op_subarrays(op);
            rom += r;
            sram += s;
        }
        (rom, sram)
    }

    /// The ops whose outputs must be retained during execution because a
    /// later op reads them through an [`OpSource`].
    pub(crate) fn retained(&self) -> Vec<bool> {
        let mut retain = vec![false; self.ops.len()];
        for op in &self.ops {
            for src in op.sources() {
                if let OpSource::Op(i) = src {
                    retain[i] = true;
                }
            }
        }
        retain
    }

    /// Applies a fused epilogue to `y`, accumulating the side-operand
    /// traffic (and its producing chip) of any fused residual into `rec`.
    pub(crate) fn apply_epilogue(
        &self,
        epilogue: &[EpilogueOp],
        mut y: Tensor,
        op_idx: usize,
        x: &Tensor,
        outputs: &dyn Fn(usize) -> Tensor,
        rec: &mut PerOpExec,
    ) -> Tensor {
        let ab = self.memory.act_bits as u64;
        for e in epilogue {
            y = match e {
                EpilogueOp::Act(kind) => apply_act(&y, *kind),
                EpilogueOp::MaxPool { kernel, stride } => {
                    MaxPool2d::new(*kernel, *stride).forward(&y, false)
                }
                EpilogueOp::Residual { source } => {
                    // The input is read-only here: borrow it directly
                    // instead of cloning a tensor just to add it.
                    let src_owned;
                    let src: &Tensor = match source {
                        OpSource::Input => x,
                        OpSource::Op(i) => {
                            src_owned = outputs(*i);
                            &src_owned
                        }
                    };
                    let bits = src.data().len() as u64 * ab;
                    rec.side_bits += bits;
                    if self.source_chip(source) != self.chip_of[op_idx] {
                        rec.cross_bits += bits;
                    }
                    y.add(src)
                }
            };
        }
        y
    }

    /// The chiplet a source operand is produced on (the input arrives on
    /// chip 0, where the DRAM interface sits).
    pub(crate) fn source_chip(&self, source: &OpSource) -> usize {
        match source {
            OpSource::Input => 0,
            OpSource::Op(i) => self.chip_of[*i],
        }
    }

    /// Executes one op of the plan for the clone-based oracle
    /// [`ExecPlan::execute_cloned`], returning a freshly allocated output.
    /// `outputs` resolves retained earlier-op outputs.
    fn run_op_cloned<R: Rng + ?Sized>(
        &self,
        op_idx: usize,
        h: &Tensor,
        x: &Tensor,
        outputs: &[Option<Tensor>],
        rng: &mut R,
    ) -> (Tensor, PerOpExec) {
        let ab = self.memory.act_bits as u64;
        let op = &self.ops[op_idx];
        let mut rec = PerOpExec {
            in_bits: h.data().len() as u64 * ab,
            ..PerOpExec::default()
        };
        if op_idx > 0 && self.chip_of[op_idx] != self.chip_of[op_idx - 1] {
            rec.cross_bits += rec.in_bits;
        }
        let resolve =
            |i: usize| -> Tensor { outputs[i].as_ref().expect("source output retained").clone() };
        let out = match op {
            PlanOp::Conv {
                conv,
                domain,
                epilogue,
            } => {
                let (y, s) = conv.forward(h, rng);
                rec.tiles = conv.tile_count(y.data().len() / conv.out_channels().max(1));
                rec.add(*domain, &s);
                self.apply_epilogue(epilogue, y, op_idx, x, &resolve, &mut rec)
            }
            PlanOp::ReBranch {
                trunk,
                compress,
                res_conv,
                decompress,
                epilogue,
            } => {
                let (t, s1) = trunk.forward(h, rng);
                rec.tiles = trunk.tile_count(t.data().len() / trunk.out_channels().max(1));
                let (c, s2) = compress.forward(h, rng);
                let (r, s3) = res_conv.forward(&c, rng);
                let (d, s4) = decompress.forward(&r, rng);
                rec.rom.merge(&s1);
                rec.rom.merge(&s2);
                rec.sram.merge(&s3);
                rec.rom.merge(&s4);
                self.apply_epilogue(epilogue, t.add(&d), op_idx, x, &resolve, &mut rec)
            }
            PlanOp::Linear {
                linear,
                domain,
                epilogue,
            } => {
                let feats = flatten_2d(h);
                let (y, s) = linear.forward(&feats, rng);
                rec.add(*domain, &s);
                self.apply_epilogue(epilogue, y, op_idx, x, &resolve, &mut rec)
            }
            PlanOp::Activation(kind) => apply_act(h, *kind),
            PlanOp::MaxPool { kernel, stride } => {
                MaxPool2d::new(*kernel, *stride).forward(h, false)
            }
            PlanOp::GlobalAvgPool => gap(h),
            PlanOp::Passthrough { source, extra_ch } => {
                // Side sources are read-only: borrow the input or the
                // retained output directly, never clone.
                let src: &Tensor = match source {
                    OpSource::Input => x,
                    OpSource::Op(i) => outputs[*i].as_ref().expect("source output retained"),
                };
                rec.side_bits = src.data().len() as u64 * ab;
                if self.source_chip(source) != self.chip_of[op_idx] {
                    rec.cross_bits += rec.side_bits;
                }
                passthrough_concat(src, h, *extra_ch)
            }
            PlanOp::ResidualAdd { source, projection } => {
                let src: &Tensor = match source {
                    OpSource::Input => x,
                    OpSource::Op(i) => outputs[*i].as_ref().expect("source output retained"),
                };
                rec.side_bits = src.data().len() as u64 * ab;
                if self.source_chip(source) != self.chip_of[op_idx] {
                    rec.cross_bits += rec.side_bits;
                }
                match projection {
                    None => h.add(src),
                    Some(p) => {
                        let (y, s) = p.0.forward(src, rng);
                        rec.add(p.1, &s);
                        h.add(&y)
                    }
                }
            }
            PlanOp::Nop => h.clone(),
        };
        rec.out_bits = out.data().len() as u64 * ab;
        (out, rec)
    }

    /// Executes the plan on `x` (`(N, C, H, W)`), returning the output and
    /// the live [`ExecutionReport`].
    ///
    /// When the plan carries a [`BufferPlan`] (any pipeline that runs the
    /// buffer-liveness pass), execution runs on a recycled [`ExecArena`]
    /// from the plan's pool — the allocation-free steady-state
    /// interpreter — and only the returned output/report are fresh
    /// values. Plans without a buffer plan (e.g. the
    /// [`PassPipeline::none`] parity oracle) fall back to the clone-based
    /// interpreter [`ExecPlan::execute_cloned`]; the two are pinned
    /// bit-identical by the arena parity suite.
    #[must_use = "dropping the result discards the logits and the measured execution report"]
    pub fn execute<R: Rng + ?Sized>(&self, x: &Tensor, rng: &mut R) -> (Tensor, ExecutionReport) {
        if self.buffer_plan.is_none() {
            return self.execute_cloned(x, rng);
        }
        let mut arena = self.take_arena();
        self.execute_arena(x, rng, &mut arena);
        let result = (arena.output().clone(), arena.report().clone());
        self.give_arena(arena);
        result
    }

    /// Executes the plan into a caller-owned [`ExecArena`], returning
    /// views of the output and report that borrow the arena — the
    /// **zero-allocation entry**: after the first (warm-up) call on a
    /// given input shape, an inference through the same arena performs no
    /// heap allocation at all. Plans without a buffer plan fall back to
    /// the clone interpreter and store its (freshly allocated) result in
    /// the arena.
    pub fn execute_in<'a, R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        rng: &mut R,
        arena: &'a mut ExecArena,
    ) -> (&'a Tensor, &'a ExecutionReport) {
        if self.buffer_plan.is_some() {
            self.execute_arena(x, rng, arena);
        } else {
            let (out, report) = self.execute_cloned(x, rng);
            arena.set_result(out, report);
        }
        (arena.output(), arena.report())
    }

    /// The clone-based serial interpreter: allocates per-op output
    /// tensors like the pre-arena executor did. Kept as the **parity
    /// oracle** the arena interpreter is pinned against — both record the
    /// same per-op measurements and reduce them through
    /// `ExecPlan::finalize_into`, so their full reports agree bit for bit
    /// on the noiseless datapath.
    #[must_use = "dropping the result discards the logits and the measured execution report"]
    pub fn execute_cloned<R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        rng: &mut R,
    ) -> (Tensor, ExecutionReport) {
        // Only outputs an OpSource actually references are retained; on a
        // plain feed-forward plan nothing is, so the hot path keeps no
        // intermediate activations alive and pays no extra clones. The
        // final op's output is the network result itself — nothing can
        // read it through a source later, so it is never cloned either.
        let retain = self.retained();
        let n_ops = self.ops.len();
        let mut outputs: Vec<Option<Tensor>> = Vec::with_capacity(n_ops);
        let mut per_op = Vec::with_capacity(n_ops);
        let mut h: Option<Tensor> = None;
        for (op_idx, &keep) in retain.iter().enumerate() {
            let input = h.as_ref().unwrap_or(x);
            let (out, rec) = self.run_op_cloned(op_idx, input, x, &outputs, rng);
            per_op.push(rec);
            outputs.push((keep && op_idx + 1 < n_ops).then(|| out.clone()));
            h = Some(out);
        }
        let h = h.unwrap_or_else(|| x.clone());
        let report = self.finalize(x, &h, &per_op);
        (h, report)
    }

    /// Reduces per-op measurements into the final [`ExecutionReport`] —
    /// shared verbatim by every interpreter so they cannot diverge, down
    /// to f64 summation order. Allocating wrapper over
    /// [`ExecPlan::finalize_into`].
    pub(crate) fn finalize(
        &self,
        x: &Tensor,
        output: &Tensor,
        per_op: &[PerOpExec],
    ) -> ExecutionReport {
        let n = if x.ndim() >= 1 { x.shape()[0] } else { 1 };
        let mut report = ExecutionReport::default();
        self.finalize_into(x.data().len(), n, output.data().len(), per_op, &mut report);
        report
    }

    /// [`ExecPlan::finalize`] writing into a caller-owned report whose
    /// vectors keep their capacity — the arena executor's allocation-free
    /// reduction. `input_elems`/`output_elems` are the network I/O sizes
    /// and `batch_n` the leading batch dimension.
    pub(crate) fn finalize_into(
        &self,
        input_elems: usize,
        batch_n: usize,
        output_elems: usize,
        per_op: &[PerOpExec],
        report: &mut ExecutionReport,
    ) {
        let ab = self.memory.act_bits as u64;
        // Reset every field while keeping the vector allocations.
        let mut per_op_latency = std::mem::take(&mut report.per_op_latency_ns);
        let mut intra_sample = std::mem::take(&mut report.intra_sample_latency_ns);
        per_op_latency.clear();
        intra_sample.clear();
        *report = ExecutionReport {
            per_op_latency_ns: per_op_latency,
            intra_sample_latency_ns: intra_sample,
            ..ExecutionReport::default()
        };
        let mut buffer_pj = 0.0;
        let mut noc_pj = 0.0;
        let mut noc_lat = 0.0;
        let mut link_pj = 0.0;
        let mut link_lat = 0.0;
        for (op, rec) in self.ops.iter().zip(per_op) {
            report.rom.merge(&rec.rom);
            report.sram.merge(&rec.sram);
            let moved = rec.in_bits + rec.side_bits + rec.out_bits;
            report.buffer_traffic_bits += moved;
            buffer_pj += self.memory.buffer.access_energy_pj(moved);
            let mut op_lat = rec.rom.latency_ns + rec.sram.latency_ns;
            if op.is_cim() {
                report.noc_traffic_bits += moved;
                noc_pj += self.memory.noc.uniform_transfer_energy_pj(moved);
                let l = self.memory.noc.uniform_transfer_latency_ns(moved);
                noc_lat += l;
                op_lat += l;
            }
            if rec.cross_bits > 0 {
                report.link_traffic_bits += rec.cross_bits;
                link_pj += self.memory.link.transfer_energy_pj(rec.cross_bits);
                let l = self.memory.link.transfer_latency_ns(rec.cross_bits);
                link_lat += l;
                op_lat += l;
            }
            report.per_op_latency_ns.push(op_lat);
        }
        // Intra-sample latency model: with L parallel macro-cluster lanes
        // an op's CiM latency shrinks by tiles / ceil(tiles / L) (its
        // placement-derived tiles spread over the lanes in near-equal
        // rounds); transfers stay serial — activations stream op to op
        // through the NoC and any chiplet links of the shard topology.
        for &lanes in ExecutionReport::INTRA_SAMPLE_LANES.iter() {
            let mut total = 0.0;
            for (rec, op_lat) in per_op.iter().zip(&report.per_op_latency_ns) {
                let cim = rec.rom.latency_ns + rec.sram.latency_ns;
                let transfers = op_lat - cim;
                let tiles = rec.tiles.max(1);
                let rounds = tiles.div_ceil(lanes) as f64 / tiles as f64;
                total += cim * rounds + transfers;
            }
            report.intra_sample_latency_ns.push(total);
        }
        // Chip boundary: the input arrives from, and the result returns
        // to, DRAM. Weights are resident — the paper's whole point — so
        // they contribute no per-inference DRAM traffic.
        let input_bits = input_elems as u64 * ab;
        let output_bits = output_elems as u64 * ab;
        report.dram_traffic_bits = input_bits + output_bits;
        let dram_pj = self
            .memory
            .dram
            .transfer_energy_pj(report.dram_traffic_bits);
        let dram_lat = self
            .memory
            .dram
            .transfer_latency_ns(report.dram_traffic_bits);
        let cim_pj = report.cim_energy_pj();
        report.energy = EnergyBreakdown {
            cim_uj: cim_pj / 1e6,
            peripheral_uj: cim_pj * (self.memory.peripheral_overhead - 1.0) / 1e6,
            buffer_uj: buffer_pj / 1e6,
            noc_uj: noc_pj / 1e6,
            link_uj: link_pj / 1e6,
            dram_uj: dram_pj / 1e6,
            ..Default::default()
        };
        report.latency_ns =
            report.rom.latency_ns + report.sram.latency_ns + noc_lat + link_lat + dram_lat;
        // The chip-boundary DRAM transfer is serial at every lane count.
        for v in &mut report.intra_sample_latency_ns {
            *v += dram_lat;
        }
        let sample_bytes = 4u64 * batch_n.max(1) as u64;
        if let Some(bp) = &self.buffer_plan {
            report.peak_arena_bytes = bp.peak_elems as u64 * sample_bytes;
            report.naive_arena_bytes = bp.naive_elems as u64 * sample_bytes;
        } else {
            let naive: usize = self.out_elems.iter().sum();
            report.peak_arena_bytes = naive as u64 * sample_bytes;
            report.naive_arena_bytes = report.peak_arena_bytes;
        }
    }

    /// Executes the plan on a `(N, ...)` batch by fanning samples across a
    /// persistent [`WorkerPool`], one deterministic RNG stream per sample
    /// (see [`sample_stream_seed`]): outputs are bit-identical for any
    /// worker count, and bit-identical to [`ExecPlan::execute`] on the
    /// noiseless datapath.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank-4.
    pub fn execute_batch<'env>(
        &'env self,
        x: &Tensor,
        seed: u64,
        pool: &WorkerPool<'env>,
    ) -> (Tensor, ExecutionReport) {
        assert_eq!(x.ndim(), 4, "input must be (N, C, H, W)");
        let n = x.shape()[0];
        if n == 0 {
            // An empty batch walks the plan once (every op handles N = 0)
            // so the output carries the correct trailing shape, as the
            // legacy path did.
            let mut rng = StdRng::seed_from_u64(seed);
            return self.execute(x, &mut rng);
        }
        let sample_shape = [1, x.shape()[1], x.shape()[2], x.shape()[3]];
        let sample_len: usize = x.shape()[1..].iter().product();
        // Each job runs its sample on a recycled arena and hands the
        // arena itself back (output and report ride inside it), so the
        // steady-state batch loop allocates only the sample views and the
        // final assembly, never per-op tensors.
        let jobs: Vec<_> = (0..n)
            .map(|i| {
                let sample = Tensor::from_vec(
                    x.data()[i * sample_len..(i + 1) * sample_len].to_vec(),
                    &sample_shape,
                )
                .expect("sample slice matches shape");
                move || {
                    let mut rng = StdRng::seed_from_u64(sample_stream_seed(seed, i));
                    let mut arena = self.take_arena();
                    self.execute_in(&sample, &mut rng, &mut arena);
                    arena
                }
            })
            .collect();
        let arenas = pool.run(jobs);
        let per_sample: usize = arenas[0].output().data().len();
        let mut out_shape = arenas[0].output().shape().to_vec();
        out_shape[0] = n;
        let mut data = Vec::with_capacity(n * per_sample);
        let mut report = ExecutionReport::default();
        for arena in arenas {
            data.extend_from_slice(arena.output().data());
            report.merge(arena.report());
            self.give_arena(arena);
        }
        (
            Tensor::from_vec(data, &out_shape).expect("batched output shape"),
            report,
        )
    }
}

/// Trained (or generated) parameters for a [`NetworkDesc`], aligned with
/// its layer list.
pub struct NetworkWeights {
    /// Main weight per layer (convs and ReBranch trunks:
    /// `(OC, C, k, k)`; linears: `(outs, ins)`), `None` for
    /// parameter-free layers.
    pub(crate) weights: Vec<Option<Tensor>>,
    /// Branch weights per `ReBranch` layer: compress `(N/D, N, 1, 1)`,
    /// res-conv `(M/U, N/D, k, k)`, decompress `(M, M/U, 1, 1)`.
    pub(crate) branches: Vec<Option<[Tensor; 3]>>,
    /// Projection weight per `ResidualAdd` layer (`(OC, C, 1, 1)`).
    pub(crate) projections: Vec<Option<Tensor>>,
    /// Bias per linear layer.
    pub(crate) biases: Vec<Option<Vec<f32>>>,
}

impl NetworkWeights {
    /// Deterministic Kaiming-initialized weights for every CiM layer of
    /// `desc` (zero biases) — enough to *execute* a zoo architecture at
    /// full fidelity when no trained checkpoint exists.
    pub fn random(desc: &NetworkDesc, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = desc.layers.len();
        let mut w = NetworkWeights {
            weights: Vec::with_capacity(n),
            branches: Vec::with_capacity(n),
            projections: Vec::with_capacity(n),
            biases: Vec::with_capacity(n),
        };
        for layer in &desc.layers {
            let mut kaiming = |shape: &[usize]| yoloc_tensor::init::kaiming_normal(shape, &mut rng);
            let (mut weight, mut branch, mut projection, mut bias) = (None, None, None, None);
            match layer {
                LayerSpec::Conv {
                    in_ch,
                    out_ch,
                    kernel,
                    ..
                } => weight = Some(kaiming(&[*out_ch, *in_ch, *kernel, *kernel])),
                LayerSpec::ReBranch {
                    in_ch,
                    out_ch,
                    kernel,
                    d,
                    u,
                    ..
                } => {
                    let (nc, mc) = rebranch_widths(*in_ch, *out_ch, *d, *u);
                    let (n, m, k) = (*in_ch, *out_ch, *kernel);
                    weight = Some(kaiming(&[m, n, k, k]));
                    branch = Some([
                        kaiming(&[nc, n, 1, 1]),
                        kaiming(&[mc, nc, k, k]),
                        kaiming(&[m, mc, 1, 1]),
                    ]);
                }
                LayerSpec::Linear {
                    in_features,
                    out_features,
                    bias: has_bias,
                    ..
                } => {
                    weight = Some(kaiming(&[*out_features, *in_features]));
                    bias = has_bias.then(|| vec![0.0; *out_features]);
                }
                LayerSpec::ResidualAdd {
                    projection: Some(p),
                    ..
                } => projection = Some(kaiming(&[p.out_ch, p.in_ch, 1, 1])),
                _ => {}
            }
            w.weights.push(weight);
            w.branches.push(branch);
            w.projections.push(projection);
            w.biases.push(bias);
        }
        w
    }

    fn weight(&self, idx: usize, name: &str) -> Result<&Tensor, NetworkError> {
        self.weights[idx].as_ref().ok_or_else(|| NetworkError {
            msg: format!("missing weights for layer {name}"),
        })
    }

    fn branch(&self, idx: usize, name: &str) -> Result<&[Tensor; 3], NetworkError> {
        self.branches[idx].as_ref().ok_or_else(|| NetworkError {
            msg: format!("missing branch weights for layer {name}"),
        })
    }
}

/// Fabric-level fault-injection configuration: seeded fault rates plus
/// the physical subarray id space placements are assigned from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seeded fault rates (see [`yoloc_cim::FaultSpec`]).
    pub spec: FaultSpec,
    /// Total physical subarrays in the fabric. `0` means "just enough":
    /// the compiler sizes the fabric to the network's naive subarray
    /// demand plus dead-subarray slack plus the spare pool.
    pub total_subarrays: u64,
    /// Subarrays reserved as hot spares at the top of the id space.
    pub spare_subarrays: u64,
}

impl FaultConfig {
    /// A fabric sized to the network (`total_subarrays = 0`) with
    /// `spare` hot spares and the given fault spec.
    pub fn sized(spec: FaultSpec, spare: u64) -> Self {
        FaultConfig {
            spec,
            total_subarrays: 0,
            spare_subarrays: spare,
        }
    }
}

/// Compile-time configuration: macro parameters, execution path,
/// mapping strategy, and the memory hierarchy.
#[derive(Clone, Deserialize)]
pub struct CompileOptions {
    /// ROM-CiM macro for trunk layers (a ReBranch group's trunk,
    /// compress and decompress).
    pub rom: MacroParams,
    /// SRAM-CiM macro for the prediction head and ReBranch res-convs.
    pub sram: MacroParams,
    /// Execution path of every CiM layer: [`BackendKind::Popcount`] (the
    /// default), or [`BackendKind::Analog`], the reference the parity
    /// suites compile against.
    pub backend: BackendKind,
    /// Subarray placement strategy reported by the compiled network.
    pub mapping: MappingStrategy,
    /// Memory hierarchy for live traffic accounting.
    pub memory: MemoryParams,
    /// Optimization passes run over the lowered plan, in order. The
    /// default pipeline fuses epilogues, sweeps dead ops and plans the
    /// activation arena; [`PassPipeline::none`] compiles the legacy
    /// unfused plan the parity tests use as their oracle.
    pub passes: PassPipeline,
    /// Fault-injection configuration. `None` (the default) compiles the
    /// pristine fabric and serializes exactly as before, so zero-fault
    /// plan-cache keys are unchanged.
    pub faults: Option<FaultConfig>,
}

/// Hand-written so `faults: None` is *omitted* from the rendering
/// instead of emitted as `null` — the content-addressed plan-cache key
/// hashes this document, and pre-fault cache entries must keep their
/// keys. The derived [`Deserialize`] treats the missing field as `None`.
impl Serialize for CompileOptions {
    fn to_json(&self) -> serde::json::Value {
        let mut fields = vec![
            ("rom", self.rom.to_json()),
            ("sram", self.sram.to_json()),
            ("backend", self.backend.to_json()),
            ("mapping", self.mapping.to_json()),
            ("memory", self.memory.to_json()),
            ("passes", self.passes.to_json()),
        ];
        if let Some(f) = &self.faults {
            fields.push(("faults", f.to_json()));
        }
        serde::json::Value::obj(fields)
    }
}

impl CompileOptions {
    /// Paper-default macros, popcount backend, packed placement, full
    /// pass pipeline.
    pub fn paper_default() -> Self {
        CompileOptions {
            rom: MacroParams::rom_paper(),
            sram: MacroParams::sram_paper(),
            backend: BackendKind::Popcount,
            mapping: MappingStrategy::Packed,
            memory: MemoryParams::paper_default(),
            passes: PassPipeline::paper_default(),
            faults: None,
        }
    }
}

/// A [`NetworkDesc`] compiled onto the macro fabric: the executable plan
/// plus its `mapping.rs` placement.
pub struct CompiledNetwork {
    plan: ExecPlan,
    /// Network name (from the description).
    pub name: String,
    /// Per-layer subarray placement (naive, packed and sharded counts).
    pub mapping: NetworkMapping,
    /// What each optimization pass did to the plan, in pipeline order.
    pub pass_reports: Vec<PassReport>,
    strategy: MappingStrategy,
    input: Shape,
    /// Fabric fault map this deployment was placed against (`None` on
    /// pristine compiles and on every `yoloc-plan/1` document).
    pub fault_map: Option<FaultMap>,
    /// The fault configuration the deployment compiled under.
    pub fault_config: Option<FaultConfig>,
}

impl CompiledNetwork {
    /// Compiles `desc` with explicit `weights`, calibrating activation
    /// quantization layer by layer on `calibration` (a `(N, C, H, W)`
    /// batch matching the network input).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if shapes are inconsistent, weights are
    /// missing, or a passthrough source cannot be located.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` does not match the network input shape.
    pub fn compile(
        desc: &NetworkDesc,
        weights: &NetworkWeights,
        calibration: &Tensor,
        opts: CompileOptions,
    ) -> Result<Self, NetworkError> {
        COMPILES.fetch_add(1, Ordering::Relaxed);
        assert_eq!(calibration.ndim(), 4, "calibration must be (N, C, H, W)");
        assert_eq!(
            &calibration.shape()[1..],
            &[desc.input.0, desc.input.1, desc.input.2],
            "calibration shape must match the network input"
        );
        let reports = desc.analyze()?;
        let mut mapping = map_network_with(desc, &opts.rom, opts.mapping)?;
        // Fault-aware placement: derive the dead-subarray set from the
        // seeded fault plan, then assign physical subarray ids skipping
        // dead ones (spares stay reserved at the top of the id space).
        let fault_state = match &opts.faults {
            None => None,
            Some(cfg) => {
                let fplan = FaultPlan::new(cfg.spec);
                let naive: u64 = mapping
                    .placements
                    .iter()
                    .map(|p| p.naive_subarrays() as u64)
                    .sum();
                let mut total = if cfg.total_subarrays == 0 {
                    naive + cfg.spare_subarrays
                } else {
                    cfg.total_subarrays
                };
                let mut grow_rounds = 0;
                let fm = loop {
                    let mut fm = FaultMap::healthy(total, cfg.spare_subarrays);
                    for id in fplan.dead_subarrays(total) {
                        fm.mark_dead(id);
                    }
                    match assign_subarrays(&mut mapping, &fm) {
                        Ok(()) => break fm,
                        // Auto-sized fabrics grow past dead subarrays
                        // (bounded: a near-total death rate must not
                        // spin forever).
                        Err(MapFaultError::OutOfSubarrays { needed, available })
                            if cfg.total_subarrays == 0 && grow_rounds < 64 =>
                        {
                            total += (needed - available).max(1);
                            grow_rounds += 1;
                        }
                        Err(e) => {
                            return Err(NetworkError {
                                msg: format!("fault-aware placement failed: {e}"),
                            })
                        }
                    }
                };
                Some((fplan, fm))
            }
        };
        // Per-layer fault record: the layer's assigned physical ids plus
        // the link slowdown of its chiplet (chip 0 when unsharded).
        let layer_fault_record = |cim_idx: usize, mapping: &NetworkMapping| {
            let (fplan, _) = fault_state.as_ref()?;
            let p = &mapping.placements[cim_idx];
            let chip = mapping.shard.as_ref().map_or(0, |s| s.chip_of[cim_idx]) as u64;
            Some(LayerFaults {
                spec: *fplan.spec(),
                phys_ids: p
                    .subarray_ids
                    .clone()
                    .expect("faulted compile assigns subarray ids"),
                link_slowdown: fplan.slowdown_for_links(&[chip]),
            })
        };
        let mut cim_idx = 0usize;
        let last_cim = desc.layers.iter().rposition(|l| l.is_cim_layer());
        let cal_n = calibration.shape()[0].max(1);
        let mut plan = ExecPlan::new(opts.memory.clone());
        let mut h = calibration.clone();
        // Float outputs per layer (residual/passthrough sources and
        // calibration inputs) and the plan op producing each layer.
        let mut history: Vec<Tensor> = Vec::with_capacity(desc.layers.len());
        let mut op_of_layer: Vec<Option<usize>> = Vec::with_capacity(desc.layers.len());
        let mut last_op: Option<usize> = None;
        for (idx, layer) in desc.layers.iter().enumerate() {
            match layer {
                LayerSpec::Conv {
                    name,
                    stride,
                    padding,
                    ..
                } => {
                    let w = weights.weight(idx, name)?;
                    let (domain, params) = if Some(idx) == last_cim {
                        (MemDomain::Sram, opts.sram)
                    } else {
                        (MemDomain::Rom, opts.rom)
                    };
                    let conv = CimConv2d::compile_on_with(
                        opts.backend,
                        w,
                        *stride,
                        *padding,
                        &[&h],
                        params,
                        layer_fault_record(cim_idx, &mapping),
                    );
                    cim_idx += 1;
                    h = conv2d_reference(&h, w, None, *stride, *padding);
                    last_op = Some(plan.push(
                        PlanOp::Conv {
                            conv,
                            domain,
                            epilogue: Vec::new(),
                        },
                        h.data().len() / cal_n,
                    ));
                }
                LayerSpec::ReBranch {
                    name,
                    stride,
                    padding,
                    ..
                } => {
                    let trunk_w = weights.weight(idx, name)?;
                    let branch = weights.branch(idx, name)?;
                    let [w1, wb, w2] = branch;
                    let (c_out, r_out, out) =
                        rebranch_reference(&h, trunk_w, branch, *stride, *padding);
                    // Each conv calibrates on its own float input; the
                    // res-conv is the one trainable (SRAM) part.
                    let mut part = |w, stride, padding, input: &Tensor, params| {
                        let faults = layer_fault_record(cim_idx, &mapping);
                        cim_idx += 1;
                        CimConv2d::compile_on_with(
                            opts.backend,
                            w,
                            stride,
                            padding,
                            &[input],
                            params,
                            faults,
                        )
                    };
                    let op = PlanOp::ReBranch {
                        trunk: part(trunk_w, *stride, *padding, &h, opts.rom),
                        compress: part(w1, 1, 0, &h, opts.rom),
                        res_conv: part(wb, *stride, *padding, &c_out, opts.sram),
                        decompress: part(w2, 1, 0, &r_out, opts.rom),
                        epilogue: Vec::new(),
                    };
                    h = out;
                    last_op = Some(plan.push(op, h.data().len() / cal_n));
                }
                LayerSpec::Linear { name, .. } => {
                    let w = weights.weight(idx, name)?;
                    // The pre-flatten map is dead here: reshape in place.
                    let feats = flatten_2d_owned(std::mem::take(&mut h));
                    let (domain, params) = if Some(idx) == last_cim {
                        (MemDomain::Sram, opts.sram)
                    } else {
                        (MemDomain::Rom, opts.rom)
                    };
                    let bias = weights.biases[idx].as_deref();
                    let linear = CimLinear::compile_on_with(
                        opts.backend,
                        w,
                        bias,
                        &[&feats],
                        params,
                        layer_fault_record(cim_idx, &mapping),
                    );
                    cim_idx += 1;
                    h = linear_reference(&feats, w, bias);
                    last_op = Some(plan.push(
                        PlanOp::Linear {
                            linear,
                            domain,
                            epilogue: Vec::new(),
                        },
                        h.data().len() / cal_n,
                    ));
                }
                LayerSpec::BatchNorm { .. } => {
                    // Folded into the preceding conv: identity at
                    // inference; no op is emitted.
                }
                LayerSpec::Activation(kind) => {
                    h = apply_act(&h, *kind);
                    last_op = Some(plan.push(PlanOp::Activation(*kind), h.data().len() / cal_n));
                }
                LayerSpec::MaxPool { kernel, stride } => {
                    h = MaxPool2d::new(*kernel, *stride).forward(&h, false);
                    last_op = Some(plan.push(
                        PlanOp::MaxPool {
                            kernel: *kernel,
                            stride: *stride,
                        },
                        h.data().len() / cal_n,
                    ));
                }
                LayerSpec::GlobalAvgPool => {
                    h = gap(&h);
                    last_op = Some(plan.push(PlanOp::GlobalAvgPool, h.data().len() / cal_n));
                }
                LayerSpec::Passthrough { extra_ch } => {
                    let src_layer = passthrough_source(&reports, idx)?;
                    let source = match op_of_layer[src_layer] {
                        Some(i) => OpSource::Op(i),
                        None => OpSource::Input,
                    };
                    h = passthrough_concat(&history[src_layer], &h, *extra_ch);
                    last_op = Some(plan.push(
                        PlanOp::Passthrough {
                            source,
                            extra_ch: *extra_ch,
                        },
                        h.data().len() / cal_n,
                    ));
                }
                LayerSpec::ResidualAdd {
                    blocks_back,
                    projection,
                } => {
                    let from_input = *blocks_back == idx + 1;
                    let source = if from_input {
                        OpSource::Input
                    } else {
                        match op_of_layer[idx - blocks_back] {
                            Some(i) => OpSource::Op(i),
                            None => OpSource::Input,
                        }
                    };
                    // Shared with software_forward: resolve the skip
                    // source and apply the projection reference.
                    let (src_float, skip_float) = residual_skip_reference(
                        idx,
                        *blocks_back,
                        projection.as_ref(),
                        weights,
                        &history,
                        calibration,
                    )?;
                    let proj = match projection {
                        None => None,
                        Some(p) => {
                            let w = weights.projections[idx].as_ref().expect("checked above");
                            let conv = CimConv2d::compile_on_with(
                                opts.backend,
                                w,
                                p.stride,
                                0,
                                &[&src_float],
                                opts.rom,
                                layer_fault_record(cim_idx, &mapping),
                            );
                            cim_idx += 1;
                            Some(Box::new((conv, MemDomain::Rom)))
                        }
                    };
                    h = h.add(&skip_float);
                    last_op = Some(plan.push(
                        PlanOp::ResidualAdd {
                            source,
                            projection: proj,
                        },
                        h.data().len() / cal_n,
                    ));
                }
            }
            history.push(h.clone());
            op_of_layer.push(last_op);
        }
        // Placement-derived tile fan-out: each layer's single-inference
        // work is split across the macro clusters of its chip's mesh.
        plan.set_tile_hints(opts.memory.clusters());
        if let Some(shard) = &mapping.shard {
            plan.assign_chips(shard);
        }
        let pass_reports = opts.passes.run(&mut plan);
        // Materialize the execution arena from the buffer plan now, so
        // the first inference starts from pre-sized slots instead of
        // growing them (per-deployment scratch is a compile-time cost).
        if let Some(bp) = plan.buffer_plan() {
            let mut arena = ExecArena::new();
            arena.materialize(bp, 1);
            plan.give_arena(arena);
        }
        Ok(CompiledNetwork {
            plan,
            name: desc.name.clone(),
            mapping,
            pass_reports,
            strategy: opts.mapping,
            input: desc.input,
            fault_map: fault_state.map(|(_, fm)| fm),
            fault_config: opts.faults,
        })
    }

    /// Compiles `desc` with deterministic random weights and a generated
    /// calibration batch — the one-call entry point for executing a zoo
    /// architecture (see the module example).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the description is inconsistent.
    pub fn compile_random(
        desc: &NetworkDesc,
        seed: u64,
        opts: CompileOptions,
    ) -> Result<Self, NetworkError> {
        let weights = NetworkWeights::random(desc, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCA11_B0A7);
        let (c, ih, iw) = desc.input;
        let calibration = Tensor::rand_uniform(&[2, c, ih, iw], 0.0, 1.0, &mut rng);
        Self::compile(desc, &weights, &calibration, opts)
    }

    /// The network input shape `(C, H, W)`.
    pub fn input_shape(&self) -> Shape {
        self.input
    }

    /// Repairs the deployment after subarrays die in the field: marks
    /// `newly_dead` in the fault map, re-homes only the placements whose
    /// subarrays were hit onto spares ([`remap_placements`]), and
    /// re-programs exactly those layers' engines. Returns the indices of
    /// the repaired placements (empty when nothing was hit).
    ///
    /// # Errors
    ///
    /// [`MapFaultError::OutOfSpares`] when the spare pool cannot cover
    /// the dead slots — the deployment keeps executing with the faulty
    /// placements in that case (the caller decides whether to keep
    /// serving degraded or to take the model out of rotation).
    ///
    /// # Panics
    ///
    /// Panics when called on a deployment compiled without
    /// [`CompileOptions::faults`] (there is no fault map to repair).
    pub fn remap_faults(&mut self, newly_dead: &[u64]) -> Result<Vec<usize>, MapFaultError> {
        let fm = self
            .fault_map
            .as_mut()
            .expect("remap_faults requires a fault-aware compile");
        let affected = remap_placements(&mut self.mapping, fm, newly_dead)?;
        for &idx in &affected {
            let ids = self.mapping.placements[idx]
                .subarray_ids
                .clone()
                .expect("fault-aware placements carry ids");
            let ok = self.plan.reprogram_cim_ids(idx, &ids);
            debug_assert!(ok, "placement {idx} has no matching CiM op");
        }
        Ok(affected)
    }

    /// Subarrays consumed under the compile-time [`MappingStrategy`].
    pub fn subarrays(&self) -> usize {
        self.mapping.subarrays(self.strategy)
    }

    /// Physical subarrays actually programmed, `(rom, sram)`.
    pub fn programmed_subarrays(&self) -> (usize, usize) {
        self.plan.subarrays()
    }

    /// The compiled execution plan (op count, buffer plan, shard layout).
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Runs one inference through the quantized CiM datapath, returning
    /// the network output and the live execution report. Runs on a
    /// recycled [`ExecArena`] from the deployment's pool whenever the
    /// plan carries a buffer plan; see [`CompiledNetwork::infer_in`] for
    /// the fully allocation-free borrowing form.
    #[must_use = "dropping the result discards the logits and the measured execution report"]
    pub fn infer<R: Rng + ?Sized>(&self, x: &Tensor, rng: &mut R) -> (Tensor, ExecutionReport) {
        self.plan.execute(x, rng)
    }

    /// Runs one inference into a caller-owned [`ExecArena`], returning
    /// views that borrow the arena: the zero-allocation steady-state
    /// entry (see [`ExecArena`] for the warm-up contract and an example).
    pub fn infer_in<'a, R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        rng: &mut R,
        arena: &'a mut ExecArena,
    ) -> (&'a Tensor, &'a ExecutionReport) {
        self.plan.execute_in(x, rng, arena)
    }

    /// Takes a recycled execution arena from the deployment's pool (the
    /// compile-time-materialized one on the first call).
    pub fn take_arena(&self) -> ExecArena {
        self.plan.take_arena()
    }

    /// Returns an arena to the deployment's pool for later reuse.
    pub fn give_arena(&self, arena: ExecArena) {
        self.plan.give_arena(arena)
    }

    /// Batched inference over a persistent [`WorkerPool`]; see
    /// [`ExecPlan::execute_batch`].
    #[must_use = "dropping the result discards the logits and the measured execution report"]
    pub fn infer_batch<'env>(
        &'env self,
        x: &Tensor,
        seed: u64,
        pool: &WorkerPool<'env>,
    ) -> (Tensor, ExecutionReport) {
        self.plan.execute_batch(x, seed, pool)
    }
}

/// Float reference of a ReBranch layer on `x`: returns the compress and
/// res-conv outputs (the calibration inputs of the next two convs) and
/// the layer output, trunk plus decompressed branch. Shared by
/// compile-time calibration and [`software_forward`] so the two walks
/// cannot diverge.
fn rebranch_reference(
    x: &Tensor,
    trunk: &Tensor,
    [w1, wb, w2]: &[Tensor; 3],
    stride: usize,
    padding: usize,
) -> (Tensor, Tensor, Tensor) {
    let c = conv2d_reference(x, w1, None, 1, 0);
    let r = conv2d_reference(&c, wb, None, stride, padding);
    let d = conv2d_reference(&r, w2, None, 1, 0);
    let out = conv2d_reference(x, trunk, None, stride, padding).add(&d);
    (c, r, out)
}

/// Float reference of a linear layer: `y = W x + b` on `(N, ins)`.
fn linear_reference(feats: &Tensor, w: &Tensor, bias: Option<&[f32]>) -> Tensor {
    let (n, ins) = (feats.shape()[0], feats.shape()[1]);
    let outs = w.shape()[0];
    let mut out = Tensor::zeros(&[n, outs]);
    for ni in 0..n {
        for o in 0..outs {
            let mut acc = 0.0f32;
            for i in 0..ins {
                acc += w.at(&[o, i]) * feats.at(&[ni, i]);
            }
            if let Some(b) = bias {
                acc += b[o];
            }
            *out.at_mut(&[ni, o]) = acc;
        }
    }
    out
}

/// Locates the passthrough reorg source: the latest earlier layer whose
/// output map sits at exactly twice the resolution of the current map.
/// Shared by compile-time calibration and [`software_forward`] so the two
/// walks cannot diverge.
fn passthrough_source(
    reports: &[yoloc_models::LayerReport],
    idx: usize,
) -> Result<usize, NetworkError> {
    let (th, tw) = (reports[idx].in_shape.1, reports[idx].in_shape.2);
    (0..idx)
        .rev()
        .find(|&j| reports[j].out_shape.1 == 2 * th && reports[j].out_shape.2 == 2 * tw)
        .ok_or_else(|| NetworkError {
            msg: format!(
                "passthrough at layer {idx}: no earlier map at {}x{}",
                2 * th,
                2 * tw
            ),
        })
}

/// Resolves a residual skip's float source map and applies the projection
/// reference (if any), returning `(source, skip)`. Shared by compile-time
/// calibration and [`software_forward`] so the two walks cannot diverge.
fn residual_skip_reference(
    idx: usize,
    blocks_back: usize,
    projection: Option<&yoloc_models::ProjectionSpec>,
    weights: &NetworkWeights,
    history: &[Tensor],
    x: &Tensor,
) -> Result<(Tensor, Tensor), NetworkError> {
    let src = if blocks_back == idx + 1 {
        x.clone()
    } else {
        history[idx - blocks_back].clone()
    };
    let skip = match projection {
        None => src.clone(),
        Some(p) => {
            let w = weights.projections[idx]
                .as_ref()
                .ok_or_else(|| NetworkError {
                    msg: format!("missing projection weights for {}", p.name),
                })?;
            conv2d_reference(&src, w, None, p.stride, 0)
        }
    };
    Ok((src, skip))
}

/// The floating-point software reference of a compiled network: the same
/// graph walk with float convolutions, used for accuracy comparisons
/// against the quantized CiM execution.
///
/// # Errors
///
/// Returns [`NetworkError`] on inconsistent descriptions or missing
/// weights.
pub fn software_forward(
    desc: &NetworkDesc,
    weights: &NetworkWeights,
    x: &Tensor,
) -> Result<Tensor, NetworkError> {
    let reports = desc.analyze()?;
    let mut h = x.clone();
    let mut history: Vec<Tensor> = Vec::with_capacity(desc.layers.len());
    for (idx, layer) in desc.layers.iter().enumerate() {
        match layer {
            LayerSpec::Conv {
                name,
                stride,
                padding,
                ..
            } => {
                let w = weights.weight(idx, name)?;
                h = conv2d_reference(&h, w, None, *stride, *padding);
            }
            LayerSpec::ReBranch {
                name,
                stride,
                padding,
                ..
            } => {
                let (trunk, branch) = (weights.weight(idx, name)?, weights.branch(idx, name)?);
                h = rebranch_reference(&h, trunk, branch, *stride, *padding).2;
            }
            LayerSpec::Linear { name, .. } => {
                let w = weights.weight(idx, name)?;
                let feats = flatten_2d_owned(std::mem::take(&mut h));
                h = linear_reference(&feats, w, weights.biases[idx].as_deref());
            }
            LayerSpec::BatchNorm { .. } => {}
            LayerSpec::Activation(kind) => h = apply_act(&h, *kind),
            LayerSpec::MaxPool { kernel, stride } => {
                h = MaxPool2d::new(*kernel, *stride).forward(&h, false);
            }
            LayerSpec::GlobalAvgPool => h = gap(&h),
            LayerSpec::Passthrough { extra_ch } => {
                let src = passthrough_source(&reports, idx)?;
                h = passthrough_concat(&history[src], &h, *extra_ch);
            }
            LayerSpec::ResidualAdd {
                blocks_back,
                projection,
            } => {
                let (_, skip) = residual_skip_reference(
                    idx,
                    *blocks_back,
                    projection.as_ref(),
                    weights,
                    &history,
                    x,
                )?;
                h = h.add(&skip);
            }
        }
        history.push(h.clone());
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorkerPool;
    use crate::tiny_models::{Family, TinyCnn};
    use yoloc_models::zoo;

    fn small_opts() -> CompileOptions {
        CompileOptions::paper_default()
    }

    /// An untrained tiny VGG exported for compilation (12x12 RGB input).
    fn tiny_vgg(seed: u64) -> (NetworkDesc, NetworkWeights) {
        let mut rng = StdRng::seed_from_u64(seed);
        TinyCnn::plain(Family::Vgg, 3, &[6, 8], 4, &mut rng).to_network((3, 12, 12))
    }

    #[test]
    fn compiled_vgg_tracks_software_reference() {
        // A zoo graph with random weights, and a TinyCnn export.
        let zoo_vgg = zoo::scaled(&zoo::vgg8(4), 16, (16, 16));
        let zoo_weights = NetworkWeights::random(&zoo_vgg, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for (desc, weights) in [(zoo_vgg, zoo_weights), tiny_vgg(20)] {
            let (c, h, w) = desc.input;
            let cal = Tensor::rand_uniform(&[2, c, h, w], 0.0, 1.0, &mut rng);
            let net = CompiledNetwork::compile(&desc, &weights, &cal, small_opts()).unwrap();
            let x = Tensor::rand_uniform(&[2, c, h, w], 0.0, 1.0, &mut rng);
            let (y, report) = net.infer(&x, &mut rng);
            let sw = software_forward(&desc, &weights, &x).unwrap();
            assert_eq!(y.shape(), sw.shape());
            let mag = sw.abs_max().max(1e-6);
            for (a, b) in y.data().iter().zip(sw.data()) {
                assert!(
                    (a - b).abs() / mag < 0.15,
                    "{}: cim {a} vs sw {b}",
                    desc.name
                );
            }
            // Live accounting: both domains active (trunk in ROM, head in
            // SRAM), every hierarchy level paid.
            assert!(report.rom.energy_pj > 0.0);
            assert!(report.sram.energy_pj > 0.0);
            assert!(report.energy.buffer_uj > 0.0);
            assert!(report.energy.noc_uj > 0.0);
            assert!(report.energy.dram_uj > 0.0);
            assert!(report.energy.peripheral_uj > 0.0);
            assert!(report.buffer_traffic_bits > report.dram_traffic_bits);
            assert!(report.latency_ns > 0.0);
            assert!(report.energy.total_uj() > 0.0);
            assert!((report.energy.cim_uj - report.cim_energy_pj() / 1e6).abs() < 1e-12);
        }
    }

    #[test]
    fn compiled_residual_and_projection_networks_run() {
        // ResNet-18 scaled down: exercises ResidualAdd with and without
        // projections end to end.
        let desc = zoo::scaled(&zoo::resnet18(3), 16, (32, 32));
        let net = CompiledNetwork::compile_random(&desc, 11, small_opts()).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let x = Tensor::rand_uniform(&[1, 1, 32, 32], 0.0, 1.0, &mut rng);
        let (y, report) = net.infer(&x, &mut rng);
        assert_eq!(y.shape(), &[1, 3]);
        assert!(report.rom.analog_evaluations > 0);
        // Projections are programmed: more ROM subarrays than zero.
        let (rom_subs, sram_subs) = net.programmed_subarrays();
        assert!(rom_subs > 0 && sram_subs > 0);
    }

    #[test]
    fn compiled_yolo_passthrough_runs_end_to_end() {
        let desc = zoo::scaled(&zoo::yolo_v2(4, 2), 32, (64, 64));
        let net = CompiledNetwork::compile_random(&desc, 21, small_opts()).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let x = Tensor::rand_uniform(&[1, 1, 64, 64], 0.0, 1.0, &mut rng);
        let (y, report) = net.infer(&x, &mut rng);
        // 64x64 input downsamples x32 -> 2x2 detection map, channels per
        // the scaled IR's own shape propagation.
        let expect = desc.analyze().unwrap().last().unwrap().out_shape;
        assert_eq!(y.shape(), &[1, expect.0, expect.1, expect.2]);
        assert!(report.energy.total_uj() > 0.0);
        assert!(report.dram_traffic_bits > 0);
    }

    #[test]
    fn batched_compiled_inference_bit_identical_to_serial() {
        // `infer` runs all five samples through one arena, so every CiM
        // op's output pass walks channel-major accumulators across
        // samples; `infer_batch` runs each sample on its own. ResNet-18
        // carries fused residuals and projections, YOLO the passthrough,
        // the wrapped ResNet ReBranch groups; the TinyCnn export is the
        // deployment the accuracy harness runs.
        let resnet = zoo::scaled(&zoo::resnet18(3), 16, (32, 32));
        let mut nets: Vec<CompiledNetwork> = [
            zoo::scaled(&zoo::vgg8(3), 16, (16, 16)),
            zoo::rebranched(&resnet, 2, 2),
            resnet,
            zoo::scaled(&zoo::yolo_v2(4, 2), 32, (64, 64)),
        ]
        .iter()
        .map(|desc| CompiledNetwork::compile_random(desc, 31, small_opts()).unwrap())
        .collect();
        let (desc, weights) = tiny_vgg(21);
        let cal = Tensor::rand_uniform(&[3, 3, 12, 12], 0.0, 1.0, &mut StdRng::seed_from_u64(22));
        nets.push(CompiledNetwork::compile(&desc, &weights, &cal, small_opts()).unwrap());
        for net in &nets {
            let (c, h, w) = net.input_shape();
            let mut rng = StdRng::seed_from_u64(32);
            let x = Tensor::rand_uniform(&[5, c, h, w], 0.0, 1.0, &mut rng);
            let (serial, serial_report) = net.infer(&x, &mut rng);
            for workers in [1, 2, 4] {
                let (batched, report) =
                    WorkerPool::with(workers, |pool| net.infer_batch(&x, 9, pool));
                let what = format!("{} at {workers} workers", net.name);
                assert_eq!(serial.data(), batched.data(), "{what}");
                assert_eq!(
                    serial_report.rom.analog_evaluations, report.rom.analog_evaluations,
                    "{what}"
                );
                assert_eq!(
                    serial_report.rom.adc_conversions, report.rom.adc_conversions,
                    "{what}"
                );
                assert_eq!(serial_report.rom.wl_pulses, report.rom.wl_pulses, "{what}");
                assert_eq!(
                    serial_report.sram.adc_conversions, report.sram.adc_conversions,
                    "{what}"
                );
                let serial_pj = serial_report.cim_energy_pj();
                assert!(
                    (serial_pj - report.cim_energy_pj()).abs() / serial_pj < 1e-9,
                    "{what}: {serial_pj} vs {} pJ",
                    report.cim_energy_pj()
                );
                assert_eq!(
                    serial_report.buffer_traffic_bits, report.buffer_traffic_bits,
                    "{what}"
                );
                assert_eq!(
                    serial_report.dram_traffic_bits, report.dram_traffic_bits,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn noisy_batched_inference_identical_across_worker_counts() {
        // With bit-line noise the RNG matters; per-sample streams make the
        // batched result a pure function of (seed, sample), so worker
        // count must not change a single bit.
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let mut opts = small_opts();
        opts.rom.noise_sigma = 0.3;
        let net = CompiledNetwork::compile_random(&desc, 5, opts).unwrap();
        let x = Tensor::rand_uniform(&[5, 1, 16, 16], 0.0, 1.0, &mut StdRng::seed_from_u64(6));
        let (w1, _) = WorkerPool::with(1, |pool| net.infer_batch(&x, 7, pool));
        for workers in [2, 4] {
            let (wn, _) = WorkerPool::with(workers, |pool| net.infer_batch(&x, 7, pool));
            assert_eq!(w1.data(), wn.data(), "workers = {workers}");
        }
        // A different seed draws different noise.
        let (other, _) = WorkerPool::with(2, |pool| net.infer_batch(&x, 8, pool));
        assert_ne!(w1.data(), other.data());
    }

    #[test]
    fn empty_batch_is_handled() {
        // Regression: the batched path must not index results[0] on an
        // empty batch; it returns an output with the correct trailing
        // shape and a zero report, like the serial path.
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let net = CompiledNetwork::compile_random(&desc, 71, small_opts()).unwrap();
        let x = Tensor::zeros(&[0, 1, 16, 16]);
        let (y, report) = WorkerPool::with(2, |pool| net.infer_batch(&x, 5, pool));
        assert_eq!(y.shape(), &[0, 3]);
        assert_eq!(report.rom.analog_evaluations, 0);
        assert_eq!(report.dram_traffic_bits, 0);
    }

    /// The execution path of every CiM layer in `plan`, in op order.
    fn cim_backend_names(plan: &ExecPlan) -> Vec<&'static str> {
        let mut names = Vec::new();
        for op in &plan.ops {
            match op {
                PlanOp::Conv { conv, .. } => names.push(conv.backend_name()),
                PlanOp::ReBranch {
                    trunk,
                    compress,
                    res_conv,
                    decompress,
                    ..
                } => {
                    names.extend([trunk, compress, res_conv, decompress].map(|c| c.backend_name()))
                }
                PlanOp::Linear { linear, .. } => names.push(linear.backend_name()),
                PlanOp::ResidualAdd {
                    projection: Some(p),
                    ..
                } => names.push(p.0.backend_name()),
                _ => {}
            }
        }
        names
    }

    #[test]
    fn analog_compile_stays_analog_through_remap_and_round_trip() {
        // The backend kind is part of every layer's program record, so
        // neither re-programming a repaired layer nor rebuilding the plan
        // from its document moves a layer off the path it was compiled
        // for.
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let mut opts = small_opts();
        opts.backend = BackendKind::Analog;
        opts.faults = Some(FaultConfig::sized(FaultSpec::none(), 8));
        let mut net = CompiledNetwork::compile_random(&desc, 81, opts).unwrap();
        let assert_analog = |net: &CompiledNetwork, when: &str| {
            let names = cim_backend_names(net.plan());
            assert!(!names.is_empty(), "{when}: no CiM layers");
            assert!(
                names.iter().all(|&n| n == BackendKind::Analog.label()),
                "{when}: {names:?}"
            );
        };
        assert_analog(&net, "fresh compile");
        let victim = net.mapping.placements[0]
            .subarray_ids
            .as_ref()
            .expect("fault-aware placements carry physical ids")[0];
        let affected = net.remap_faults(&[victim]).expect("spares available");
        assert!(affected.contains(&0), "placement 0 must be repaired");
        assert_analog(&net, "after remap_faults");
        let back = CompiledNetwork::deserialize_plan(&net.serialize_plan())
            .expect("analog plan deserializes");
        assert_analog(&back, "after a plan round trip");
    }

    #[test]
    fn intra_sample_latency_model_scales_with_lanes() {
        // At 4 macro-cluster lanes a single inference's modeled latency
        // beats the one-lane walk by > 1.5x (the conv tiles dominate;
        // NoC/DRAM transfers stay serial). The host executes serially;
        // the lanes exist only in the chip model.
        let desc = zoo::scaled(&zoo::vgg8(4), 16, (16, 16));
        let net = CompiledNetwork::compile_random(&desc, 7, small_opts()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let (_, report) = net.infer(&x, &mut rng);
        assert_eq!(
            report.intra_sample_latency_ns.len(),
            ExecutionReport::INTRA_SAMPLE_LANES.len()
        );
        assert!(report
            .intra_sample_latency_ns
            .windows(2)
            .all(|w| w[1] <= w[0] + 1e-9));
        // One lane is exactly the serial model (same fold, same terms).
        assert!((report.intra_sample_latency_ns[0] - report.latency_ns).abs() < 1e-6);
        let s4 = report.intra_sample_speedup(4).expect("4 lanes modeled");
        assert!(s4 > 1.5, "modeled 4-lane intra-sample speedup only {s4}");
        assert!(report.intra_sample_speedup(3).is_none());
    }

    #[test]
    fn packed_mapping_never_exceeds_naive() {
        let desc = zoo::scaled(&zoo::tiny_yolo(4, 2), 16, (64, 64));
        let net = CompiledNetwork::compile_random(&desc, 61, small_opts()).unwrap();
        assert!(net.mapping.subarrays_packed <= net.mapping.subarrays_naive);
        assert_eq!(net.subarrays(), net.mapping.subarrays_packed);
    }

    #[test]
    fn fusion_saves_traffic_and_arena_without_changing_arithmetic() {
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let fused = CompiledNetwork::compile_random(&desc, 7, small_opts()).unwrap();
        let mut raw_opts = small_opts();
        raw_opts.passes = PassPipeline::none();
        let raw = CompiledNetwork::compile_random(&desc, 7, raw_opts).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let (y_fused, r_fused) = fused.infer(&x, &mut rng);
        let (y_raw, r_raw) = raw.infer(&x, &mut rng);
        // Fusion is arithmetic-transparent: identical logits and stats.
        assert_eq!(y_fused.data(), y_raw.data());
        assert_eq!(r_fused.rom, r_raw.rom);
        assert_eq!(r_fused.sram, r_raw.sram);
        // And it moves strictly less traffic through the hierarchy.
        assert!(r_fused.buffer_traffic_bits < r_raw.buffer_traffic_bits);
        assert!(r_fused.energy.buffer_uj < r_raw.energy.buffer_uj);
        // The planned arena beats per-op allocation.
        assert!(r_fused.peak_arena_bytes < r_fused.naive_arena_bytes);
        assert_eq!(r_raw.peak_arena_bytes, r_raw.naive_arena_bytes);
    }

    #[test]
    fn sharded_plan_pays_the_chiplet_link() {
        use crate::mapping::MappingStrategy;
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let mut opts = small_opts();
        opts.mapping = MappingStrategy::Sharded { chips: 4 };
        let sharded = CompiledNetwork::compile_random(&desc, 7, opts).unwrap();
        let single = CompiledNetwork::compile_random(&desc, 7, small_opts()).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let x = Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let (y_s, r_s) = sharded.infer(&x, &mut rng);
        let (y_1, r_1) = single.infer(&x, &mut rng);
        // Sharding is functionally transparent...
        assert_eq!(y_s.data(), y_1.data());
        // ...but the shard topology shows up in traffic, energy, latency.
        assert!(r_s.link_traffic_bits > 0);
        assert_eq!(r_1.link_traffic_bits, 0);
        assert!(r_s.energy.link_uj > 0.0);
        assert_eq!(r_1.energy.link_uj, 0.0);
        assert!(r_s.latency_ns > r_1.latency_ns);
        assert!(sharded.plan().chips() == 4);
    }
}
