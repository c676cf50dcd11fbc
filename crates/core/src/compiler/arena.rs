//! The zero-allocation execution arena: the runtime realization of the
//! [`BufferPlan`] the buffer-liveness pass computes.
//!
//! PR 4 *planned* a slot-reuse activation arena (`peak_arena_bytes` in
//! every report) but the executor still cloned a `Tensor` per op. This
//! module closes that gap: an [`ExecArena`] materializes the plan's slots
//! as reusable `f32` buffers — plus the staging a CiM op needs
//! (activation codes as im2col rows or column-shifted code planes, tap
//! offsets, integer accumulators, bit-plane masks, ReBranch
//! intermediates) and the report/`PerOpExec` storage of the
//! measurement fold — and `ExecPlan::execute_arena` interprets the plan
//! directly on those buffers. Every buffer grows on first use and keeps
//! its capacity, so a warmed-up inference touches the heap **zero**
//! times: ops write into their planned slots, samples reuse the same
//! arena back to back, and repeated `infer` calls recycle arenas through
//! the plan's internal pool.
//!
//! ## Slot lifetimes
//!
//! Slot safety comes from the liveness analysis itself: an op's input
//! (the previous op's output) and every side source it reads are live
//! *through* the op, so the planner never assigns the op's output to any
//! of their slots — reading source slots while writing the output slot
//! can therefore never alias. The interpreter asserts this.
//!
//! ## The conv output pass
//!
//! A CiM conv's accumulators arrive channel-major, so `conv_output_pass`
//! dequantizes one contiguous channel plane at a time and applies the
//! op's fused epilogue, through its first max-pool, in that same pass,
//! writing the planned slot once. Only a conv epilogue that pools a
//! second time, and a ReBranch group whose epilogue pools, still stage
//! the raw map and copy the result into the slot.
//!
//! ## Bit-identity
//!
//! The arena interpreter is pinned bit-identical — logits, `MvmStats`,
//! and the full `ExecutionReport` — to the clone-based oracle
//! [`ExecPlan::execute_cloned`](super::ExecPlan::execute_cloned): every
//! kernel below replicates the oracle's exact per-element arithmetic and
//! fold order (see `tests/arena_parity.rs`).

use rand::Rng;

use super::{BufferPlan, EpilogueOp, ExecPlan, ExecutionReport, OpSource, PerOpExec, PlanOp};
use crate::qconv::{CimConv2d, CimScratch};
use yoloc_models::ActKind;
use yoloc_tensor::Tensor;

/// A reusable shaped `f32` buffer of the arena (one per plan slot, plus
/// the staging buffers).
#[derive(Debug, Default)]
pub(crate) struct Buf {
    data: Vec<f32>,
    shape: [usize; 4],
    rank: usize,
}

impl Buf {
    /// Sets the logical shape and presents a zeroed buffer of that size,
    /// reusing the existing allocation whenever it is large enough.
    fn prepare(&mut self, shape: &[usize]) -> &mut [f32] {
        debug_assert!(shape.len() <= 4, "arena buffers are rank <= 4");
        self.rank = shape.len();
        self.shape[..shape.len()].copy_from_slice(shape);
        let n: usize = shape.iter().product();
        self.data.clear();
        self.data.resize(n, 0.0);
        &mut self.data
    }

    fn shape(&self) -> &[usize] {
        &self.shape[..self.rank]
    }

    fn data(&self) -> &[f32] {
        &self.data
    }

    /// Copies another buffer's contents and shape into this one.
    fn copy_from(&mut self, other: &Buf) {
        self.rank = other.rank;
        self.shape = other.shape;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }
}

/// Per-deployment execution scratch, materialized from the compiled
/// [`BufferPlan`]: the activation slots, CiM staging,
/// ReBranch intermediates, and the reused report storage.
///
/// Create one with [`CompiledNetwork::take_arena`] (or let
/// `infer`/`infer_batch` draw from the plan's internal pool), drive it
/// through [`CompiledNetwork::infer_in`], and hand it back with
/// [`CompiledNetwork::give_arena`] so later calls reuse it. After the
/// first (warm-up) inference of a given input shape, every later
/// inference through the same arena performs **zero heap allocations**.
///
/// [`CompiledNetwork::take_arena`]: super::CompiledNetwork::take_arena
/// [`CompiledNetwork::infer_in`]: super::CompiledNetwork::infer_in
/// [`CompiledNetwork::give_arena`]: super::CompiledNetwork::give_arena
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use yoloc_core::compiler::{CompileOptions, CompiledNetwork};
/// use yoloc_models::zoo;
///
/// let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
/// let net = CompiledNetwork::compile_random(&desc, 7, CompileOptions::paper_default())?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = yoloc_tensor::Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
/// let mut arena = net.take_arena();
/// // Steady-state loop: outputs borrow the arena, and nothing is
/// // allocated once the first iteration has warmed the buffers up.
/// for _ in 0..3 {
///     let (logits, report) = net.infer_in(&x, &mut rng, &mut arena);
///     assert_eq!(logits.shape(), &[1, 3]);
///     assert!(report.energy.total_uj() > 0.0);
/// }
/// net.give_arena(arena);
/// # Ok::<(), yoloc_models::NetworkError>(())
/// ```
#[derive(Debug, Default)]
pub struct ExecArena {
    /// One buffer per planned slot.
    slots: Vec<Buf>,
    /// CiM op staging: raw layer output while its epilogue runs.
    stage: Buf,
    /// Epilogue ping-pong partner of `stage` (max-pool shrinks shapes).
    stage2: Buf,
    /// One channel plane of a conv's fused output pass before its
    /// max-pool.
    pool_row: Vec<f32>,
    /// ReBranch intermediates: compress, residual-conv, decompress.
    rb: [Buf; 3],
    /// Shared CiM kernel staging (codes, tap offsets, accumulators,
    /// bit-plane masks). The codes buffer holds a conv's vector-major
    /// im2col rows or its column-shifted code planes (a linear runs as
    /// a 1x1 conv), whichever layout the op's engine selects per batch
    /// ([`RomMvm::batch_layout`]); all stage in place and retain
    /// capacity, so layout switches between ops never allocate once
    /// warm.
    ///
    /// [`RomMvm::batch_layout`]: yoloc_cim::RomMvm::batch_layout
    pub(crate) cim: CimScratch,
    /// Reused per-op measurement records.
    per_op: Vec<PerOpExec>,
    /// Reused execution report (its vectors keep their capacity).
    report: ExecutionReport,
    /// The network output of the latest execution (buffer reused while
    /// the output shape is stable).
    out: Tensor,
}

impl ExecArena {
    /// A fresh arena; buffers are materialized at compile time through
    /// the plan's pool, or grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the slot buffers for a buffer plan at batch size
    /// `batch_n` (the compile-time materialization step — per-sample
    /// slot footprints come straight from the liveness pass).
    pub(crate) fn materialize(&mut self, plan: &BufferPlan, batch_n: usize) {
        self.slots.resize_with(plan.slots(), Buf::default);
        for (buf, &elems) in self.slots.iter_mut().zip(&plan.slot_elems) {
            buf.data.reserve(elems * batch_n.max(1));
        }
    }

    /// The network output of the latest execution through this arena.
    pub fn output(&self) -> &Tensor {
        &self.out
    }

    /// The execution report of the latest execution through this arena.
    pub fn report(&self) -> &ExecutionReport {
        &self.report
    }

    /// Stores an externally computed result (used by the clone-path
    /// fallback when a plan carries no buffer plan).
    pub(crate) fn set_result(&mut self, out: Tensor, report: ExecutionReport) {
        self.out = out;
        self.report = report;
    }

    /// Copies `shape`/`data` into the reused output tensor, reallocating
    /// only when the output shape changed since the previous execution.
    fn store_output(&mut self, shape: &[usize], data: &[f32]) {
        if self.out.shape() != shape {
            self.out = Tensor::zeros(shape);
        }
        self.out.data_mut().copy_from_slice(data);
    }
}

/// Resolves a side source to its live view: the network input, or the
/// producing op's arena slot. `out_slot` is the reading op's output
/// slot — liveness keeps every source out of it (a source is live
/// *through* its reader), and the assert turns any planner regression
/// into a loud failure instead of a silent read of the emptied buffer.
fn source_view<'s>(
    slots: &'s [Buf],
    bp: &BufferPlan,
    x: &'s Tensor,
    source: &OpSource,
    out_slot: usize,
) -> (&'s [f32], &'s [usize]) {
    match source {
        OpSource::Input => (x.data(), x.shape()),
        OpSource::Op(i) => {
            let s = bp.slot_of_op[*i];
            assert_ne!(s, out_slot, "source slot aliases the output slot");
            let s = &slots[s];
            (s.data(), s.shape())
        }
    }
}

/// Elementwise activation, identical to `apply_act`'s per-element map.
fn act_in_place(data: &mut [f32], kind: ActKind) {
    match kind {
        ActKind::Relu => data.iter_mut().for_each(|v| *v = relu(*v)),
        ActKind::Leaky => data.iter_mut().for_each(|v| *v = leaky(*v)),
    }
}

/// ReLU of one element, as `apply_act` computes it.
#[inline]
fn relu(v: f32) -> f32 {
    v.max(0.0)
}

/// Leaky ReLU (slope 0.1) of one element, as `apply_act` computes it.
#[inline]
fn leaky(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        0.1 * v
    }
}

/// Elementwise accumulate, identical to `Tensor::add`'s zip.
fn add_in_place(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len(), "residual operand length");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Output dims of a `kernel` x `kernel` max-pool at `stride` over an
/// `h` x `w` plane.
fn pool_hw(h: usize, w: usize, kernel: usize, stride: usize) -> (usize, usize) {
    assert!(h >= kernel && w >= kernel, "window too large");
    ((h - kernel) / stride + 1, (w - kernel) / stride + 1)
}

/// One step of a max-pool window scan: the running maximum after
/// visiting `v`. Strictly greater wins, so an equal later value (`+0.0`
/// after `-0.0`, say) or a NaN never replaces the running maximum.
#[inline]
fn scan_max(best: f32, v: f32) -> f32 {
    if v > best {
        v
    } else {
        best
    }
}

/// Max-pools one `h` x `w` plane into `dst`, replicating
/// `MaxPool2d::forward` exactly: each window is scanned row by row from
/// `-inf` with [`scan_max`], so a NaN never wins and an all-NaN window
/// yields `-inf`. The zoo's 2x2, stride-2 pool takes a branch-free walk
/// over pairs of source rows in that same scan order, which vectorizes.
fn maxpool_plane(src: &[f32], h: usize, w: usize, kernel: usize, stride: usize, dst: &mut [f32]) {
    let (oh, ow) = pool_hw(h, w, kernel, stride);
    debug_assert_eq!(dst.len(), oh * ow);
    if (kernel, stride) == (2, 2) {
        for (ohi, best) in dst.chunks_exact_mut(ow).enumerate() {
            let (top, bottom) = src[2 * ohi * w..(2 * ohi + 2) * w].split_at(w);
            let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
            for (b, (t, u)) in best.iter_mut().zip(windows) {
                let m = scan_max(scan_max(f32::NEG_INFINITY, t[0]), t[1]);
                *b = scan_max(scan_max(m, u[0]), u[1]);
            }
        }
        return;
    }
    let mut oi = 0;
    for ohi in 0..oh {
        for owi in 0..ow {
            let mut best = f32::NEG_INFINITY;
            for kh in 0..kernel {
                for kw in 0..kernel {
                    best = scan_max(best, src[(ohi * stride + kh) * w + owi * stride + kw]);
                }
            }
            dst[oi] = best;
            oi += 1;
        }
    }
}

/// Max pooling into `dst`, one [`maxpool_plane`] per channel plane.
fn maxpool_into(src: &[f32], shape: &[usize], kernel: usize, stride: usize, dst: &mut Buf) {
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    let (oh, ow) = pool_hw(h, w, kernel, stride);
    let od = dst.prepare(&[n, c, oh, ow]);
    let (plane, out_plane) = (h * w, oh * ow);
    for i in 0..n * c {
        let dst = &mut od[i * out_plane..(i + 1) * out_plane];
        maxpool_plane(&src[i * plane..(i + 1) * plane], h, w, kernel, stride, dst);
    }
}

/// Global average pool into `dst`, replicating `gap`'s summation order.
fn gap_into(src: &[f32], shape: &[usize], dst: &mut Buf) {
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    let od = dst.prepare(&[n, c]);
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let s: f32 = src[base..base + h * w].iter().sum();
            od[ni * c + ci] = s / (h * w) as f32;
        }
    }
}

/// Passthrough reorg + concat into `dst`, replicating
/// `passthrough_concat`'s exact index walk.
fn passthrough_into(
    src: &[f32],
    src_shape: &[usize],
    cur: &[f32],
    cur_shape: &[usize],
    extra_ch: usize,
    dst: &mut Buf,
) {
    let (n, c, h, w) = (cur_shape[0], cur_shape[1], cur_shape[2], cur_shape[3]);
    let sc = src_shape[1];
    assert_eq!(
        (src_shape[2], src_shape[3]),
        (2 * h, 2 * w),
        "passthrough source must be at twice the current resolution"
    );
    let reorg_ch = 4 * sc;
    let oc = c + extra_ch;
    let od = dst.prepare(&[n, oc, h, w]);
    for ni in 0..n {
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    od[((ni * oc + ci) * h + y) * w + x] = cur[((ni * c + ci) * h + y) * w + x];
                }
            }
        }
        for e in 0..extra_ch {
            // Offset-major reorg: channel index walks (dy, dx, src channel).
            let r = e % reorg_ch;
            let (dy, dx, sci) = (r / (2 * sc), (r / sc) % 2, r % sc);
            for y in 0..h {
                for x in 0..w {
                    od[((ni * oc + c + e) * h + y) * w + x] =
                        src[((ni * sc + sci) * 2 * h + 2 * y + dy) * 2 * w + 2 * x + dx];
                }
            }
        }
    }
}

/// What a CiM op's fused epilogue reads besides the op's own output: the
/// plan (for chip placement), the op's index and output slot, and the
/// live slots and network input its residual sources resolve to.
struct EpilogueCtx<'s> {
    plan: &'s ExecPlan,
    op_idx: usize,
    out_slot: usize,
    slots: &'s [Buf],
    bp: &'s BufferPlan,
    x: &'s Tensor,
}

impl<'s> EpilogueCtx<'s> {
    /// The live operand of a fused residual.
    fn operand(&self, source: &OpSource) -> &'s [f32] {
        source_view(self.slots, self.bp, self.x, source, self.out_slot).0
    }

    /// Resolves a fused residual's operand and accounts its side traffic
    /// into `rec` exactly like `ExecPlan::apply_epilogue`.
    fn residual(&self, source: &OpSource, rec: &mut PerOpExec) -> &'s [f32] {
        let sd = self.operand(source);
        let bits = sd.len() as u64 * self.plan.memory.act_bits as u64;
        rec.side_bits += bits;
        if self.plan.source_chip(source) != self.plan.chip_of[self.op_idx] {
            rec.cross_bits += bits;
        }
        sd
    }
}

/// Applies a fused epilogue in place on `cur` (ping-ponging through
/// `stage2` for shape-changing steps), accumulating side-operand traffic
/// into `rec` exactly like `ExecPlan::apply_epilogue`. `cur` is the op's
/// output slot buffer when the epilogue is shape-stable (no max-pool),
/// the staging buffer otherwise.
fn run_epilogue(
    ctx: &EpilogueCtx<'_>,
    epilogue: &[EpilogueOp],
    cur: &mut Buf,
    stage2: &mut Buf,
    rec: &mut PerOpExec,
) {
    for e in epilogue {
        match e {
            EpilogueOp::Act(kind) => act_in_place(&mut cur.data, *kind),
            EpilogueOp::MaxPool { kernel, stride } => {
                let shape = cur.shape;
                let rank = cur.rank;
                maxpool_into(&cur.data, &shape[..rank], *kernel, *stride, stage2);
                std::mem::swap(cur, stage2);
            }
            EpilogueOp::Residual { source } => {
                add_in_place(&mut cur.data, ctx.residual(source, rec));
            }
        }
    }
}

/// Whether a fused epilogue changes the activation shape (max-pool): the
/// one case a CiM op must stage its raw output instead of writing its
/// planned slot directly.
fn needs_staging(epilogue: &[EpilogueOp]) -> bool {
    epilogue
        .iter()
        .any(|e| matches!(e, EpilogueOp::MaxPool { .. }))
}

/// How much of a conv's fused epilogue its output pass absorbs: every
/// step up to and including the first `MaxPool` (all of it when there
/// is none).
fn fused_len(epilogue: &[EpilogueOp]) -> usize {
    epilogue
        .iter()
        .position(|e| matches!(e, EpilogueOp::MaxPool { .. }))
        .map_or(epilogue.len(), |i| i + 1)
}

/// The output pass of a CiM conv after [`CimConv2d::run_in`], one
/// channel plane at a time: dequantize the plane's contiguous
/// accumulators, apply the `Act` and `Residual` steps of `steps` (a
/// [`fused_len`] prefix of the epilogue) in order, as [`run_epilogue`]
/// does and with the same side-traffic accounting, and max-pool the plane
/// if `steps` ends in a `MaxPool`. The result is written once, into
/// `dst`; a pooled plane goes through `row` first.
#[allow(clippy::too_many_arguments)] // splits one op's state over disjoint arena fields
fn conv_output_pass(
    ctx: &EpilogueCtx<'_>,
    conv: &CimConv2d,
    cim: &CimScratch,
    n: usize,
    (oh, ow): (usize, usize),
    steps: &[EpilogueOp],
    dst: &mut Buf,
    row: &mut Vec<f32>,
    rec: &mut PerOpExec,
) {
    let (oc, plane) = (conv.out_channels(), oh * ow);
    let (elementwise, pool) = match steps.split_last() {
        Some((&EpilogueOp::MaxPool { kernel, stride }, head)) => (head, Some((kernel, stride))),
        _ => (steps, None),
    };
    for e in elementwise {
        if let EpilogueOp::Residual { source } = e {
            let sd = ctx.residual(source, rec);
            assert_eq!(sd.len(), n * oc * plane, "residual operand length");
        }
    }
    // A leading activation runs inside the dequantize loop itself.
    let (lead_act, elementwise) = match elementwise.split_first() {
        Some((&EpilogueOp::Act(kind), rest)) => (Some(kind), rest),
        _ => (None, elementwise),
    };
    let (ph, pw) = pool.map_or((oh, ow), |(k, s)| pool_hw(oh, ow, k, s));
    let out_plane_len = ph * pw;
    let od = dst.prepare(&[n, oc, ph, pw]);
    if pool.is_some() {
        row.resize(plane, 0.0);
    }
    for (o, (accs, dq)) in conv.channel_rows(cim).enumerate() {
        for (ni, accs) in accs.chunks_exact(plane.max(1)).enumerate() {
            // Plane `i` of the output, and of every residual operand.
            let i = ni * oc + o;
            let out_plane = &mut od[i * out_plane_len..(i + 1) * out_plane_len];
            let cur = match pool {
                Some(_) => &mut row[..],
                None => &mut *out_plane,
            };
            match lead_act {
                None => dq.run_into(accs, cur, |v| v),
                Some(ActKind::Relu) => dq.run_into(accs, cur, relu),
                Some(ActKind::Leaky) => dq.run_into(accs, cur, leaky),
            }
            for e in elementwise {
                match e {
                    EpilogueOp::Act(kind) => act_in_place(cur, *kind),
                    EpilogueOp::Residual { source } => {
                        add_in_place(cur, &ctx.operand(source)[i * plane..(i + 1) * plane]);
                    }
                    EpilogueOp::MaxPool { .. } => unreachable!("a fused prefix pools last"),
                }
            }
            if let Some((kernel, stride)) = pool {
                maxpool_plane(row, oh, ow, kernel, stride, out_plane);
            }
        }
    }
}

/// `(input_elems, batch_n)` of the network input, as `finalize` reads
/// them off the tensor.
fn input_dims(x: &Tensor) -> (usize, usize) {
    let n = if x.ndim() >= 1 { x.shape()[0] } else { 1 };
    (x.data().len(), n)
}

impl ExecPlan {
    /// Executes the plan on the arena, leaving the output and report in
    /// `arena` — the allocation-free steady-state interpreter behind
    /// [`ExecPlan::execute`] and [`ExecPlan::execute_in`].
    ///
    /// # Panics
    ///
    /// Panics if the plan carries no buffer plan (compile with a pipeline
    /// that runs the buffer-liveness pass, or use the clone fallback).
    pub(crate) fn execute_arena<R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        rng: &mut R,
        arena: &mut ExecArena,
    ) {
        let bp = self
            .buffer_plan
            .as_ref()
            .expect("arena execution requires a buffer plan");
        let ab = self.memory.act_bits as u64;
        let (input_elems, batch_n) = input_dims(x);
        arena.slots.resize_with(bp.slots(), Buf::default);
        arena.per_op.clear();
        arena.per_op.resize(self.ops.len(), PerOpExec::default());
        if self.ops.is_empty() {
            let mut report = std::mem::take(&mut arena.report);
            self.finalize_into(input_elems, batch_n, x.data().len(), &[], &mut report);
            arena.report = report;
            arena.store_output(x.shape(), x.data());
            return;
        }
        let mut stage = std::mem::take(&mut arena.stage);
        let mut stage2 = std::mem::take(&mut arena.stage2);
        let mut rb = std::mem::take(&mut arena.rb);
        let [rb0, rb1, rb2] = &mut rb;
        for op_idx in 0..self.ops.len() {
            let slot = bp.slot_of_op[op_idx];
            // Take the output buffer out of the arena so source slots can
            // be read freely while it is written.
            let mut out_buf = std::mem::take(&mut arena.slots[slot]);
            let rec = &mut arena.per_op[op_idx];
            let slots = &arena.slots;
            let cim = &mut arena.cim;
            let row = &mut arena.pool_row;
            let ctx = EpilogueCtx {
                plan: self,
                op_idx,
                out_slot: slot,
                slots,
                bp,
                x,
            };
            // The running activation: the previous op's slot (the network
            // input for op 0). Liveness keeps it out of the output slot.
            let (in_data, in_shape): (&[f32], &[usize]) = if op_idx == 0 {
                (x.data(), x.shape())
            } else {
                let prev = bp.slot_of_op[op_idx - 1];
                debug_assert_ne!(prev, slot, "input slot aliases output slot");
                (slots[prev].data(), slots[prev].shape())
            };
            rec.in_bits = in_data.len() as u64 * ab;
            if op_idx > 0 && self.chip_of[op_idx] != self.chip_of[op_idx - 1] {
                rec.cross_bits += rec.in_bits;
            }
            match &self.ops[op_idx] {
                PlanOp::Conv {
                    conv,
                    domain,
                    epilogue,
                } => {
                    let (n, h, w) = (in_shape[0], in_shape[2], in_shape[3]);
                    let (oh, ow) = conv.output_hw(h, w);
                    let s = conv.run_in(in_data, n, h, w, cim, rng);
                    rec.tiles = conv.tile_count(n * oh * ow);
                    rec.add(*domain, &s);
                    // The output pass absorbs the epilogue through its
                    // first max-pool and writes the planned slot; only a
                    // chain that pools again stages the rest and copies.
                    let (fused, rest) = epilogue.split_at(fused_len(epilogue));
                    let staged = needs_staging(rest);
                    let target = if staged { &mut stage } else { &mut out_buf };
                    conv_output_pass(&ctx, conv, cim, n, (oh, ow), fused, target, row, rec);
                    run_epilogue(&ctx, rest, target, &mut stage2, rec);
                    if staged {
                        out_buf.copy_from(&stage);
                    }
                }
                PlanOp::ReBranch {
                    trunk,
                    compress,
                    res_conv,
                    decompress,
                    epilogue,
                } => {
                    let (n, h, w) = (in_shape[0], in_shape[2], in_shape[3]);
                    let (th, tw) = trunk.output_hw(h, w);
                    let staged = needs_staging(epilogue);
                    let target = if staged { &mut stage } else { &mut out_buf };
                    let td = target.prepare(&[n, trunk.out_channels(), th, tw]);
                    let s1 = trunk.forward_in(in_data, n, h, w, td, cim, rng);
                    rec.tiles = trunk.tile_count(n * th * tw);
                    let (ch, cw) = compress.output_hw(h, w);
                    let cd = rb0.prepare(&[n, compress.out_channels(), ch, cw]);
                    let s2 = compress.forward_in(in_data, n, h, w, cd, cim, rng);
                    let (rh, rw) = res_conv.output_hw(ch, cw);
                    let rd = rb1.prepare(&[n, res_conv.out_channels(), rh, rw]);
                    let s3 = res_conv.forward_in(rb0.data(), n, ch, cw, rd, cim, rng);
                    let (dh, dw) = decompress.output_hw(rh, rw);
                    let dd = rb2.prepare(&[n, decompress.out_channels(), dh, dw]);
                    let s4 = decompress.forward_in(rb1.data(), n, rh, rw, dd, cim, rng);
                    rec.rom.merge(&s1);
                    rec.rom.merge(&s2);
                    rec.sram.merge(&s3);
                    rec.rom.merge(&s4);
                    add_in_place(&mut target.data, rb2.data());
                    run_epilogue(&ctx, epilogue, target, &mut stage2, rec);
                    if staged {
                        out_buf.copy_from(&stage);
                    }
                }
                PlanOp::Linear {
                    linear,
                    domain,
                    epilogue,
                } => {
                    let n = in_shape[0];
                    let staged = needs_staging(epilogue);
                    let target = if staged { &mut stage } else { &mut out_buf };
                    let od = target.prepare(&[n, linear.outs()]);
                    let s = linear.forward_in(in_data, n, od, cim, rng);
                    rec.add(*domain, &s);
                    run_epilogue(&ctx, epilogue, target, &mut stage2, rec);
                    if staged {
                        out_buf.copy_from(&stage);
                    }
                }
                PlanOp::Activation(kind) => {
                    let od = out_buf.prepare(in_shape);
                    od.copy_from_slice(in_data);
                    act_in_place(od, *kind);
                }
                PlanOp::MaxPool { kernel, stride } => {
                    maxpool_into(in_data, in_shape, *kernel, *stride, &mut out_buf);
                }
                PlanOp::GlobalAvgPool => {
                    gap_into(in_data, in_shape, &mut out_buf);
                }
                PlanOp::Passthrough { source, extra_ch } => {
                    let (sd, ss) = source_view(slots, bp, x, source, slot);
                    rec.side_bits = sd.len() as u64 * ab;
                    if self.source_chip(source) != self.chip_of[op_idx] {
                        rec.cross_bits += rec.side_bits;
                    }
                    passthrough_into(sd, ss, in_data, in_shape, *extra_ch, &mut out_buf);
                }
                PlanOp::ResidualAdd { source, projection } => {
                    let (sd, ss) = source_view(slots, bp, x, source, slot);
                    rec.side_bits = sd.len() as u64 * ab;
                    if self.source_chip(source) != self.chip_of[op_idx] {
                        rec.cross_bits += rec.side_bits;
                    }
                    let od = out_buf.prepare(in_shape);
                    od.copy_from_slice(in_data);
                    match projection {
                        None => add_in_place(od, sd),
                        Some(p) => {
                            let (n, h, w) = (ss[0], ss[2], ss[3]);
                            let (oh, ow) = p.0.output_hw(h, w);
                            let pd = stage.prepare(&[n, p.0.out_channels(), oh, ow]);
                            let s = p.0.forward_in(sd, n, h, w, pd, cim, rng);
                            rec.add(p.1, &s);
                            add_in_place(od, stage.data());
                        }
                    }
                }
                PlanOp::Nop => {
                    out_buf.prepare(in_shape).copy_from_slice(in_data);
                }
            }
            rec.out_bits = out_buf.data().len() as u64 * ab;
            arena.slots[slot] = out_buf;
        }
        arena.stage = stage;
        arena.stage2 = stage2;
        arena.rb = rb;
        let last_slot = bp.slot_of_op[self.ops.len() - 1];
        let last = std::mem::take(&mut arena.slots[last_slot]);
        let mut report = std::mem::take(&mut arena.report);
        self.finalize_into(
            input_elems,
            batch_n,
            last.data().len(),
            &arena.per_op,
            &mut report,
        );
        arena.report = report;
        arena.store_output(last.shape(), last.data());
        arena.slots[last_slot] = last;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn buf_prepare_reuses_capacity_and_zeroes() {
        let mut b = Buf::default();
        b.prepare(&[2, 3]).copy_from_slice(&[1.0; 6]);
        assert_eq!(b.shape(), &[2, 3]);
        let before = b.data.capacity();
        let d = b.prepare(&[1, 4]);
        assert!(d.iter().all(|&v| v == 0.0), "prepare must zero the buffer");
        assert_eq!(b.data.capacity(), before, "shrinking must not reallocate");
    }

    #[test]
    fn maxpool_into_matches_layer() {
        // Bit for bit, on the 2x2/2 fast path and the generic walk
        // (overlapping, odd-sized and 1x1 windows), with NaNs, infinities
        // and both zeros placed so windows tie, mix and go all-NaN.
        use yoloc_tensor::layers::MaxPool2d;
        use yoloc_tensor::Layer;
        let specials = [
            f32::NAN,
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -f32::NAN,
        ];
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(3);
        for (kernel, stride) in [(2, 2), (3, 1), (2, 1), (3, 2), (1, 1)] {
            for (h, w) in [(6, 6), (7, 5)] {
                let mut x = Tensor::rand_uniform(&[2, 3, h, w], -1.0, 1.0, &mut rng);
                for (i, v) in x.data_mut().iter_mut().enumerate() {
                    if i % 3 != 2 {
                        *v = specials[(i / 3 + i % 3) % specials.len()];
                    }
                }
                let expect = MaxPool2d::new(kernel, stride).forward(&x, false);
                let mut dst = Buf::default();
                maxpool_into(x.data(), x.shape(), kernel, stride, &mut dst);
                assert_eq!(dst.shape(), expect.shape());
                assert_eq!(
                    bits(dst.data()),
                    bits(expect.data()),
                    "{kernel}/{stride} {h}x{w}"
                );
            }
        }
    }

    #[test]
    fn gap_and_passthrough_match_oracles() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::rand_uniform(&[2, 3, 4, 4], -1.0, 1.0, &mut rng);
        let mut dst = Buf::default();
        gap_into(x.data(), x.shape(), &mut dst);
        let expect = super::super::gap(&x);
        assert_eq!(dst.data(), expect.data());

        let cur = Tensor::rand_uniform(&[2, 5, 2, 2], -1.0, 1.0, &mut rng);
        let expect = super::super::passthrough_concat(&x, &cur, 7);
        passthrough_into(x.data(), x.shape(), cur.data(), cur.shape(), 7, &mut dst);
        assert_eq!(dst.shape(), expect.shape());
        assert_eq!(dst.data(), expect.data());
    }
}
