//! Quantized convolution and linear layers executed on an MVM backend.
//!
//! This is the deployment path of Fig. 9: a layer's weights are quantized
//! per-channel to 8 bits, lowered to a `(out_ch, in_ch*k*k)` (conv) or
//! `(out_features, in_features)` (linear) matrix and programmed onto an
//! [`MvmBackend`] — the analog reference path, the popcount fast path, or
//! the pure-software integer reference, selected per layer
//! ([`yoloc_cim::BackendKind`]). At run time activations are
//! affine-quantized, driven through the backend, and the results are
//! dequantized with zero-point correction. With the paper's 5-bit-ADC
//! design point the integer arithmetic is exact, so the only deviation
//! from a software layer is the quantization itself — the basis for the
//! paper's "almost no accuracy loss" claim, which the integration tests
//! verify end to end.

use rand::Rng;

use yoloc_cim::backend::{
    program_backend, program_backend_faulted, BackendKind, DynRng, MvmBackend, MvmScratch,
};
use yoloc_cim::faults::{FaultContext, FaultPlan, FaultSpec};
use yoloc_cim::kernels::{transposed_pad, MatmulLayout};
use yoloc_cim::macro_model::{MacroParams, MvmStats};
use yoloc_quant::{calibrate_affine, PerChannelQuant, QuantParams};
use yoloc_tensor::ops::{im2col, im2col_into, Conv2dGeometry};
use yoloc_tensor::Tensor;

use serde::json::Value as Json;
use serde::{Deserialize, Serialize};

/// Reusable staging for one CiM layer execution: the im2col patch matrix,
/// the quantized activation codes of the tile in flight, the integer MVM
/// accumulators, and the backend's bit-plane staging.
///
/// One `CimScratch` serves every layer of a deployment in turn (layers
/// run serially, and each call fully overwrites what it uses), which is
/// how the arena executor keeps steady-state inference allocation-free:
/// all four buffers grow on first use and keep their capacity across ops,
/// samples and repeated `infer` calls.
#[derive(Debug, Default)]
pub struct CimScratch {
    /// Lowered `(patch, positions)` im2col matrix (convs only).
    cols: Vec<f32>,
    /// Quantized activation codes of the tile in flight, vector-major.
    codes: Vec<i32>,
    /// Integer accumulators of the tile in flight, vector-major.
    accs: Vec<i64>,
    /// Bit-plane staging for [`MvmBackend::mvm_batch`].
    mvm: MvmScratch,
}

impl CimScratch {
    /// A fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-channel dequantization state shared by conv and linear layers:
/// symmetric weight scales plus weight-code row sums for zero-point
/// correction.
struct Dequant {
    channel_scales: Vec<f32>,
    row_sums: Vec<i64>,
}

impl Dequant {
    fn from_quant(pc: &PerChannelQuant, outs: usize, ins: usize) -> Self {
        let row_sums: Vec<i64> = (0..outs)
            .map(|o| {
                pc.values[o * ins..(o + 1) * ins]
                    .iter()
                    .map(|&v| v as i64)
                    .sum()
            })
            .collect();
        Dequant {
            channel_scales: pc.channel_params.iter().map(|p| p.scale).collect(),
            row_sums,
        }
    }

    /// Dequantizes one accumulator value for output channel `o`.
    #[inline]
    fn value(&self, o: usize, acc: i64, act: &QuantParams) -> f32 {
        self.channel_scales[o] * act.scale * (acc - act.zero_point as i64 * self.row_sums[o]) as f32
    }
}

/// Everything needed to re-program an MVM backend deterministically:
/// the compile-time backend choice, macro parameters and quantized
/// weight codes. Retained by compiled layers so a plan can be serialized
/// and rebuilt bit-identically (the backends themselves own un-walkable
/// state like the analog array, so layers re-run [`program_backend`] on
/// deserialization instead of persisting the engine).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct ProgramSpec {
    kind: BackendKind,
    params: MacroParams,
    outs: usize,
    ins: usize,
    codes: Vec<i32>,
    /// Fault-injection context the layer was programmed under. `None`
    /// compiles the pristine path — and is what every `yoloc-plan/1`
    /// document reads back as, which keeps the field backward
    /// compatible.
    faults: Option<LayerFaults>,
}

/// Per-layer fault record retained for re-programming: the fabric-wide
/// seeded fault spec plus this layer's physical subarray ids and the
/// chiplet-link slowdown it executes under. Re-running the programmer
/// with the same record reproduces the exact faulty engine, so faulted
/// plans serialize and rebuild bit-identically like pristine ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct LayerFaults {
    /// Seeded fabric-wide fault rates.
    pub spec: FaultSpec,
    /// Physical subarray ids in row-major tile order
    /// (`row_tile * col_tiles + col_tile`).
    pub phys_ids: Vec<u64>,
    /// Evaluation-latency multiplier from degraded links (1.0 = none).
    pub link_slowdown: f64,
}

/// Deserialization proves what the programmer would otherwise assert
/// — a supported weight width, one code per matrix cell, every code in
/// the signed range — so a plan whose checksum is valid but whose
/// contents are hostile is an error (a plan-cache miss), not a panic.
impl Deserialize for ProgramSpec {
    fn from_value(v: &Json) -> Result<Self, String> {
        let spec = ProgramSpec {
            kind: json_field(v, "kind")?,
            params: json_field(v, "params")?,
            outs: json_field(v, "outs")?,
            ins: json_field(v, "ins")?,
            codes: json_field(v, "codes")?,
            faults: json_field(v, "faults")?,
        };
        let bits = spec.params.weight_bits;
        let range = spec
            .params
            .weight_code_range()
            .ok_or_else(|| format!("unsupported weight_bits {bits}"))?;
        let cells = spec
            .outs
            .checked_mul(spec.ins)
            .ok_or_else(|| format!("{} x {} matrix overflows", spec.outs, spec.ins))?;
        if spec.codes.len() != cells {
            return Err(format!(
                "{} codes for a {} x {} matrix",
                spec.codes.len(),
                spec.outs,
                spec.ins
            ));
        }
        if let Some(code) = spec.codes.iter().find(|c| !range.contains(c)) {
            return Err(format!("code {code} outside signed {bits}-bit range"));
        }
        Ok(spec)
    }
}

impl ProgramSpec {
    fn program(&self) -> Box<dyn MvmBackend> {
        match &self.faults {
            None => program_backend(self.kind, self.params, &self.codes, self.outs, self.ins),
            Some(lf) => {
                let plan = FaultPlan::new(lf.spec);
                let ctx = FaultContext {
                    plan: &plan,
                    phys_ids: &lf.phys_ids,
                    link_slowdown: lf.link_slowdown,
                };
                program_backend_faulted(
                    self.kind,
                    self.params,
                    &self.codes,
                    self.outs,
                    self.ins,
                    &ctx,
                )
            }
        }
    }
}

/// Object field lookup + deserialize with field context in errors
/// (missing fields route through `Deserialize::from_missing`, so
/// `Option` fields default). Shared by the hand-written layer impls here
/// and the plan serializer in `compiler::serial`.
pub(crate) fn json_field<T: Deserialize>(v: &Json, name: &str) -> Result<T, String> {
    match v.get(name) {
        Some(x) => T::from_value(x).map_err(|e| format!("{name}: {e}")),
        None => T::from_missing(name),
    }
}

/// `QuantParams` lives in `yoloc-quant`, which has no serde dependency
/// (and the orphan rule forbids implementing the shim traits for it
/// here), so the field mapping is spelled out.
fn quant_params_to_json(p: &QuantParams) -> Json {
    Json::obj([
        ("scale", p.scale.to_json()),
        ("zero_point", p.zero_point.to_json()),
        ("bits", p.bits.to_json()),
        ("symmetric", p.symmetric.to_json()),
    ])
}

fn quant_params_from(v: &Json) -> Result<QuantParams, String> {
    Ok(QuantParams {
        scale: json_field(v, "scale")?,
        zero_point: json_field(v, "zero_point")?,
        bits: json_field(v, "bits")?,
        symmetric: json_field(v, "symmetric")?,
    })
}

/// Same story for `Conv2dGeometry` (`yoloc-tensor` has no serde dep).
fn geom_to_json(g: &Conv2dGeometry) -> Json {
    Json::obj([
        ("in_channels", g.in_channels.to_json()),
        ("kernel", g.kernel.to_json()),
        ("stride", g.stride.to_json()),
        ("padding", g.padding.to_json()),
    ])
}

fn geom_from(v: &Json) -> Result<Conv2dGeometry, String> {
    Ok(Conv2dGeometry {
        in_channels: json_field(v, "in_channels")?,
        kernel: json_field(v, "kernel")?,
        stride: json_field(v, "stride")?,
        padding: json_field(v, "padding")?,
    })
}

/// A convolution compiled onto an MVM backend.
pub struct CimConv2d {
    engine: Box<dyn MvmBackend>,
    dequant: Dequant,
    /// Activation quantization parameters.
    pub act_params: QuantParams,
    geom: Conv2dGeometry,
    out_channels: usize,
    /// Target tile count for [`CimConv2d::tile_range_iter`] (1 = the
    /// whole position range as a single tile).
    par_tiles: usize,
    /// Compile-time programming record, kept for plan serialization.
    program: ProgramSpec,
}

impl CimConv2d {
    /// Compiles `weight` (`(OC, C, k, k)`) onto the default
    /// [`BackendKind::Popcount`] backend (bit-identical to the analog
    /// reference whenever both apply, with automatic analog fallback for
    /// noisy macros).
    ///
    /// `calibration` tensors determine the activation quantization range
    /// (include zero automatically).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-4.
    pub fn compile(
        weight: &Tensor,
        stride: usize,
        padding: usize,
        calibration: &[&Tensor],
        params: MacroParams,
    ) -> Self {
        Self::compile_on(
            BackendKind::Popcount,
            weight,
            stride,
            padding,
            calibration,
            params,
        )
    }

    /// Compiles `weight` onto an explicitly chosen backend (the per-layer
    /// selection point of the graph compiler).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-4.
    pub fn compile_on(
        kind: BackendKind,
        weight: &Tensor,
        stride: usize,
        padding: usize,
        calibration: &[&Tensor],
        params: MacroParams,
    ) -> Self {
        Self::compile_on_with(kind, weight, stride, padding, calibration, params, None)
    }

    /// [`CimConv2d::compile_on`] with an optional fault-injection
    /// record (the graph compiler's entry when the deployment carries a
    /// fault map).
    pub(crate) fn compile_on_with(
        kind: BackendKind,
        weight: &Tensor,
        stride: usize,
        padding: usize,
        calibration: &[&Tensor],
        params: MacroParams,
        faults: Option<LayerFaults>,
    ) -> Self {
        assert_eq!(weight.ndim(), 4, "weight must be (OC, C, k, k)");
        let (oc, c, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
        let patch = c * k * k;
        let pc = PerChannelQuant::quantize(weight, params.weight_bits);
        let dequant = Dequant::from_quant(&pc, oc, patch);
        let program = ProgramSpec {
            kind,
            params,
            outs: oc,
            ins: patch,
            codes: pc.values,
            faults,
        };
        let engine = program.program();
        let act_params = calibrate_affine(calibration, params.act_bits);
        CimConv2d {
            engine,
            dequant,
            act_params,
            geom: Conv2dGeometry {
                in_channels: c,
                kernel: k,
                stride,
                padding,
            },
            out_channels: oc,
            par_tiles: 1,
            program,
        }
    }

    /// Sets the target tile count the layer decomposes its output
    /// positions into (see [`CimConv2d::tile_range_iter`]). The graph
    /// compiler derives this from the layer's placement (how many macro
    /// clusters of the mesh — or of its chiplet shard — serve the layer).
    /// The tiles are the width the modelled intra-sample latency spreads
    /// the layer over; the host walks them serially, in order. The output
    /// bits and the event counters do not depend on the hint; the f64
    /// energy/latency fold follows the tile order.
    pub fn set_tile_hint(&mut self, tiles: usize) {
        self.par_tiles = tiles.max(1);
    }

    /// The contiguous position ranges `forward` folds over: `positions`
    /// output pixels split into (at most) the hinted tile count of
    /// near-equal chunks, in position order.
    pub fn tile_range_iter(&self, positions: usize) -> impl Iterator<Item = (usize, usize)> {
        split_range_iter(positions, self.par_tiles)
    }

    /// Number of tiles [`CimConv2d::tile_range_iter`] decomposes
    /// `positions` into, without walking them.
    pub fn tile_count(&self, positions: usize) -> usize {
        if positions == 0 {
            0
        } else {
            self.par_tiles.clamp(1, positions)
        }
    }

    /// Number of physical subarrays programmed (0 on the software
    /// reference backend).
    pub fn subarrays(&self) -> usize {
        self.engine.subarrays_used()
    }

    /// The execution path this layer currently runs on.
    pub fn backend_name(&self) -> &'static str {
        self.engine.backend_name()
    }

    /// Enables or disables the backend's popcount fast path where one
    /// exists (see [`yoloc_cim::macro_model::RomMvm::set_fast_path`]).
    /// Disabling it forces hardware backends through the cell-accurate
    /// analog reference path.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.engine.set_fast_path(enabled);
    }

    /// Moves a fault-aware layer onto new physical subarrays and
    /// re-programs its engine (the repair path after a subarray dies).
    /// No-op on layers compiled without a fault record.
    pub(crate) fn set_fault_ids(&mut self, phys_ids: &[u64]) {
        if let Some(lf) = &mut self.program.faults {
            lf.phys_ids = phys_ids.to_vec();
            self.engine = self.program.program();
        }
    }

    /// Lowers `x` (`(N, C, H, W)`) to its im2col activation matrix — the
    /// shared input every tile of this layer reads. Exposed so the
    /// staging cost can be measured on its own.
    pub fn lower(&self, x: &Tensor) -> Tensor {
        im2col(x, &self.geom)
    }

    /// Output spatial dims for an `(H, W)` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        self.geom.output_hw(h, w)
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Quantizes positions `lo..hi` of a patch-major `(patch, positions)`
    /// matrix into `scratch.codes` and batches them through the backend
    /// into `scratch.accs`, merging the tile's statistics (folded from
    /// zero in vector order) into `stats`.
    ///
    /// The staging layout follows the backend's
    /// [`MvmBackend::batch_layout`] choice. The transposed panel is the
    /// natural fit for the patch-major im2col matrix: each activation
    /// row `r` quantizes the *contiguous* slice `cols[r*positions +
    /// lo..hi]` straight into its panel lane — one pass, no
    /// quantize-then-repack, and no strided gather (which is what the
    /// vector-major staging below pays per position).
    #[allow(clippy::too_many_arguments)] // one tile's full dataflow, all borrowed
    fn run_tile<R: Rng + ?Sized>(
        &self,
        cols: &[f32],
        positions: usize,
        lo: usize,
        hi: usize,
        stats: &mut MvmStats,
        scratch: &mut CimScratch,
        rng: &mut R,
    ) {
        let patch = self.geom.patch_len();
        let count = hi - lo;
        scratch.accs.clear();
        scratch.accs.resize(count * self.out_channels, 0);
        match self.engine.batch_layout(count) {
            MatmulLayout::Transposed => {
                let n_pad = transposed_pad(count);
                scratch.codes.clear();
                scratch.codes.resize(patch * n_pad, 0);
                for r in 0..patch {
                    let src = &cols[r * positions + lo..r * positions + hi];
                    let lane = &mut scratch.codes[r * n_pad..r * n_pad + count];
                    for (c, &v) in lane.iter_mut().zip(src) {
                        *c = self.act_params.quantize_value(v);
                    }
                }
                self.engine.mvm_batch_transposed(
                    &scratch.codes,
                    count,
                    n_pad,
                    &mut scratch.accs,
                    stats,
                    &mut scratch.mvm,
                    &mut DynRng(rng),
                );
            }
            MatmulLayout::RowMajor => {
                scratch.codes.clear();
                for pos in lo..hi {
                    for r in 0..patch {
                        scratch
                            .codes
                            .push(self.act_params.quantize_value(cols[r * positions + pos]));
                    }
                }
                self.engine.mvm_batch(
                    &scratch.codes,
                    count,
                    &mut scratch.accs,
                    stats,
                    &mut scratch.mvm,
                    &mut DynRng(rng),
                );
            }
        }
    }

    /// Arena forward: runs the convolution on a raw row-major
    /// `(n, C, h, w)` buffer, writing the dequantized `(n, OC, OH, OW)`
    /// feature map into `out` using only `scratch` storage. The output
    /// positions are walked in [`CimConv2d::tile_range_iter`] order, each
    /// tile's statistics folded from zero and then merged, so the f64
    /// energy/latency sums follow the placement's tile decomposition.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the given dimensions.
    #[allow(clippy::too_many_arguments)] // raw-buffer entry: data + dims + staging
    pub fn forward_in<R: Rng + ?Sized>(
        &self,
        x: &[f32],
        n: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
        scratch: &mut CimScratch,
        rng: &mut R,
    ) -> MvmStats {
        let (oh, ow) = self.geom.output_hw(h, w);
        assert_eq!(out.len(), n * self.out_channels * oh * ow, "output length");
        let mut cols = std::mem::take(&mut scratch.cols);
        let (_, positions) = im2col_into(x, n, h, w, &self.geom, &mut cols);
        let mut stats = MvmStats::default();
        for (lo, hi) in self.tile_range_iter(positions) {
            let mut tile_stats = MvmStats::default();
            self.run_tile(&cols, positions, lo, hi, &mut tile_stats, scratch, rng);
            stats.merge(&tile_stats);
            // Dequantize and scatter, position-major, into the
            // `(n, OC, OH, OW)` output map.
            for (v, acc) in scratch.accs[..(hi - lo) * self.out_channels]
                .chunks_exact(self.out_channels)
                .enumerate()
            {
                let pos = lo + v;
                let ni = pos / (oh * ow);
                let p = pos % (oh * ow);
                for (o, &a) in acc.iter().enumerate() {
                    out[((ni * self.out_channels + o) * oh + p / ow) * ow + p % ow] =
                        self.dequant.value(o, a, &self.act_params);
                }
            }
        }
        scratch.cols = cols;
        stats
    }

    /// Runs the convolution on `x` (`(N, C, H, W)`), returning the output
    /// feature map and the accumulated backend statistics.
    ///
    /// Allocating wrapper over [`CimConv2d::forward_in`]: the same tile
    /// walk and statistics fold, so the two agree bit for bit.
    #[must_use = "dropping the result discards the layer output and its measured statistics"]
    pub fn forward<R: Rng + ?Sized>(&self, x: &Tensor, rng: &mut R) -> (Tensor, MvmStats) {
        assert_eq!(x.ndim(), 4, "input must be (N, C, H, W)");
        assert_eq!(x.shape()[1], self.geom.in_channels, "channel mismatch");
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.geom.output_hw(h, w);
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let stats = self.forward_in(
            x.data(),
            n,
            h,
            w,
            out.data_mut(),
            &mut CimScratch::new(),
            rng,
        );
        (out, stats)
    }
}

/// Splits `0..len` into (at most) `parts` contiguous near-equal ranges in
/// order; empty when `len == 0`.
pub fn split_range_iter(len: usize, parts: usize) -> impl Iterator<Item = (usize, usize)> {
    let parts = if len == 0 { 0 } else { parts.clamp(1, len) };
    let base = len.checked_div(parts).unwrap_or(0);
    let rem = len.checked_rem(parts).unwrap_or(0);
    let mut lo = 0;
    (0..parts).map(move |i| {
        let hi = lo + base + usize::from(i < rem);
        let range = (lo, hi);
        lo = hi;
        range
    })
}

/// A fully-connected layer compiled onto an MVM backend (the prediction
/// head / classifier path of Fig. 9, always SRAM-CiM in the paper).
pub struct CimLinear {
    engine: Box<dyn MvmBackend>,
    dequant: Dequant,
    bias: Vec<f32>,
    /// Activation quantization parameters.
    pub act_params: QuantParams,
    outs: usize,
    ins: usize,
    /// Compile-time programming record, kept for plan serialization.
    program: ProgramSpec,
}

impl CimLinear {
    /// Compiles `weight` (`(outs, ins)`) with an optional bias vector onto
    /// the default popcount backend; see [`CimLinear::compile_on`].
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-2 or the bias length mismatches.
    pub fn compile(
        weight: &Tensor,
        bias: Option<&[f32]>,
        calibration: &[&Tensor],
        params: MacroParams,
    ) -> Self {
        Self::compile_on(BackendKind::Popcount, weight, bias, calibration, params)
    }

    /// Compiles onto an explicitly chosen backend. The bias is applied
    /// digitally after dequantization (biases are never stored in the
    /// arrays; see `mapping.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-2 or the bias length mismatches.
    pub fn compile_on(
        kind: BackendKind,
        weight: &Tensor,
        bias: Option<&[f32]>,
        calibration: &[&Tensor],
        params: MacroParams,
    ) -> Self {
        Self::compile_on_with(kind, weight, bias, calibration, params, None)
    }

    /// [`CimLinear::compile_on`] with an optional fault-injection
    /// record (the graph compiler's entry when the deployment carries a
    /// fault map).
    pub(crate) fn compile_on_with(
        kind: BackendKind,
        weight: &Tensor,
        bias: Option<&[f32]>,
        calibration: &[&Tensor],
        params: MacroParams,
        faults: Option<LayerFaults>,
    ) -> Self {
        assert_eq!(weight.ndim(), 2, "weight must be (outs, ins)");
        let (outs, ins) = (weight.shape()[0], weight.shape()[1]);
        let pc = PerChannelQuant::quantize(weight, params.weight_bits);
        let dequant = Dequant::from_quant(&pc, outs, ins);
        let bias = match bias {
            Some(b) => {
                assert_eq!(b.len(), outs, "bias length mismatch");
                b.to_vec()
            }
            None => vec![0.0; outs],
        };
        let program = ProgramSpec {
            kind,
            params,
            outs,
            ins,
            codes: pc.values,
            faults,
        };
        CimLinear {
            engine: program.program(),
            dequant,
            bias,
            act_params: calibrate_affine(calibration, params.act_bits),
            outs,
            ins,
            program,
        }
    }

    /// Output features.
    pub fn outs(&self) -> usize {
        self.outs
    }

    /// Number of physical subarrays programmed.
    pub fn subarrays(&self) -> usize {
        self.engine.subarrays_used()
    }

    /// The execution path this layer currently runs on.
    pub fn backend_name(&self) -> &'static str {
        self.engine.backend_name()
    }

    /// Enables or disables the backend's popcount fast path.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.engine.set_fast_path(enabled);
    }

    /// Moves a fault-aware layer onto new physical subarrays and
    /// re-programs its engine (the repair path after a subarray dies).
    /// No-op on layers compiled without a fault record.
    pub(crate) fn set_fault_ids(&mut self, phys_ids: &[u64]) {
        if let Some(lf) = &mut self.program.faults {
            lf.phys_ids = phys_ids.to_vec();
            self.engine = self.program.program();
        }
    }

    /// Runs the layer on `feats` (`(N, ins)`) through the backend's
    /// tile-granular entry (the whole batch as one tile), returning the
    /// output and the layer's statistics folded from zero **in sample
    /// order** — the caller merges them into its accumulator exactly once,
    /// so serial and batched executions perform the same reduction.
    ///
    /// # Panics
    ///
    /// Panics if `feats` is not `(N, ins)`.
    #[must_use = "dropping the result discards the layer output and its measured statistics"]
    pub fn forward<R: Rng + ?Sized>(&self, feats: &Tensor, rng: &mut R) -> (Tensor, MvmStats) {
        assert_eq!(feats.ndim(), 2, "features must be (N, ins)");
        let n = feats.shape()[0];
        let mut out = Tensor::zeros(&[n, self.outs]);
        let stats = self.forward_in(feats.data(), n, out.data_mut(), &mut CimScratch::new(), rng);
        (out, stats)
    }

    /// Arena forward: runs the layer on a raw row-major `(n, ins)` buffer,
    /// writing the biased, dequantized `(n, outs)` result into `out` using
    /// only `scratch` storage — the allocation-free counterpart of
    /// [`CimLinear::forward`] (the whole batch as one tile, statistics
    /// folded from zero in sample order), bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the given dimensions.
    pub fn forward_in<R: Rng + ?Sized>(
        &self,
        feats: &[f32],
        n: usize,
        out: &mut [f32],
        scratch: &mut CimScratch,
        rng: &mut R,
    ) -> MvmStats {
        assert_eq!(feats.len(), n * self.ins, "feature width mismatch");
        assert_eq!(out.len(), n * self.outs, "output length mismatch");
        scratch.accs.clear();
        scratch.accs.resize(n * self.outs, 0);
        let mut stats = MvmStats::default();
        match self.engine.batch_layout(n) {
            MatmulLayout::Transposed => {
                // Features arrive sample-major, so quantize straight into
                // the panel's strided lanes — still a single pass, no
                // quantize-then-repack.
                let n_pad = transposed_pad(n);
                scratch.codes.clear();
                scratch.codes.resize(self.ins * n_pad, 0);
                for (v, row) in feats.chunks_exact(self.ins).enumerate() {
                    for (i, &f) in row.iter().enumerate() {
                        scratch.codes[i * n_pad + v] = self.act_params.quantize_value(f);
                    }
                }
                self.engine.mvm_batch_transposed(
                    &scratch.codes,
                    n,
                    n_pad,
                    &mut scratch.accs,
                    &mut stats,
                    &mut scratch.mvm,
                    &mut DynRng(rng),
                );
            }
            MatmulLayout::RowMajor => {
                scratch.codes.clear();
                scratch
                    .codes
                    .extend(feats.iter().map(|&v| self.act_params.quantize_value(v)));
                self.engine.mvm_batch(
                    &scratch.codes,
                    n,
                    &mut scratch.accs,
                    &mut stats,
                    &mut scratch.mvm,
                    &mut DynRng(rng),
                );
            }
        }
        for (ni, acc) in scratch.accs.chunks_exact(self.outs).enumerate() {
            for (o, &a) in acc.iter().enumerate() {
                out[ni * self.outs + o] = self.dequant.value(o, a, &self.act_params) + self.bias[o];
            }
        }
        stats
    }
}

/// Serialization of a compiled conv layer: the programming record plus
/// the digital dequantization state. The engine is rebuilt from the
/// record on deserialization (`row_sums` and `channel_scales` are stored
/// rather than recomputed so the digital path is byte-for-byte the
/// compile-time state). Runtime [`CimConv2d::set_fast_path`] toggles are
/// *not* captured — a deserialized layer starts on its backend's default
/// path, exactly like a freshly compiled one.
impl Serialize for CimConv2d {
    fn to_json(&self) -> Json {
        Json::obj([
            ("program", self.program.to_json()),
            ("channel_scales", self.dequant.channel_scales.to_json()),
            ("row_sums", self.dequant.row_sums.to_json()),
            ("act_params", quant_params_to_json(&self.act_params)),
            ("geom", geom_to_json(&self.geom)),
            ("out_channels", self.out_channels.to_json()),
            ("par_tiles", self.par_tiles.to_json()),
        ])
    }
}

impl Deserialize for CimConv2d {
    fn from_value(v: &Json) -> Result<Self, String> {
        let program: ProgramSpec = json_field(v, "program")?;
        let engine = program.program();
        Ok(CimConv2d {
            engine,
            dequant: Dequant {
                channel_scales: json_field(v, "channel_scales")?,
                row_sums: json_field(v, "row_sums")?,
            },
            act_params: quant_params_from(
                v.get("act_params").ok_or("missing field \"act_params\"")?,
            )
            .map_err(|e| format!("act_params: {e}"))?,
            geom: geom_from(v.get("geom").ok_or("missing field \"geom\"")?)
                .map_err(|e| format!("geom: {e}"))?,
            out_channels: json_field(v, "out_channels")?,
            par_tiles: json_field(v, "par_tiles")?,
            program,
        })
    }
}

/// See the [`CimConv2d`] serialization notes; identical contract.
impl Serialize for CimLinear {
    fn to_json(&self) -> Json {
        Json::obj([
            ("program", self.program.to_json()),
            ("channel_scales", self.dequant.channel_scales.to_json()),
            ("row_sums", self.dequant.row_sums.to_json()),
            ("bias", self.bias.to_json()),
            ("act_params", quant_params_to_json(&self.act_params)),
            ("outs", self.outs.to_json()),
            ("ins", self.ins.to_json()),
        ])
    }
}

impl Deserialize for CimLinear {
    fn from_value(v: &Json) -> Result<Self, String> {
        let program: ProgramSpec = json_field(v, "program")?;
        let engine = program.program();
        Ok(CimLinear {
            engine,
            dequant: Dequant {
                channel_scales: json_field(v, "channel_scales")?,
                row_sums: json_field(v, "row_sums")?,
            },
            bias: json_field(v, "bias")?,
            act_params: quant_params_from(
                v.get("act_params").ok_or("missing field \"act_params\"")?,
            )
            .map_err(|e| format!("act_params: {e}"))?,
            outs: json_field(v, "outs")?,
            ins: json_field(v, "ins")?,
            program,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use yoloc_tensor::ops::conv2d_reference;

    #[test]
    fn cim_conv_matches_software_within_quantization() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[1, 3, 6, 6], 0.0, 1.0, &mut rng);
        let mut params = MacroParams::rom_paper();
        params.subarrays = 2;
        let conv = CimConv2d::compile(&w, 1, 1, &[&x], params);
        let (y, stats) = conv.forward(&x, &mut rng);
        let expect = conv2d_reference(&x, &w, None, 1, 1);
        let mag = expect.abs_max().max(1e-6);
        for (a, b) in y.data().iter().zip(expect.data()) {
            assert!(
                (a - b).abs() / mag < 0.03,
                "CiM {a} vs software {b} (mag {mag})"
            );
        }
        assert!(stats.analog_evaluations > 0);
        assert!(stats.energy_pj > 0.0);
    }

    #[test]
    fn noise_degrades_gracefully() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[1, 3, 5, 5], 0.0, 1.0, &mut rng);
        let mut params = MacroParams::rom_paper();
        params.noise_sigma = 0.3;
        let conv = CimConv2d::compile(&w, 1, 1, &[&x], params);
        let (y, _) = conv.forward(&x, &mut rng);
        let expect = conv2d_reference(&x, &w, None, 1, 1);
        let mag = expect.abs_max().max(1e-6);
        // Noisy analog readout: bounded but nonzero error.
        let mut max_rel = 0.0f32;
        for (a, b) in y.data().iter().zip(expect.data()) {
            max_rel = max_rel.max((a - b).abs() / mag);
        }
        assert!(max_rel > 0.0, "noise should perturb the output");
        assert!(max_rel < 0.5, "noise error out of control: {max_rel}");
    }

    #[test]
    fn conv_backends_agree_at_paper_design_point() {
        // The per-layer backend selection point: analog, popcount and
        // software deployments of the same conv agree bit-for-bit at the
        // paper's exact design point.
        let mut rng = StdRng::seed_from_u64(3);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let params = MacroParams::rom_paper();
        let outputs: Vec<Tensor> = [
            BackendKind::Analog,
            BackendKind::Popcount,
            BackendKind::Software,
        ]
        .into_iter()
        .map(|kind| {
            let conv = CimConv2d::compile_on(kind, &w, 1, 1, &[&x], params);
            conv.forward(&x, &mut rng).0
        })
        .collect();
        assert_eq!(outputs[0].data(), outputs[1].data());
        assert_eq!(outputs[1].data(), outputs[2].data());
    }

    #[test]
    fn cim_linear_matches_software_within_quantization() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = Tensor::randn(&[5, 24], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[3, 24], 0.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..5).map(|i| i as f32 * 0.1).collect();
        let linear = CimLinear::compile(&w, Some(&bias), &[&x], MacroParams::sram_paper());
        let (y, stats) = linear.forward(&x, &mut rng);
        assert!(stats.adc_conversions > 0);
        // Float reference: y = W x + b.
        for ni in 0..3 {
            for (o, b) in bias.iter().enumerate() {
                let expect: f32 = (0..24).map(|i| w.at(&[o, i]) * x.at(&[ni, i])).sum::<f32>() + b;
                let got = y.at(&[ni, o]);
                assert!((got - expect).abs() < 0.05, "{got} vs {expect}");
            }
        }
    }

    #[test]
    fn cim_linear_software_backend_zero_stats() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = Tensor::randn(&[4, 16], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[2, 16], 0.0, 1.0, &mut rng);
        let linear = CimLinear::compile_on(
            BackendKind::Software,
            &w,
            None,
            &[&x],
            MacroParams::sram_paper(),
        );
        assert_eq!(linear.subarrays(), 0);
        assert_eq!(linear.backend_name(), "software");
        let (_, stats) = linear.forward(&x, &mut rng);
        assert_eq!(stats, MvmStats::default());
    }

    #[test]
    fn program_spec_rejects_what_the_programmer_cannot_store() {
        // A compiled layer's record round-trips; each hostile edit of it
        // deserializes to an Err instead of panicking in the programmer.
        fn edited(spec: &Json, key: &str, edit: impl FnOnce(&mut Json)) -> Json {
            let mut v = spec.clone();
            if let Json::Obj(fields) = &mut v {
                if let Some((_, x)) = fields.iter_mut().find(|(k, _)| k == key) {
                    edit(x);
                }
            }
            v
        }
        let mut rng = StdRng::seed_from_u64(6);
        let w = Tensor::randn(&[4, 16], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[2, 16], 0.0, 1.0, &mut rng);
        let linear = CimLinear::compile(&w, None, &[&x], MacroParams::rom_paper());
        let good = linear.program.to_json();
        assert_eq!(ProgramSpec::from_value(&good), Ok(linear.program.clone()));
        let cases = [
            (
                edited(&good, "params", |p| {
                    *p = edited(p, "weight_bits", |b| *b = Json::UInt(0));
                }),
                "unsupported weight_bits 0",
            ),
            (
                edited(&good, "outs", |o| *o = Json::UInt(u64::MAX)),
                "matrix overflows",
            ),
            (
                edited(&good, "codes", |c| {
                    if let Json::Arr(codes) = c {
                        codes.pop();
                    }
                }),
                "63 codes for a 4 x 16 matrix",
            ),
            (
                edited(&good, "codes", |c| {
                    if let Json::Arr(codes) = c {
                        codes[0] = Json::Int(-129);
                    }
                }),
                "code -129 outside signed 8-bit range",
            ),
        ];
        for (bad, want) in cases {
            let err = ProgramSpec::from_value(&bad).expect_err(want);
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn split_ranges_covers_exactly() {
        let split = |len, parts| split_range_iter(len, parts).collect::<Vec<_>>();
        assert_eq!(split(0, 4), vec![]);
        assert_eq!(split(5, 1), vec![(0, 5)]);
        assert_eq!(split(5, 2), vec![(0, 3), (3, 5)]);
        assert_eq!(split(3, 8), vec![(0, 1), (1, 2), (2, 3)]);
        for (len, parts) in [(17usize, 4usize), (64, 16), (7, 7)] {
            let r = split(len, parts);
            assert_eq!(r.first().unwrap().0, 0);
            assert_eq!(r.last().unwrap().1, len);
            assert!(r.windows(2).all(|w| w[0].1 == w[1].0));
        }
    }

    #[test]
    fn tiled_forward_bit_identical_for_any_hint() {
        // The tile decomposition must not change a single output bit or
        // event counter relative to the single-tile walk: the hint only
        // sets the modelled lane width. The tile count matches the walk.
        let mut rng = StdRng::seed_from_u64(9);
        let w = Tensor::randn(&[6, 3, 3, 3], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let params = MacroParams::rom_paper();
        let mut conv = CimConv2d::compile(&w, 1, 1, &[&x], params);
        let (base, base_stats) = conv.forward(&x, &mut rng);
        for tiles in [2usize, 5, 16, 1000] {
            conv.set_tile_hint(tiles);
            let (y, s) = conv.forward(&x, &mut rng);
            assert_eq!(base.data(), y.data(), "tiles = {tiles}");
            assert_eq!(base_stats.analog_evaluations, s.analog_evaluations);
            assert_eq!(base_stats.adc_conversions, s.adc_conversions);
            assert_eq!(base_stats.wl_pulses, s.wl_pulses);
            let positions = 2 * 8 * 8;
            assert_eq!(
                conv.tile_count(positions),
                conv.tile_range_iter(positions).count()
            );
        }
    }
}
