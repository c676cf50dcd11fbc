//! Quantized convolution layers executed on the CiM macro.
//!
//! This is the deployment path of Fig. 9: a conv's weights are quantized
//! per-channel to 8 bits as an `(out_ch, in_ch*k*k)` matrix and
//! programmed onto a [`RomMvm`], whose one datapath its [`BackendKind`]
//! helps pick (the popcount kernels, or the analog reference walk). A
//! fully-connected layer ([`CimLinear`]) is the same layer: a 1x1 conv
//! over a 1x1 map of its input features, whose matrix is its
//! `(out_features, in_features)` weight as it is, plus a bias. At run time
//! activations are affine-quantized, driven through the engine, and the
//! results are dequantized with zero-point correction. With the paper's 5-bit-ADC
//! design point the integer arithmetic is exact, so the only deviation
//! from a software layer is the quantization itself — the basis for the
//! paper's "almost no accuracy loss" claim, which the integration tests
//! verify end to end.

use rand::Rng;

use yoloc_cim::backend::{BackendKind, MvmScratch};
use yoloc_cim::faults::{FaultContext, FaultPlan, FaultSpec};
use yoloc_cim::kernels::{transposed_pad, MatmulLayout};
use yoloc_cim::macro_model::{MacroParams, MvmStats, RomMvm};
use yoloc_quant::{calibrate_affine, PerChannelQuant, QuantParams};
use yoloc_tensor::ops::{im2col, Conv2dGeometry, PatchRows, ShiftedPlanes};
use yoloc_tensor::Tensor;

use serde::json::Value as Json;
use serde::{Deserialize, Serialize};

/// Reusable staging for one CiM layer execution: the layer input's `u8`
/// activation codes, in the layout the engine reads, the `i32` MVM
/// accumulators, and the backend's bit-plane staging and event counters.
///
/// One `CimScratch` serves every layer of a deployment in turn (layers
/// run serially, and each call fully overwrites what it uses), which is
/// how the arena executor keeps steady-state inference allocation-free:
/// every buffer grows on first use — to the largest conv's block — and
/// keeps its capacity across ops, samples and repeated `infer` calls.
#[derive(Debug, Default)]
pub struct CimScratch {
    /// The layer's whole input quantized in one pass at the engine's
    /// kernel tier ([`RomMvm::quantize_codes`]), row-major: a conv's
    /// `(n, C, h, w)` map (a linear layer's `(n, ins)` features are its
    /// conv's `(n, ins, 1, 1)` map). Every lowering after that pass moves
    /// bytes.
    input_codes: Vec<u8>,
    /// The zero-point-padded codes a conv lowering copies from: a
    /// row-major conv's whole padded map ([`PatchRows`]), a transposed
    /// conv's one padded input row at a time ([`ShiftedPlanes`]).
    padded: Vec<u8>,
    /// The activation codes the engine reads, in its
    /// [`RomMvm::batch_layout`] for the block: a conv's im2col rows
    /// vector-major, a transposed conv's column-shifted code planes
    /// ([`ShiftedPlanes`]) plus zero lanes the SIMD tiers may read past
    /// the last tap's run.
    codes: Vec<u8>,
    /// Where each tap's lanes start in the planes of a transposed conv:
    /// one offset per im2col row, the row-offset table
    /// [`RomMvm::run_batch_transposed`] reads the planes through.
    tap_offsets: Vec<usize>,
    /// Integer accumulators of every output position, channel-major
    /// (`accs[o * positions + position]`, see [`yoloc_cim::backend`]).
    accs: Vec<i32>,
    /// Bit-plane staging for [`RomMvm::run_batch`], and the
    /// per-position event counters [`RomMvm::fold_stats`] folds the
    /// modelled tiles from.
    mvm: MvmScratch,
}

impl CimScratch {
    /// A fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-channel dequantization state of a CiM layer: symmetric weight
/// scales plus weight-code row sums for zero-point correction.
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

    /// The dequantizer of output channel `o` under the activation
    /// parameters `act`.
    #[inline]
    fn channel(&self, o: usize, act: &QuantParams) -> ChannelDequant {
        ChannelDequant {
            mul: self.channel_scales[o] * act.scale,
            // `zero_point` is a code of the engine's `act_bits` and the
            // row sum is the codes' (checked when a plan loads), so the
            // product is bounded like an accumulator, which
            // `RomMvm::program` proved fits an `i32`.
            offset: (i64::from(act.zero_point) * self.row_sums[o]) as i32,
        }
    }
}

/// The dequantizer of one output channel: `mul * (acc - offset) as f32`
/// with `mul = channel_scale * act.scale` and
/// `offset = zero_point * row_sum`, the same arithmetic as evaluating
/// `channel_scale * act.scale * (acc - zero_point * row_sum) as f32`
/// left to right. `acc - offset` is `sum_i w_i (a_i - zero_point)`, so
/// it fits an `i32` under the same bound as the accumulators, and its
/// `i32 -> f32` cast rounds the integer exactly as an `i64` one would,
/// in one packed instruction per vector on baseline x86-64.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChannelDequant {
    mul: f32,
    offset: i32,
}

impl ChannelDequant {
    /// Dequantizes one accumulator.
    #[inline]
    fn value(self, acc: i32) -> f32 {
        self.mul * (acc - self.offset) as f32
    }

    /// Dequantizes a contiguous run of the channel's accumulators into
    /// `dst`, passing each value through `then` on the way (the identity,
    /// or an elementwise step fused into the same loop).
    #[inline]
    pub(crate) fn run_into(self, accs: &[i32], dst: &mut [f32], then: impl Fn(f32) -> f32) {
        debug_assert_eq!(accs.len(), dst.len());
        for (d, &a) in dst.iter_mut().zip(accs) {
            *d = then(self.value(a));
        }
    }
}

/// Everything needed to re-program a layer's engine deterministically:
/// the compile-time execution path, macro parameters and quantized
/// weight codes. Retained by compiled layers so a plan can be serialized
/// and rebuilt bit-identically (the engine owns un-walkable state like
/// the analog array, so layers re-program it on deserialization instead
/// of persisting it).
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
/// — a supported weight width, activation codes that fit a `u8`, event
/// counts that fit their `u32`, accumulators that fit an `i32`, one code
/// per matrix cell, every code in the signed range — so a plan whose
/// checksum is valid but whose contents are hostile is an error (a
/// plan-cache miss), not a panic.
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
        let p = &spec.params;
        if p.act_bits > 8 {
            return Err(format!("{}-bit activation codes do not fit u8", p.act_bits));
        }
        if !p.event_counts_fit(spec.ins) {
            return Err(format!(
                "event counts of {} inputs ({}-bit codes, {}-bit chunks) do not fit u32",
                spec.ins, p.act_bits, p.chunk_bits
            ));
        }
        if !p.accumulators_fit(spec.ins) {
            return Err(format!(
                "accumulators of {} inputs ({}-bit codes, {bits}-bit weights) do not fit i32",
                spec.ins, p.act_bits
            ));
        }
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
    /// Reads a layer's dequantization tables for this program: one
    /// channel scale and one row sum per output, and every row sum the
    /// sum of its row of codes (what the compiler stored), which bounds
    /// `zero_point * row_sum` like an accumulator.
    fn dequant_from(&self, v: &Json) -> Result<Dequant, String> {
        let channel_scales = per_output(
            json_field(v, "channel_scales")?,
            "channel_scales",
            self.outs,
        )?;
        let row_sums: Vec<i64> = per_output(json_field(v, "row_sums")?, "row_sums", self.outs)?;
        for (o, &sum) in row_sums.iter().enumerate() {
            let row = &self.codes[o * self.ins..(o + 1) * self.ins];
            let codes: i64 = row.iter().map(|&c| i64::from(c)).sum();
            if sum != codes {
                return Err(format!(
                    "row_sums: output {o} stores {sum}, its codes sum to {codes}"
                ));
            }
        }
        Ok(Dequant {
            channel_scales,
            row_sums,
        })
    }

    /// Programs the engine for the record's backend kind through its
    /// faults (none programs the pristine fabric).
    fn program(&self) -> Box<RomMvm> {
        let plan = FaultPlan::new(self.faults.as_ref().map_or(FaultSpec::none(), |lf| lf.spec));
        let ctx = match &self.faults {
            None => FaultContext::bare(&plan),
            Some(lf) => FaultContext {
                plan: &plan,
                phys_ids: &lf.phys_ids,
                link_slowdown: lf.link_slowdown,
            },
        };
        Box::new(RomMvm::program_with_faults(
            self.kind,
            self.params,
            &self.codes,
            self.outs,
            self.ins,
            &ctx,
        ))
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

/// Reads a layer's activation parameters and proves what quantizing
/// with them relies on: a width in `2..=16`, a finite positive scale, a
/// zero point inside the code range, and codes the programmed engine can
/// drive (unsigned, at most its `act_bits` wide).
fn act_params_from(v: &Json, program: &ProgramSpec) -> Result<QuantParams, String> {
    let v = v.get("act_params").ok_or("missing field \"act_params\"")?;
    let p = QuantParams {
        scale: json_field(v, "scale")?,
        zero_point: json_field(v, "zero_point")?,
        bits: json_field(v, "bits")?,
        symmetric: json_field(v, "symmetric")?,
    };
    let err = |what: String| Err(format!("act_params: {what}"));
    if !(2..=16).contains(&p.bits) {
        return err(format!("bits {} outside 2..=16", p.bits));
    }
    if !(p.scale.is_finite() && p.scale > 0.0) {
        return err(format!("scale {} is not finite and positive", p.scale));
    }
    if !(p.qmin()..=p.qmax()).contains(&p.zero_point) {
        return err(format!(
            "zero_point {} outside {}..={}",
            p.zero_point,
            p.qmin(),
            p.qmax()
        ));
    }
    if p.symmetric || p.bits > program.params.act_bits {
        return err(format!(
            "codes do not fit the engine's unsigned {}-bit activations",
            program.params.act_bits
        ));
    }
    Ok(p)
}

/// Checks that a per-output table holds one entry per output.
fn per_output<T>(table: Vec<T>, name: &str, outs: usize) -> Result<Vec<T>, String> {
    if table.len() == outs {
        Ok(table)
    } else {
        Err(format!(
            "{name}: {} entries for {outs} outputs",
            table.len()
        ))
    }
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
    engine: Box<RomMvm>,
    dequant: Dequant,
    /// Activation quantization parameters.
    pub act_params: QuantParams,
    geom: Conv2dGeometry,
    out_channels: usize,
    /// Target tile count for [`CimConv2d::tile_range_iter`] (1 = the
    /// whole position range as a single tile). Shapes the statistics
    /// fold only; the host runs every position in one block.
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
        Self::compile_on_with(
            BackendKind::Popcount,
            weight,
            stride,
            padding,
            calibration,
            params,
            None,
        )
    }

    /// [`CimConv2d::compile`] onto an explicitly chosen backend (the
    /// graph compiler's [`CompileOptions::backend`]) with an optional
    /// fault-injection record (when the deployment carries a fault map).
    ///
    /// [`CompileOptions::backend`]: crate::compiler::CompileOptions::backend
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-4.
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
        let geom = Conv2dGeometry {
            in_channels: weight.shape()[1],
            kernel: weight.shape()[2],
            stride,
            padding,
        };
        Self::from_weight(kind, weight, geom, calibration, params, faults)
    }

    /// The one constructor every CiM layer compiles through: quantizes
    /// `weight` per output channel (its first axis; each channel holds
    /// one `in_channels * k * k` patch of `geom`, in im2col row order),
    /// programs the codes onto a `kind` engine under `faults` and
    /// calibrates the activation range on `calibration`.
    fn from_weight(
        kind: BackendKind,
        weight: &Tensor,
        geom: Conv2dGeometry,
        calibration: &[&Tensor],
        params: MacroParams,
        faults: Option<LayerFaults>,
    ) -> Self {
        let outs = weight.shape()[0];
        let patch = geom.in_channels * geom.kernel * geom.kernel;
        assert_eq!(
            weight.len(),
            outs * patch,
            "weight does not fit the geometry"
        );
        let pc = PerChannelQuant::quantize(weight, params.weight_bits);
        let dequant = Dequant::from_quant(&pc, outs, patch);
        let program = ProgramSpec {
            kind,
            params,
            outs,
            ins: patch,
            codes: pc.values,
            faults,
        };
        CimConv2d {
            engine: program.program(),
            dequant,
            act_params: calibrate_affine(calibration, params.act_bits),
            geom,
            out_channels: outs,
            par_tiles: 1,
            program,
        }
    }

    /// Rebuilds a layer from its plan entry `v` around its deserialized
    /// `program`: the dequantization tables and activation parameters
    /// are proved against the program, which re-programs the engine.
    fn from_entry(
        v: &Json,
        program: ProgramSpec,
        geom: Conv2dGeometry,
        par_tiles: usize,
    ) -> Result<Self, String> {
        let dequant = program.dequant_from(v)?;
        let act_params = act_params_from(v, &program)?;
        Ok(CimConv2d {
            engine: program.program(),
            dequant,
            act_params,
            geom,
            out_channels: program.outs,
            par_tiles,
            program,
        })
    }

    /// Sets the target tile count the layer decomposes its output
    /// positions into (see [`CimConv2d::tile_range_iter`]). The graph
    /// compiler derives this from the layer's placement (how many macro
    /// clusters of the mesh — or of its chiplet shard — serve the layer).
    /// The tiles are the width the modelled intra-sample latency spreads
    /// the layer over. The host runs each conv as one block; the tiles
    /// exist only in the statistics fold. The output bits and the event
    /// counters do not depend on the hint; the f64 energy/latency fold
    /// follows the tile order.
    pub fn set_tile_hint(&mut self, tiles: usize) {
        self.par_tiles = tiles.max(1);
    }

    /// The contiguous position ranges `forward` folds the statistics
    /// over: `positions` output pixels split into (at most) the hinted
    /// tile count of near-equal chunks, in position order.
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

    /// Number of physical subarrays programmed.
    pub fn subarrays(&self) -> usize {
        self.engine.subarrays_used()
    }

    /// The execution path this layer currently runs on.
    pub fn backend_name(&self) -> &'static str {
        self.engine.backend_name()
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

    /// Lowers `x` (`(N, C, H, W)`) to its f32 im2col matrix. Exposed so
    /// the cost of a lowering can be measured on its own; it is not a
    /// stage of [`CimConv2d::forward_in`], which quantizes first and then
    /// lowers codes: into [`PatchRows`] for a row-major block, into
    /// [`ShiftedPlanes`] read in place for a transposed one.
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

    /// Quantizes the raw `(n, C, h, w)` input `x` (`dims` is `[n, h, w]`)
    /// and runs all `positions = n * OH * OW` output positions through
    /// the backend in one call, leaving the channel-major accumulators in
    /// `scratch.accs` and one event-counter row per position in
    /// `scratch.mvm`. Padded taps take the code of 0.0.
    ///
    /// The whole input is quantized first, in one contiguous pass
    /// compiled at the engine's kernel tier ([`RomMvm::quantize_codes`]).
    /// A conv whose stride skips input rows (`stride > kernel`) quantizes
    /// rows no tap reads too; at a SIMD tier's width that still costs
    /// less than quantizing the rows it reads one value at a time.
    /// Lowering the codes into the layout the engine's
    /// [`RomMvm::batch_layout`] picks then moves bytes. Row-major: each
    /// position's window is copied from the zero-point-padded code map
    /// into vector-major im2col rows ([`PatchRows`]). Transposed: the
    /// codes fill the conv's [`ShiftedPlanes`], and every tap's lanes
    /// are read in place through its offset. One run covers all samples,
    /// gap lanes between samples' plane blocks included; those are
    /// dropped after the run ([`MvmScratch::keep_runs`], which returns
    /// at once at `n = 1`). Only noiseless engines take the transposed
    /// layout, so no RNG draw lands on a gap lane.
    fn run_block<R: Rng + ?Sized>(
        &self,
        x: &[f32],
        dims: [usize; 3],
        positions: usize,
        scratch: &mut CimScratch,
        rng: &mut R,
    ) {
        let CimScratch {
            input_codes,
            padded,
            codes,
            tap_offsets,
            accs,
            mvm,
        } = scratch;
        input_codes.resize(x.len(), 0);
        self.engine.quantize_codes(&self.act_params, x, input_codes);
        // The code of 0.0; `quantize_codes` proved the layer's codes fit
        // a `u8`.
        let pad = self.act_params.quantize_value(0.0) as u8;
        let outs = self.out_channels;
        // Every backend writes every accumulator, so stale values from an
        // earlier layer need no zeroing.
        match self.engine.batch_layout(positions) {
            MatmulLayout::Transposed => {
                let planes = ShiftedPlanes::new(&self.geom, dims);
                let (lanes, len) = (planes.lanes(), planes.codes());
                // No tap's run ends past the planes, but the SIMD tiers
                // read up to `transposed_pad(lanes)` lanes from each
                // offset: zeros, a valid code, fill the difference.
                codes.truncate(len);
                codes.resize(len + transposed_pad(lanes) - lanes, 0);
                planes.lower_into(input_codes, pad, padded, &mut codes[..len]);
                planes.tap_offsets_into(tap_offsets);
                accs.resize(lanes * outs, 0);
                self.engine
                    .run_batch_transposed(codes, tap_offsets, lanes, accs, mvm, rng);
                mvm.keep_runs(accs, dims[0], planes.period(), planes.positions());
            }
            MatmulLayout::RowMajor => {
                let rows = PatchRows::new(&self.geom, dims);
                codes.resize(rows.codes(), 0);
                rows.lower_into(input_codes, pad, padded, codes);
                accs.resize(positions * outs, 0);
                self.engine.run_batch(codes, positions, accs, mvm, rng);
            }
        }
    }

    /// Run step of the arena forward: quantizes the raw row-major
    /// `(n, C, h, w)` input, stages all `n * OH * OW` output positions
    /// and runs them through the backend in one batch call (see
    /// [`CimConv2d::run_block`]), leaving the channel-major accumulators
    /// in `scratch` for [`CimConv2d::channel_rows`]. The modelled tile
    /// split is replayed only in the returned statistics: each
    /// [`CimConv2d::tile_range_iter`] tile is folded from zero in vector
    /// order and then merged, so the f64 energy/latency sums follow the
    /// placement's tile decomposition.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n * C * h * w`.
    pub(crate) fn run_in<R: Rng + ?Sized>(
        &self,
        x: &[f32],
        n: usize,
        h: usize,
        w: usize,
        scratch: &mut CimScratch,
        rng: &mut R,
    ) -> MvmStats {
        let (oh, ow) = self.geom.output_hw(h, w);
        assert_eq!(x.len(), n * self.geom.in_channels * h * w, "input length");
        let positions = n * oh * ow;
        self.run_block(x, [n, h, w], positions, scratch, rng);
        let mut stats = MvmStats::default();
        for (lo, hi) in self.tile_range_iter(positions) {
            let mut tile_stats = MvmStats::default();
            self.engine
                .fold_stats(&scratch.mvm, lo..hi, &mut tile_stats);
            stats.merge(&tile_stats);
        }
        stats
    }

    /// Every output channel's accumulators from the last
    /// [`CimConv2d::run_in`], in channel order — each one contiguous row
    /// over every output position, sample by sample — with the channel's
    /// dequantizer.
    pub(crate) fn channel_rows<'s>(
        &'s self,
        scratch: &'s CimScratch,
    ) -> impl Iterator<Item = (&'s [i32], ChannelDequant)> + 's {
        let positions = scratch.accs.len() / self.out_channels.max(1);
        scratch
            .accs
            .chunks_exact(positions.max(1))
            .enumerate()
            .map(|(o, row)| (row, self.dequant.channel(o, &self.act_params)))
    }

    /// Arena forward: runs the convolution on a raw row-major
    /// `(n, C, h, w)` buffer, writing the dequantized `(n, OC, OH, OW)`
    /// feature map into `out` using only `scratch` storage. Each input
    /// element is quantized once, all `n * OH * OW` output positions run
    /// through the backend in one batch call, and each output channel's
    /// contiguous accumulator row is dequantized plane by plane into
    /// place. The modelled tile split is replayed only in the statistics:
    /// each [`CimConv2d::tile_range_iter`] tile is folded from zero in
    /// vector order and then merged, so the f64 energy/latency sums
    /// follow the placement's tile decomposition.
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
        let (plane, oc) = (oh * ow, self.out_channels);
        assert_eq!(out.len(), n * oc * plane, "output length");
        let stats = self.run_in(x, n, h, w, scratch, rng);
        for (o, (accs, dq)) in self.channel_rows(scratch).enumerate() {
            for (ni, accs) in accs.chunks_exact(plane.max(1)).enumerate() {
                let start = (ni * oc + o) * plane;
                dq.run_into(accs, &mut out[start..start + plane], |v| v);
            }
        }
        stats
    }

    /// Runs the convolution on `x` (`(N, C, H, W)`), returning the output
    /// feature map and the accumulated backend statistics.
    ///
    /// Allocating wrapper over [`CimConv2d::forward_in`]: the same batch
    /// call and statistics fold, so the two agree bit for bit.
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

/// The geometry a fully-connected layer of `ins` inputs runs as: a 1x1
/// stride-1 unpadded conv over a 1x1 map of `ins` channels, whose one
/// patch is the `(outs, ins)` weight's row.
fn pointwise(ins: usize) -> Conv2dGeometry {
    Conv2dGeometry {
        in_channels: ins,
        kernel: 1,
        stride: 1,
        padding: 0,
    }
}

/// A fully-connected layer compiled onto the macro (the classifier head
/// of Fig. 9, which the paper maps to SRAM-CiM): a 1x1 [`CimConv2d`]
/// over a 1x1 map of its input features, whose one output position per
/// sample is the layer's MVM, plus a bias added digitally after
/// dequantization (biases are never stored in the arrays; see
/// `mapping.rs`).
pub struct CimLinear {
    pub(crate) conv: CimConv2d,
    bias: Vec<f32>,
}

impl CimLinear {
    /// Compiles `weight` (`(outs, ins)`, quantized as it is: its rows are
    /// the conv's output channels) with an optional bias onto `kind`,
    /// with an optional fault-injection record (the graph compiler's
    /// entry).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-2 or the bias length mismatches.
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
        let bias = match bias {
            Some(b) => {
                assert_eq!(b.len(), outs, "bias length mismatch");
                b.to_vec()
            }
            None => vec![0.0; outs],
        };
        let geom = pointwise(ins);
        CimLinear {
            conv: CimConv2d::from_weight(kind, weight, geom, calibration, params, faults),
            bias,
        }
    }

    /// Output features.
    pub fn outs(&self) -> usize {
        self.conv.out_channels
    }

    /// Runs the layer on `feats` (`(N, ins)`), returning the output and
    /// the layer's statistics.
    ///
    /// # Panics
    ///
    /// Panics if `feats` is not `(N, ins)`.
    #[must_use = "dropping the result discards the layer output and its measured statistics"]
    pub fn forward<R: Rng + ?Sized>(&self, feats: &Tensor, rng: &mut R) -> (Tensor, MvmStats) {
        assert_eq!(feats.ndim(), 2, "features must be (N, ins)");
        let n = feats.shape()[0];
        let mut out = Tensor::zeros(&[n, self.outs()]);
        let stats = self.forward_in(feats.data(), n, out.data_mut(), &mut CimScratch::new(), rng);
        (out, stats)
    }

    /// Arena forward: runs the layer's conv on a raw row-major `(n, ins)`
    /// buffer, an `(n, ins, 1, 1)` map, and writes each sample's biased,
    /// dequantized outputs into `out` (`(n, outs)`) using only `scratch`
    /// storage — the allocation-free counterpart of
    /// [`CimLinear::forward`], bit-identical to it.
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
        let outs = self.outs();
        assert_eq!(out.len(), n * outs, "output length mismatch");
        let stats = self.conv.run_in(feats, n, 1, 1, scratch, rng);
        // Output `o` of every sample is one channel row, written down the
        // sample-major output's column.
        for (o, (accs, dq)) in self.conv.channel_rows(scratch).enumerate() {
            for (ni, &a) in accs.iter().enumerate() {
                out[ni * outs + o] = dq.value(a) + self.bias[o];
            }
        }
        stats
    }
}

/// Serialization of a compiled conv layer: the programming record plus
/// the digital dequantization state. The engine is rebuilt from the
/// record on deserialization (`row_sums` and `channel_scales` are stored
/// rather than recomputed so the digital path is byte-for-byte the
/// compile-time state). The record carries the layer's
/// [`BackendKind`], so a deserialized layer runs on the same execution
/// path as the fresh compile.
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

/// Deserialization proves the digital state against the programming
/// record — one dequantization entry per output, a geometry whose patch
/// is the record's input width, usable activation parameters — so a
/// checksum-valid plan with hostile contents is an error (a plan-cache
/// miss), not a panic at inference.
impl Deserialize for CimConv2d {
    fn from_value(v: &Json) -> Result<Self, String> {
        let program: ProgramSpec = json_field(v, "program")?;
        let out_channels: usize = json_field(v, "out_channels")?;
        if out_channels != program.outs {
            return Err(format!(
                "out_channels {out_channels} for a program with {} outputs",
                program.outs
            ));
        }
        let geom = geom_from(v.get("geom").ok_or("missing field \"geom\"")?)
            .map_err(|e| format!("geom: {e}"))?;
        let patch = geom
            .in_channels
            .checked_mul(geom.kernel)
            .and_then(|p| p.checked_mul(geom.kernel));
        if patch != Some(program.ins) {
            return Err(format!(
                "geom: {} x {}x{} patch for a program with {} inputs",
                geom.in_channels, geom.kernel, geom.kernel, program.ins
            ));
        }
        if geom.stride == 0 {
            return Err("geom: stride 0".into());
        }
        Self::from_entry(v, program, geom, json_field(v, "par_tiles")?)
    }
}

/// See the [`CimConv2d`] serialization notes. A linear layer's entry
/// writes its conv's programming record and dequantization state, its
/// bias and its `outs` and `ins`; the geometry is implied.
impl Serialize for CimLinear {
    fn to_json(&self) -> Json {
        let conv = &self.conv;
        Json::obj([
            ("program", conv.program.to_json()),
            ("channel_scales", conv.dequant.channel_scales.to_json()),
            ("row_sums", conv.dequant.row_sums.to_json()),
            ("bias", self.bias.to_json()),
            ("act_params", quant_params_to_json(&conv.act_params)),
            ("outs", conv.program.outs.to_json()),
            ("ins", conv.program.ins.to_json()),
        ])
    }
}

/// See the [`CimConv2d`] deserialization notes; the bias is one more
/// per-output table.
impl Deserialize for CimLinear {
    fn from_value(v: &Json) -> Result<Self, String> {
        let program: ProgramSpec = json_field(v, "program")?;
        let (outs, ins): (usize, usize) = (json_field(v, "outs")?, json_field(v, "ins")?);
        if (outs, ins) != (program.outs, program.ins) {
            return Err(format!(
                "{outs} x {ins} layer for a {} x {} program",
                program.outs, program.ins
            ));
        }
        let bias = per_output(json_field(v, "bias")?, "bias", outs)?;
        Ok(CimLinear {
            conv: CimConv2d::from_entry(v, program, pointwise(ins), 1)?,
            bias,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use yoloc_cim::{KernelDispatch, KernelKind};
    use yoloc_tensor::ops::conv2d_reference;

    /// The dequantization formula, written out per value: the reference
    /// the per-channel constants of the output pass are pinned to.
    fn dequant_value(d: &Dequant, o: usize, acc: i64, act: &QuantParams) -> f32 {
        d.channel_scales[o] * act.scale * (acc - act.zero_point as i64 * d.row_sums[o]) as f32
    }

    /// Reference staging `forward_in` is pinned to: the f32 im2col
    /// matrix, each of its elements quantized on its own, one row-major
    /// `mvm_batch` per modelled tile (statistics folded per tile, the
    /// fold `forward_in` replays from its one whole-conv call), and
    /// [`dequant_value`] scattered by division.
    fn forward_reference<R: Rng>(conv: &CimConv2d, x: &Tensor, rng: &mut R) -> (Tensor, MvmStats) {
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = conv.output_hw(h, w);
        let oc = conv.out_channels;
        let cols = im2col(x, &conv.geom);
        let (patch, positions) = (cols.shape()[0], cols.shape()[1]);
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        let mut stats = MvmStats::default();
        let mut mvm = MvmScratch::new();
        for (lo, hi) in conv.tile_range_iter(positions) {
            let mut codes = Vec::new();
            for pos in lo..hi {
                for r in 0..patch {
                    let v = cols.data()[r * positions + pos];
                    codes.push(conv.act_params.quantize_value(v));
                }
            }
            let mut accs = vec![0i64; (hi - lo) * oc];
            let mut tile_stats = MvmStats::default();
            conv.engine
                .mvm_batch(&codes, hi - lo, &mut accs, &mut tile_stats, &mut mvm, rng);
            stats.merge(&tile_stats);
            for v in 0..hi - lo {
                let (ni, p) = ((lo + v) / (oh * ow), (lo + v) % (oh * ow));
                for o in 0..oc {
                    let a = accs[o * (hi - lo) + v];
                    *out.at_mut(&[ni, o, p / ow, p % ow]) =
                        dequant_value(&conv.dequant, o, a, &conv.act_params);
                }
            }
        }
        (out, stats)
    }

    /// Runs `conv` on `x` through `forward_in` at tile hints 1, 5, 16 and
    /// 1000 (more tiles than positions) and asserts each run equals
    /// [`forward_reference`] bit for bit, in outputs and `MvmStats`;
    /// returns the batch layout `forward_in` ran the conv's block in.
    fn assert_matches_oracle(
        conv: &mut CimConv2d,
        x: &Tensor,
        scratch: &mut CimScratch,
        label: &str,
    ) -> MatmulLayout {
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = conv.output_hw(h, w);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for tiles in [1, 5, 16, 1000] {
            conv.set_tile_hint(tiles);
            let (want, want_stats) = forward_reference(conv, x, &mut StdRng::seed_from_u64(7));
            let mut out = vec![f32::NAN; want.len()];
            let mut rng = StdRng::seed_from_u64(7);
            let stats = conv.forward_in(x.data(), n, h, w, &mut out, scratch, &mut rng);
            assert_eq!(bits(&out), bits(want.data()), "{label} tiles {tiles}");
            assert_eq!(stats, want_stats, "{label} tiles {tiles}");
        }
        conv.engine.batch_layout(n * oh * ow)
    }

    #[test]
    fn forward_in_matches_staging_oracle() {
        // Window geometries x input sizes x batch sizes x tile hints x
        // both batch layouts x both backend kinds. The geometries are
        // kernels 1, 3 and 5 at strides 1 and 2 under every padding from
        // 0 to 2 — so stride-1 convs padded less or more than `(k-1)/2`
        // take the general plane fill, and "same" ones the one that
        // shifts a whole plane — plus stride 3, resnet18's 7x7/2 stem and
        // a 1x1 stride-1 unpadded conv (whose one code plane is the
        // quantized input). At the even sizes, stride-2 and -3 windows
        // see `H + 2p - k` not a multiple of the stride (a row phase
        // then has rows past the padded input). At sizes 2 and 1 every
        // window of a padded conv of kernel 3 or more touches padding,
        // as on yolo-v2's last 2x2 maps; geometries whose window does
        // not fit the padded input are skipped there. Outputs run from 1
        // to 64 positions per sample, most narrower than 16 lanes or not
        // a multiple of 16, and n = 3 drops the gap lanes between
        // samples' code planes. The host block is always the whole conv,
        // so every hint above 1 folds tiles that differ from it, and at
        // n = 3 tiles straddle samples. Inputs dip below zero, so the
        // zero point — the pad code — is above 0. Per backend kind a
        // classifier head, a linear of 10 outputs over 32 features, runs
        // at batches 1, 8, 16 and 17 against the same oracle on its conv
        // plus its bias; the SIMD tiers stage it transposed from 8. One
        // scratch serves the whole grid, as in the arena executor, so
        // stale codes from earlier layers sit in its buffers.
        let mut rng = StdRng::seed_from_u64(21);
        let params = MacroParams::rom_paper();
        let c = 2;
        let mut geometries = Vec::new();
        for kernel in [1, 3, 5] {
            for (stride, padding) in [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)] {
                geometries.push((kernel, stride, padding));
            }
        }
        geometries.extend([(7, 2, 3), (1, 3, 0), (3, 3, 1), (5, 3, 1)]);
        let mut scratch = CimScratch::new();
        let mut layouts = Vec::new();
        let mut transposed = Vec::new();
        let mut linear_transposed = Vec::new();
        for kind in [BackendKind::Popcount, BackendKind::Analog] {
            for &(kernel, stride, padding) in &geometries {
                for hw in [1, 2, 7, 8] {
                    if hw + 2 * padding < kernel {
                        continue;
                    }
                    // Batches 1 and 3. On the SIMD tiers 4 output
                    // channels take the transposed layout once a conv
                    // has 4+ positions; 48 stay row-major.
                    for (n, outs) in [(1, 4), (1, 48), (3, 4), (3, 48)] {
                        let w = Tensor::randn(&[outs, c, kernel, kernel], 0.0, 0.4, &mut rng);
                        let mut x = Tensor::rand_uniform(&[n, c, hw, hw], -0.6, 1.0, &mut rng);
                        // However few values a tiny map draws, one is
                        // negative.
                        x.data_mut()[0] = -0.6;
                        let mut conv = CimConv2d::compile_on_with(
                            kind,
                            &w,
                            stride,
                            padding,
                            &[&x],
                            params,
                            None,
                        );
                        assert!(conv.act_params.quantize_value(0.0) > 0);
                        let label = format!(
                            "{kind:?} k{kernel} s{stride} p{padding} {hw}x{hw} n{n} outs{outs}"
                        );
                        let layout = assert_matches_oracle(&mut conv, &x, &mut scratch, &label);
                        if layout == MatmulLayout::Transposed {
                            transposed.push((kernel, stride, padding, n));
                        }
                        layouts.push(layout);
                    }
                }
            }
            // The classifier head, at batches on both sides of the
            // 16-lane block.
            for n in [1, 8, 16, 17] {
                let w = Tensor::randn(&[10, 32], 0.0, 0.4, &mut rng);
                let bias: Vec<f32> = (0..10).map(|o| o as f32 * 0.1 - 0.5).collect();
                let mut x = Tensor::rand_uniform(&[n, 32], -0.6, 1.0, &mut rng);
                x.data_mut()[0] = -0.6;
                let linear = CimLinear::compile_on_with(kind, &w, Some(&bias), &[&x], params, None);
                let mut out = vec![f32::NAN; n * 10];
                let mut rng = StdRng::seed_from_u64(7);
                let stats = linear.forward_in(x.data(), n, &mut out, &mut scratch, &mut rng);
                let map = x.reshape(&[n, 32, 1, 1]).expect("one position per sample");
                let (want, want_stats) =
                    forward_reference(&linear.conv, &map, &mut StdRng::seed_from_u64(7));
                let want: Vec<f32> = want
                    .data()
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| v + bias[i % 10])
                    .collect();
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&want), "{kind:?} linear n{n}");
                assert_eq!(stats, want_stats, "{kind:?} linear n{n}");
                if linear.conv.engine.batch_layout(n) == MatmulLayout::Transposed {
                    linear_transposed.push(n);
                }
            }
        }
        assert!(layouts.contains(&MatmulLayout::RowMajor));
        if KernelDispatch::from_env().resolve() != KernelKind::Scalar {
            // The code planes run at every stride, for "same",
            // under- and over-padded stride-1 convs, the stem and the
            // 1x1 conv, and across samples.
            for want in [
                (1, 1, 0, 1),
                (1, 1, 0, 3),
                (1, 1, 1, 3),
                (3, 1, 1, 3),
                (3, 1, 0, 3),
                (3, 1, 2, 3),
                (5, 1, 0, 1),
                (5, 1, 1, 3),
                (3, 2, 1, 3),
                (5, 2, 0, 3),
                (7, 2, 3, 1),
                (7, 2, 3, 3),
                (3, 3, 1, 3),
            ] {
                assert!(transposed.contains(&want), "{want:?} never ran transposed");
            }
            for n in [8, 16, 17] {
                assert!(
                    linear_transposed.contains(&n),
                    "linear n{n} never ran transposed"
                );
            }
        }
    }

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
        // The backend selection point: analog and popcount deployments of
        // the same conv agree bit-for-bit at the paper's exact design
        // point.
        let mut rng = StdRng::seed_from_u64(3);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let params = MacroParams::rom_paper();
        let outputs: Vec<Tensor> = [BackendKind::Analog, BackendKind::Popcount]
            .into_iter()
            .map(|kind| {
                let conv = CimConv2d::compile_on_with(kind, &w, 1, 1, &[&x], params, None);
                conv.forward(&x, &mut rng).0
            })
            .collect();
        assert_eq!(outputs[0].data(), outputs[1].data());
    }

    #[test]
    fn cim_linear_matches_software_within_quantization() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = Tensor::randn(&[5, 24], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[3, 24], 0.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..5).map(|i| i as f32 * 0.1).collect();
        let linear = CimLinear::compile_on_with(
            BackendKind::Popcount,
            &w,
            Some(&bias),
            &[&x],
            MacroParams::sram_paper(),
            None,
        );
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
    fn zero_point_correction_is_exact() {
        // The zero-point corrected dequantizer inference runs must be
        // algebraically exact for the quantized values themselves.
        let wp = QuantParams::symmetric(1.0, 8);
        let xp = QuantParams::affine(0.0, 2.0, 8);
        let w_codes = [5i32, -7, 100];
        let x_codes = [3i32, 200, 45];
        let acc: i32 = w_codes.iter().zip(&x_codes).map(|(&w, &x)| w * x).sum();
        let dequant = Dequant {
            channel_scales: vec![wp.scale],
            row_sums: vec![w_codes.iter().map(|&w| w as i64).sum()],
        };
        let got = dequant.channel(0, &xp).value(acc);
        let expect: f32 = w_codes
            .iter()
            .zip(&x_codes)
            .map(|(&w, &x)| wp.dequantize_value(w) * xp.dequantize_value(x))
            .sum();
        assert!((got - expect).abs() < 1e-4, "{got} vs {expect}");
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
        let w = Tensor::randn(&[4, 16, 1, 1], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[2, 16, 1, 1], 0.0, 1.0, &mut rng);
        let conv = CimConv2d::compile(&w, 1, 0, &[&x], MacroParams::rom_paper());
        let good = conv.program.to_json();
        assert_eq!(ProgramSpec::from_value(&good), Ok(conv.program.clone()));
        let cases = [
            (
                edited(&good, "params", |p| {
                    *p = edited(p, "weight_bits", |b| *b = Json::UInt(0));
                }),
                "unsupported weight_bits 0",
            ),
            (
                edited(&good, "params", |p| {
                    *p = edited(p, "chunk_bits", |b| *b = Json::UInt(0));
                }),
                "event counts of 16 inputs (8-bit codes, 0-bit chunks) do not fit u32",
            ),
            (
                edited(&good, "ins", |i| *i = Json::UInt(357_913_942)),
                "event counts of 357913942 inputs (8-bit codes, 2-bit chunks)",
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
