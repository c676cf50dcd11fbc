//! The ROM-CiM macro of Fig. 5 and its SRAM-CiM counterpart.
//!
//! A macro is a stack of 128x256 subarrays with 16 column-shared ADCs per
//! subarray, input serial-bit drivers, prechargers and a shift-&-add unit.
//! This module provides
//!
//! * [`MacroParams`] — the circuit-level parameters (geometry, per-event
//!   energies, peripheral areas) from which every Table I figure is
//!   *computed*, not hard-coded;
//! * [`MacroSpec`] — the computed Table I specification summary;
//! * [`RomMvm`] — a functional matrix-vector engine that programs quantized
//!   weights into analog subarrays and executes the bit-serial datapath,
//!   with energy/latency statistics.

use std::ops::{Range, RangeInclusive};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::analog::{AdcModel, AnalogArray, AnalogConfig};
use crate::backend::BackendKind;
use crate::cells::CellKind;
use crate::faults::{self, ColumnFaults, FaultContext};
use crate::kernels::{self, KernelDispatch, KernelKind};
use yoloc_quant::bitplane::{signed_plane_weight, unsigned_chunks};
use yoloc_quant::QuantParams;

/// Circuit-level parameters of a CiM macro.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MacroParams {
    /// Bit-cell implementation.
    pub cell: CellKind,
    /// Word lines per subarray.
    pub rows: usize,
    /// Bit lines per subarray.
    pub cols: usize,
    /// Column-shared ADCs per subarray (16 in Fig. 5: 256 / 16 columns per
    /// ADC).
    pub adcs_per_subarray: usize,
    /// Subarrays in the macro.
    pub subarrays: usize,
    /// Rows activated simultaneously per analog evaluation.
    pub rows_per_activation: usize,
    /// ADC resolution in bits.
    pub adc_bits: u8,
    /// Weight precision in bits.
    pub weight_bits: u8,
    /// Activation precision in bits.
    pub act_bits: u8,
    /// Activation digit width driven per cycle (2 -> 0..=3 unary pulses).
    pub chunk_bits: u8,
    /// Gaussian bit-line noise sigma in discharge-count units.
    pub noise_sigma: f32,
    /// Time for one macro MAC inference (Table I: 8.9 ns).
    pub t_inference_ns: f64,
    /// Energy per ADC conversion, pJ.
    pub e_adc_pj: f64,
    /// Energy per word-line pulse, pJ.
    pub e_wl_pulse_pj: f64,
    /// Energy per bit-line precharge (per column per evaluation), pJ.
    pub e_precharge_pj: f64,
    /// Shift-&-add + control energy per inference, pJ.
    pub e_shift_add_pj: f64,
    /// SRAM-CiM only: energy to write one weight bit into the array, pJ.
    /// Zero for ROM (mask-programmed).
    pub e_write_per_bit_pj: f64,
    /// ADC area, µm² each.
    pub a_adc_um2: f64,
    /// Word-line driver area, µm² per row.
    pub a_driver_um2: f64,
    /// Control + shift-&-add + (for SRAM) R/W interface area per subarray, µm².
    pub a_ctrl_um2: f64,
    /// Standby leakage per cell, pW (0 for ROM).
    pub standby_pw_per_cell: f64,
}

impl MacroParams {
    /// The proposed 28 nm ROM-CiM macro, calibrated so that [`MacroSpec`]
    /// reproduces Table I (1.2 Mb, 0.24 mm², 5 Mb/mm², 8.9 ns, 28.8 GOPS,
    /// 119.4 GOPS/mm², 11.5 TOPS/W).
    pub fn rom_paper() -> Self {
        MacroParams {
            cell: CellKind::Rom1T,
            rows: 128,
            cols: 256,
            adcs_per_subarray: 16,
            subarrays: 38,
            rows_per_activation: 10,
            adc_bits: 5,
            weight_bits: 8,
            act_bits: 8,
            chunk_bits: 2,
            noise_sigma: 0.0,
            t_inference_ns: 8.9,
            e_adc_pj: 0.045,
            e_wl_pulse_pj: 0.005,
            e_precharge_pj: 0.0015,
            e_shift_add_pj: 0.35,
            e_write_per_bit_pj: 0.0,
            a_adc_um2: 280.0,
            a_driver_um2: 8.0,
            a_ctrl_um2: 353.0,
            standby_pw_per_cell: 0.0,
        }
    }

    /// The iso-process SRAM-CiM macro modelled on the ISSCC'21 \[3\] 6T
    /// macro: same sensing datapath, 18.5x larger cells, an R/W interface
    /// (extra control area + per-bit write energy), and cell leakage.
    pub fn sram_paper() -> Self {
        MacroParams {
            cell: CellKind::Sram6TCim,
            subarrays: 12, // 384 kb macro as in [3]
            e_write_per_bit_pj: 0.35,
            // 6T cells load word/bit lines ~18x harder than the 1T ROM
            // cell; drive and precharge energy scale accordingly, putting
            // the SRAM-CiM macro ~10% below the ROM macro in TOPS/W.
            e_wl_pulse_pj: 0.0085,
            e_precharge_pj: 0.0026,
            // Calibrated so the SRAM-CiM macro density is 19x below the
            // ROM-CiM macro (paper 4.3.1); SRAM-CiM at 8-bit precision is
            // peripheral-dominated (R/W interface, per-column logic).
            a_ctrl_um2: 105_200.0,
            a_driver_um2: 14.0,
            standby_pw_per_cell: CellKind::Sram6TCim.standby_leakage_pw(),
            ..Self::rom_paper()
        }
    }

    /// An eDRAM-CiM macro (paper §2.3 related work): denser than SRAM-CiM
    /// (1T1C-class cells, ~3x the 6T-CiM density) but volatile with a
    /// refresh burden and tighter compute-accuracy margins. Included so
    /// the density/flexibility spectrum ROM < eDRAM < SRAM can be swept.
    pub fn edram_paper() -> Self {
        MacroParams {
            cell: CellKind::Sram6TCim, // area overridden via a_ctrl below
            subarrays: 24,
            // 1T1C cell ~6.2x the ROM cell (vs 18.5x for 6T-CiM).
            // Modelled by shrinking the peripheral budget proportionally.
            a_ctrl_um2: 32_000.0,
            a_driver_um2: 10.0,
            e_write_per_bit_pj: 0.15,
            // Refresh shows up as standby burn.
            standby_pw_per_cell: 4.0,
            ..Self::rom_paper()
        }
    }

    /// Capacity of one subarray in bits.
    pub fn subarray_bits(&self) -> u64 {
        (self.rows * self.cols) as u64
    }

    /// Total macro capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.subarray_bits() * self.subarrays as u64
    }

    /// Macro area in mm²: cells plus per-subarray peripherals.
    pub fn area_mm2(&self) -> f64 {
        let cell_area = self.capacity_bits() as f64 * self.cell.area_um2();
        let per_sub = self.adcs_per_subarray as f64 * self.a_adc_um2
            + self.rows as f64 * self.a_driver_um2
            + self.a_ctrl_um2;
        (cell_area + per_sub * self.subarrays as f64) / 1e6
    }

    /// MAC operations (multiply + add) per macro inference: one
    /// `rows_per_activation`-deep dot product at full precision counts
    /// 2 ops per input row, matching Table I's "operation number 256".
    pub fn ops_per_inference(&self) -> u64 {
        2 * self.rows as u64
    }

    /// Energy per macro inference in pJ.
    ///
    /// One inference is a full-precision MAC over all `rows` inputs for one
    /// output: `chunks x groups` analog evaluations, each digitizing the
    /// output's `weight_bits` bit-plane columns. The per-event constants
    /// are calibrated so the ROM macro lands on Table I's 11.5 TOPS/W.
    pub fn energy_per_inference_pj(&self) -> f64 {
        let chunks = self.act_bits.div_ceil(self.chunk_bits) as f64;
        let groups = self.rows.div_ceil(self.rows_per_activation) as f64;
        let evals = chunks * groups;
        let conversions = evals * self.weight_bits as f64;
        conversions * self.e_adc_pj
            + self.rows as f64 * chunks * self.e_wl_pulse_pj
            + evals * self.weight_bits as f64 * self.e_precharge_pj
            + self.e_shift_add_pj
    }

    /// The signed code range a `weight_bits`-wide weight holds, or
    /// `None` for a width [`RomMvm::program`] cannot store: zero, above
    /// 31 bits (the two's-complement field must fit a `u32`), or wider
    /// than one subarray's columns.
    pub fn weight_code_range(&self) -> Option<RangeInclusive<i32>> {
        let bits = u32::from(self.weight_bits);
        if bits == 0 || bits > 31 || bits as usize > self.cols {
            return None;
        }
        Some(-(1i32 << (bits - 1))..=(1i32 << (bits - 1)) - 1)
    }

    /// Whether one vector's event counts over `ins` activation rows fit
    /// the `u32` the counter fold keeps them in:
    /// `ins * n_chunks * (2^chunk_bits - 1) < 2^32`. That bounds the
    /// word-line pulses, and the active `(group, chunk)` evaluations too
    /// (at most one per row and chunk). `false` for a chunk width
    /// [`RomMvm::program`] cannot drive (zero, or wider than 31 bits).
    pub fn event_counts_fit(&self, ins: usize) -> bool {
        if !(1..=31).contains(&self.chunk_bits) {
            return false;
        }
        let n_chunks = u128::from(self.act_bits.div_ceil(self.chunk_bits));
        let max_pulse = (1u128 << self.chunk_bits) - 1;
        (ins as u128) * n_chunks * max_pulse < 1 << 32
    }

    /// Whether every accumulator an engine over `ins` activation rows
    /// produces fits the `i32` the batch kernels store, and with it
    /// every partial sum of one and `zero_point * row_sum` (at most
    /// `ins` codes times the largest weight magnitude). `false` when
    /// `act_bits > 8`, since the batch path carries activation codes as
    /// `u8`, and for a shape [`RomMvm::program`] cannot store.
    ///
    /// The exact products bound every path whose readout is the
    /// discharge count itself, faulty ADC columns included (they only
    /// lower a count): `ins * (2^act_bits - 1) * 2^(weight_bits - 1)`.
    /// At the paper's 8-bit codes that is `ins * 255 * 128 < 2^31`,
    /// `ins <= 65793`. An ADC that quantizes can read a group out above
    /// its count, up to its full scale, so there each `(group, chunk,
    /// plane)` readout is bounded by that instead.
    pub fn accumulators_fit(&self, ins: usize) -> bool {
        let Some(range) = self.weight_code_range() else {
            return false;
        };
        let (rows, rpa) = (self.rows as u128, self.rows_per_activation as u128);
        if self.act_bits > 8 || rows == 0 || rpa == 0 || !(1..=31).contains(&self.chunk_bits) {
            return false;
        }
        let ins = ins as u128;
        let w_max = u128::from(range.start().unsigned_abs());
        let exact = ins * ((1 << self.act_bits) - 1) * w_max;
        // The SAR transfer of `analog_config`: it quantizes once the
        // full scale outgrows its levels, and then reads up to it.
        let full_scale = rpa * ((1 << self.chunk_bits) - 1);
        if self.adc_bits >= 16 || full_scale < 1 << self.adc_bits {
            return exact <= i32::MAX as u128;
        }
        let groups = ins / rows * rows.div_ceil(rpa) + (ins % rows).div_ceil(rpa);
        let chunk_weights: u128 = (0..self.act_bits.div_ceil(self.chunk_bits))
            .map(|c| 1u128 << (u32::from(c) * u32::from(self.chunk_bits)))
            .sum();
        let plane_weights = 2 * w_max - 1;
        let quantized = [full_scale, plane_weights, chunk_weights]
            .into_iter()
            .fold(groups, u128::saturating_mul);
        exact.max(quantized) <= i32::MAX as u128
    }

    /// The analog configuration of one subarray under these parameters.
    pub fn analog_config(&self) -> AnalogConfig {
        let max_pulses = (1u8 << self.chunk_bits) - 1;
        AnalogConfig {
            rows: self.rows,
            cols: self.cols,
            rows_per_activation: self.rows_per_activation,
            noise_sigma: self.noise_sigma,
            max_pulses,
            adc: if self.adc_bits >= 16 {
                AdcModel::Ideal
            } else {
                AdcModel::Sar {
                    bits: self.adc_bits,
                    full_scale: (self.rows_per_activation as u32) * max_pulses as u32,
                }
            },
        }
    }

    /// Computes the Table I style specification summary.
    pub fn spec(&self) -> MacroSpec {
        let ops = self.ops_per_inference();
        let throughput_gops = ops as f64 / self.t_inference_ns;
        let area = self.area_mm2();
        let e_inf_pj = self.energy_per_inference_pj();
        MacroSpec {
            process: "28nm CMOS".to_string(),
            macro_size_mb: self.capacity_bits() as f64 / 1_048_576.0,
            macro_area_mm2: area,
            density_mb_per_mm2: self.capacity_bits() as f64 / 1_048_576.0 / area,
            cell_area_um2: self.cell.area_um2(),
            weight_bits: self.weight_bits,
            act_bits: self.act_bits,
            inference_time_ns: self.t_inference_ns,
            operation_number: ops,
            throughput_gops,
            area_efficiency_gops_mm2: throughput_gops / area,
            energy_efficiency_tops_w: ops as f64 / e_inf_pj,
            standby_power_w: self.capacity_bits() as f64 * self.standby_pw_per_cell * 1e-12,
        }
    }
}

/// The Table I specification summary, computed from [`MacroParams`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MacroSpec {
    /// Process description.
    pub process: String,
    /// Macro capacity in Mb (binary).
    pub macro_size_mb: f64,
    /// Macro area in mm².
    pub macro_area_mm2: f64,
    /// Storage density in Mb/mm².
    pub density_mb_per_mm2: f64,
    /// Bit-cell area in µm².
    pub cell_area_um2: f64,
    /// Weight precision.
    pub weight_bits: u8,
    /// Activation precision.
    pub act_bits: u8,
    /// Time per macro MAC inference in ns.
    pub inference_time_ns: f64,
    /// Operations per inference.
    pub operation_number: u64,
    /// Throughput in GOPS.
    pub throughput_gops: f64,
    /// Area efficiency in GOPS/mm².
    pub area_efficiency_gops_mm2: f64,
    /// MAC energy efficiency in TOPS/W.
    pub energy_efficiency_tops_w: f64,
    /// Standby power in watts (0 for non-volatile ROM).
    pub standby_power_w: f64,
}

/// Runtime statistics of a functional MVM execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MvmStats {
    /// Analog group evaluations performed.
    pub analog_evaluations: u64,
    /// ADC conversions performed.
    pub adc_conversions: u64,
    /// Word-line pulses driven.
    pub wl_pulses: u64,
    /// Total energy in pJ under the macro's energy model.
    pub energy_pj: f64,
    /// Latency in ns assuming subarrays evaluate serially per row-tile and
    /// chunk (conservative; parallel activation divides this).
    pub latency_ns: f64,
}

impl MvmStats {
    /// Accumulates another execution's statistics into this one. Event
    /// counters add exactly; the floating-point energy/latency fields add
    /// in call order, so two reductions agree bit-for-bit only when they
    /// merge in the same sequence — the executor merges in op order for
    /// exactly this reason.
    pub fn merge(&mut self, other: &MvmStats) {
        self.analog_evaluations += other.analog_evaluations;
        self.adc_conversions += other.adc_conversions;
        self.wl_pulses += other.wl_pulses;
        self.energy_pj += other.energy_pj;
        self.latency_ns += other.latency_ns;
    }
}

/// Precomputed bit-plane popcount masks for one programmed subarray.
///
/// A column mask packs the strapped (`'1'`) rows of one activation group
/// of one column into a `u64`: bit `k` is set when row `group_start + k`
/// is strapped. One analog group evaluation of a column then reduces to
/// `sum_b 2^b * popcount(mask & pulse_plane_b)` — the discharge-count
/// arithmetic without walking individual cells.
///
/// Only the nonzero masks are stored, **lane-packed and tile-major**:
/// `nz` groups them by activation group
/// (`nz_offsets[g]..nz_offsets[g + 1]`) and orders them
/// `(output, bit-plane)` within a group, each entry carrying its metadata
/// as `(o_local << 8) | plane`. The batch kernels therefore stream
/// exactly the masks that can contribute, contiguously, one L1-resident
/// weight tile at a time — and zero-mask columns (sparse codes) cost
/// nothing.
#[derive(Debug, Clone)]
pub(crate) struct PopcountTile {
    /// `(meta, mask)` for every nonzero column mask, tile-major.
    nz: Vec<(u32, u64)>,
    /// `groups + 1` prefix offsets into `nz`.
    nz_offsets: Vec<u32>,
}

impl PopcountTile {
    /// Straps one subarray's masks from `rows[o]`, the codes output `o`
    /// of the tile holds on its word lines: bit `j` of a code's
    /// two's-complement field is the cell in plane column `j`, so the
    /// mask of `(group, o, j)` packs that bit of every code in the group.
    fn strap(rows: &[&[i32]], groups: usize, rpa: usize, wb: usize) -> Self {
        let mut nz = Vec::new();
        let mut nz_offsets = Vec::with_capacity(groups + 1);
        nz_offsets.push(0u32);
        for g in 0..groups {
            for (o, row) in rows.iter().enumerate() {
                // A partial row tile's last groups hold no codes.
                let group = row.get(g * rpa..).unwrap_or_default();
                let group = &group[..rpa.min(group.len())];
                for j in 0..wb {
                    let mask = group.iter().enumerate().fold(0u64, |m, (k, &code)| {
                        m | (u64::from((code as u32 >> j) & 1) << k)
                    });
                    if mask != 0 {
                        nz.push((((o as u32) << 8) | j as u32, mask));
                    }
                }
            }
            nz_offsets.push(u32::try_from(nz.len()).expect("nz list fits u32"));
        }
        PopcountTile { nz, nz_offsets }
    }
}

/// The datapath an engine executes on (see *Execution paths* on
/// [`RomMvm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Datapath {
    Analog,
    Stream,
    Exact,
}

impl Datapath {
    /// Picks the datapath, once, at programming: the rules of
    /// *Execution paths* on [`RomMvm`].
    fn choose(
        kind: BackendKind,
        noise_sigma: f32,
        maskable: bool,
        adc_identity: bool,
        adc_faulted: bool,
    ) -> Self {
        if kind == BackendKind::Analog || noise_sigma != 0.0 || !maskable {
            Datapath::Analog
        } else if adc_identity && !adc_faulted {
            Datapath::Exact
        } else {
            Datapath::Stream
        }
    }
}

/// The weights of one engine, held in the one form its datapath reads.
pub(crate) enum Weights {
    /// `[row_tile][col_tile]` cell arrays, each with its ADC faults
    /// installed, for the analog reference walk.
    Analog(Vec<Vec<AnalogArray>>),
    /// `[row_tile][col_tile]` popcount masks for the quantizing mask
    /// stream, and on a faulted fabric each tile's per-column ADC fault
    /// table.
    Stream {
        masks: Vec<Vec<PopcountTile>>,
        adc_faults: Option<Vec<Vec<ColumnFaults>>>,
    },
    /// The weight codes (`outs x ins`, row-major) for the exact
    /// matmul, and their packing for the engine's kernel tier (see
    /// [`kernels::PackedCodes::for_tier`]): `i16` lanes on AVX2, `i8`
    /// lanes on AVX-512, none on the scalar tier.
    Exact {
        codes: Vec<i32>,
        packed: kernels::PackedCodes,
    },
}

/// A quantized weight matrix programmed into ROM-CiM subarrays, executing
/// MVMs through the analog datapath.
///
/// Logical layout: a `(outs, ins)` signed weight matrix. Physically, input
/// dimension maps to word lines (tiled by `rows`), and each output occupies
/// `weight_bits` adjacent bit lines (one per bit-plane), tiled across
/// subarrays of `cols` bit lines.
///
/// # Execution paths
///
/// An engine executes on one of three datapaths, chosen once when it is
/// programmed, and keeps only the weights that datapath reads.
/// [`RomMvm::mvm`] and the batch entries ([`RomMvm::mvm_batch`] and the
/// run and fold steps under it) all run it:
///
/// * the **analog reference walk** keeps a cell array per subarray and
///   walks every cell through [`AnalogArray::evaluate`], modelling
///   precharge, pulse trains, noise injection and per-group ADC
///   digitization explicitly. It is the only path that models noise.
///   [`BackendKind::Analog`] engines take it, as do noisy macros
///   (`noise_sigma != 0`) and activation groups wider than a 64-bit
///   mask;
/// * the **quantizing mask stream** keeps the nonzero popcount group
///   masks of every subarray, computes each group's discharge count
///   with `AND`+`popcount` operations per column instead of a per-cell
///   loop, then applies the *same* ADC transfer and column faults: a
///   noiseless engine whose ADC quantizes, or has a faulted column;
/// * the **exact matmul** keeps the weight codes. Where the ADC
///   transfer is an identity on every reachable count and no ADC is
///   faulted, the bit-serial datapath reconstructs the exact integer
///   product, so an integer matmul over the codes computes it.
///
/// The three are bit-identical in values and [`MvmStats`] wherever more
/// than one applies: the parity suites check each against an analog
/// engine programmed from the same codes. Noiseless paths consume no
/// randomness.
pub struct RomMvm {
    params: MacroParams,
    /// The weights, in the one form this engine's datapath reads.
    weights: Weights,
    /// Global `(lo, hi)` activation-row range of every analog group in
    /// row order — the precomputed walk the shared event-counter fold
    /// uses (groups never span a row-tile boundary).
    group_bounds: Vec<(u32, u32)>,
    /// The kernel tier batched MVMs execute on, resolved once at
    /// `program` time from `YOLOC_KERNEL` / feature detection.
    kernel: KernelKind,
    /// Cached stats-derivation constants (see [`StatsFinisher`]): every
    /// input is fixed at `program` time, so the batch entries read this
    /// instead of rebuilding the constants per call.
    finisher: StatsFinisher,
    ins: usize,
    outs: usize,
    outs_per_array: usize,
}

impl RomMvm {
    /// Programs a signed quantized weight matrix (`outs x ins`, row-major
    /// codes in the signed `weight_bits` range) into subarrays of a
    /// pristine fabric, for the popcount datapaths
    /// ([`BackendKind::Popcount`]).
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != outs * ins`, `weight_bits` is outside
    /// [`MacroParams::weight_code_range`], any code is out of range,
    /// `act_bits > 8`, or `ins` breaks [`MacroParams::event_counts_fit`]
    /// or [`MacroParams::accumulators_fit`].
    pub fn program(params: MacroParams, codes: &[i32], outs: usize, ins: usize) -> Self {
        Self::build(BackendKind::Popcount, params, codes, outs, ins, None, 1.0)
    }

    /// Programs a weight matrix for `kind` onto a *faulty* fabric (see
    /// [`crate::faults`]): the effective weight codes are rewritten for
    /// stuck-at cells and dead subarrays, per-column ADC transfer
    /// faults are installed on every datapath that digitizes, and
    /// degraded chiplet links scale the evaluation latency.
    ///
    /// Guarantees:
    ///
    /// * a fault-free context (`plan.is_none()` and unit slowdown)
    ///   programs the pristine fabric — the engine is structurally
    ///   identical, bit for bit, in values and statistics;
    /// * the same [`FaultContext`] always builds the same faulty
    ///   engine, and every kernel tier and execution path computes
    ///   identical results on it (the tier-parity suites run under
    ///   faults);
    /// * stuck/dead/ADC faults never change [`MvmStats`] (event
    ///   counters are pure functions of the activations); only
    ///   `link_slowdown` perturbs latency, deterministically.
    ///
    /// # Panics
    ///
    /// Panics as [`RomMvm::program`] does on the effective codes, or if
    /// a non-empty `ctx.phys_ids` does not cover the tile grid, or
    /// `ctx.link_slowdown <= 0`.
    pub fn program_with_faults(
        kind: BackendKind,
        params: MacroParams,
        codes: &[i32],
        outs: usize,
        ins: usize,
        ctx: &FaultContext,
    ) -> Self {
        assert!(ctx.link_slowdown > 0.0, "link slowdown must be positive");
        if ctx.plan.is_none() && ctx.link_slowdown == 1.0 {
            return Self::build(kind, params, codes, outs, ins, None, 1.0);
        }
        let geom = faults::FabricGeometry::from_params(&params);
        let row_tiles = ins.div_ceil(params.rows);
        let col_tiles = outs.div_ceil(geom.outs_per_array());
        let ids: Vec<u64> = if ctx.phys_ids.is_empty() {
            (0..(row_tiles * col_tiles) as u64).collect()
        } else {
            assert_eq!(
                ctx.phys_ids.len(),
                row_tiles * col_tiles,
                "one physical subarray id per tile"
            );
            ctx.phys_ids.to_vec()
        };
        // Stuck-at and dead-subarray faults become *effective code*
        // mutations: every path (analog, popcount, exact matmul, all
        // SIMD tiers) then computes on identical faulty weights with
        // no kernel changes at all.
        let mut eff = codes.to_vec();
        ctx.plan.apply_code_faults(&mut eff, outs, ins, &geom, &ids);
        // ADC transfer faults: per-column tables applied to the sensed
        // discharge count before digitization.
        let full_scale = params.rows_per_activation as u32 * ((1u32 << params.chunk_bits) - 1);
        let cols_per_adc = params.cols / params.adcs_per_subarray.max(1);
        let mut any_adc_fault = false;
        let tables = tile_grid(row_tiles, col_tiles, |rt, ct| {
            let phys = ids[rt * col_tiles + ct];
            let mut table: ColumnFaults = vec![None; params.cols];
            // A dead subarray already contributes nothing; its ADC
            // state is unobservable.
            if !ctx.plan.subarray_dead(phys) {
                for adc in 0..params.adcs_per_subarray {
                    if let Some(f) = ctx.plan.adc_fault(phys, adc as u64, full_scale) {
                        any_adc_fault = true;
                        for slot in table.iter_mut().skip(adc * cols_per_adc).take(cols_per_adc) {
                            *slot = Some(f);
                        }
                    }
                }
            }
            table
        });
        let adc_faults = any_adc_fault.then_some(tables);
        Self::build(kind, params, &eff, outs, ins, adc_faults, ctx.link_slowdown)
    }

    /// The one constructor behind [`RomMvm::program`],
    /// [`RomMvm::program_with_faults`] and
    /// [`program_backend`](crate::backend::program_backend): checks the
    /// widths and every code, picks the datapath ([`Datapath::choose`])
    /// and straps only the weights that datapath reads. `adc_faults`
    /// holds every tile's column fault table when some ADC is faulted;
    /// a degraded link stretches every evaluation `link_slowdown` times.
    pub(crate) fn build(
        kind: BackendKind,
        params: MacroParams,
        codes: &[i32],
        outs: usize,
        ins: usize,
        adc_faults: Option<Vec<Vec<ColumnFaults>>>,
        link_slowdown: f64,
    ) -> Self {
        assert_eq!(codes.len(), outs * ins, "weight matrix size mismatch");
        let range = params
            .weight_code_range()
            .expect("weight_bits must be 1..=31 and fit one output per subarray");
        // The counter fold counts in `u32`; the batch path carries
        // activation codes as `u8` and stores `i32` accumulators. All
        // three bounds hold for the engine's life.
        assert!(ins <= u32::MAX as usize, "ins exceeds group-bound range");
        assert!(
            params.event_counts_fit(ins),
            "{ins} inputs overflow the u32 event counts"
        );
        assert!(
            params.act_bits <= 8,
            "{}-bit activation codes do not fit u8",
            params.act_bits
        );
        assert!(
            params.accumulators_fit(ins),
            "accumulators over {ins} inputs overflow i32"
        );
        let wb = params.weight_bits as usize;
        if let Some(code) = codes.iter().find(|c| !range.contains(c)) {
            panic!("value {code} outside signed {wb}-bit range");
        }
        let outs_per_array = params.cols / wb;
        let row_tiles = ins.div_ceil(params.rows);
        let col_tiles = outs.div_ceil(outs_per_array);
        let cfg = params.analog_config();
        let rpa = params.rows_per_activation;
        let adc_identity = match cfg.adc {
            AdcModel::Ideal => true,
            AdcModel::Sar { bits, full_scale } => full_scale < (1u32 << bits),
        };
        let path = Datapath::choose(
            kind,
            params.noise_sigma,
            rpa <= 64,
            adc_identity,
            adc_faults.is_some(),
        );
        // The codes each output of tile `(rt, ct)` holds, one per word
        // line.
        let tile_rows = |rt: usize, ct: usize| -> Vec<&[i32]> {
            let rows_here = params.rows.min(ins - rt * params.rows);
            let outs_here = outs_per_array.min(outs - ct * outs_per_array);
            (0..outs_here)
                .map(|o| {
                    let start = (ct * outs_per_array + o) * ins + rt * params.rows;
                    &codes[start..start + rows_here]
                })
                .collect()
        };
        let kernel = KernelDispatch::from_env().resolve();
        let weights = match path {
            Datapath::Exact => Weights::Exact {
                codes: codes.to_vec(),
                // The SIMD matmuls read the codes packed at their lane
                // width; the i32 bound above keeps their sums exact.
                packed: kernels::PackedCodes::for_tier(
                    kernel,
                    codes,
                    outs,
                    ins,
                    params.weight_bits,
                ),
            },
            Datapath::Stream => Weights::Stream {
                masks: tile_grid(row_tiles, col_tiles, |rt, ct| {
                    PopcountTile::strap(&tile_rows(rt, ct), params.rows.div_ceil(rpa), rpa, wb)
                }),
                adc_faults,
            },
            Datapath::Analog => {
                // One bit matrix, cleared and refilled for every
                // subarray: bit `j` of a code's two's-complement field
                // lands in column `o * weight_bits + j`, and every plane
                // is written, set or not.
                let mut bits = vec![false; params.rows * params.cols];
                Weights::Analog(tile_grid(row_tiles, col_tiles, |rt, ct| {
                    bits.fill(false);
                    for (o, row) in tile_rows(rt, ct).into_iter().enumerate() {
                        for (r, &code) in row.iter().enumerate() {
                            let cells = &mut bits[r * params.cols + o * wb..][..wb];
                            for (j, cell) in cells.iter_mut().enumerate() {
                                *cell = (code as u32 >> j) & 1 != 0;
                            }
                        }
                    }
                    let mut array = AnalogArray::from_bits(cfg, &bits);
                    if let Some(faults) = &adc_faults {
                        array.set_column_faults(faults[rt][ct].clone());
                    }
                    array
                }))
            }
        };
        // Precompute the global activation-group walk for the shared
        // event-counter fold: groups are rpa-row runs that restart at
        // every row-tile boundary.
        let mut group_bounds = Vec::new();
        for rt in 0..row_tiles {
            let lo = rt * params.rows;
            let hi = ((rt + 1) * params.rows).min(ins);
            let mut g = lo;
            while g < hi {
                let ge = (g + rpa).min(hi);
                group_bounds.push((g as u32, ge as u32));
                g = ge;
            }
        }
        // A vector evaluates at most every `(group, chunk)` pair.
        let max_active = group_bounds.len() * params.act_bits.div_ceil(params.chunk_bits) as usize;
        RomMvm {
            params,
            weights,
            group_bounds,
            kernel,
            finisher: StatsFinisher::new(&params, row_tiles, col_tiles, max_active, link_slowdown),
            ins,
            outs,
            outs_per_array,
        }
    }

    /// Forces the batched MVM kernels onto a specific tier, overriding
    /// the `program`-time dispatch. Tier choice never changes results
    /// (CI-pinned by the kernel-parity suites); this exists for those
    /// suites and for benchmarking the tiers against each other. An
    /// exact engine repacks its codes for the new tier's matmul lanes.
    ///
    /// # Panics
    ///
    /// Panics if the requested tier cannot execute on this host.
    pub fn set_kernel(&mut self, kind: KernelKind) {
        match kind {
            KernelKind::Scalar => {}
            KernelKind::Avx2 => assert!(
                kernels::avx2_available(),
                "AVX2 kernel tier is not available on this host"
            ),
            KernelKind::Avx512 => assert!(
                kernels::avx512_available(),
                "AVX-512 kernel tier is not available on this host"
            ),
        }
        if let Weights::Exact { codes, packed } = &mut self.weights {
            if kind != self.kernel {
                let wb = self.params.weight_bits;
                *packed = kernels::PackedCodes::for_tier(kind, codes, self.outs, self.ins, wb);
            }
        }
        self.kernel = kind;
    }

    /// The kernel tier batched MVMs currently execute on.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Quantizes `x` into the activation codes this engine reads,
    /// `codes[i] = p.quantize_value(x[i]) as u8`, in one pass compiled at
    /// the engine's kernel tier ([`RomMvm::kernel`]). Every tier writes
    /// the same codes (see the [`kernels`] module). A
    /// CiM layer calls this once over its input; its lowerings then move
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `p`'s codes do not fit the engine's activations, that
    /// is if `p` is symmetric or wider than `act_bits` (which
    /// [`RomMvm::program`] proved is at most 8, so the `as u8` is
    /// lossless), or if `codes` and `x` differ in length.
    pub fn quantize_codes(&self, p: &QuantParams, x: &[f32], codes: &mut [u8]) {
        let bits = self.params.act_bits;
        assert!(
            !p.symmetric && p.bits <= bits,
            "{}-bit {} codes do not fit the engine's unsigned {bits}-bit activations",
            p.bits,
            if p.symmetric { "signed" } else { "unsigned" }
        );
        assert_eq!(x.len(), codes.len(), "one code per value");
        kernels::quantize_codes(self.kernel, *p, x, codes);
    }

    /// Runs the event-counter fold over the block `src` of `n` vectors
    /// on this engine's tier, leaving one `(active, pulses)` pair per
    /// vector in `scratch` for [`RomMvm::fold_stats`].
    pub(crate) fn fold_counters(
        &self,
        src: kernels::FoldSrc<'_>,
        n: usize,
        scratch: &mut crate::backend::MvmScratch,
    ) {
        let p = &self.params;
        let fold = kernels::FoldParams {
            group_bounds: &self.group_bounds,
            n_chunks: p.act_bits.div_ceil(p.chunk_bits) as usize,
            chunk_bits: p.chunk_bits,
        };
        kernels::fold_event_counters(
            self.kernel,
            src,
            n,
            &fold,
            &mut scratch.active,
            &mut scratch.pulses,
        );
    }

    /// The weights this engine's datapath reads.
    pub(crate) fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Logical dimensions `(outs, ins)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.outs, self.ins)
    }

    /// Total subarrays used: the row tiles the inputs span times the
    /// column tiles the outputs span.
    pub fn subarrays_used(&self) -> usize {
        self.ins.div_ceil(self.params.rows) * self.outs.div_ceil(self.outs_per_array)
    }

    /// Executes `y = W x` on unsigned activation codes (`0..2^act_bits`),
    /// returning the integer results and execution statistics.
    ///
    /// An analog engine walks its cells (see *Execution paths*); every
    /// other engine runs its batch kernel on a one-vector block, through
    /// [`RomMvm::mvm_batch`], the checked `i32` boundary, and leaves the
    /// RNG untouched.
    ///
    /// # Panics
    ///
    /// Panics if `acts.len() != ins` or any code is out of range.
    pub fn mvm<R: Rng + ?Sized>(&self, acts: &[i32], rng: &mut R) -> (Vec<i64>, MvmStats) {
        if let Weights::Analog(tiles) = &self.weights {
            return self.mvm_analog(tiles, acts, rng);
        }
        assert_eq!(acts.len(), self.ins, "activation length mismatch");
        let mut out = vec![0i64; self.outs];
        let mut stats = MvmStats::default();
        let mut scratch = crate::backend::MvmScratch::new();
        self.mvm_batch(acts, 1, &mut out, &mut stats, &mut scratch, rng);
        (out, stats)
    }

    /// Asserts every activation code is in the unsigned `act_bits` range
    /// — the same hard failure the analog reference path raises through
    /// `unsigned_chunks`. The `i32` batch entries run it once per batch
    /// before narrowing the codes to `u8`, so no kernel can silently
    /// compute on truncated or sign-extended garbage.
    pub(crate) fn validate_act_codes(&self, acts: &[i32]) {
        // Reduced as a bitwise OR, which vectorizes on baseline x86-64
        // (an unsigned max does not: SSE2 has no `pmaxud`): a code is
        // in range iff it sets no bit at or above `act_bits`, and a
        // negative code sets the sign bit.
        let any = acts.iter().fold(0u32, |m, &a| m | a as u32);
        assert!(
            u64::from(any) >> self.params.act_bits == 0,
            "activation code outside unsigned {}-bit range",
            self.params.act_bits
        );
    }

    /// [`RomMvm::validate_act_codes`] for `u8` codes, which an engine
    /// with `act_bits == 8` needs no scan for: the type is the range.
    pub(crate) fn validate_u8_codes(&self, acts: &[u8]) {
        let bits = self.params.act_bits;
        if bits < 8 {
            let any = acts.iter().fold(0u8, |m, &a| m | a);
            assert!(
                any >> bits == 0,
                "activation code outside unsigned {bits}-bit range"
            );
        }
    }

    /// Executes a block of `n` activation vectors on the exact
    /// datapath: where the ADC transfer is an identity the bit-serial
    /// datapath reconstructs the exact integer product (the repo's core
    /// equivalence claim, property-tested in both directions), so the
    /// accumulators come from an integer matmul over the stored weight
    /// `codes` — dispatched through the selected kernel tier
    /// ([`RomMvm::kernel`]) — while the per-vector event counters in
    /// `scratch` come from the one shared event-counter fold (see the
    /// [`kernels`] module). Bit-identical to a per-vector analog walk in
    /// values *and* counters on every tier.
    pub(crate) fn mvm_batch_exact(
        &self,
        codes: &[i32],
        packed: &kernels::PackedCodes,
        acts: &[u8],
        n: usize,
        out: &mut [i32],
        scratch: &mut crate::backend::MvmScratch,
    ) {
        let codes = self.exact_codes(codes, packed);
        kernels::matmul_exact(self.kernel, &codes, acts, n, out, &mut scratch.acts16);
        let ins = self.ins;
        self.fold_counters(kernels::FoldSrc::Rows { acts, ins }, n, scratch);
    }

    /// The stored codes and their packing, as the matmul tiers read
    /// them.
    fn exact_codes<'a>(
        &self,
        codes: &'a [i32],
        packed: &'a kernels::PackedCodes,
    ) -> kernels::ExactCodes<'a> {
        kernels::ExactCodes {
            codes,
            packed,
            outs: self.outs,
            ins: self.ins,
        }
    }

    /// The activation layout the batched kernels prefer for a block of
    /// `n` vectors (see [`kernels::choose_layout`]).
    /// [`MatmulLayout::Transposed`](kernels::MatmulLayout::Transposed)
    /// asks the caller for a lane-major panel whose rows it addresses
    /// through a per-row offset table, and to call
    /// [`RomMvm::run_batch_transposed`] (any offsets: a conv's taps read
    /// its column-shifted code planes in place) or
    /// [`RomMvm::mvm_batch_transposed`] (a copied `[ins x n_pad]` panel,
    /// `n_pad = transposed_pad(n)`). The row-major entries run the
    /// row-major kernels on every shape, so the transposed kernels run
    /// only for callers that stage the panel.
    ///
    /// Only the exact matmul has a panel-native kernel. The analog
    /// reference walk is per-vector, and the quantizing mask stream packs
    /// its pulse bit-planes from row-major vectors, so both always stage
    /// row-major (a panel handed to them is unpacked first).
    ///
    /// The scalar tier also stays row-major: the panel layout only pays
    /// off when lanes vectorize, and letting the reference tier take its
    /// slower transposed walk would quietly inflate every measured
    /// speedup. Scalar's transposed entries remain first-class parity
    /// oracles — the remainder suites drive them with explicit panels.
    pub fn batch_layout(&self, n: usize) -> kernels::MatmulLayout {
        if matches!(self.weights, Weights::Exact { .. }) {
            kernels::choose_layout(self.kernel, self.outs, self.ins, n)
        } else {
            kernels::MatmulLayout::RowMajor
        }
    }

    /// [`RomMvm::mvm_batch_exact`] over a lane-major [`kernels::Panel`]
    /// — the layout [`RomMvm::batch_layout`] asks callers to stage when
    /// the crossover picks the transposed kernels. Bit-identical to the
    /// row-major entry on every tier.
    pub(crate) fn mvm_batch_exact_t(
        &self,
        codes: &[i32],
        packed: &kernels::PackedCodes,
        panel: &kernels::Panel<'_>,
        out: &mut [i32],
        scratch: &mut crate::backend::MvmScratch,
    ) {
        let codes = self.exact_codes(codes, packed);
        kernels::matmul_exact_t(self.kernel, &codes, panel, out, &mut scratch.taps);
        self.fold_counters(kernels::FoldSrc::Panel(*panel), panel.n(), scratch);
    }

    /// Fold step of the batch entries: merges the statistics of vectors
    /// `vectors` of the last run step into `stats`, **in vector order,
    /// each vector derived from its counters from zero** — exactly the
    /// reduction a per-vector [`RomMvm::mvm`] loop over those vectors
    /// performs.
    ///
    /// The engine's constants apply here, once: a vector with `active`
    /// live `(group, chunk)` pairs and `pulses` word-line pulses
    /// evaluates `active * col_tiles` times, converts
    /// `active * cols * col_tiles` columns and drives
    /// `pulses * col_tiles` pulses. Each `u32` count converts to `f64`
    /// exactly, and multiplying it by the constant rounds the exact
    /// integer product once, as converting the `u64` product does, so the
    /// derived `f64` fields are the ones the analog walk derives.
    /// The terms that depend on `active` alone come from a table built
    /// at `program` time; only the pulse term is multiplied here.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` reaches past the last run's block.
    pub fn fold_stats(
        &self,
        scratch: &crate::backend::MvmScratch,
        vectors: Range<usize>,
        stats: &mut MvmStats,
    ) {
        let f = &self.finisher;
        let (col_tiles, e_wl, shift_add) = (f.col_tiles as f64, f.e_wl_pulse_pj, f.shift_add_term);
        let active = &scratch.active[vectors.clone()];
        let pulses = &scratch.pulses[vectors];
        let (mut evals, mut wl) = (0u64, 0u64);
        for (&a, &p) in active.iter().zip(pulses) {
            evals += u64::from(a);
            wl += u64::from(p);
            // `StatsFinisher::derive`'s sums, in its order, with the
            // active-count terms looked up.
            let [adc, precharge, latency] = f.by_active[a as usize];
            stats.energy_pj += adc + f64::from(p) * col_tiles * e_wl + precharge + shift_add;
            stats.latency_ns += latency;
        }
        stats.analog_evaluations += evals * f.col_tiles;
        stats.adc_conversions += evals * f.conversions;
        stats.wl_pulses += wl * f.col_tiles;
    }

    /// Executes a block of `n` activation vectors on the quantizing mask
    /// stream with **one traversal of the popcount `masks` per block**:
    /// the pulse bit-planes of every vector are packed once per
    /// (row-tile, chunk) step into `scratch`, and the per-column weight
    /// masks are then streamed a single time, each mask
    /// `AND`+`popcount`-ed against all vectors while it is hot.
    /// Bit-identical to a per-vector analog walk in values *and* event
    /// counters: the integer accumulation is exact under any traversal
    /// order, the same ADC transfer (after the tile's column faults in
    /// `adc_faults`) is applied per group evaluation, and the per-vector
    /// counters left in `scratch` are the ones the analog walk derives
    /// its statistics from.
    ///
    /// The `AND`+popcount inner loop and the counter fold dispatch
    /// through the selected kernel tier ([`RomMvm::kernel`]); every tier
    /// computes identical integers, so tier choice is invisible here.
    pub(crate) fn mvm_batch_fast(
        &self,
        masks: &[Vec<PopcountTile>],
        adc_faults: Option<&[Vec<ColumnFaults>]>,
        acts: &[u8],
        n: usize,
        out: &mut [i32],
        scratch: &mut crate::backend::MvmScratch,
    ) {
        let p = &self.params;
        let rpa = p.rows_per_activation;
        let n_groups = p.rows.div_ceil(rpa);
        let n_planes = p.chunk_bits as usize;
        let n_chunks = p.act_bits.div_ceil(p.chunk_bits) as usize;
        let chunk_mask = (1u32 << p.chunk_bits) - 1;
        out.fill(0);
        // Event counters: the one shared fold over the pulse activity
        // (pure function of the pulses, independent of the mask stream).
        let ins = self.ins;
        self.fold_counters(kernels::FoldSrc::Rows { acts, ins }, n, scratch);
        // Values: per (row-tile, chunk), stage the block's pulse planes
        // **plane-major** (`[group][plane][vector]`, vectors padded to
        // the tier's popcount lane width) so each staged plane is
        // contiguous across the block, then stream the tile-major
        // lane-packed nonzero weight masks once per block — one
        // L1-resident weight tile against all staged activation
        // bit-planes.
        let n_pad = n.next_multiple_of(self.kernel.plane_pad());
        let group_stride = n_planes * n_pad;
        scratch.plane_masks.clear();
        scratch.plane_masks.resize(n_groups * group_stride, 0);
        scratch.counts.clear();
        scratch.counts.resize(n_pad, 0);
        for (rt, tile_row) in masks.iter().enumerate() {
            let row_lo = rt * p.rows;
            let row_hi = ((rt + 1) * p.rows).min(self.ins);
            let row_faults = adc_faults.map(|af| &af[rt][..]);
            for c_idx in 0..n_chunks {
                let shift = c_idx as u8 * p.chunk_bits;
                let act_weight = 1i32 << shift;
                scratch.plane_masks.fill(0);
                let mut any_pulse = false;
                for v in 0..n {
                    let av = &acts[v * self.ins + row_lo..v * self.ins + row_hi];
                    for (r, &a) in av.iter().enumerate() {
                        let pulse = (u32::from(a) >> shift) & chunk_mask;
                        if pulse == 0 {
                            continue;
                        }
                        any_pulse = true;
                        let bit = 1u64 << (r % rpa);
                        let base = (r / rpa) * group_stride + v;
                        for b in 0..n_planes {
                            if (pulse >> b) & 1 == 1 {
                                scratch.plane_masks[base + b * n_pad] |= bit;
                            }
                        }
                    }
                }
                if !any_pulse {
                    continue;
                }
                self.stream_tile_masks(
                    tile_row,
                    row_faults,
                    n,
                    n_pad,
                    act_weight,
                    &scratch.plane_masks,
                    &mut scratch.counts,
                    out,
                );
            }
        }
    }

    /// Streams one row tile's lane-packed nonzero weight masks against
    /// the staged pulse bit-planes — the inner loop of
    /// [`RomMvm::mvm_batch_fast`] (`AND`+popcount via
    /// [`kernels::group_counts`], then the tile's column faults from
    /// `row_faults`, the ADC transfer and signed-plane accumulation).
    /// Every term and sum fits the `i32` accumulators by
    /// [`MacroParams::accumulators_fit`].
    #[allow(clippy::too_many_arguments)]
    fn stream_tile_masks(
        &self,
        tile_row: &[PopcountTile],
        row_faults: Option<&[ColumnFaults]>,
        n: usize,
        n_pad: usize,
        act_weight: i32,
        plane_masks: &[u64],
        counts: &mut [u64],
        out: &mut [i32],
    ) {
        let p = &self.params;
        let wb = p.weight_bits as usize;
        let n_planes = p.chunk_bits as usize;
        let n_groups = p.rows.div_ceil(p.rows_per_activation);
        let group_stride = n_planes * n_pad;
        let adc = p.analog_config().adc;
        for (ct, tile) in tile_row.iter().enumerate() {
            let tile_faults = row_faults.map(|r| &r[ct]);
            for g in 0..n_groups {
                let planes = &plane_masks[g * group_stride..(g + 1) * group_stride];
                let span = tile.nz_offsets[g] as usize..tile.nz_offsets[g + 1] as usize;
                for &(meta, mask) in &tile.nz[span] {
                    let o = (meta >> 8) as usize;
                    let out_idx = ct * self.outs_per_array + o;
                    let j = (meta & 0xff) as usize;
                    let col_fault = tile_faults.and_then(|t| t[o * wb + j]);
                    let w_plane = act_weight * signed_plane_weight(j, p.weight_bits) as i32;
                    kernels::group_counts(self.kernel, mask, planes, n_planes, n_pad, counts);
                    let row = &mut out[out_idx * n..(out_idx + 1) * n];
                    for (slot, &count) in row.iter_mut().zip(&counts[..n]) {
                        if count == 0 {
                            continue;
                        }
                        // Both fault transforms fix zero, so the
                        // silent-column skip above stays exact.
                        let sensed = match col_fault {
                            Some(f) => f.apply_count(count),
                            None => count,
                        };
                        *slot += w_plane * adc.digitize(sensed as f32) as i32;
                    }
                }
            }
        }
    }

    /// Executes `y = W x` through the cell-accurate analog reference
    /// walk over the engine's cell arrays `tiles`: every group
    /// evaluation walks the subarray cells, injects bit-line noise when
    /// configured, and digitizes through the column ADC model. The
    /// golden reference for the batch kernels, and the only path that
    /// models noise.
    ///
    /// # Panics
    ///
    /// Panics if `acts.len() != ins` or any code is out of range.
    pub(crate) fn mvm_analog<R: Rng + ?Sized>(
        &self,
        tiles: &[Vec<AnalogArray>],
        acts: &[i32],
        rng: &mut R,
    ) -> (Vec<i64>, MvmStats) {
        assert_eq!(acts.len(), self.ins, "activation length mismatch");
        let p = &self.params;
        let chunks = unsigned_chunks(acts, p.act_bits, p.chunk_bits);
        let wb = p.weight_bits as usize;
        let mut out = vec![0i64; self.outs];
        let mut stats = MvmStats::default();
        for (rt, tile_row) in tiles.iter().enumerate() {
            let row_lo = rt * p.rows;
            let row_hi = ((rt + 1) * p.rows).min(self.ins);
            for (c_idx, chunk) in chunks.iter().enumerate() {
                // Build the pulse vector for this row tile and digit.
                let mut pulses = vec![0u8; p.rows];
                pulses[..row_hi - row_lo].copy_from_slice(&chunk[row_lo..row_hi]);
                let total_pulses: u64 = pulses.iter().map(|&v| v as u64).sum();
                if total_pulses == 0 {
                    continue;
                }
                let act_weight = 1i64 << (c_idx as u8 * p.chunk_bits);
                for (ct, array) in tile_row.iter().enumerate() {
                    let (counts, evals) = array.evaluate(&pulses, rng);
                    stats.analog_evaluations += evals as u64;
                    stats.adc_conversions += (evals * p.cols) as u64;
                    stats.wl_pulses += total_pulses;
                    for o in 0..self.outs_per_array {
                        let out_idx = ct * self.outs_per_array + o;
                        if out_idx >= self.outs {
                            break;
                        }
                        for j in 0..wb {
                            let count = counts[o * wb + j];
                            out[out_idx] +=
                                act_weight * signed_plane_weight(j, p.weight_bits) * count;
                        }
                    }
                }
            }
        }
        self.finisher.finish(&mut stats);
        (out, stats)
    }
}

/// A `[row_tile][col_tile]` grid of `f(rt, ct)`, built row by row.
fn tile_grid<T>(
    row_tiles: usize,
    col_tiles: usize,
    mut f: impl FnMut(usize, usize) -> T,
) -> Vec<Vec<T>> {
    (0..row_tiles)
        .map(|rt| (0..col_tiles).map(|ct| f(rt, ct)).collect())
        .collect()
}

/// Precomputed constants of the stats derivation (see
/// [`StatsFinisher::finish`]); built once at `program` time, applied per
/// vector.
struct StatsFinisher {
    /// Column tiles every group evaluation fans across.
    col_tiles: u64,
    /// ADC conversions per live `(group, chunk)`: `cols * col_tiles`.
    conversions: u64,
    e_adc_pj: f64,
    e_wl_pulse_pj: f64,
    cols_f: f64,
    e_precharge_pj: f64,
    /// `subarrays_used() as f64 * e_shift_add_pj`, constant per engine.
    shift_add_term: f64,
    /// `t_inference_ns / (chunks x groups)`, times the link slowdown,
    /// constant per engine.
    t_eval: f64,
    /// Column-tile parallelism divisor, constant per engine.
    tile_div: f64,
    /// For every active count `a` up to the most a vector reaches (the
    /// index), the
    /// `[ADC energy, precharge energy, latency]` terms [`derive`] gives
    /// a vector with `a` live `(group, chunk)` evaluations, which fan
    /// out to `a * col_tiles` evaluations and `a * conversions`
    /// conversions.
    ///
    /// [`derive`]: StatsFinisher::derive
    by_active: Vec<[f64; 3]>,
}

impl StatsFinisher {
    /// Hoists the constant subexpressions of the stats derivation for
    /// an engine over a `row_tiles x col_tiles` grid — the shape math
    /// and the `t_eval` division, stretched by a degraded link's
    /// `link_slowdown` — and tabulates the terms that depend on a
    /// vector's active count alone, up to `max_active`, so the
    /// per-vector fold pays only a lookup and the pulse term. Every
    /// precomputed value is the exact float the unhoisted expression
    /// produced, and [`StatsFinisher::finish`] and
    /// [`RomMvm::fold_stats`] apply the remaining operations in the
    /// original order, so the derived fields stay bit-identical to a
    /// per-vector walk.
    fn new(
        p: &MacroParams,
        row_tiles: usize,
        col_tiles: usize,
        max_active: usize,
        link_slowdown: f64,
    ) -> Self {
        let groups_per_tile = p.rows.div_ceil(p.rows_per_activation) as f64;
        let n_chunks = p.act_bits.div_ceil(p.chunk_bits);
        // An engine with no row tile evaluates nothing: no column tile
        // fans out, and its latency divides by one.
        let fan_out = if row_tiles == 0 { 0 } else { col_tiles as u64 };
        let mut finisher = StatsFinisher {
            col_tiles: fan_out,
            conversions: p.cols as u64 * fan_out,
            e_adc_pj: p.e_adc_pj,
            e_wl_pulse_pj: p.e_wl_pulse_pj,
            cols_f: p.cols as f64,
            e_precharge_pj: p.e_precharge_pj,
            shift_add_term: (row_tiles * col_tiles) as f64 * p.e_shift_add_pj,
            t_eval: p.t_inference_ns / (f64::from(n_chunks) * groups_per_tile) * link_slowdown,
            tile_div: (fan_out as f64).max(1.0),
            by_active: Vec::new(),
        };
        // Each term the float `derive` computes for its active count.
        let f = &finisher;
        let (col_tiles, conversions) = (f.col_tiles as f64, f.conversions as f64);
        finisher.by_active = (0..=max_active)
            .map(|a| {
                let (adc, evals) = (a as f64 * conversions, a as f64 * col_tiles);
                [
                    adc * f.e_adc_pj,
                    evals * f.cols_f * f.e_precharge_pj,
                    evals * f.t_eval / f.tile_div,
                ]
            })
            .collect();
        finisher
    }

    /// Fills in the derived energy and latency fields from the event
    /// counters, identically for every execution path.
    ///
    /// Energy: one `e_adc` per column conversion, `e_wl` per actual
    /// pulse, per-evaluation bit-line precharge, and shift-&-add/control
    /// overhead per active subarray. Latency: one analog evaluation takes
    /// `t_inference / (chunks x groups)` — a full 8-bit MAC over `rows`
    /// inputs takes `t_inference_ns`; column tiles run in parallel on
    /// distinct subarrays, so divide by the column-tile count.
    fn finish(&self, stats: &mut MvmStats) {
        (stats.energy_pj, stats.latency_ns) = self.derive(
            stats.adc_conversions as f64,
            stats.wl_pulses as f64,
            stats.analog_evaluations as f64,
        );
    }

    /// `(energy_pj, latency_ns)` of `adc` conversions, `wl` pulses and
    /// `evals` analog evaluations, each given as an `f64`.
    #[inline(always)]
    fn derive(&self, adc: f64, wl: f64, evals: f64) -> (f64, f64) {
        let energy = adc * self.e_adc_pj
            + wl * self.e_wl_pulse_pj
            + evals * self.cols_f * self.e_precharge_pj
            + self.shift_add_term;
        (energy, evals * self.t_eval / self.tile_div)
    }
}

/// Reference integer MVM for cross-checking [`RomMvm`]: `y = W x` with the
/// same `(outs, ins)` layout, in `i64` over `i32` codes.
pub fn reference_mvm(codes: &[i32], outs: usize, ins: usize, acts: &[i32]) -> Vec<i64> {
    assert_eq!(codes.len(), outs * ins, "weight matrix size mismatch");
    assert_eq!(acts.len(), ins, "activation length mismatch");
    (0..outs)
        .map(|o| {
            let row = &codes[o * ins..(o + 1) * ins];
            row.iter()
                .zip(acts)
                .map(|(&w, &a)| i64::from(w) * i64::from(a))
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::program_backend;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table1_spec_matches_paper() {
        let spec = MacroParams::rom_paper().spec();
        // Table I targets.
        assert!(
            (spec.macro_size_mb - 1.2).abs() < 0.1,
            "size {}",
            spec.macro_size_mb
        );
        assert!(
            (spec.macro_area_mm2 - 0.24).abs() < 0.01,
            "area {}",
            spec.macro_area_mm2
        );
        assert!(
            (spec.density_mb_per_mm2 - 5.0).abs() < 0.3,
            "density {}",
            spec.density_mb_per_mm2
        );
        assert!((spec.cell_area_um2 - 0.014).abs() < 1e-9);
        assert_eq!(spec.operation_number, 256);
        assert!((spec.inference_time_ns - 8.9).abs() < 1e-9);
        assert!(
            (spec.throughput_gops - 28.8).abs() < 0.2,
            "gops {}",
            spec.throughput_gops
        );
        assert!(
            (spec.area_efficiency_gops_mm2 - 119.4).abs() < 3.0,
            "ae {}",
            spec.area_efficiency_gops_mm2
        );
        assert!(
            (spec.energy_efficiency_tops_w - 11.5).abs() < 0.2,
            "ee {}",
            spec.energy_efficiency_tops_w
        );
        assert_eq!(spec.standby_power_w, 0.0);
    }

    #[test]
    fn edram_sits_between_sram_and_rom() {
        let rom = MacroParams::rom_paper().spec();
        let sram = MacroParams::sram_paper().spec();
        let edram = MacroParams::edram_paper().spec();
        assert!(edram.density_mb_per_mm2 > sram.density_mb_per_mm2);
        assert!(edram.density_mb_per_mm2 < rom.density_mb_per_mm2);
        // Volatile and refresh-hungry.
        assert!(edram.standby_power_w > sram.standby_power_w);
    }

    #[test]
    fn rom_vs_sram_density_ratio() {
        let rom = MacroParams::rom_paper().spec();
        let sram = MacroParams::sram_paper().spec();
        let ratio = rom.density_mb_per_mm2 / sram.density_mb_per_mm2;
        // Paper: ROM-CiM macro density 19-25.6x the SRAM-CiM counterpart.
        assert!((15.0..=30.0).contains(&ratio), "density ratio {ratio}");
        assert!(sram.standby_power_w > 0.0);
    }

    #[test]
    fn mvm_ideal_adc_is_exact() {
        let mut params = MacroParams::rom_paper();
        params.adc_bits = 16; // ideal
        params.subarrays = 4;
        let mut rng = StdRng::seed_from_u64(1);
        let (outs, ins) = (5, 200);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 37) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..ins).map(|i| ((i * 13) % 256) as i32).collect();
        let engine = RomMvm::program(params, &codes, outs, ins);
        let (y, stats) = engine.mvm(&acts, &mut rng);
        assert_eq!(y, reference_mvm(&codes, outs, ins, &acts));
        assert!(stats.analog_evaluations > 0);
        assert!(stats.energy_pj > 0.0);
        assert!(stats.latency_ns > 0.0);
    }

    #[test]
    fn mvm_5bit_adc_paper_design_point_is_exact() {
        // 10 active rows x 3 pulses = 30 events fits the 31-level 5-bit
        // ADC, so the noiseless datapath is bit-exact — the macro-level
        // basis for the paper's "almost no accuracy loss".
        let params = MacroParams::rom_paper(); // 5-bit ADC, 10 rows/activation
        let mut rng = StdRng::seed_from_u64(2);
        let (outs, ins) = (4, 128);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 7) % 200) as i32 - 100)
            .collect();
        let acts: Vec<i32> = (0..ins).map(|i| ((i * 11) % 128) as i32).collect();
        let engine = RomMvm::program(params, &codes, outs, ins);
        let (y, _) = engine.mvm(&acts, &mut rng);
        assert_eq!(y, reference_mvm(&codes, outs, ins, &acts));
    }

    #[test]
    fn mvm_overdriven_rows_has_bounded_error() {
        // Driving more simultaneous rows than the ADC can resolve trades
        // accuracy for parallelism (paper 4.3.1 trade-off): the result is
        // no longer exact but the error is bounded by the per-evaluation
        // quantization error times the bit significance weights.
        let mut params = MacroParams::rom_paper();
        params.rows_per_activation = 32; // full scale 96 >> 31 levels
        let mut rng = StdRng::seed_from_u64(5);
        let (outs, ins) = (4, 128);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 13) % 250) as i32 - 125)
            .collect();
        let acts: Vec<i32> = (0..ins).map(|i| ((i * 17) % 256) as i32).collect();
        let engine = RomMvm::program(params, &codes, outs, ins);
        let (y, _) = engine.mvm(&acts, &mut rng);
        let exact = reference_mvm(&codes, outs, ins, &acts);
        let per_eval = params.analog_config().adc.max_quantization_error() as f64;
        let groups = (128f64 / 32.0).ceil();
        let sum_act_w = (0..4).map(|c| (1u64 << (2 * c)) as f64).sum::<f64>();
        let sum_plane_w = (0..8).map(|j| (1u64 << j) as f64).sum::<f64>();
        let bound = groups * sum_act_w * sum_plane_w * per_eval;
        let mut any_err = false;
        for (a, b) in y.iter().zip(&exact) {
            assert!(((a - b).abs() as f64) <= bound, "{a} vs {b} bound {bound}");
            any_err |= a != b;
        }
        assert!(any_err, "overdriven readout should show quantization error");
    }

    #[test]
    fn tiling_covers_large_matrices() {
        let mut params = MacroParams::rom_paper();
        params.adc_bits = 16;
        let (outs, ins) = (70, 300); // forces 3 row tiles x 3 col tiles
        let codes = vec![1i32; outs * ins];
        let engine = RomMvm::program(params, &codes, outs, ins);
        assert_eq!(engine.subarrays_used(), 3 * 3);
        let acts = vec![1i32; ins];
        let mut rng = StdRng::seed_from_u64(3);
        let (y, _) = engine.mvm(&acts, &mut rng);
        assert!(y.iter().all(|&v| v == ins as i64));
    }

    /// The datapath `engine` executes on, read off the weights it holds.
    fn path(engine: &RomMvm) -> Datapath {
        match engine.weights {
            Weights::Analog(_) => Datapath::Analog,
            Weights::Stream { .. } => Datapath::Stream,
            Weights::Exact { .. } => Datapath::Exact,
        }
    }

    /// A 53 x 300 matrix of 5-bit codes: odd shapes leave partial row
    /// and column tiles, and 5-bit codes leave unused columns.
    fn five_bit_matrix() -> (MacroParams, Vec<i32>, usize, usize) {
        let params = MacroParams {
            weight_bits: 5,
            ..MacroParams::rom_paper()
        };
        let (outs, ins) = (53, 300);
        let codes = (0..outs * ins)
            .map(|i| ((i * 37) % 32) as i32 - 16)
            .collect();
        (params, codes, outs, ins)
    }

    /// The cells of tile `(rt, ct)` an `outs x ins` matrix of 5-bit
    /// `codes` straps (row-major `rows x cols`), by the quant crate's
    /// plane decomposition: the oracle of both programming tests.
    fn strapped_cells(
        params: &MacroParams,
        codes: &[i32],
        (outs, ins): (usize, usize),
        (rt, ct): (usize, usize),
    ) -> Vec<bool> {
        use yoloc_quant::bitplane::signed_bitplanes;
        let planes = signed_bitplanes(codes, params.weight_bits);
        let opa = params.cols / 5;
        (0..params.rows * params.cols)
            .map(|cell| {
                let (r, c) = (cell / params.cols, cell % params.cols);
                let (i, o, j) = (rt * params.rows + r, ct * opa + c / 5, c % 5);
                i < ins && o < outs && c < opa * 5 && planes[j][o * ins + i] == 1
            })
            .collect()
    }

    #[test]
    fn analog_program_straps_signed_bitplanes() {
        let (params, codes, outs, ins) = five_bit_matrix();
        let engine = program_backend(BackendKind::Analog, params, &codes, outs, ins);
        let Weights::Analog(tiles) = &engine.weights else {
            panic!("an analog engine holds cell arrays");
        };
        assert_eq!((tiles.len(), tiles[0].len()), (3, 2), "tile grid");
        for (rt, tile_row) in tiles.iter().enumerate() {
            for (ct, array) in tile_row.iter().enumerate() {
                let want = strapped_cells(&params, &codes, (outs, ins), (rt, ct));
                for (cell, &want) in want.iter().enumerate() {
                    let (r, c) = (cell / params.cols, cell % params.cols);
                    assert_eq!(array.bit(r, c), want, "tile ({rt}, {ct}) cell ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn stream_program_packs_the_nonzero_group_masks() {
        // 32-row groups overdrive the 5-bit ADC onto the mask stream.
        let (params, codes, outs, ins) = five_bit_matrix();
        let params = MacroParams {
            rows_per_activation: 32,
            ..params
        };
        let engine = RomMvm::program(params, &codes, outs, ins);
        let (cols, rpa) = (params.cols, params.rows_per_activation);
        let groups = params.rows.div_ceil(rpa);
        let Weights::Stream {
            masks: tiles,
            adc_faults: None,
        } = &engine.weights
        else {
            panic!("a quantizing engine on a healthy fabric holds bare masks");
        };
        assert_eq!((tiles.len(), tiles[0].len()), (3, 2), "tile grid");
        for (rt, tile_row) in tiles.iter().enumerate() {
            for (ct, tile) in tile_row.iter().enumerate() {
                let mut masks = vec![0u64; groups * cols];
                let cells = strapped_cells(&params, &codes, (outs, ins), (rt, ct));
                for (cell, _) in cells.iter().enumerate().filter(|(_, &set)| set) {
                    let (r, c) = (cell / cols, cell % cols);
                    masks[(r / rpa) * cols + c] |= 1u64 << (r % rpa);
                }
                // The stored lists hold exactly the nonzero group masks,
                // group by group, in (output, plane) column order.
                let mut nz = Vec::new();
                let mut nz_offsets = vec![0u32];
                for g in 0..groups {
                    for (c, &mask) in masks[g * cols..(g + 1) * cols].iter().enumerate() {
                        if mask != 0 {
                            nz.push(((((c / 5) as u32) << 8) | (c % 5) as u32, mask));
                        }
                    }
                    nz_offsets.push(nz.len() as u32);
                }
                assert_eq!(tile.nz, nz, "nz masks of tile ({rt}, {ct})");
                assert_eq!(
                    tile.nz_offsets, nz_offsets,
                    "nz offsets of tile ({rt}, {ct})"
                );
            }
        }
    }

    #[test]
    fn each_engine_holds_the_one_datapath_its_inputs_pick() {
        // Kind x noise x group size x ADC faults: the analog kind, noise
        // or groups wider than a u64 mask walk the cells; an identity
        // ADC (10-row groups) on a healthy fabric takes the exact
        // matmul; a quantizing (32-row) or faulted ADC streams masks.
        use crate::faults::{FaultPlan, FaultSpec};
        let (outs, ins) = (6, 100); // one subarray, 16 ADCs
        let codes: Vec<i32> = (0..outs * ins).map(|i| (i % 255) as i32 - 127).collect();
        // The first seed that faults exactly one of them.
        let plan = (0..)
            .map(|seed| {
                let spec = FaultSpec::uniform(seed, 0.0);
                FaultPlan::new(FaultSpec {
                    adc_fault_rate: 0.05,
                    ..spec
                })
            })
            .find(|plan| {
                (0..16)
                    .filter(|&a| plan.adc_fault(0, a, 30).is_some())
                    .count()
                    == 1
            })
            .expect("some seed faults one ADC");
        let ctx = FaultContext::bare(&plan);
        for kind in [BackendKind::Popcount, BackendKind::Analog] {
            for (noise_sigma, rpa) in [
                (0.0, 10),
                (0.0, 32),
                (0.0, 65),
                (0.3, 10),
                (0.3, 32),
                (0.3, 65),
            ] {
                let params = MacroParams {
                    noise_sigma,
                    rows_per_activation: rpa,
                    ..MacroParams::rom_paper()
                };
                let healthy = program_backend(kind, params, &codes, outs, ins);
                let faulted = RomMvm::program_with_faults(kind, params, &codes, outs, ins, &ctx);
                let walk = kind == BackendKind::Analog || noise_sigma != 0.0 || rpa > 64;
                let want = match (walk, rpa) {
                    (true, _) => [Datapath::Analog; 2],
                    (false, 10) => [Datapath::Exact, Datapath::Stream],
                    (false, _) => [Datapath::Stream; 2],
                };
                let cell = format!("{kind:?}, sigma {noise_sigma}, {rpa}-row groups");
                assert_eq!([path(&healthy), path(&faulted)], want, "{cell}");
                // A stream carries the faulted ADC's columns, and only
                // on the faulted fabric.
                for (engine, want) in [(&healthy, 0), (&faulted, params.cols / 16)] {
                    if let Weights::Stream { adc_faults, .. } = &engine.weights {
                        let tables = adc_faults.iter().flatten().flatten().flatten();
                        assert_eq!(tables.flatten().count(), want, "{cell}: faulty columns");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside signed")]
    fn program_rejects_codes_outside_the_signed_range() {
        // 8-bit codes span -128..=127: 128 needs a ninth bit.
        RomMvm::program(MacroParams::rom_paper(), &[0, 128], 1, 2);
    }

    #[test]
    fn event_count_bound_sits_at_the_u32_edge() {
        // Paper chunking: four 2-bit chunks, at most 12 pulses per code,
        // so the last `ins` that fits is floor((2^32 - 1) / 12).
        let paper = MacroParams::rom_paper();
        let edge = (u32::MAX / 12) as usize;
        assert_eq!(edge, 357_913_941);
        assert!(paper.event_counts_fit(edge));
        assert!(!paper.event_counts_fit(edge + 1));
        // Ten 1-bit chunks of a 10-bit code: 10 pulses per code at most.
        let wide = MacroParams {
            act_bits: 10,
            chunk_bits: 1,
            ..paper
        };
        let edge = (u32::MAX / 10) as usize;
        assert!(wide.event_counts_fit(edge));
        assert!(!wide.event_counts_fit(edge + 1));
        // A chunk width no engine can drive fits nothing.
        for chunk_bits in [0, 32] {
            assert!(!MacroParams {
                chunk_bits,
                ..paper
            }
            .event_counts_fit(1));
        }
    }

    #[test]
    fn accumulator_bound_sits_at_the_i32_edge() {
        // Paper widths: every product is at most 255 * 128, so the last
        // `ins` whose accumulators fit is floor(i32::MAX / 32640).
        let paper = MacroParams::rom_paper();
        let edge = (i32::MAX / (255 * 128)) as usize;
        assert_eq!(edge, 65_793);
        assert!(paper.accumulators_fit(edge));
        assert!(!paper.accumulators_fit(edge + 1));
        // Narrower codes and weights reach further: 15 * 16 per product.
        let narrow = MacroParams {
            act_bits: 4,
            weight_bits: 5,
            ..paper
        };
        let edge = (i32::MAX / (15 * 16)) as usize;
        assert!(narrow.accumulators_fit(edge));
        assert!(!narrow.accumulators_fit(edge + 1));
        // A quantizing ADC (32-row groups: full scale 96 > 31 levels)
        // may read each (group, chunk, plane) out at its full scale:
        // 96 * 255 * 85 per group, so at most 1032 groups, which the
        // first 258 row tiles of four groups each hold.
        let quantizing = MacroParams {
            rows_per_activation: 32,
            ..paper
        };
        assert!(quantizing.accumulators_fit(258 * 128));
        assert!(!quantizing.accumulators_fit(258 * 128 + 1));
        // Codes wider than the `u8` the batch path carries fit nothing,
        // and nor does a shape the programmer cannot store.
        assert!(paper.accumulators_fit(1));
        assert!(!MacroParams {
            act_bits: 9,
            ..paper
        }
        .accumulators_fit(1));
        assert!(!MacroParams {
            weight_bits: 0,
            ..paper
        }
        .accumulators_fit(1));
        assert!(!MacroParams {
            rows_per_activation: 0,
            ..paper
        }
        .accumulators_fit(1));
    }

    #[test]
    fn program_enforces_both_width_bounds() {
        let panics = |params: MacroParams, ins: usize| {
            let codes = vec![0i32; ins];
            std::panic::catch_unwind(|| RomMvm::program(params, &codes, 1, ins)).is_err()
        };
        let paper = MacroParams::rom_paper();
        assert!(!panics(paper, 9));
        assert!(panics(
            MacroParams {
                act_bits: 9,
                ..paper
            },
            9
        ));
        // One input past the i32 edge is refused before any subarray
        // is programmed.
        assert!(panics(paper, 65_794));
    }

    #[test]
    fn stats_table_matches_the_derivation() {
        // Every tabulated term is the float `derive` computes for its
        // active count, and a vector's terms add up to `derive`'s sums,
        // in its order, bit for bit: on a multi-tile engine, on healthy
        // links and behind a degraded one.
        use crate::faults::{FaultPlan, FaultSpec};
        let params = MacroParams::rom_paper();
        let (outs, ins) = (70, 300);
        let plan = FaultPlan::new(FaultSpec::none());
        for link_slowdown in [1.0, 3.7] {
            let ctx = FaultContext {
                plan: &plan,
                phys_ids: &[],
                link_slowdown,
            };
            let codes = vec![1i32; outs * ins];
            let kind = BackendKind::Popcount;
            let f = RomMvm::program_with_faults(kind, params, &codes, outs, ins, &ctx).finisher;
            let (col_tiles, conversions) = (f.col_tiles as f64, f.conversions as f64);
            // 300 rows: 3 row tiles of 13, 13 and 5 groups, 4 chunks.
            assert_eq!(f.by_active.len(), 31 * 4 + 1);
            for (a, &[adc, precharge, latency]) in f.by_active.iter().enumerate() {
                let a_f = a as f64;
                for p in [0u32, 1, 12 * ins as u32] {
                    let wl = f64::from(p) * col_tiles;
                    let (energy, want_latency) = f.derive(a_f * conversions, wl, a_f * col_tiles);
                    let got = adc + wl * f.e_wl_pulse_pj + precharge + f.shift_add_term;
                    assert_eq!(
                        got.to_bits(),
                        energy.to_bits(),
                        "energy at {a} active, {p} pulses"
                    );
                    assert_eq!(
                        latency.to_bits(),
                        want_latency.to_bits(),
                        "latency at {a} active"
                    );
                }
            }
        }
    }

    #[test]
    fn weight_code_range_covers_storable_widths_only() {
        let mut params = MacroParams::rom_paper();
        assert_eq!(params.weight_code_range(), Some(-128..=127));
        params.weight_bits = 1;
        assert_eq!(params.weight_code_range(), Some(-1..=0));
        for bits in [0, 32, 255] {
            params.weight_bits = bits;
            assert_eq!(params.weight_code_range(), None, "{bits} bits");
        }
        params.weight_bits = 8;
        params.cols = 7;
        assert_eq!(params.weight_code_range(), None, "wider than the columns");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_ideal_adc_matches_integer_matmul(
            outs in 1usize..7,
            ins in 1usize..260,
            seed in 0u64..10_000,
        ) {
            // The repo's core functional-equivalence claim: with an ideal
            // ADC and zero noise, the full bit-serial analog datapath
            // (bit-plane programming, unary pulse chunks, charge-share
            // counting, shift-&-add) is bit-exact against the plain
            // integer matmul, for any weight/input matrix — including
            // shapes that force row/column tiling.
            let mut params = MacroParams::rom_paper();
            params.adc_bits = 16; // ideal ADC
            let mut rng = StdRng::seed_from_u64(seed);
            let codes: Vec<i32> =
                (0..outs * ins).map(|_| rng.gen_range(-128i32..=127)).collect();
            let acts: Vec<i32> = (0..ins).map(|_| rng.gen_range(0i32..=255)).collect();
            let engine = RomMvm::program(params, &codes, outs, ins);
            prop_assert_eq!(path(&engine), Datapath::Exact);
            let (y, stats) = engine.mvm(&acts, &mut rng);
            prop_assert_eq!(&y, &reference_mvm(&codes, outs, ins, &acts));
            // The exact matmul must be indistinguishable from the
            // cell-accurate analog walk of an analog twin: same outputs,
            // same event counters, same derived energy/latency.
            let twin = program_backend(BackendKind::Analog, params, &codes, outs, ins);
            let (y_analog, stats_analog) = twin.mvm(&acts, &mut rng);
            prop_assert_eq!(y, y_analog);
            prop_assert_eq!(stats, stats_analog);
            // Sparsity accounting must stay consistent: evaluations only
            // happen when some pulse fired.
            if acts.iter().all(|&a| a == 0) {
                prop_assert_eq!(stats.analog_evaluations, 0);
            }
        }

        #[test]
        fn prop_batch_kernel_tiers_match_per_vector(
            outs in 1usize..9,
            ins in 1usize..300,
            n in 1usize..6,
            seed in 0u64..10_000,
        ) {
            // Kernel-tier parity: every available dispatch tier must
            // produce the per-vector walk of an analog twin — values AND
            // folded stats — on both batch paths (identity-ADC exact
            // matmul and the quantizing popcount stream, toggled by
            // `rpa`).
            let mut params = MacroParams::rom_paper();
            if seed % 2 == 1 {
                params.rows_per_activation = 32; // ADC actually quantizes
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let codes: Vec<i32> =
                (0..outs * ins).map(|_| rng.gen_range(-128i32..=127)).collect();
            let acts: Vec<i32> =
                (0..n * ins).map(|_| rng.gen_range(0i32..=255)).collect();
            let mut engine = RomMvm::program(params, &codes, outs, ins);
            let twin = program_backend(BackendKind::Analog, params, &codes, outs, ins);
            let mut golden = vec![0i64; n * outs];
            let mut golden_stats = MvmStats::default();
            for v in 0..n {
                let (y, s) = twin.mvm(&acts[v * ins..(v + 1) * ins], &mut rng);
                for (o, &y) in y.iter().enumerate() {
                    golden[o * n + v] = y;
                }
                golden_stats.merge(&s);
            }
            let mut scratch = crate::backend::MvmScratch::new();
            let codes8: Vec<u8> = acts.iter().map(|&a| a as u8).collect();
            for kind in crate::kernels::available_kinds() {
                engine.set_kernel(kind);
                let mut accs = vec![0i32; n * outs];
                let mut stats = MvmStats::default();
                engine.run_batch(&codes8, n, &mut accs, &mut scratch, &mut rng);
                engine.fold_stats(&scratch, 0..n, &mut stats);
                let out: Vec<i64> = accs.iter().map(|&a| a.into()).collect();
                prop_assert_eq!(&out, &golden, "values diverge on {}", kind.label());
                prop_assert_eq!(&stats, &golden_stats, "stats diverge on {}", kind.label());
            }
        }
    }

    #[test]
    fn fast_path_matches_analog_under_adc_quantization() {
        // Overdrive the rows so the 5-bit ADC actually quantizes: the two
        // paths must still agree bit-for-bit because they share the ADC
        // transfer function, not just the ideal arithmetic.
        let mut params = MacroParams::rom_paper();
        params.rows_per_activation = 32; // full scale 96 >> 31 levels
        let (outs, ins) = (6, 300); // multiple row and column tiles
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 41) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..ins).map(|i| ((i * 23) % 256) as i32).collect();
        let engine = RomMvm::program(params, &codes, outs, ins);
        assert_eq!(path(&engine), Datapath::Stream);
        let twin = program_backend(BackendKind::Analog, params, &codes, outs, ins);
        let mut rng = StdRng::seed_from_u64(11);
        let (y_fast, s_fast) = engine.mvm(&acts, &mut rng);
        let (y_analog, s_analog) = twin.mvm(&acts, &mut rng);
        assert_eq!(y_fast, y_analog);
        assert_eq!(s_fast, s_analog);
    }

    #[test]
    fn fast_path_unavailable_beyond_mask_width() {
        // rows_per_activation > 64 cannot pack a group into a u64 mask;
        // the engine walks its cells and stays correct.
        let mut params = MacroParams::rom_paper();
        params.adc_bits = 16;
        params.rows_per_activation = 100;
        let (outs, ins) = (3, 128);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 3) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..ins).map(|i| ((i * 5) % 256) as i32).collect();
        let engine = RomMvm::program(params, &codes, outs, ins);
        assert_eq!(path(&engine), Datapath::Analog);
        let mut rng = StdRng::seed_from_u64(13);
        let (y, _) = engine.mvm(&acts, &mut rng);
        assert_eq!(y, reference_mvm(&codes, outs, ins, &acts));
    }

    #[test]
    fn noise_disables_fast_path_and_consumes_rng() {
        let mut params = MacroParams::rom_paper();
        params.noise_sigma = 0.4;
        let engine = RomMvm::program(params, &vec![5i32; 64 * 4], 4, 64);
        assert_eq!(path(&engine), Datapath::Analog);
        let acts = vec![100i32; 64];
        let mut rng_a = StdRng::seed_from_u64(14);
        let mut rng_b = StdRng::seed_from_u64(14);
        let (y_a, _) = engine.mvm(&acts, &mut rng_a);
        let (y_b, _) = engine.mvm(&acts, &mut rng_b);
        assert_eq!(y_a, y_b, "same seed, same noisy readout");
        // The RNG stream advanced (noise was drawn), so a second call on
        // the same generator differs with overwhelming probability.
        let (y_c, _) = engine.mvm(&acts, &mut rng_a);
        assert_ne!(y_a, y_c, "noise stream should advance the RNG");
    }

    #[test]
    fn faulted_program_with_empty_plan_is_identical() {
        use crate::faults::{FaultPlan, FaultSpec};
        let params = MacroParams::rom_paper();
        let (outs, ins) = (6, 300);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 37) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..ins).map(|i| ((i * 13) % 256) as i32).collect();
        let clean = RomMvm::program(params, &codes, outs, ins);
        let plan = FaultPlan::new(FaultSpec::none());
        let kind = BackendKind::Popcount;
        let faulted = RomMvm::program_with_faults(
            kind,
            params,
            &codes,
            outs,
            ins,
            &FaultContext::bare(&plan),
        );
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        let (ya, sa) = clean.mvm(&acts, &mut rng_a);
        let (yb, sb) = faulted.mvm(&acts, &mut rng_b);
        assert_eq!(ya, yb);
        assert_eq!(sa, sb);
        assert_eq!(path(&faulted), Datapath::Exact);
    }

    #[test]
    fn stuck_and_dead_faults_keep_paths_in_lockstep() {
        use crate::faults::{FaultPlan, FaultSpec};
        let params = MacroParams::rom_paper();
        let (outs, ins) = (6, 300); // multiple row and column tiles
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 41) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..ins).map(|i| ((i * 23) % 256) as i32).collect();
        let spec = FaultSpec {
            stuck_rate: 0.02,
            dead_subarray_rate: 0.25,
            ..FaultSpec::uniform(42, 0.0)
        };
        let plan = FaultPlan::new(spec);
        let ctx = FaultContext::bare(&plan);
        let engine =
            RomMvm::program_with_faults(BackendKind::Popcount, params, &codes, outs, ins, &ctx);
        let clean = RomMvm::program(params, &codes, outs, ins);
        let mut rng = StdRng::seed_from_u64(2);
        let (y_fault, s_fault) = engine.mvm(&acts, &mut rng);
        let (y_clean, s_clean) = clean.mvm(&acts, &mut rng);
        assert_ne!(y_fault, y_clean, "faults must be observable");
        assert_eq!(s_fault, s_clean, "code faults never change the stats");
        // The exact matmul and the cell walk of an analog twin on the
        // same faulty fabric stay bit-identical.
        assert_eq!(path(&engine), Datapath::Exact);
        let twin =
            RomMvm::program_with_faults(BackendKind::Analog, params, &codes, outs, ins, &ctx);
        let (y_analog, s_analog) = twin.mvm(&acts, &mut rng);
        assert_eq!(y_fault, y_analog);
        assert_eq!(s_fault, s_analog);
        // Determinism: reprogramming under the same plan reproduces the
        // exact faulty engine.
        let again =
            RomMvm::program_with_faults(BackendKind::Popcount, params, &codes, outs, ins, &ctx);
        assert_eq!(again.mvm(&acts, &mut rng).0, y_fault);
    }

    #[test]
    fn adc_faults_break_identity_and_keep_paths_in_lockstep() {
        use crate::faults::{FaultPlan, FaultSpec};
        let params = MacroParams::rom_paper();
        let (outs, ins) = (5, 200);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 19) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..ins).map(|i| ((i * 7) % 256) as i32).collect();
        let spec = FaultSpec {
            adc_fault_rate: 0.5,
            ..FaultSpec::uniform(7, 0.0)
        };
        let plan = FaultPlan::new(spec);
        let ctx = FaultContext::bare(&plan);
        let engine =
            RomMvm::program_with_faults(BackendKind::Popcount, params, &codes, outs, ins, &ctx);
        assert_eq!(
            path(&engine),
            Datapath::Stream,
            "an ADC fault must break the identity-transfer shortcut"
        );
        let clean = RomMvm::program(params, &codes, outs, ins);
        let mut rng = StdRng::seed_from_u64(3);
        let (y_fault, s_fault) = engine.mvm(&acts, &mut rng);
        let (y_clean, s_clean) = clean.mvm(&acts, &mut rng);
        assert_ne!(y_fault, y_clean, "a 50% ADC fault rate must corrupt");
        assert_eq!(s_fault, s_clean, "ADC faults never change the stats");
        let twin =
            RomMvm::program_with_faults(BackendKind::Analog, params, &codes, outs, ins, &ctx);
        let (y_analog, s_analog) = twin.mvm(&acts, &mut rng);
        assert_eq!(y_fault, y_analog);
        assert_eq!(s_fault, s_analog);
    }

    #[test]
    fn link_slowdown_scales_latency_only() {
        use crate::faults::{FaultPlan, FaultSpec};
        let params = MacroParams::rom_paper();
        let (outs, ins) = (4, 128);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 3) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..ins).map(|i| ((i * 5) % 256) as i32).collect();
        let plan = FaultPlan::new(FaultSpec::none());
        let ctx = FaultContext {
            plan: &plan,
            phys_ids: &[],
            link_slowdown: 4.0,
        };
        let slow =
            RomMvm::program_with_faults(BackendKind::Popcount, params, &codes, outs, ins, &ctx);
        let clean = RomMvm::program(params, &codes, outs, ins);
        let mut rng = StdRng::seed_from_u64(4);
        let (y_slow, s_slow) = slow.mvm(&acts, &mut rng);
        let (y_clean, s_clean) = clean.mvm(&acts, &mut rng);
        assert_eq!(y_slow, y_clean, "link faults never change values");
        assert_eq!(s_slow.energy_pj, s_clean.energy_pj);
        assert_eq!(s_slow.latency_ns, s_clean.latency_ns * 4.0);
    }

    #[test]
    fn act_code_scan_accepts_exactly_the_unsigned_range() {
        // The batch entries' OR-reduced scan must accept 0..2^act_bits
        // and nothing else: one past the top code and every negative
        // code (sign bit set) panic.
        for act_bits in [4u8, 8] {
            let mut params = MacroParams::rom_paper();
            params.act_bits = act_bits;
            let engine = RomMvm::program(params, &[1, -1], 1, 2);
            let top = (1i32 << act_bits) - 1;
            let accepts = |acts: &[i32]| {
                let scan = std::panic::AssertUnwindSafe(|| engine.validate_act_codes(acts));
                std::panic::catch_unwind(scan).is_ok()
            };
            assert!(accepts(&[0, top, top / 2, 1]), "{act_bits} bits");
            for bad in [top + 1, -1, i32::MIN, i32::MAX] {
                assert!(!accepts(&[0, top, bad]), "{act_bits} bits: {bad}");
            }
        }
    }

    #[test]
    fn u8_code_scan_runs_only_below_eight_bits() {
        // An 8-bit engine takes every `u8`; a narrower one refuses the
        // first code past its range.
        for act_bits in [4u8, 6, 8] {
            let mut params = MacroParams::rom_paper();
            params.act_bits = act_bits;
            let engine = RomMvm::program(params, &[1, -1], 1, 2);
            let accepts = |acts: &[u8]| {
                let scan = std::panic::AssertUnwindSafe(|| engine.validate_u8_codes(acts));
                std::panic::catch_unwind(scan).is_ok()
            };
            let top = u8::MAX >> (8 - act_bits);
            assert!(accepts(&[0, top, top / 2]), "{act_bits} bits");
            assert_eq!(
                accepts(&[0, top.wrapping_add(1)]),
                act_bits == 8,
                "{act_bits} bits"
            );
            assert_eq!(accepts(&[u8::MAX]), act_bits == 8, "{act_bits} bits");
        }
    }

    #[test]
    fn zero_activations_cost_nothing() {
        let mut params = MacroParams::rom_paper();
        params.adc_bits = 16;
        let engine = RomMvm::program(params, &vec![3i32; 64 * 10], 10, 64);
        let mut rng = StdRng::seed_from_u64(4);
        let (y, stats) = engine.mvm(&vec![0i32; 64], &mut rng);
        assert!(y.iter().all(|&v| v == 0));
        assert_eq!(stats.analog_evaluations, 0);
        assert_eq!(stats.wl_pulses, 0);
    }
}
