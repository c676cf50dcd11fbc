//! The [`MvmBackend`] trait: one interface over every way the system can
//! execute a matrix-vector product.
//!
//! The graph executor in `yoloc-core` lowers each network layer onto a
//! programmed MVM engine, selected **per deployment and per layer**:
//!
//! * [`BackendKind::Analog`] — the cell-accurate analog reference path of
//!   [`RomMvm`] (precharge, pulse trains, noise injection, per-group ADC
//!   digitization). The only path that models bit-line noise.
//! * [`BackendKind::Popcount`] — [`RomMvm`] on its batch kernels
//!   (popcount mask stream or exact integer matmul), falling back to the
//!   analog path on noisy macros: bit-identical to the analog path
//!   whenever both apply (property-tested), at a fraction of the
//!   simulation cost.
//! * [`BackendKind::Software`] — [`SoftwareMvm`], the pure integer-matmul
//!   golden model. No analog events, no energy: the digital reference a
//!   CiM deployment is validated against. At the paper's design point
//!   (5-bit ADC, 10 rows per activation) the noiseless CiM datapath is
//!   bit-exact against it.
//!
//! All three speak the same quantized-code protocol (`outs x ins` signed
//! weight codes, unsigned activation codes), so a deployment can swap a
//! layer between them without touching quantization or dequantization.

use std::ops::Range;

use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::faults::{FabricGeometry, FaultContext};
use crate::kernels::{KernelKind, MatmulLayout};
use crate::macro_model::{matmul_into, reference_mvm, MacroParams, MvmStats, RomMvm};

/// Which MVM implementation a layer is deployed on (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// Cell-accurate analog reference path (models noise).
    Analog,
    /// Popcount fast path with analog fallback (the default).
    Popcount,
    /// Pure-software integer matmul (digital golden reference).
    Software,
}

impl BackendKind {
    /// Short stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Analog => "analog-reference",
            BackendKind::Popcount => "popcount",
            BackendKind::Software => "software",
        }
    }
}

/// Sized adapter over any (possibly unsized) [`RngCore`], so generic
/// `R: Rng + ?Sized` call chains can coerce into the `&mut dyn RngCore`
/// an object-safe [`MvmBackend`] takes. Delegation is transparent: the
/// wrapped generator's stream advances exactly as if used directly.
pub struct DynRng<'a, R: RngCore + ?Sized>(pub &'a mut R);

impl<R: RngCore + ?Sized> RngCore for DynRng<'_, R> {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Reusable staging buffers for the batched entries
/// ([`MvmBackend::run_batch`] and the wrappers over it).
///
/// The batched kernel packs activation pulse bit-planes once per block
/// and records per-vector event counters; both live here so a
/// steady-state inference loop touches no allocator — the executor's
/// arena owns one `MvmScratch` per deployment and threads it through
/// every call. All buffers grow on first use and keep their capacity.
#[derive(Debug, Default)]
pub struct MvmScratch {
    /// Staged pulse bit-plane masks for the current (row-tile, chunk)
    /// step, laid out plane-major `[group][plane][vector]` with vectors
    /// padded to the kernel tier's popcount lane width (4 on the scalar
    /// and AVX2 tiers, 8 on AVX-512), so each plane streams contiguously
    /// across the block.
    pub(crate) plane_masks: Vec<u64>,
    /// One `(analog_evaluations, adc_conversions, wl_pulses)` row per
    /// vector of the last run step, each summed over the whole call. They
    /// are all [`MvmBackend::fold_stats`] needs: any contiguous range of
    /// vectors can be folded into `MvmStats` after the run.
    pub(crate) counters: Vec<[u64; 3]>,
    /// Staged lane-packed `i16` activation rows for the AVX2 `madd`
    /// matmul tier (unused by the scalar tier).
    pub(crate) acts16: Vec<i16>,
    /// Per-vector discharge counts of the column mask currently being
    /// streamed (padded like `plane_masks`).
    pub(crate) counts: Vec<u64>,
    /// Per-chunk nonzero-pulse bitmaps for the vectorized counter fold.
    pub(crate) fold_bitmaps: Vec<u64>,
    /// Row-major activation staging for the reverse unpack (a
    /// transposed caller landing on a path that wants row-major acts).
    pub(crate) acts_rm: Vec<i32>,
}

impl MvmScratch {
    /// A fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A programmed matrix-vector engine (`y = W x` over quantized codes).
///
/// Object-safe so the executor can hold heterogeneous per-layer backends;
/// the RNG is taken as `&mut dyn RngCore` (the shim blanket-implements
/// `Rng` for every `RngCore`, sized or not). Implementations that consume
/// no randomness must leave the RNG untouched so noiseless execution stays
/// bit-reproducible across backends.
///
/// Every batched entry writes its `n_vectors * outs` accumulators
/// **channel-major**: output `o` of vector `v` lands at
/// `out[o * n_vectors + v]`, so each output channel's results over the
/// block are one contiguous row. That is the row a dequantizing consumer
/// streams per channel, and the run the transposed kernels store their
/// lanes into directly. A single vector's accumulators are plain `y[o]`.
///
/// A batched call is two steps. The *run* step
/// ([`MvmBackend::run_batch`], [`MvmBackend::run_batch_transposed`])
/// writes the accumulators and leaves one event-counter row per vector
/// in the [`MvmScratch`]. The *fold* step ([`MvmBackend::fold_stats`])
/// turns any contiguous range of those rows into [`MvmStats`]. So a
/// caller can run a whole block in one call and still fold its
/// statistics in sub-blocks: folding a partition sub-block by sub-block,
/// each from zero, equals one [`MvmBackend::mvm_batch`] per sub-block,
/// bit for bit.
pub trait MvmBackend: Send + Sync {
    /// Executes `y = W x` on unsigned activation codes, returning integer
    /// accumulator results and execution statistics.
    fn mvm(&self, acts: &[i32], rng: &mut dyn RngCore) -> (Vec<i64>, MvmStats);

    /// Run step of the batched entry: executes `n_vectors` consecutive
    /// activation vectors (packed back to back in `acts`, each `ins`
    /// long) through the programmed engine, writing the
    /// `n_vectors * outs` accumulators into `out` (channel-major) and the
    /// per-vector event counters into `scratch`. Folds no statistics;
    /// [`MvmBackend::fold_stats`] does that from the counters. Noisy
    /// engines draw from `rng` per vector, in vector order.
    ///
    /// This is the steady-state hot path of the arena executor: `out` and
    /// `scratch` are caller-owned and reused across calls, so a warmed-up
    /// inference allocates nothing here. [`RomMvm`]'s batch kernels
    /// traverse their programmed weight masks **once per block** instead
    /// of once per vector. The row-major kernels run on every shape; the
    /// transposed ones only behind [`MvmBackend::run_batch_transposed`].
    ///
    /// # Panics
    ///
    /// Panics if `acts.len() != n_vectors * ins` or
    /// `out.len() != n_vectors * outs`.
    fn run_batch(
        &self,
        acts: &[i32],
        n_vectors: usize,
        out: &mut [i64],
        scratch: &mut MvmScratch,
        rng: &mut dyn RngCore,
    );

    /// Run step over a lane-major `[ins x n_pad]` activation panel
    /// (`acts_t[i * n_pad + v]`): bit-identical to
    /// [`MvmBackend::run_batch`] on the same values, in accumulators
    /// *and* counters. The default unpacks the panel and delegates;
    /// backends with transposed kernels ([`RomMvm`]'s batch kernels)
    /// override it to consume the panel directly.
    ///
    /// # Panics
    ///
    /// Panics if `n_pad < n_vectors`, `n_pad` is not a multiple of 16,
    /// or `acts_t.len() < ins * n_pad`.
    fn run_batch_transposed(
        &self,
        acts_t: &[i32],
        n_vectors: usize,
        n_pad: usize,
        out: &mut [i64],
        scratch: &mut MvmScratch,
        rng: &mut dyn RngCore,
    ) {
        let (outs, ins) = self.dims();
        assert_eq!(out.len(), n_vectors * outs, "batch output length");
        let acts = unpack_panel(acts_t, n_vectors, n_pad, ins, scratch);
        self.run_batch(&acts, n_vectors, out, scratch, rng);
        scratch.acts_rm = acts;
    }

    /// Fold step: merges the statistics of vectors `vectors` of the last
    /// run step into `stats`, **in vector order, each vector derived from
    /// its counters from zero** — exactly the reduction a per-vector
    /// [`MvmBackend::mvm`] loop over those vectors performs.
    ///
    /// # Panics
    ///
    /// May panic if `vectors` reaches past the last run's block.
    fn fold_stats(&self, scratch: &MvmScratch, vectors: Range<usize>, stats: &mut MvmStats);

    /// Batched entry: [`MvmBackend::run_batch`], then
    /// [`MvmBackend::fold_stats`] over the whole block. Bit-identical to
    /// a per-vector [`MvmBackend::mvm`] loop in values *and* stats
    /// (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `acts.len() != n_vectors * ins` or
    /// `out.len() != n_vectors * outs`.
    fn mvm_batch(
        &self,
        acts: &[i32],
        n_vectors: usize,
        out: &mut [i64],
        stats: &mut MvmStats,
        scratch: &mut MvmScratch,
        rng: &mut dyn RngCore,
    ) {
        self.run_batch(acts, n_vectors, out, scratch, rng);
        self.fold_stats(scratch, 0..n_vectors, stats);
    }

    /// The activation layout this backend prefers for a block of
    /// `n_vectors` — [`MatmulLayout::Transposed`] asks the caller to
    /// stage the lane-major `[ins x n_pad]` panel
    /// (`n_pad = transposed_pad(n_vectors)`, padding lanes zero) and
    /// call [`MvmBackend::run_batch_transposed`] (or
    /// [`MvmBackend::mvm_batch_transposed`]), writing quantized codes
    /// straight into the panel with no repack pass. Backends without
    /// transposed kernels keep the row-major default.
    fn batch_layout(&self, _n_vectors: usize) -> MatmulLayout {
        MatmulLayout::RowMajor
    }

    /// Batched entry over a lane-major `[ins x n_pad]` activation panel:
    /// [`MvmBackend::run_batch_transposed`], then
    /// [`MvmBackend::fold_stats`] over the whole block. Bit-identical to
    /// [`MvmBackend::mvm_batch`] on the same values, in values *and*
    /// stats.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use yoloc_cim::backend::{program_backend, BackendKind, MvmScratch};
    /// use yoloc_cim::kernels::transposed_pad;
    /// use yoloc_cim::{MacroParams, MatmulLayout, MvmStats};
    ///
    /// // A narrow im2col-like shape: 2 outputs over 9 inputs.
    /// let codes: Vec<i32> = (0..2 * 9).map(|i| i as i32 - 9).collect();
    /// let mut b = program_backend(BackendKind::Popcount, MacroParams::rom_paper(), &codes, 2, 9);
    /// let (n, ins, outs) = (8usize, 9usize, 2usize);
    /// // The SIMD tiers ask for the transposed panel on this shape (the
    /// // scalar reference tier always stages row-major, so pin a SIMD
    /// // tier when the host has one)…
    /// use yoloc_cim::kernels::available_kinds;
    /// if let Some(&simd) = available_kinds().iter().find(|k| **k != yoloc_cim::KernelKind::Scalar) {
    ///     b.set_kernel(simd);
    ///     assert_eq!(b.batch_layout(n), MatmulLayout::Transposed);
    /// }
    /// // …and the panel entry accepts acts_t[i * n_pad + v] staged
    /// // directly on every tier (padding lanes zero).
    /// let n_pad = transposed_pad(n);
    /// let mut acts_t = vec![0i32; ins * n_pad];
    /// for v in 0..n {
    ///     for i in 0..ins {
    ///         acts_t[i * n_pad + v] = ((v * 7 + i * 3) % 256) as i32;
    ///     }
    /// }
    /// let mut out = vec![0i64; n * outs];
    /// let (mut stats, mut scratch) = (MvmStats::default(), MvmScratch::new());
    /// let mut rng = StdRng::seed_from_u64(0);
    /// b.mvm_batch_transposed(&acts_t, n, n_pad, &mut out, &mut stats, &mut scratch, &mut rng);
    /// // Lane v of the panel is vector v: its column of the channel-major
    /// // accumulators is the per-vector mvm result.
    /// let v = 3;
    /// let acts_v: Vec<i32> = (0..ins).map(|i| acts_t[i * n_pad + v]).collect();
    /// let column: Vec<i64> = (0..outs).map(|o| out[o * n + v]).collect();
    /// assert_eq!(column, b.mvm(&acts_v, &mut rng).0);
    /// // The statistics of any sub-block fold from the same run.
    /// let mut head = MvmStats::default();
    /// b.fold_stats(&scratch, 0..v, &mut head);
    /// assert!(head.energy_pj < stats.energy_pj);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `n_pad < n_vectors`, `n_pad` is not a multiple of 16,
    /// or `acts_t.len() < ins * n_pad`.
    #[allow(clippy::too_many_arguments)]
    fn mvm_batch_transposed(
        &self,
        acts_t: &[i32],
        n_vectors: usize,
        n_pad: usize,
        out: &mut [i64],
        stats: &mut MvmStats,
        scratch: &mut MvmScratch,
        rng: &mut dyn RngCore,
    ) {
        self.run_batch_transposed(acts_t, n_vectors, n_pad, out, scratch, rng);
        self.fold_stats(scratch, 0..n_vectors, stats);
    }

    /// Logical dimensions `(outs, ins)`.
    fn dims(&self) -> (usize, usize);

    /// Physical subarrays programmed (0 for the software reference).
    fn subarrays_used(&self) -> usize;

    /// Stable label of the path this backend executes on.
    fn backend_name(&self) -> &'static str;

    /// Forces a specific kernel tier on backends with dispatched batch
    /// kernels (no-op elsewhere). Tier choice never changes results —
    /// that is exactly what the kernel-parity suites pin.
    fn set_kernel(&mut self, _kind: KernelKind) {}
}

/// Unpacks a lane-major `[ins x n_pad]` panel into row-major vectors, in
/// `scratch.acts_rm`'s storage (taken out so the caller can pass
/// `scratch` on; it hands the buffer back when done).
fn unpack_panel(
    acts_t: &[i32],
    n_vectors: usize,
    n_pad: usize,
    ins: usize,
    scratch: &mut MvmScratch,
) -> Vec<i32> {
    assert!(
        n_pad >= n_vectors && n_pad.is_multiple_of(16),
        "panel padding"
    );
    assert!(acts_t.len() >= ins * n_pad, "panel activation length");
    let mut acts = std::mem::take(&mut scratch.acts_rm);
    acts.clear();
    acts.resize(n_vectors * ins, 0);
    for v in 0..n_vectors {
        for i in 0..ins {
            acts[v * ins + i] = acts_t[i * n_pad + v];
        }
    }
    acts
}

impl MvmBackend for RomMvm {
    fn mvm(&self, acts: &[i32], rng: &mut dyn RngCore) -> (Vec<i64>, MvmStats) {
        RomMvm::mvm(self, acts, rng)
    }

    fn run_batch(
        &self,
        acts: &[i32],
        n_vectors: usize,
        out: &mut [i64],
        scratch: &mut MvmScratch,
        rng: &mut dyn RngCore,
    ) {
        let (outs, ins) = RomMvm::dims(self);
        assert_eq!(acts.len(), n_vectors * ins, "batch activation length");
        assert_eq!(out.len(), n_vectors * outs, "batch output length");
        if self.fast_path_active() {
            // The RNG is untouched, like every noiseless path. At
            // identity-ADC design points (the paper default) the batch
            // reduces to an exact integer matmul; otherwise one traversal
            // of the popcount masks serves the whole block.
            self.mvm_batch_noiseless(acts, n_vectors, out, scratch);
        } else {
            // The reference path is per-vector (each vector consumes its
            // own RNG draws). `mvm_analog` derives its energy and latency
            // from the same three counters `fold_stats` reads, so keeping
            // only the counters loses nothing.
            scratch.counters.clear();
            for v in 0..n_vectors {
                let (y, s) = self.mvm_analog(&acts[v * ins..(v + 1) * ins], rng);
                for (o, &y) in y.iter().enumerate() {
                    out[o * n_vectors + v] = y;
                }
                scratch
                    .counters
                    .push([s.analog_evaluations, s.adc_conversions, s.wl_pulses]);
            }
        }
    }

    fn batch_layout(&self, n_vectors: usize) -> MatmulLayout {
        self.batch_layout_for(n_vectors)
    }

    fn run_batch_transposed(
        &self,
        acts_t: &[i32],
        n_vectors: usize,
        n_pad: usize,
        out: &mut [i64],
        scratch: &mut MvmScratch,
        rng: &mut dyn RngCore,
    ) {
        let (outs, ins) = RomMvm::dims(self);
        assert_eq!(out.len(), n_vectors * outs, "batch output length");
        if self.fast_path_active() {
            // Panel-native kernels: matmul, counter fold and pulse
            // packing all read the lane-major panel directly.
            if self.adc_is_identity() {
                self.mvm_batch_exact_t(acts_t, n_vectors, n_pad, out, scratch);
            } else {
                self.mvm_batch_fast_t(acts_t, n_vectors, n_pad, out, scratch);
            }
        } else {
            // The noisy reference path is inherently per-vector: unpack
            // and run it row-major.
            let acts = unpack_panel(acts_t, n_vectors, n_pad, ins, scratch);
            self.run_batch(&acts, n_vectors, out, scratch, rng);
            scratch.acts_rm = acts;
        }
    }

    fn fold_stats(&self, scratch: &MvmScratch, vectors: Range<usize>, stats: &mut MvmStats) {
        self.merge_counter_stats(&scratch.counters[vectors], stats);
    }

    fn dims(&self) -> (usize, usize) {
        RomMvm::dims(self)
    }

    fn subarrays_used(&self) -> usize {
        RomMvm::subarrays_used(self)
    }

    fn backend_name(&self) -> &'static str {
        if self.fast_path_active() {
            BackendKind::Popcount.label()
        } else {
            BackendKind::Analog.label()
        }
    }

    fn set_kernel(&mut self, kind: KernelKind) {
        RomMvm::set_kernel(self, kind);
    }
}

/// The pure-software integer reference backend: a plain `y = W x` over the
/// stored weight codes. Consumes no randomness and reports zero analog
/// activity — it is the digital golden model, not a circuit.
pub struct SoftwareMvm {
    codes: Vec<i32>,
    outs: usize,
    ins: usize,
}

impl SoftwareMvm {
    /// Stores a signed quantized weight matrix (`outs x ins`, row-major).
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != outs * ins`.
    pub fn program(codes: &[i32], outs: usize, ins: usize) -> Self {
        assert_eq!(codes.len(), outs * ins, "weight matrix size mismatch");
        SoftwareMvm {
            codes: codes.to_vec(),
            outs,
            ins,
        }
    }
}

impl MvmBackend for SoftwareMvm {
    fn mvm(&self, acts: &[i32], _rng: &mut dyn RngCore) -> (Vec<i64>, MvmStats) {
        assert_eq!(acts.len(), self.ins, "activation length mismatch");
        (
            reference_mvm(&self.codes, self.outs, self.ins, acts),
            MvmStats::default(),
        )
    }

    fn run_batch(
        &self,
        acts: &[i32],
        n_vectors: usize,
        out: &mut [i64],
        _scratch: &mut MvmScratch,
        _rng: &mut dyn RngCore,
    ) {
        // Allocation-free digital reference: the shared integer matmul
        // into the caller's accumulator; no analog events, no randomness.
        assert_eq!(acts.len(), n_vectors * self.ins, "batch activation length");
        assert_eq!(out.len(), n_vectors * self.outs, "batch output length");
        matmul_into(&self.codes, self.outs, self.ins, acts, n_vectors, out);
    }

    /// No analog events: the digital reference folds nothing.
    fn fold_stats(&self, _scratch: &MvmScratch, _vectors: Range<usize>, _stats: &mut MvmStats) {}

    fn dims(&self) -> (usize, usize) {
        (self.outs, self.ins)
    }

    fn subarrays_used(&self) -> usize {
        0
    }

    fn backend_name(&self) -> &'static str {
        BackendKind::Software.label()
    }
}

/// Programs a weight matrix onto the requested backend.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use yoloc_cim::backend::{program_backend, BackendKind};
/// use yoloc_cim::MacroParams;
///
/// let codes = vec![3i32; 4 * 64];
/// let acts = vec![10i32; 64];
/// let mut rng = StdRng::seed_from_u64(0);
/// let popcount = program_backend(BackendKind::Popcount, MacroParams::rom_paper(), &codes, 4, 64);
/// let software = program_backend(BackendKind::Software, MacroParams::rom_paper(), &codes, 4, 64);
/// // The paper's noiseless design point is bit-exact against software.
/// assert_eq!(popcount.mvm(&acts, &mut rng).0, software.mvm(&acts, &mut rng).0);
/// ```
///
/// # Panics
///
/// Panics if `codes.len() != outs * ins` or any code is out of range for
/// `params.weight_bits` (hardware backends only).
pub fn program_backend(
    kind: BackendKind,
    params: MacroParams,
    codes: &[i32],
    outs: usize,
    ins: usize,
) -> Box<dyn MvmBackend> {
    match kind {
        BackendKind::Popcount => Box::new(RomMvm::program(params, codes, outs, ins)),
        BackendKind::Analog => {
            let mut engine = RomMvm::program(params, codes, outs, ins);
            engine.pin_analog();
            Box::new(engine)
        }
        BackendKind::Software => Box::new(SoftwareMvm::program(codes, outs, ins)),
    }
}

/// Programs a weight matrix onto the requested backend **through a
/// fault plan** (see [`crate::faults`] and
/// [`RomMvm::program_with_faults`]).
///
/// A fault-free context delegates to [`program_backend`], so the
/// resulting engine is bit-identical to the pristine path. The
/// software reference models the *code-visible* faults (stuck-at bits
/// and dead subarrays, which rewrite the effective weight codes) but
/// has no analog periphery: ADC transfer faults and link slowdowns
/// exist only on the hardware backends.
///
/// # Panics
///
/// Panics on the same conditions as [`RomMvm::program_with_faults`].
pub fn program_backend_faulted(
    kind: BackendKind,
    params: MacroParams,
    codes: &[i32],
    outs: usize,
    ins: usize,
    ctx: &FaultContext,
) -> Box<dyn MvmBackend> {
    if ctx.plan.is_none() && ctx.link_slowdown == 1.0 {
        return program_backend(kind, params, codes, outs, ins);
    }
    match kind {
        BackendKind::Popcount => {
            Box::new(RomMvm::program_with_faults(params, codes, outs, ins, ctx))
        }
        BackendKind::Analog => {
            let mut engine = RomMvm::program_with_faults(params, codes, outs, ins, ctx);
            engine.pin_analog();
            Box::new(engine)
        }
        BackendKind::Software => {
            let geom = FabricGeometry::from_params(&params);
            let opa = geom.outs_per_array();
            let tiles = ins.div_ceil(params.rows) * outs.div_ceil(opa);
            let ids: Vec<u64> = if ctx.phys_ids.is_empty() {
                (0..tiles as u64).collect()
            } else {
                ctx.phys_ids.to_vec()
            };
            let mut eff = codes.to_vec();
            ctx.plan.apply_code_faults(&mut eff, outs, ins, &geom, &ids);
            Box::new(SoftwareMvm::program(&eff, outs, ins))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_matrix(outs: usize, ins: usize) -> (Vec<i32>, Vec<i32>) {
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 37) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..ins).map(|i| ((i * 13) % 256) as i32).collect();
        (codes, acts)
    }

    #[test]
    fn all_three_backends_agree_at_paper_design_point() {
        // 10 rows/activation x 3 pulses fits the 5-bit ADC, so the
        // hardware paths are bit-exact against the software reference —
        // the trait-level statement of the repo's equivalence claim.
        let (codes, acts) = test_matrix(5, 200);
        let params = MacroParams::rom_paper();
        let mut rng = StdRng::seed_from_u64(1);
        let results: Vec<Vec<i64>> = [
            BackendKind::Analog,
            BackendKind::Popcount,
            BackendKind::Software,
        ]
        .into_iter()
        .map(|kind| {
            let b = program_backend(kind, params, &codes, 5, 200);
            b.mvm(&acts, &mut rng).0
        })
        .collect();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn backend_names_reflect_execution_path() {
        let (codes, _) = test_matrix(2, 64);
        let params = MacroParams::rom_paper();
        let analog = program_backend(BackendKind::Analog, params, &codes, 2, 64);
        let popcount = program_backend(BackendKind::Popcount, params, &codes, 2, 64);
        let software = program_backend(BackendKind::Software, params, &codes, 2, 64);
        assert_eq!(analog.backend_name(), "analog-reference");
        assert_eq!(popcount.backend_name(), "popcount");
        assert_eq!(software.backend_name(), "software");
        // A noisy macro cannot take the batch kernels on any backend kind.
        let mut noisy_params = params;
        noisy_params.noise_sigma = 0.2;
        let noisy = program_backend(BackendKind::Popcount, noisy_params, &codes, 2, 64);
        assert_eq!(noisy.backend_name(), "analog-reference");
    }

    #[test]
    fn software_backend_has_no_hardware_footprint() {
        let (codes, acts) = test_matrix(3, 100);
        let b = program_backend(
            BackendKind::Software,
            MacroParams::rom_paper(),
            &codes,
            3,
            100,
        );
        assert_eq!(b.subarrays_used(), 0);
        let mut rng = StdRng::seed_from_u64(2);
        let (_, stats) = b.mvm(&acts, &mut rng);
        assert_eq!(stats, MvmStats::default());
        // No randomness consumed: the stream is untouched.
        let mut probe = StdRng::seed_from_u64(2);
        assert_eq!(
            rand::Rng::gen_range(&mut rng, 0u64..u64::MAX),
            rand::Rng::gen_range(&mut probe, 0u64..u64::MAX)
        );
    }

    /// The per-vector oracle of a backend programmed as `kind`: the
    /// analog reference path for the macro backends (their own `mvm`
    /// runs the batch kernels), the software reference's per-vector
    /// `mvm` otherwise.
    fn per_vector_oracle(
        kind: BackendKind,
        params: MacroParams,
        codes: &[i32],
        outs: usize,
        ins: usize,
    ) -> Box<dyn MvmBackend> {
        let oracle = match kind {
            BackendKind::Software => BackendKind::Software,
            BackendKind::Analog | BackendKind::Popcount => BackendKind::Analog,
        };
        program_backend(oracle, params, codes, outs, ins)
    }

    /// The kernel-parity check: `mvm_batch` must equal a per-vector
    /// `oracle.mvm` loop bit for bit — each vector's results down its
    /// column of the channel-major accumulators, stats folded from zero
    /// per vector and merged in vector order.
    fn assert_batch_matches_per_vector(
        b: &dyn MvmBackend,
        oracle: &dyn MvmBackend,
        acts: &[i32],
        n: usize,
        seed: u64,
    ) {
        let (outs, ins) = b.dims();
        let mut out = vec![0i64; n * outs];
        let mut stats = MvmStats::default();
        let mut scratch = MvmScratch::new();
        let mut rng = StdRng::seed_from_u64(seed);
        b.mvm_batch(acts, n, &mut out, &mut stats, &mut scratch, &mut rng);
        let mut expect_vals = vec![0i64; n * outs];
        let mut expect_stats = MvmStats::default();
        let mut rng = StdRng::seed_from_u64(seed);
        for v in 0..n {
            let (y, s) = oracle.mvm(&acts[v * ins..(v + 1) * ins], &mut rng);
            expect_stats.merge(&s);
            for (o, &y) in y.iter().enumerate() {
                expect_vals[o * n + v] = y;
            }
        }
        assert_eq!(out, expect_vals, "batched accumulators diverge");
        assert_eq!(stats, expect_stats, "batched stats fold diverges");
        // Scratch reuse must not leak state between calls.
        let mut out2 = vec![0i64; n * outs];
        let mut stats2 = MvmStats::default();
        let mut rng = StdRng::seed_from_u64(seed);
        b.mvm_batch(acts, n, &mut out2, &mut stats2, &mut scratch, &mut rng);
        assert_eq!(out, out2, "scratch reuse changed the accumulators");
        assert_eq!(stats, stats2, "scratch reuse changed the stats");
    }

    /// Runs the kernel-parity oracle under every kernel tier the host
    /// can execute, with a skip note when AVX2 is absent (CI also runs
    /// the whole suite under `YOLOC_KERNEL=scalar` / `=avx2`, which
    /// steers the `program`-time default this test then overrides).
    fn assert_batch_parity_all_kernels(
        b: &mut Box<dyn MvmBackend>,
        oracle: &dyn MvmBackend,
        acts: &[i32],
        n: usize,
        seed: u64,
    ) {
        for kind in crate::kernels::available_kinds() {
            b.set_kernel(kind);
            assert_batch_matches_per_vector(b.as_ref(), oracle, acts, n, seed);
        }
        if !crate::kernels::avx2_available() {
            eprintln!("note: host lacks AVX2; kernel parity covered the scalar tier only");
        }
    }

    #[test]
    fn mvm_batch_matches_per_vector_all_backends() {
        // Paper design point (identity ADC transfer), multiple row and
        // column tiles, sparse and dense vectors — under every kernel
        // tier the host supports.
        let (outs, ins, n) = (6, 300, 7);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 37) % 255) as i32 - 127)
            .collect();
        let mut acts: Vec<i32> = (0..n * ins).map(|i| ((i * 13) % 256) as i32).collect();
        acts[2 * ins..3 * ins].fill(0); // an all-zero vector mid-block
        let params = MacroParams::rom_paper();
        for kind in [
            BackendKind::Popcount,
            BackendKind::Analog,
            BackendKind::Software,
        ] {
            let mut b = program_backend(kind, params, &codes, outs, ins);
            let oracle = per_vector_oracle(kind, params, &codes, outs, ins);
            assert_batch_parity_all_kernels(&mut b, oracle.as_ref(), &acts, n, 9);
        }
    }

    #[test]
    fn mvm_batch_matches_per_vector_under_adc_quantization() {
        // Overdriven rows: the 5-bit ADC actually quantizes, so the
        // batched kernel must take the per-group digitize path (the
        // popcount mask stream, on every kernel tier) and still agree
        // bit for bit.
        let mut params = MacroParams::rom_paper();
        params.rows_per_activation = 32; // full scale 96 >> 31 levels
        let (outs, ins, n) = (5, 200, 4);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 41) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..n * ins).map(|i| ((i * 23) % 256) as i32).collect();
        let mut b = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
        let oracle = per_vector_oracle(BackendKind::Popcount, params, &codes, outs, ins);
        assert_batch_parity_all_kernels(&mut b, oracle.as_ref(), &acts, n, 11);
    }

    #[test]
    fn forced_kernel_tiers_agree_with_software_reference() {
        // End-to-end tier equivalence at the batch entry: every tier's
        // accumulators equal the digital golden model's, and the scalar
        // and SIMD tiers produce identical MvmStats.
        let (outs, ins, n) = (9, 280, 6);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 53) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..n * ins).map(|i| ((i * 29) % 256) as i32).collect();
        let params = MacroParams::rom_paper();
        let software = program_backend(BackendKind::Software, params, &codes, outs, ins);
        let mut golden = vec![0i64; n * outs];
        let mut rng = StdRng::seed_from_u64(21);
        let mut scratch = MvmScratch::new();
        software.mvm_batch(
            &acts,
            n,
            &mut golden,
            &mut MvmStats::default(),
            &mut scratch,
            &mut rng,
        );
        let mut rom = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
        let mut tier_stats = Vec::new();
        for kind in crate::kernels::available_kinds() {
            rom.set_kernel(kind);
            let mut out = vec![0i64; n * outs];
            let mut stats = MvmStats::default();
            rom.mvm_batch(&acts, n, &mut out, &mut stats, &mut scratch, &mut rng);
            assert_eq!(out, golden, "{} tier diverges from software", kind.label());
            tier_stats.push(stats);
        }
        for s in &tier_stats[1..] {
            assert_eq!(*s, tier_stats[0], "tiers disagree on MvmStats");
        }
    }

    #[test]
    fn mvm_batch_noisy_macro_falls_back_per_vector() {
        // Noise disables the fast path: the batched entry walks the
        // analog reference per vector with the same RNG stream a manual
        // loop would consume.
        let mut params = MacroParams::rom_paper();
        params.noise_sigma = 0.3;
        let (outs, ins, n) = (3, 100, 3);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 19) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..n * ins).map(|i| ((i * 7) % 256) as i32).collect();
        let b = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
        assert_eq!(b.backend_name(), "analog-reference");
        let oracle = per_vector_oracle(BackendKind::Popcount, params, &codes, outs, ins);
        assert_batch_matches_per_vector(b.as_ref(), oracle.as_ref(), &acts, n, 13);
    }

    #[test]
    fn mvm_batch_empty_block_is_a_no_op() {
        let (codes, _) = test_matrix(2, 64);
        let b = program_backend(
            BackendKind::Popcount,
            MacroParams::rom_paper(),
            &codes,
            2,
            64,
        );
        let mut stats = MvmStats::default();
        let mut scratch = MvmScratch::new();
        let mut rng = StdRng::seed_from_u64(1);
        b.mvm_batch(&[], 0, &mut [], &mut stats, &mut scratch, &mut rng);
        assert_eq!(stats, MvmStats::default());
    }

    /// Stages `acts` as a lane-major panel and asserts the transposed
    /// batch entry reproduces the row-major entry bit for bit — values
    /// and `MvmStats` — from the same RNG seed.
    fn assert_transposed_matches_row_major(b: &dyn MvmBackend, acts: &[i32], n: usize, seed: u64) {
        let (outs, ins) = b.dims();
        let n_pad = crate::kernels::transposed_pad(n);
        let mut acts_t = vec![0i32; ins * n_pad];
        for v in 0..n {
            for i in 0..ins {
                acts_t[i * n_pad + v] = acts[v * ins + i];
            }
        }
        let mut scratch = MvmScratch::new();
        let mut out_t = vec![0i64; n * outs];
        let mut stats_t = MvmStats::default();
        let mut rng = StdRng::seed_from_u64(seed);
        b.mvm_batch_transposed(
            &acts_t,
            n,
            n_pad,
            &mut out_t,
            &mut stats_t,
            &mut scratch,
            &mut rng,
        );
        let mut out_rm = vec![0i64; n * outs];
        let mut stats_rm = MvmStats::default();
        let mut rng = StdRng::seed_from_u64(seed);
        b.mvm_batch(acts, n, &mut out_rm, &mut stats_rm, &mut scratch, &mut rng);
        assert_eq!(out_t, out_rm, "transposed accumulators diverge");
        assert_eq!(stats_t, stats_rm, "transposed stats fold diverges");
    }

    #[test]
    fn transposed_batch_matches_row_major_all_backends_and_kernels() {
        // Both layouts, every backend, every kernel tier the host has:
        // exact path (identity ADC), including a shape the crossover
        // sends down the transposed SIMD path (small outs) and one it
        // keeps row-major (wide madd shape).
        let params = MacroParams::rom_paper();
        for (outs, ins, n) in [(2, 9, 12), (4, 18, 33), (16, 72, 8), (1, 300, 5)] {
            let codes: Vec<i32> = (0..outs * ins)
                .map(|i| ((i * 37) % 255) as i32 - 127)
                .collect();
            let acts: Vec<i32> = (0..n * ins).map(|i| ((i * 13) % 256) as i32).collect();
            for kind in [
                BackendKind::Popcount,
                BackendKind::Analog,
                BackendKind::Software,
            ] {
                let mut b = program_backend(kind, params, &codes, outs, ins);
                for k in crate::kernels::available_kinds() {
                    b.set_kernel(k);
                    assert_transposed_matches_row_major(b.as_ref(), &acts, n, 17);
                }
            }
        }
    }

    #[test]
    fn transposed_batch_matches_row_major_under_adc_quantization() {
        // Overdriven rows engage the panel-native pulse packing +
        // mask-stream path (`mvm_batch_fast_t`) rather than the exact
        // matmul; it must still agree with the row-major stream.
        let mut params = MacroParams::rom_paper();
        params.rows_per_activation = 32;
        let (outs, ins, n) = (5, 200, 9);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 41) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..n * ins).map(|i| ((i * 23) % 256) as i32).collect();
        let mut b = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
        for k in crate::kernels::available_kinds() {
            b.set_kernel(k);
            assert_transposed_matches_row_major(b.as_ref(), &acts, n, 19);
        }
    }

    #[test]
    fn transposed_batch_noisy_macro_falls_back_per_vector() {
        // Noise forces the per-vector analog walk: the transposed entry
        // unpacks the panel and must consume the RNG stream exactly as
        // the row-major entry does.
        let mut params = MacroParams::rom_paper();
        params.noise_sigma = 0.3;
        let (outs, ins, n) = (3, 100, 6);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 19) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..n * ins).map(|i| ((i * 7) % 256) as i32).collect();
        let b = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
        assert_eq!(b.backend_name(), "analog-reference");
        assert_eq!(b.batch_layout(n), MatmulLayout::RowMajor);
        assert_transposed_matches_row_major(b.as_ref(), &acts, n, 23);
    }

    /// Cut points of contiguous partitions of `0..n`: the whole block,
    /// one vector per part, halves, and an uneven split.
    fn partitions(n: usize) -> Vec<Vec<usize>> {
        let mut all = vec![vec![0, n], (0..=n).collect(), vec![0, n / 2, n]];
        if n >= 3 {
            all.push(vec![0, 1, n - 1, n]);
        }
        for cuts in &mut all {
            cuts.dedup();
        }
        all
    }

    /// The run/fold contract: one run step over all `n` vectors, then
    /// `fold_stats` over each sub-block of a contiguous partition (each
    /// from zero, then merged), equals one `mvm_batch` per sub-block —
    /// in accumulators, `MvmStats` and the RNG stream after the call —
    /// with the run step staged row-major and as a lane-major panel.
    fn assert_fold_matches_sub_blocks(b: &dyn MvmBackend, acts: &[i32], n: usize, seed: u64) {
        let (outs, ins) = b.dims();
        let n_pad = crate::kernels::transposed_pad(n);
        let mut acts_t = vec![0i32; ins * n_pad];
        for v in 0..n {
            for i in 0..ins {
                acts_t[i * n_pad + v] = acts[v * ins + i];
            }
        }
        let mut scratch = MvmScratch::new();
        for cuts in partitions(n) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut want = vec![0i64; n * outs];
            let mut want_stats = MvmStats::default();
            for w in cuts.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let mut s = MvmStats::default();
                let mut part = vec![0i64; (hi - lo) * outs];
                b.mvm_batch(
                    &acts[lo * ins..hi * ins],
                    hi - lo,
                    &mut part,
                    &mut s,
                    &mut scratch,
                    &mut rng,
                );
                want_stats.merge(&s);
                // Each sub-block's channel rows are slices of the whole
                // block's.
                for (o, row) in part.chunks_exact(hi - lo).enumerate() {
                    want[o * n + lo..o * n + hi].copy_from_slice(row);
                }
            }
            let want_next = rng.next_u64();
            for layout in [MatmulLayout::RowMajor, MatmulLayout::Transposed] {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut out = vec![0i64; n * outs];
                match layout {
                    MatmulLayout::RowMajor => {
                        b.run_batch(acts, n, &mut out, &mut scratch, &mut rng)
                    }
                    MatmulLayout::Transposed => {
                        b.run_batch_transposed(&acts_t, n, n_pad, &mut out, &mut scratch, &mut rng)
                    }
                }
                let mut stats = MvmStats::default();
                for w in cuts.windows(2) {
                    let mut s = MvmStats::default();
                    b.fold_stats(&scratch, w[0]..w[1], &mut s);
                    stats.merge(&s);
                }
                let label = format!("{} {layout:?} cuts {cuts:?}", b.backend_name());
                assert_eq!(out, want, "{label}: accumulators");
                assert_eq!(stats, want_stats, "{label}: stats");
                assert_eq!(rng.next_u64(), want_next, "{label}: RNG stream");
            }
        }
    }

    #[test]
    fn run_then_fold_over_any_partition_matches_per_block_batches() {
        // Every backend kind at the paper design point, a noisy macro
        // (the per-vector analog walk, which draws from the RNG) and an
        // ADC-quantizing one (the popcount mask stream), under every
        // kernel tier the host has.
        let (outs, ins, n) = (5, 200, 9);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 43) % 255) as i32 - 127)
            .collect();
        let mut acts: Vec<i32> = (0..n * ins).map(|i| ((i * 31) % 256) as i32).collect();
        acts[4 * ins..5 * ins].fill(0); // an all-zero vector mid-block
        let paper = MacroParams::rom_paper();
        let mut noisy = paper;
        noisy.noise_sigma = 0.3;
        let mut quantizing = paper;
        quantizing.rows_per_activation = 32;
        let cases = [
            (BackendKind::Popcount, paper),
            (BackendKind::Analog, paper),
            (BackendKind::Software, paper),
            (BackendKind::Popcount, noisy),
            (BackendKind::Popcount, quantizing),
        ];
        for (kind, params) in cases {
            let mut b = program_backend(kind, params, &codes, outs, ins);
            for k in crate::kernels::available_kinds() {
                b.set_kernel(k);
                assert_fold_matches_sub_blocks(b.as_ref(), &acts, n, 29);
            }
        }
    }

    #[test]
    fn batch_layout_is_shape_and_path_driven() {
        let (codes, _) = test_matrix(2, 9);
        let mut b = program_backend(
            BackendKind::Popcount,
            MacroParams::rom_paper(),
            &codes,
            2,
            9,
        );
        // The scalar reference tier keeps its fastest staging
        // (row-major) so measured speedups stay honest; its transposed
        // entries are exercised with explicit panels by the parity
        // suites.
        b.set_kernel(KernelKind::Scalar);
        assert_eq!(b.batch_layout(64), MatmulLayout::RowMajor);
        if let Some(&simd) = crate::kernels::available_kinds()
            .iter()
            .find(|k| **k != KernelKind::Scalar)
        {
            b.set_kernel(simd);
            // Small-outs shape at a real batch: transposed pays off.
            assert_eq!(b.batch_layout(64), MatmulLayout::Transposed);
            // Single vector: panel staging cannot amortize.
            assert_eq!(b.batch_layout(1), MatmulLayout::RowMajor);
            // The analog reference path is per-vector by construction.
            let mut analog =
                program_backend(BackendKind::Analog, MacroParams::rom_paper(), &codes, 2, 9);
            analog.set_kernel(simd);
            assert_eq!(analog.batch_layout(64), MatmulLayout::RowMajor);
        }
        // The software backend keeps the trait default.
        let sw = program_backend(
            BackendKind::Software,
            MacroParams::rom_paper(),
            &codes,
            2,
            9,
        );
        assert_eq!(sw.batch_layout(64), MatmulLayout::RowMajor);
    }
}
