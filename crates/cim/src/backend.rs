//! How a CiM layer's [`RomMvm`] is programmed, and its batch entries.
//!
//! Every CiM layer runs on one engine: [`RomMvm`], the bit-serial macro
//! datapath of Fig. 5, programmed as ROM-CiM for the trunk and as
//! SRAM-CiM for the head and the ReBranch res-convs. [`BackendKind`] is
//! one of the inputs [`program_backend`] (and
//! [`RomMvm::program_with_faults`]) pick the engine's one datapath from
//! (see *Execution paths* on [`RomMvm`]):
//!
//! * [`BackendKind::Analog`] — the cell-accurate analog reference walk
//!   (precharge, pulse trains, noise injection, per-group ADC
//!   digitization). The only path that models bit-line noise, and the
//!   twin every parity suite checks the batch kernels against.
//! * [`BackendKind::Popcount`] — the batch kernels: the exact integer
//!   matmul where the ADC transfer is an identity and no ADC is faulted,
//!   the quantizing popcount mask stream otherwise, and the analog walk
//!   on a noisy macro or one whose activation groups exceed a 64-bit
//!   mask. Bit-identical to an analog twin whenever both apply
//!   (property-tested), at a fraction of the simulation cost.
//!
//! The integer reference both are checked against is
//! [`reference_mvm`](crate::macro_model::reference_mvm): at the paper's
//! design point (5-bit ADC, 10 rows per activation) the noiseless
//! datapath is bit-exact against it.
//!
//! # Batch entries
//!
//! Every batched entry writes its `n_vectors * outs` accumulators
//! **channel-major**: output `o` of vector `v` lands at
//! `out[o * n_vectors + v]`, so each output channel's results over the
//! block are one contiguous row. That is the row a dequantizing consumer
//! streams per channel, and the run the transposed kernels store their
//! lanes into directly. A single vector's accumulators are plain `y[o]`.
//!
//! The run steps take activation codes as `u8` and write `i32`
//! accumulators, the widths [`RomMvm::program`] proved hold
//! ([`MacroParams::accumulators_fit`]); an engine with `act_bits == 8`
//! runs them with no range scan, since a `u8` is its code range. The
//! `i32` entries ([`RomMvm::mvm_batch`], [`RomMvm::mvm_batch_transposed`]
//! and [`RomMvm::mvm`]) are the one checked boundary: they range-check
//! the codes, narrow them, run, and widen the accumulators to `i64`.
//!
//! A batched call is two steps. The *run* step ([`RomMvm::run_batch`],
//! [`RomMvm::run_batch_transposed`]) writes the accumulators and leaves
//! one event-counter row per vector in the [`MvmScratch`]. The *fold*
//! step ([`RomMvm::fold_stats`]) turns any contiguous range of those rows
//! into [`MvmStats`]. So a caller can run a whole block in one call and
//! still fold its statistics in sub-blocks: folding a partition sub-block
//! by sub-block, each from zero, equals one [`RomMvm::mvm_batch`] per
//! sub-block, bit for bit. Between the two steps,
//! [`MvmScratch::keep_runs`] can drop vectors a run computed only
//! because they sat between the ones the caller wants (the gap lanes of
//! a conv's code planes). Noiseless engines leave the RNG untouched, so
//! noiseless execution stays bit-reproducible on either path.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::kernels::{FoldSrc, Panel};
use crate::macro_model::{MacroParams, MvmStats, RomMvm, Weights};

/// Which execution path a layer's engine is programmed for (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// Cell-accurate analog reference path (models noise).
    Analog,
    /// The popcount kernels, with the analog walk where they cannot
    /// apply (the default).
    Popcount,
}

impl BackendKind {
    /// Short stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Analog => "analog-reference",
            BackendKind::Popcount => "popcount",
        }
    }
}

/// Reusable staging buffers for the batched entries
/// ([`RomMvm::run_batch`] and the wrappers over it).
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
    /// Each vector's live `(group, chunk)` evaluations over the whole
    /// last run step, before the engine's column tiles fan them out.
    /// With `pulses`, all [`RomMvm::fold_stats`] needs: any contiguous
    /// range of vectors can be folded into `MvmStats` after the run.
    pub(crate) active: Vec<u32>,
    /// Each vector's word-line pulses over the last run step, per column
    /// tile.
    pub(crate) pulses: Vec<u32>,
    /// Staged lane-packed `i16` activation rows for the AVX2 tier's
    /// `madd` matmul.
    pub(crate) acts16: Vec<i16>,
    /// One 16-vector block's interleaved tap quads for the AVX-512
    /// tier's transposed `vpdpbusd` matmul.
    pub(crate) taps: Vec<u8>,
    /// Per-vector discharge counts of the column mask currently being
    /// streamed (padded like `plane_masks`).
    pub(crate) counts: Vec<u64>,
    /// Row-major activation staging for the reverse unpack (a
    /// transposed caller landing on an engine with no panel-native
    /// kernel: the analog walk or the quantizing mask stream).
    pub(crate) acts_rm: Vec<u8>,
    /// The `i32` entries' codes, narrowed to `u8`.
    pub(crate) narrow_acts: Vec<u8>,
    /// The `i32` entries' accumulators, before they widen to `i64`.
    pub(crate) narrow_out: Vec<i32>,
    /// The contiguous row offsets (`i * n_pad`) of a copied panel, for
    /// [`RomMvm::mvm_batch_transposed`].
    pub(crate) panel_rows: Vec<usize>,
}

impl MvmScratch {
    /// A fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the gap vectors of the last run step. That step ran
    /// `(runs - 1) * period + live` vectors: `runs` runs of `live`
    /// wanted vectors, each starting `period` after the one before.
    /// Keeps only the wanted ones, in order, packed to `runs * live`
    /// vectors, in both event-counter rows and in the channel-major
    /// accumulators `out` the step wrote. A no-op when `runs <= 1` (a
    /// single run ends before its gap) or `period == live`.
    ///
    /// # Panics
    ///
    /// Panics if `live > period`, or, when there are gaps to drop, if the
    /// counter rows or `out` do not hold whole channel rows of the
    /// vectors the run step ran.
    pub fn keep_runs(&mut self, out: &mut Vec<i32>, runs: usize, period: usize, live: usize) {
        assert!(
            live <= period,
            "a run of {live} vectors longer than its period {period}"
        );
        if runs <= 1 || period == live {
            return;
        }
        let ran = (runs - 1) * period + live;
        keep_lane_runs(&mut self.active, ran, runs, period, live);
        keep_lane_runs(&mut self.pulses, ran, runs, period, live);
        keep_lane_runs(out, ran, runs, period, live);
    }
}

/// Packs, in every `ran`-long row of `buf`, the `runs` runs of `live`
/// elements that start `period` apart, then truncates `buf` to the
/// packed rows. Each run moves to a lower or equal index and no earlier
/// than the runs before it, so moving them in order never overwrites
/// one still to be read.
fn keep_lane_runs<T: Copy>(buf: &mut Vec<T>, ran: usize, runs: usize, period: usize, live: usize) {
    assert!(
        buf.len().is_multiple_of(ran),
        "{} lanes are not whole rows of {ran}",
        buf.len()
    );
    let rows = buf.len() / ran;
    for row in 0..rows {
        for r in 0..runs {
            let src = row * ran + r * period;
            buf.copy_within(src..src + live, (row * runs + r) * live);
        }
    }
    buf.truncate(rows * runs * live);
}

impl RomMvm {
    /// Run step of the batched entry: executes `n_vectors` consecutive
    /// activation vectors (packed back to back in `acts`, each `ins`
    /// long) through the programmed engine, writing the
    /// `n_vectors * outs` accumulators into `out` (channel-major) and the
    /// per-vector event counters into `scratch`. Folds no statistics;
    /// [`RomMvm::fold_stats`] does that from the counters. Noisy engines
    /// draw from `rng` per vector, in vector order.
    ///
    /// This is the steady-state hot path of the arena executor: `out` and
    /// `scratch` are caller-owned and reused across calls, so a warmed-up
    /// inference allocates nothing here. The batch kernels traverse their
    /// programmed weight masks **once per block** instead of once per
    /// vector. The row-major kernels run on every shape; the transposed
    /// ones only behind [`RomMvm::run_batch_transposed`].
    ///
    /// # Panics
    ///
    /// Panics if `acts.len() != n_vectors * ins`,
    /// `out.len() != n_vectors * outs`, or, on an engine narrower than
    /// 8 bits, a code is outside its `act_bits` range. A noisy engine
    /// panics if noise carries an accumulator out of the `i32` range.
    pub fn run_batch<R: Rng + ?Sized>(
        &self,
        acts: &[u8],
        n_vectors: usize,
        out: &mut [i32],
        scratch: &mut MvmScratch,
        rng: &mut R,
    ) {
        let (outs, ins) = self.dims();
        assert_eq!(acts.len(), n_vectors * ins, "batch activation length");
        assert_eq!(out.len(), n_vectors * outs, "batch output length");
        self.validate_u8_codes(acts);
        // The noiseless datapaths leave the RNG untouched.
        match self.weights() {
            Weights::Exact { codes, packed } => {
                self.mvm_batch_exact(codes, packed, acts, n_vectors, out, scratch)
            }
            Weights::Stream { masks, adc_faults } => {
                self.mvm_batch_fast(masks, adc_faults.as_deref(), acts, n_vectors, out, scratch)
            }
            Weights::Analog(tiles) => {
                // The reference walk is per-vector (each vector consumes
                // its own RNG draws) over `i32` codes. Noise moves no
                // event count, so the counters come from the same fold
                // as on every other path.
                for v in 0..n_vectors {
                    let av = &acts[v * ins..(v + 1) * ins];
                    let codes: Vec<i32> = av.iter().map(|&a| i32::from(a)).collect();
                    let (y, _) = self.mvm_analog(tiles, &codes, rng);
                    for (o, &y) in y.iter().enumerate() {
                        out[o * n_vectors + v] =
                            i32::try_from(y).expect("noisy accumulator outside i32");
                    }
                }
                self.fold_counters(FoldSrc::Rows { acts, ins }, n_vectors, scratch);
            }
        }
    }

    /// Run step over a lane-major activation panel whose rows sit at
    /// per-row offsets: lane `v` of activation index `i` is
    /// `acts_t[rows[i] + v]`. Rows may lie anywhere in `acts_t`, in any
    /// order, and may overlap, so a conv's taps can read its
    /// column-shifted code planes in place. Bit-identical to
    /// [`RomMvm::run_batch`] on the same values, in accumulators *and*
    /// counters. The exact matmul reads the panel through the offsets;
    /// the other datapaths (the per-vector analog walk, and the
    /// quantizing mask stream, which packs pulse bit-planes from
    /// row-major vectors) unpack it first and run [`RomMvm::run_batch`].
    ///
    /// Every code of `acts_t` must lie in the activation range, lanes
    /// past `n_vectors` included, since the SIMD tiers read up to
    /// [`transposed_pad`](crate::kernels::transposed_pad)`(n_vectors)`
    /// lanes from each row.
    ///
    /// # Panics
    ///
    /// Panics, before any kernel runs, if `rows.len() != ins`, if some
    /// `rows[i] + transposed_pad(n_vectors)` exceeds `acts_t.len()`, if
    /// `out.len() != n_vectors * outs`, or, on an engine narrower than 8
    /// bits, if a code of `acts_t` is outside its range.
    pub fn run_batch_transposed<R: Rng + ?Sized>(
        &self,
        acts_t: &[u8],
        rows: &[usize],
        n_vectors: usize,
        out: &mut [i32],
        scratch: &mut MvmScratch,
        rng: &mut R,
    ) {
        let (outs, ins) = self.dims();
        assert_eq!(rows.len(), ins, "one panel row offset per activation");
        let panel = Panel::new(acts_t, rows, n_vectors);
        assert_eq!(out.len(), n_vectors * outs, "batch output length");
        self.validate_u8_codes(acts_t);
        if let Weights::Exact { codes, packed } = self.weights() {
            // Panel-native: the matmul and the counter fold read the
            // panel rows in place.
            self.mvm_batch_exact_t(codes, packed, &panel, out, scratch);
        } else {
            // Unpack the panel (in `scratch.acts_rm`'s storage, taken
            // out so `scratch` can be passed on) and run it row-major.
            let mut acts = std::mem::take(&mut scratch.acts_rm);
            acts.clear();
            acts.resize(n_vectors * ins, 0);
            for i in 0..ins {
                for (v, &a) in panel.lane(i).iter().enumerate() {
                    acts[v * ins + i] = a;
                }
            }
            self.run_batch(&acts, n_vectors, out, scratch, rng);
            scratch.acts_rm = acts;
        }
    }

    /// Batched entry over `i32` codes: range-checks every code, narrows
    /// the block to `u8`, runs [`RomMvm::run_batch`], widens its
    /// accumulators into `out` and folds [`RomMvm::fold_stats`] over the
    /// whole block. Bit-identical to a per-vector [`RomMvm::mvm`] loop
    /// in values *and* stats (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `acts.len() != n_vectors * ins`,
    /// `out.len() != n_vectors * outs`, or a code is outside the
    /// engine's `act_bits` range.
    pub fn mvm_batch<R: Rng + ?Sized>(
        &self,
        acts: &[i32],
        n_vectors: usize,
        out: &mut [i64],
        stats: &mut MvmStats,
        scratch: &mut MvmScratch,
        rng: &mut R,
    ) {
        self.at_i32_boundary(acts, out, scratch, |codes, accs, scratch| {
            self.run_batch(codes, n_vectors, accs, scratch, rng)
        });
        self.fold_stats(scratch, 0..n_vectors, stats);
    }

    /// Batched entry over a copied lane-major `[ins x n_pad]` panel of
    /// `i32` codes (`acts_t[i * n_pad + v]`): range-checks and narrows
    /// the whole panel to `u8`, runs [`RomMvm::run_batch_transposed`]
    /// with the contiguous row offsets `i * n_pad` (kept in `scratch`),
    /// widens its accumulators into `out` and folds
    /// [`RomMvm::fold_stats`] over the whole block. Bit-identical to
    /// [`RomMvm::mvm_batch`] on the same values, in values *and* stats.
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
    /// `acts_t.len() < ins * n_pad`, or a code of `acts_t` is outside the
    /// engine's `act_bits` range.
    #[allow(clippy::too_many_arguments)]
    pub fn mvm_batch_transposed<R: Rng + ?Sized>(
        &self,
        acts_t: &[i32],
        n_vectors: usize,
        n_pad: usize,
        out: &mut [i64],
        stats: &mut MvmStats,
        scratch: &mut MvmScratch,
        rng: &mut R,
    ) {
        let ins = self.dims().1;
        assert!(
            n_pad >= n_vectors && n_pad.is_multiple_of(16),
            "panel padding"
        );
        assert!(acts_t.len() >= ins * n_pad, "panel activation length");
        self.at_i32_boundary(acts_t, out, scratch, |codes, accs, scratch| {
            let mut rows = std::mem::take(&mut scratch.panel_rows);
            rows.clear();
            rows.extend((0..ins).map(|i| i * n_pad));
            self.run_batch_transposed(codes, &rows, n_vectors, accs, scratch, rng);
            scratch.panel_rows = rows;
        });
        self.fold_stats(scratch, 0..n_vectors, stats);
    }

    /// The checked `i32` boundary of the batch entries: range-checks
    /// `acts`, narrows them to `u8`, hands them to `run` with a zeroed
    /// `i32` accumulator buffer as long as `out`, and widens what it
    /// wrote into `out`. The narrowed buffers live in `scratch`.
    fn at_i32_boundary(
        &self,
        acts: &[i32],
        out: &mut [i64],
        scratch: &mut MvmScratch,
        run: impl FnOnce(&[u8], &mut [i32], &mut MvmScratch),
    ) {
        self.validate_act_codes(acts);
        let mut codes = std::mem::take(&mut scratch.narrow_acts);
        codes.clear();
        codes.extend(acts.iter().map(|&a| a as u8));
        let mut accs = std::mem::take(&mut scratch.narrow_out);
        accs.clear();
        accs.resize(out.len(), 0);
        run(&codes, &mut accs, scratch);
        for (o, &a) in out.iter_mut().zip(&accs) {
            *o = i64::from(a);
        }
        (scratch.narrow_acts, scratch.narrow_out) = (codes, accs);
    }

    /// Stable label of the path this engine executes on.
    pub fn backend_name(&self) -> &'static str {
        match self.weights() {
            Weights::Analog(_) => BackendKind::Analog.label(),
            Weights::Stream { .. } | Weights::Exact { .. } => BackendKind::Popcount.label(),
        }
    }
}

/// Programs a weight matrix on a pristine fabric, for the datapath
/// `kind` and `params` pick (see *Execution paths* on [`RomMvm`]).
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use yoloc_cim::backend::{program_backend, BackendKind};
/// use yoloc_cim::macro_model::reference_mvm;
/// use yoloc_cim::MacroParams;
///
/// let codes = vec![3i32; 4 * 64];
/// let acts = vec![10i32; 64];
/// let mut rng = StdRng::seed_from_u64(0);
/// let popcount = program_backend(BackendKind::Popcount, MacroParams::rom_paper(), &codes, 4, 64);
/// // The paper's noiseless design point is bit-exact against the
/// // integer reference.
/// assert_eq!(popcount.mvm(&acts, &mut rng).0, reference_mvm(&codes, 4, 64, &acts));
/// ```
///
/// # Panics
///
/// Panics if `codes.len() != outs * ins` or any code is out of range for
/// `params.weight_bits`.
pub fn program_backend(
    kind: BackendKind,
    params: MacroParams,
    codes: &[i32],
    outs: usize,
    ins: usize,
) -> RomMvm {
    RomMvm::build(kind, params, codes, outs, ins, None, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{KernelKind, MatmulLayout};
    use crate::macro_model::reference_mvm;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn test_matrix(outs: usize, ins: usize) -> (Vec<i32>, Vec<i32>) {
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 37) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..ins).map(|i| ((i * 13) % 256) as i32).collect();
        (codes, acts)
    }

    #[test]
    fn all_three_backends_agree_at_paper_design_point() {
        // 10 rows/activation x 3 pulses fits the 5-bit ADC, so both
        // hardware paths are bit-exact against the integer reference —
        // the engine-level statement of the repo's equivalence claim.
        let (codes, acts) = test_matrix(5, 200);
        let params = MacroParams::rom_paper();
        let mut rng = StdRng::seed_from_u64(1);
        let golden = reference_mvm(&codes, 5, 200, &acts);
        for kind in [BackendKind::Analog, BackendKind::Popcount] {
            let b = program_backend(kind, params, &codes, 5, 200);
            assert_eq!(b.mvm(&acts, &mut rng).0, golden, "{kind:?}");
        }
    }

    #[test]
    fn backend_names_reflect_execution_path() {
        let (codes, _) = test_matrix(2, 64);
        let params = MacroParams::rom_paper();
        let analog = program_backend(BackendKind::Analog, params, &codes, 2, 64);
        let popcount = program_backend(BackendKind::Popcount, params, &codes, 2, 64);
        assert_eq!(analog.backend_name(), "analog-reference");
        assert_eq!(popcount.backend_name(), "popcount");
        // A noisy macro cannot take the batch kernels on any backend kind.
        let mut noisy_params = params;
        noisy_params.noise_sigma = 0.2;
        let noisy = program_backend(BackendKind::Popcount, noisy_params, &codes, 2, 64);
        assert_eq!(noisy.backend_name(), "analog-reference");
    }

    /// The kernel-parity check: `mvm_batch` must equal a per-vector
    /// `oracle.mvm` loop bit for bit — each vector's results down its
    /// column of the channel-major accumulators, stats folded from zero
    /// per vector and merged in vector order.
    fn assert_batch_matches_per_vector(
        b: &RomMvm,
        oracle: &RomMvm,
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
        b: &mut RomMvm,
        oracle: &RomMvm,
        acts: &[i32],
        n: usize,
        seed: u64,
    ) {
        for kind in crate::kernels::available_kinds() {
            b.set_kernel(kind);
            assert_batch_matches_per_vector(b, oracle, acts, n, seed);
        }
        if !crate::kernels::avx2_available() {
            eprintln!("note: host lacks AVX2; kernel parity covered the scalar tier only");
        }
    }

    #[test]
    fn mvm_batch_matches_per_vector_all_backends() {
        // Paper design point (identity ADC transfer), multiple row and
        // column tiles, sparse and dense vectors — under every kernel
        // tier the host supports, against the analog reference path.
        let (outs, ins, n) = (6, 300, 7);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 37) % 255) as i32 - 127)
            .collect();
        let mut acts: Vec<i32> = (0..n * ins).map(|i| ((i * 13) % 256) as i32).collect();
        acts[2 * ins..3 * ins].fill(0); // an all-zero vector mid-block
        let params = MacroParams::rom_paper();
        let oracle = program_backend(BackendKind::Analog, params, &codes, outs, ins);
        for kind in [BackendKind::Popcount, BackendKind::Analog] {
            let mut b = program_backend(kind, params, &codes, outs, ins);
            assert_batch_parity_all_kernels(&mut b, &oracle, &acts, n, 9);
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
        let oracle = program_backend(BackendKind::Analog, params, &codes, outs, ins);
        assert_batch_parity_all_kernels(&mut b, &oracle, &acts, n, 11);
    }

    #[test]
    fn forced_kernel_tiers_agree_with_software_reference() {
        // End-to-end tier equivalence at the batch entry: every tier's
        // accumulators equal the per-vector integer reference's, laid
        // out channel-major, and the scalar and SIMD tiers produce
        // identical MvmStats.
        let (outs, ins, n) = (9, 280, 6);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 53) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..n * ins).map(|i| ((i * 29) % 256) as i32).collect();
        let params = MacroParams::rom_paper();
        let mut golden = vec![0i64; n * outs];
        for v in 0..n {
            let y = reference_mvm(&codes, outs, ins, &acts[v * ins..(v + 1) * ins]);
            for (o, &y) in y.iter().enumerate() {
                golden[o * n + v] = y;
            }
        }
        let mut rng = StdRng::seed_from_u64(21);
        let mut scratch = MvmScratch::new();
        let mut rom = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
        let mut tier_stats = Vec::new();
        for kind in crate::kernels::available_kinds() {
            rom.set_kernel(kind);
            let mut out = vec![0i64; n * outs];
            let mut stats = MvmStats::default();
            rom.mvm_batch(&acts, n, &mut out, &mut stats, &mut scratch, &mut rng);
            assert_eq!(
                out,
                golden,
                "{} tier diverges from reference_mvm",
                kind.label()
            );
            tier_stats.push(stats);
        }
        for s in &tier_stats[1..] {
            assert_eq!(*s, tier_stats[0], "tiers disagree on MvmStats");
        }
    }

    #[test]
    fn mvm_batch_noisy_macro_falls_back_per_vector() {
        // A noisy popcount engine walks its cells: the batched entry
        // walks them per vector with the same RNG stream a manual loop
        // over its analog twin would consume.
        let mut params = MacroParams::rom_paper();
        params.noise_sigma = 0.3;
        let (outs, ins, n) = (3, 100, 3);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 19) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..n * ins).map(|i| ((i * 7) % 256) as i32).collect();
        let b = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
        assert_eq!(b.backend_name(), "analog-reference");
        let oracle = program_backend(BackendKind::Analog, params, &codes, outs, ins);
        assert_batch_matches_per_vector(&b, &oracle, &acts, n, 13);
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
    fn assert_transposed_matches_row_major(b: &RomMvm, acts: &[i32], n: usize, seed: u64) {
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
        // Both layouts, both backend kinds, every kernel tier the host
        // has: exact path (identity ADC), including a shape the crossover
        // sends down the transposed SIMD path (small outs) and one it
        // keeps row-major (wide madd shape).
        let params = MacroParams::rom_paper();
        for (outs, ins, n) in [(2, 9, 12), (4, 18, 33), (16, 72, 8), (1, 300, 5)] {
            let codes: Vec<i32> = (0..outs * ins)
                .map(|i| ((i * 37) % 255) as i32 - 127)
                .collect();
            let acts: Vec<i32> = (0..n * ins).map(|i| ((i * 13) % 256) as i32).collect();
            for kind in [BackendKind::Popcount, BackendKind::Analog] {
                let mut b = program_backend(kind, params, &codes, outs, ins);
                for k in crate::kernels::available_kinds() {
                    b.set_kernel(k);
                    assert_transposed_matches_row_major(&b, &acts, n, 17);
                }
            }
        }
    }

    #[test]
    fn transposed_batch_matches_row_major_under_adc_quantization() {
        // Overdriven rows engage the popcount mask stream rather than
        // the exact matmul, which has no panel-native body: the
        // transposed entry unpacks the panel into `scratch.acts_rm` and
        // must still agree with the row-major stream, at block sizes
        // below, at and past the panel's lane blocks.
        let mut params = MacroParams::rom_paper();
        params.rows_per_activation = 32;
        let (outs, ins) = (5, 200);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 41) % 255) as i32 - 127)
            .collect();
        let mut b = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
        for n in [1, 3, 4, 5, 9, 16, 17] {
            let acts: Vec<i32> = (0..n * ins).map(|i| ((i * 23) % 256) as i32).collect();
            for k in crate::kernels::available_kinds() {
                b.set_kernel(k);
                assert_transposed_matches_row_major(&b, &acts, n, 19);
            }
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
        assert_transposed_matches_row_major(&b, &acts, n, 23);
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
    fn assert_fold_matches_sub_blocks(b: &RomMvm, acts: &[i32], n: usize, seed: u64) {
        let (outs, ins) = b.dims();
        let n_pad = crate::kernels::transposed_pad(n);
        let codes: Vec<u8> = acts.iter().map(|&a| u8::try_from(a).unwrap()).collect();
        let mut acts_t = vec![0u8; ins * n_pad];
        let rows: Vec<usize> = (0..ins).map(|i| i * n_pad).collect();
        for v in 0..n {
            for i in 0..ins {
                acts_t[rows[i] + v] = codes[v * ins + i];
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
                let mut accs = vec![0i32; n * outs];
                match layout {
                    MatmulLayout::RowMajor => {
                        b.run_batch(&codes, n, &mut accs, &mut scratch, &mut rng)
                    }
                    MatmulLayout::Transposed => {
                        b.run_batch_transposed(&acts_t, &rows, n, &mut accs, &mut scratch, &mut rng)
                    }
                }
                let out: Vec<i64> = accs.iter().map(|&a| a.into()).collect();
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
        // Both backend kinds at the paper design point, a noisy macro
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
            (BackendKind::Popcount, noisy),
            (BackendKind::Popcount, quantizing),
        ];
        for (kind, params) in cases {
            let mut b = program_backend(kind, params, &codes, outs, ins);
            for k in crate::kernels::available_kinds() {
                b.set_kernel(k);
                assert_fold_matches_sub_blocks(&b, &acts, n, 29);
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
        // A quantizing ADC's popcount stream has only a row-major body,
        // so its engine stages row-major at every block size and tier.
        let mut quantizing = MacroParams::rom_paper();
        quantizing.rows_per_activation = 32;
        let mut q = program_backend(BackendKind::Popcount, quantizing, &codes, 2, 9);
        assert!(matches!(q.weights(), Weights::Stream { .. }));
        for kind in crate::kernels::available_kinds() {
            q.set_kernel(kind);
            for n in [1, 4, 16, 64] {
                assert_eq!(q.batch_layout(n), MatmulLayout::RowMajor, "{kind:?} n={n}");
            }
        }
    }

    #[test]
    fn keep_runs_packs_runs_and_leaves_a_single_run_alone() {
        // Two output channels over `ran` vectors: lane `l` of channel `o`
        // holds `100 * o + l`, and each counter row holds its lane.
        let filled = |ran: usize| {
            let mut scratch = MvmScratch::new();
            scratch.active = (0..ran as u32).collect();
            scratch.pulses = (0..ran as u32).map(|l| 1000 + l).collect();
            let out: Vec<i32> = (0..2 * ran as i32)
                .map(|i| 100 * (i / ran as i32) + i % ran as i32)
                .collect();
            (scratch, out)
        };
        // One run ends before its gap (a 3x3 stride-1 conv's planes at
        // `n = 1`: the period is two rows longer than the positions), so
        // it leaves all three buffers as they are.
        let (period, live) = (12, 8);
        let (mut scratch, mut out) = filled(live);
        let (active, pulses, accs) = (scratch.active.clone(), scratch.pulses.clone(), out.clone());
        scratch.keep_runs(&mut out, 1, period, live);
        assert_eq!(scratch.active, active);
        assert_eq!(scratch.pulses, pulses);
        assert_eq!(out, accs);
        // Three runs keep lanes 0..8, 12..20 and 24..32 of each row.
        let ran = 2 * period + live;
        let (mut scratch, mut out) = filled(ran);
        scratch.keep_runs(&mut out, 3, period, live);
        let kept: Vec<u32> = (0..3u32)
            .flat_map(|r| (0..live as u32).map(move |l| r * period as u32 + l))
            .collect();
        assert_eq!(scratch.active, kept);
        let pulses: Vec<u32> = kept.iter().map(|l| 1000 + l).collect();
        assert_eq!(scratch.pulses, pulses);
        let accs: Vec<i32> = (0..2)
            .flat_map(|o| kept.iter().map(move |&l| 100 * o + l as i32))
            .collect();
        assert_eq!(out, accs);
    }
}
