//! Runtime-dispatched MVM kernel tiers.
//!
//! The batched bit-plane kernels ([`RomMvm::mvm_batch_exact`] and
//! [`RomMvm::mvm_batch_fast`]) execute through one of three **tiers**:
//!
//! * [`KernelKind::Scalar`] — portable Rust, no `unsafe`, no ISA
//!   assumptions. This tier *is* the reference semantics: every other
//!   tier is pinned bit-identical to it (values **and** [`MvmStats`]) by
//!   the kernel-parity property suites.
//! * [`KernelKind::Avx2`] — x86_64 `std::arch` intrinsics (the `avx2`
//!   module):
//!   a register-blocked integer matmul (`_mm256_madd_epi16` over `u8`
//!   codes widened to `i16`) and the lane-packed `AND`+popcount mask
//!   stream via the `vpshufb` nibble-LUT trick.
//! * [`KernelKind::Avx512`] — the 512-bit tier (the `avx512` module):
//!   32-lane `_mm512_madd_epi16` matmuls and a native `vpopcntq`
//!   (`_mm512_popcnt_epi64`) mask stream replacing the nibble LUT.
//!
//! The event counters behind [`MvmStats`] come from one fold
//! (`fold_event_counters`). At the paper chunking it is portable Rust
//! (the `fold` module) that each SIMD tier compiles under its own
//! `#[target_feature]`, so the compiler vectorizes it at that tier's
//! width; the scalar tier and every other chunking run the scalar walks.
//!
//! The activation codes those kernels read come from one quantizer entry
//! ([`RomMvm::quantize_codes`]), which a CiM layer calls once over its
//! whole input before any lowering moves a byte. Its body is
//! `QuantParams::quantize_value(v) as u8` over a slice, portable Rust
//! (the `quant` module) that each SIMD tier compiles under its own
//! `#[target_feature]` like the fold. The quantizer is IEEE arithmetic
//! only, so every tier writes the codes the scalar tier, its oracle,
//! writes.
//!
//! Orthogonal to the tier, each batch executes in one of two activation
//! **layouts** ([`MatmulLayout`], chosen per shape by [`choose_layout`]):
//! the row-major layout vectorizes each vector's dot products across
//! `ins`, while the *batch-transposed* layout reads the block as a
//! lane-major panel — one run of lanes per activation index, found
//! through a per-row offset table — and vectorizes **across
//! vectors**, 8 (AVX2) or 16 (AVX-512) activations per SIMD op. That is
//! what rescues the zoo's narrow conv shapes (`1x9`, `2x9`, `4x18`) whose
//! 9-wide rows cannot fill lanes in the row-major layout, and the offsets
//! let a conv's taps read column-shifted code planes in place instead of
//! a copied im2col panel. The scalar tier implements both layouts too, so
//! the parity oracle covers every (tier, layout) cell.
//!
//! Which tier runs is decided **once, at [`RomMvm::program`] time**, by
//! [`KernelDispatch`]: the `YOLOC_KERNEL` environment variable
//! (`scalar`, `avx2`, `avx512` or `auto`) overrides the default `auto`
//! policy, which selects the widest tier the host supports. The hot
//! loops then match on a stored [`KernelKind`] — no per-call feature
//! detection.
//!
//! Activation codes enter every kernel as `u8` and every accumulator
//! leaves as `i32`: [`RomMvm::program`] proved `act_bits <= 8` and that
//! every accumulator of the engine fits an `i32`
//! ([`MacroParams::accumulators_fit`]), so all arithmetic on every tier
//! is exact integer arithmetic and tier and layout choice can never
//! change a result. The dispatch surface exists purely for speed, and CI
//! runs the parity suites under every override to keep it that way.
//!
//! [`RomMvm::mvm_batch_exact`]: crate::macro_model::RomMvm
//! [`RomMvm::mvm_batch_fast`]: crate::macro_model::RomMvm
//! [`RomMvm::program`]: crate::macro_model::RomMvm::program
//! [`RomMvm::quantize_codes`]: crate::macro_model::RomMvm::quantize_codes
//! [`MvmStats`]: crate::macro_model::MvmStats
//! [`MacroParams::accumulators_fit`]: crate::macro_model::MacroParams::accumulators_fit

use yoloc_quant::QuantParams;

// Only the SIMD tiers enter the portable fold.
#[cfg(target_arch = "x86_64")]
mod fold;
mod panel;
mod quant;
pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;

pub(crate) use panel::Panel;

/// The kernel tier a programmed engine executes its batched MVMs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable scalar tier — the bit-identical reference.
    Scalar,
    /// AVX2 `std::arch` tier (x86_64 with runtime-detected support).
    Avx2,
    /// AVX-512 `std::arch` tier (x86_64 with runtime-detected
    /// F+BW+VL+VPOPCNTDQ support).
    Avx512,
}

impl KernelKind {
    /// Short stable label used in reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
        }
    }

    /// Lane padding of the plane-major pulse staging buffer this tier's
    /// popcount stream consumes: the quantizing fast path rounds the
    /// block size up to this multiple so `group_counts` never needs a
    /// remainder loop.
    pub(crate) fn plane_pad(self) -> usize {
        match self {
            // The AVX2 nibble-LUT stream eats 4 x u64 per step; the
            // AVX-512 `vpopcntq` stream eats 8.
            KernelKind::Scalar | KernelKind::Avx2 => 4,
            KernelKind::Avx512 => 8,
        }
    }
}

/// How to pick the [`KernelKind`] for a newly programmed engine.
///
/// Parsed from the `YOLOC_KERNEL` environment variable at
/// [`RomMvm::program`] time (`scalar` | `avx2` | `avx512` | `auto`;
/// unset means [`KernelDispatch::Auto`]). Forcing a tier on a host
/// without it resolves to the widest available tier with a one-time
/// warning rather than aborting, so a pinned CI environment stays
/// runnable everywhere — the parity suites detect the downgrade and
/// skip-with-note.
///
/// [`RomMvm::program`]: crate::macro_model::RomMvm::program
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelDispatch {
    /// Pick the fastest tier the host supports (the default).
    #[default]
    Auto,
    /// Force the portable scalar tier.
    Scalar,
    /// Force the AVX2 tier (falls back to scalar, with a warning, when
    /// the host lacks AVX2).
    Avx2,
    /// Force the AVX-512 tier (falls back to AVX2 — or scalar — with a
    /// warning, when the host lacks the required AVX-512 subsets).
    Avx512,
}

impl KernelDispatch {
    /// Reads the dispatch policy from `YOLOC_KERNEL`.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value — a typoed override must fail
    /// loudly, not silently benchmark the wrong tier.
    pub fn from_env() -> Self {
        match std::env::var("YOLOC_KERNEL") {
            Err(_) => KernelDispatch::Auto,
            Ok(v) => {
                match v.as_str() {
                    "auto" | "" => KernelDispatch::Auto,
                    "scalar" => KernelDispatch::Scalar,
                    "avx2" => KernelDispatch::Avx2,
                    "avx512" => KernelDispatch::Avx512,
                    other => {
                        panic!("unknown YOLOC_KERNEL value {other:?} (expected scalar|avx2|avx512|auto)")
                    }
                }
            }
        }
    }

    /// Resolves the policy against the host's detected features.
    pub fn resolve(self) -> KernelKind {
        match self {
            KernelDispatch::Scalar => KernelKind::Scalar,
            KernelDispatch::Auto => {
                if avx512_available() {
                    KernelKind::Avx512
                } else if avx2_available() {
                    KernelKind::Avx2
                } else {
                    KernelKind::Scalar
                }
            }
            KernelDispatch::Avx2 => {
                if avx2_available() {
                    KernelKind::Avx2
                } else {
                    warn_forced_unavailable("avx2", "scalar");
                    KernelKind::Scalar
                }
            }
            KernelDispatch::Avx512 => {
                if avx512_available() {
                    KernelKind::Avx512
                } else if avx2_available() {
                    warn_forced_unavailable("avx512", "avx2");
                    KernelKind::Avx2
                } else {
                    warn_forced_unavailable("avx512", "scalar");
                    KernelKind::Scalar
                }
            }
        }
    }
}

/// Whether the AVX2 tier can run on this host (always `false` off
/// x86_64). Detection is cached by the standard library; calling this in
/// a hot loop is still wrong — resolve once and store the [`KernelKind`].
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX-512 tier can run on this host (always `false` off
/// x86_64). Requires the F, BW and VL subsets (madd matmuls, masked
/// `i16` loads, 256-bit mixes) plus VPOPCNTDQ for the `vpopcntq` mask
/// stream. Resolve once and store the [`KernelKind`]; do not call this
/// in a hot loop.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Every kernel tier the host can execute, scalar first. Parity suites
/// iterate this so a test run covers exactly the tiers that can run.
pub fn available_kinds() -> Vec<KernelKind> {
    let mut kinds = vec![KernelKind::Scalar];
    if avx2_available() {
        kinds.push(KernelKind::Avx2);
    }
    if avx512_available() {
        kinds.push(KernelKind::Avx512);
    }
    kinds
}

fn warn_forced_unavailable(requested: &str, fallback: &str) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static WARNED: AtomicBool = AtomicBool::new(false);
    if !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "note: YOLOC_KERNEL={requested} requested but the ISA tier is not available; \
             using the {fallback} kernel tier"
        );
    }
}

/// Which activation layout a batched MVM executes in.
///
/// Row-major is the staging layout callers have always produced
/// (`acts[v * ins + i]`); the batch-transposed layout reads the block as
/// a lane-major panel whose rows are addressed through offsets
/// (`acts_t[rows[i] + v]`) so the SIMD tiers vectorize across *vectors*
/// instead of across `ins`. A copied `[ins x n_pad]` panel is the
/// special case `rows[i] = i * n_pad`. Both layouts are exact integer
/// paths over the same values, so the choice can never change a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulLayout {
    /// `acts[v * ins + i]` — one contiguous activation row per vector.
    RowMajor,
    /// `acts_t[rows[i] + v]` — one contiguous *lane row* per activation
    /// index, starting at that index's row offset, with at least
    /// [`transposed_pad`]`(n)` readable lanes.
    Transposed,
}

/// Lanes the SIMD tiers may read from each row of a transposed panel:
/// block size `n` rounded up to 16 (one AVX-512 register of codes
/// widened to `i32`; two AVX2 registers; the scalar tier reads only the
/// `n` live lanes). Every row offset plus this must lie inside the
/// panel's buffer, which [`RomMvm::run_batch_transposed`] asserts once
/// per call. Lanes past `n` are never read back, but the whole buffer
/// must stay within the activation code range.
///
/// [`RomMvm::run_batch_transposed`]: crate::macro_model::RomMvm::run_batch_transposed
pub fn transposed_pad(n: usize) -> usize {
    n.next_multiple_of(16).max(16)
}

/// The shape-driven row-major vs batch-transposed crossover for the
/// SIMD tiers (the scalar reference tier always dispatches row-major —
/// its fastest staging — and its transposed entries are exercised as
/// parity oracles with explicit panels).
///
/// The transposed matmul vectorizes across vectors, so it pays where a
/// conv's short rows leave the row-major `madd` (which vectorizes across
/// `ins`) with idle lanes and the block has vectors to fill its own.
/// The thresholds come from per-call run steps (matmul plus counter
/// fold, `run_batch` against `run_batch_transposed`, AVX-512 tier, best
/// of 7 rounds, 2-lane Xeon):
///
/// * below 4 vectors the panel is mostly padding: row-major;
/// * at 4–7 vectors (8-lane blocks, half of them idle) transposed wins
///   only while the matrix is tiny, `outs * ins <= 72`: 0.39–0.85x the
///   row-major time from 1x9 to 8x9, while 4x32 was 1.02x, 16x32 1.7x
///   and 16x72 2.0x;
/// * at 8–15 vectors, while `outs * ins <= 576`: 4x144 0.76x and 16x36
///   0.86x, but 16x72 1.25x and 32x72 1.26x;
/// * from 16 vectors, every shape up to 16 outputs (16x576 was 0.93x)
///   and 32 outputs up to 144 inputs (0.76x; 32x288 was 1.12x). At
///   larger `outs` the row-major `madd` fills its lanes across `ins` and
///   dominates the call.
pub fn choose_layout(outs: usize, ins: usize, n: usize) -> MatmulLayout {
    let cells = outs.saturating_mul(ins);
    let transposed = match n {
        0..=3 => false,
        4..=7 => cells <= 72,
        8..=15 => cells <= 576,
        _ => outs <= 16 || (outs <= 32 && ins <= 144),
    };
    if transposed {
        MatmulLayout::Transposed
    } else {
        MatmulLayout::RowMajor
    }
}

/// Weight codes lane-packed to `i16` for the madd matmul tiers: row
/// stride rounded up to 16 lanes, tail lanes zero. Built once at
/// `program` time by [`pack_codes16`] (and by the parity suites — this
/// type is the single owner of the packing rule). An empty packing
/// means the codes do not fit `i16`, and the row-major SIMD matmuls
/// hand the block to the scalar tier.
#[must_use = "packing codes16 is pointless unless the packed view is stored"]
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedCodes16 {
    data: Vec<i16>,
    ins16: usize,
}

impl PackedCodes16 {
    /// The no-packing sentinel for shapes outside the overflow proof.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Lane-packed codes, `outs x ins16` row-major; empty if ineligible.
    pub fn data(&self) -> &[i16] {
        &self.data
    }

    /// Row stride of the packing (0 when empty).
    pub fn stride(&self) -> usize {
        self.ins16
    }
}

/// Packs row-major `i32` codes into the lane-major `i16` layout every
/// madd tier consumes. The caller proves the codes fit `i16`
/// (`weight_bits <= 16`); values are asserted to in debug builds. A
/// madd pair of `u8` codes times `i16` weights then fits an `i32` lane,
/// and the sums over it fit by [`MacroParams::accumulators_fit`].
///
/// [`MacroParams::accumulators_fit`]: crate::macro_model::MacroParams::accumulators_fit
pub(crate) fn pack_codes16(codes: &[i32], outs: usize, ins: usize) -> PackedCodes16 {
    assert_eq!(codes.len(), outs * ins, "row-major codes shape mismatch");
    let ins16 = ins.next_multiple_of(16);
    let mut data = vec![0i16; outs * ins16];
    for o in 0..outs {
        for i in 0..ins {
            let c = codes[o * ins + i];
            debug_assert!(i32::from(c as i16) == c, "code {c} exceeds i16");
            data[o * ins16 + i] = c as i16;
        }
    }
    PackedCodes16 { data, ins16 }
}

/// The stored weight codes of an exact-kernel engine, in every packing
/// the matmul tiers understand: row-major `i32` (the reference layout,
/// and the scalars the transposed kernels broadcast) plus the optional
/// lane-packed `i16` copy (`ins16`-strided, zero padded) built at
/// `program` time when the codes fit `i16`.
pub(crate) struct ExactCodes<'a> {
    /// Row-major `outs x ins` signed codes.
    pub codes: &'a [i32],
    /// Lane-packed `i16` codes (`outs x ins16`), empty when ineligible.
    pub codes16: &'a [i16],
    /// Row stride of `codes16`: `ins` rounded up to 16 lanes.
    pub ins16: usize,
    /// Output rows.
    pub outs: usize,
    /// Dot-product depth.
    pub ins: usize,
}

/// Batched integer matmul `out[o][v] = sum_i codes[o][i] * acts[v][i]`
/// (channel-major accumulators, `out[o * n + v]`), dispatched by tier.
/// Every tier computes the exact integer product — bit-identical to
/// [`scalar::matmul_into`] by construction (and by the parity suites).
pub(crate) fn matmul_exact(
    kind: KernelKind,
    c: &ExactCodes<'_>,
    acts: &[u8],
    n: usize,
    out: &mut [i32],
    acts16: &mut Vec<i16>,
) {
    match kind {
        KernelKind::Scalar => scalar::matmul_into(c.codes, c.outs, c.ins, acts, n, out),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => avx2::matmul_exact(c, acts, n, out, acts16),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512 => avx512::matmul_exact(c, acts, n, out, acts16),
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("SIMD tiers cannot be selected off x86_64"),
    }
}

/// Batch-transposed integer matmul over a lane-major [`Panel`]:
/// `out[o][v] = sum_i codes[o][i] * panel[i][v]`. Dispatched by tier;
/// exact on every tier.
pub(crate) fn matmul_exact_t(
    kind: KernelKind,
    c: &ExactCodes<'_>,
    panel: &Panel<'_>,
    out: &mut [i32],
) {
    match kind {
        KernelKind::Scalar => scalar::matmul_transposed(c.codes, c.outs, panel, out),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => avx2::matmul_transposed(c, panel, out),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512 => avx512::matmul_transposed(c, panel, out),
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("SIMD tiers cannot be selected off x86_64"),
    }
}

/// Shape constants of one event-counter fold, shared by every tier.
pub(crate) struct FoldParams<'a> {
    /// Global `(lo, hi)` activation-row ranges of every analog group, in
    /// row order: they partition `0..ins` (precomputed at `program`
    /// time; groups never span a row tile).
    pub group_bounds: &'a [(u32, u32)],
    /// Activation chunk count (`ceil(act_bits / chunk_bits)`).
    pub n_chunks: usize,
    /// Bits per activation chunk.
    pub chunk_bits: u8,
}

/// The activations one event-counter fold reads, in either layout.
#[derive(Clone, Copy)]
pub(crate) enum FoldSrc<'a> {
    /// `acts[v * ins + i]`: one contiguous row of `ins` codes per vector.
    Rows {
        /// The block's codes, `n * ins` of them.
        acts: &'a [u8],
        /// Codes per vector.
        ins: usize,
    },
    /// A lane-major [`Panel`].
    Panel(Panel<'a>),
}

/// The one event-counter fold: for each of the block's `n` vectors,
/// writes its active `(group, chunk)` evaluations into `active[v]` and
/// its word-line pulses into `pulses[v]`, and leaves both rows `n` long.
/// A group evaluates for a chunk iff some row of it carries a nonzero
/// pulse in that chunk. Every batch kernel calls this, so no tier can
/// drift from the statistics the scalar walks derive.
///
/// At the paper chunking the SIMD tiers run the portable fold of the
/// `fold` module, 64 lanes per panel block on AVX-512 and 32 on AVX2;
/// the scalar tier and every other chunking run the scalar walks, the
/// oracle. Both count in `u32`, exact because `program` proved
/// `ins * n_chunks * (2^chunk_bits - 1) < 2^32`
/// ([`MacroParams::event_counts_fit`]).
///
/// [`MacroParams::event_counts_fit`]: crate::macro_model::MacroParams::event_counts_fit
pub(crate) fn fold_event_counters(
    kind: KernelKind,
    src: FoldSrc<'_>,
    n: usize,
    p: &FoldParams<'_>,
    active: &mut Vec<u32>,
    pulses: &mut Vec<u32>,
) {
    // The panel body stores whole lane blocks, up to
    // `transposed_pad(n)`; the rows are cut back to `n` below.
    let lanes = match src {
        FoldSrc::Rows { .. } => n,
        FoldSrc::Panel(_) => transposed_pad(n),
    };
    active.clear();
    active.resize(lanes, 0);
    pulses.clear();
    pulses.resize(lanes, 0);
    match (kind, src) {
        #[cfg(target_arch = "x86_64")]
        (KernelKind::Avx2, _) if fold::applies(p) => {
            avx2::fold(&src, p.group_bounds, active, pulses);
        }
        #[cfg(target_arch = "x86_64")]
        (KernelKind::Avx512, _) if fold::applies(p) => {
            avx512::fold(&src, p.group_bounds, active, pulses);
        }
        (_, FoldSrc::Rows { acts, ins }) => {
            scalar::fold_event_counters(acts, ins, p, active, pulses)
        }
        (_, FoldSrc::Panel(panel)) => scalar::fold_event_counters_t(&panel, p, active, pulses),
    }
    active.truncate(n);
    pulses.truncate(n);
}

/// Quantizes `x` into `codes`, `p.quantize_value(v) as u8` per value,
/// on tier `kind`: the scalar tier runs the portable body as it is, each
/// SIMD tier the same body compiled at its width. Every tier writes the
/// same codes.
pub(crate) fn quantize_codes(kind: KernelKind, p: QuantParams, x: &[f32], codes: &mut [u8]) {
    match kind {
        KernelKind::Scalar => quant::quantize_codes(p, x, codes),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => avx2::quantize_codes(p, x, codes),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512 => avx512::quantize_codes(p, x, codes),
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("SIMD tiers cannot be selected off x86_64"),
    }
}

/// Discharge counts of one stored column mask against the staged pulse
/// bit-planes of a whole block:
/// `counts[v] = sum_b 2^b * popcount(mask & planes[b][v])`, with the
/// plane-major staging layout `planes[b * n_pad + v]`. Dispatched by
/// tier; `counts.len()` is the lane-padded block size `n_pad`.
pub(crate) fn group_counts(
    kind: KernelKind,
    mask: u64,
    planes: &[u64],
    n_planes: usize,
    n_pad: usize,
    counts: &mut [u64],
) {
    match kind {
        KernelKind::Scalar => scalar::group_counts(mask, planes, n_planes, n_pad, counts),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => avx2::group_counts(mask, planes, n_planes, n_pad, counts),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512 => avx512::group_counts(mask, planes, n_planes, n_pad, counts),
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("SIMD tiers cannot be selected off x86_64"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_resolution_is_host_consistent() {
        assert_eq!(KernelDispatch::Scalar.resolve(), KernelKind::Scalar);
        let auto = KernelDispatch::Auto.resolve();
        let forced2 = KernelDispatch::Avx2.resolve();
        let forced512 = KernelDispatch::Avx512.resolve();
        if avx512_available() {
            assert_eq!(auto, KernelKind::Avx512);
            assert_eq!(forced512, KernelKind::Avx512);
            assert_eq!(forced2, KernelKind::Avx2);
        } else if avx2_available() {
            // Forcing a tier on a host without it downgrades to the
            // widest available tier (with a warning) instead of
            // aborting.
            assert_eq!(auto, KernelKind::Avx2);
            assert_eq!(forced2, KernelKind::Avx2);
            assert_eq!(forced512, KernelKind::Avx2);
        } else {
            assert_eq!(auto, KernelKind::Scalar);
            assert_eq!(forced2, KernelKind::Scalar);
            assert_eq!(forced512, KernelKind::Scalar);
        }
        let kinds = available_kinds();
        assert_eq!(kinds[0], KernelKind::Scalar);
        assert_eq!(
            kinds.len(),
            1 + avx2_available() as usize + avx512_available() as usize
        );
    }

    #[test]
    fn forced_isa_downgrade_notes_instead_of_panicking() {
        // Re-run this test binary with each SIMD tier pinned via
        // `YOLOC_KERNEL`. On a host without the ISA the probe must
        // downgrade with a one-time note and still produce correct
        // results — a pinned CI environment stays runnable everywhere.
        let exe = std::env::current_exe().expect("test binary path");
        for forced in ["avx2", "avx512"] {
            let out = std::process::Command::new(&exe)
                .args([
                    "--exact",
                    "kernels::tests::forced_isa_probe_helper",
                    "--include-ignored",
                    "--nocapture",
                ])
                .env("YOLOC_KERNEL", forced)
                .output()
                .expect("spawn probe");
            assert!(
                out.status.success(),
                "YOLOC_KERNEL={forced} probe failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let missing = match forced {
                "avx2" => !avx2_available(),
                _ => !avx512_available(),
            };
            if missing {
                let err = String::from_utf8_lossy(&out.stderr);
                assert!(
                    err.contains("not available"),
                    "downgrade note missing from stderr:\n{err}"
                );
            }
        }
    }

    #[test]
    #[ignore = "helper: re-invoked by forced_isa_downgrade_notes_instead_of_panicking"]
    fn forced_isa_probe_helper() {
        use crate::backend::{program_backend, BackendKind};
        use crate::macro_model::{MacroParams, RomMvm};
        use rand::{rngs::StdRng, SeedableRng};
        // Resolving a forced-but-unavailable tier must downgrade, never
        // panic, and the downgraded engine must still match the
        // cell-accurate walk of an analog twin.
        let kind = KernelDispatch::from_env().resolve();
        assert!(available_kinds().contains(&kind));
        let params = MacroParams::rom_paper();
        let (outs, ins) = (4, 96);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| ((i * 29) % 255) as i32 - 127)
            .collect();
        let acts: Vec<i32> = (0..ins).map(|i| ((i * 11) % 256) as i32).collect();
        let engine = RomMvm::program(params, &codes, outs, ins);
        let mut rng = StdRng::seed_from_u64(9);
        let twin = program_backend(BackendKind::Analog, params, &codes, outs, ins);
        assert_eq!(engine.mvm(&acts, &mut rng), twin.mvm(&acts, &mut rng));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(KernelKind::Scalar.label(), "scalar");
        assert_eq!(KernelKind::Avx2.label(), "avx2");
        assert_eq!(KernelKind::Avx512.label(), "avx512");
    }

    #[test]
    fn layout_crossover_is_shape_driven() {
        // Narrow shapes with real batch depth go transposed: im2col
        // shapes, every mid shape up to 16 outputs, and 32 outputs while
        // ins stays moderate and the block fills the lanes…
        assert_eq!(choose_layout(1, 9, 256), MatmulLayout::Transposed);
        assert_eq!(choose_layout(4, 18, 256), MatmulLayout::Transposed);
        assert_eq!(choose_layout(16, 72, 256), MatmulLayout::Transposed);
        assert_eq!(choose_layout(16, 72, 16), MatmulLayout::Transposed);
        assert_eq!(choose_layout(32, 144, 256), MatmulLayout::Transposed);
        assert_eq!(choose_layout(32, 144, 16), MatmulLayout::Transposed);
        // …and below 16 vectors only while the matrix stays small:
        // 72 cells from 4 vectors, 576 from 8.
        assert_eq!(choose_layout(1, 32, 4), MatmulLayout::Transposed);
        assert_eq!(choose_layout(8, 9, 4), MatmulLayout::Transposed);
        assert_eq!(choose_layout(16, 32, 4), MatmulLayout::RowMajor);
        assert_eq!(choose_layout(16, 72, 4), MatmulLayout::RowMajor);
        assert_eq!(choose_layout(1, 64, 8), MatmulLayout::Transposed);
        assert_eq!(choose_layout(16, 36, 8), MatmulLayout::Transposed);
        assert_eq!(choose_layout(16, 72, 8), MatmulLayout::RowMajor);
        // Matmul-bound shapes stay row-major (madd across ins already
        // fills lanes, and panel staging scales with ins), as do
        // degenerate batches.
        assert_eq!(choose_layout(32, 288, 256), MatmulLayout::RowMajor);
        assert_eq!(choose_layout(32, 144, 4), MatmulLayout::RowMajor);
        assert_eq!(choose_layout(64, 288, 16), MatmulLayout::RowMajor);
        assert_eq!(choose_layout(1, 9, 1), MatmulLayout::RowMajor);
        assert_eq!(choose_layout(4, 18, 2), MatmulLayout::RowMajor);
        // Panel padding covers one AVX-512 register even for tiny n.
        assert_eq!(transposed_pad(1), 16);
        assert_eq!(transposed_pad(16), 16);
        assert_eq!(transposed_pad(17), 32);
    }

    #[test]
    fn primitive_kernels_match_scalar_reference_on_every_tier() {
        // Direct primitive-level parity on irregular shapes (remainders
        // in every dimension); the macro-level parity suites cover the
        // same tiers end to end.
        let (outs, ins, n) = (7usize, 83usize, 5usize);
        let codes: Vec<i32> = (0..outs * ins)
            .map(|i| (i as i32 * 37) % 255 - 127)
            .collect();
        let acts: Vec<u8> = (0..n * ins).map(|i| (i * 13) as u8).collect();
        let packed = pack_codes16(&codes, outs, ins);
        let (codes16, ins16) = (packed.data(), packed.stride());
        assert_eq!(ins16, ins.next_multiple_of(16));
        // The transposed panel carries the same values lane-major, its
        // rows in reverse order and one lane apart more than they need.
        let n_pad = transposed_pad(n);
        let stride = n_pad + 1;
        let mut acts_t = vec![0u8; ins * stride + n_pad];
        let rows: Vec<usize> = (0..ins).map(|i| (ins - 1 - i) * stride).collect();
        for v in 0..n {
            for i in 0..ins {
                acts_t[rows[i] + v] = acts[v * ins + i];
            }
        }
        let panel = Panel::new(&acts_t, &rows, n);
        let mut reference = vec![0i32; n * outs];
        scalar::matmul_into(&codes, outs, ins, &acts, n, &mut reference);
        let bounds: Vec<(u32, u32)> = (0..ins as u32)
            .step_by(10)
            .map(|lo| (lo, (lo + 10).min(ins as u32)))
            .collect();
        let fold = FoldParams {
            group_bounds: &bounds,
            n_chunks: 4,
            chunk_bits: 2,
        };
        let (mut ref_active, mut ref_pulses) = (vec![0u32; n], vec![0u32; n]);
        scalar::fold_event_counters(&acts, ins, &fold, &mut ref_active, &mut ref_pulses);
        for kind in available_kinds() {
            for with_i16 in [false, true] {
                let c = ExactCodes {
                    codes: &codes,
                    codes16: if with_i16 { codes16 } else { &[] },
                    ins16: if with_i16 { ins16 } else { 0 },
                    outs,
                    ins,
                };
                let mut out = vec![0i32; n * outs];
                let mut acts16 = Vec::new();
                matmul_exact(kind, &c, &acts, n, &mut out, &mut acts16);
                assert_eq!(out, reference, "{} matmul (i16={with_i16})", kind.label());
                out.fill(0);
                matmul_exact_t(kind, &c, &panel, &mut out);
                assert_eq!(
                    out,
                    reference,
                    "{} transposed matmul (i16={with_i16})",
                    kind.label()
                );
            }
            let (mut active, mut pulses) = (Vec::new(), Vec::new());
            for src in [FoldSrc::Rows { acts: &acts, ins }, FoldSrc::Panel(panel)] {
                fold_event_counters(kind, src, n, &fold, &mut active, &mut pulses);
                assert_eq!(active, ref_active, "{} fold", kind.label());
                assert_eq!(pulses, ref_pulses, "{} fold", kind.label());
            }
        }
        // Popcount stream parity over staged planes, at both staging
        // paddings (4 for scalar/AVX2, 8 for the AVX-512 vpopcntq
        // stream).
        for plane_pad in [4usize, 8] {
            let (n_planes, n_pad) = (2, 2 * plane_pad);
            let planes: Vec<u64> = (0..n_planes * n_pad)
                .map(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect();
            let mask = 0x0000_03ffu64; // 10-row group mask
            let mut ref_counts = vec![0u64; n_pad];
            scalar::group_counts(mask, &planes, n_planes, n_pad, &mut ref_counts);
            for kind in available_kinds() {
                if n_pad % kind.plane_pad() != 0 {
                    continue;
                }
                let mut counts = vec![0u64; n_pad];
                group_counts(kind, mask, &planes, n_planes, n_pad, &mut counts);
                assert_eq!(counts, ref_counts, "{} group_counts", kind.label());
            }
        }
    }

    /// Unsigned parameter sets at every width the engines read, 2..=8
    /// bits, with the zero point at `qmin`, mid-range and `qmax`, at a
    /// power-of-two scale (exact ties) and an odd one.
    fn unsigned_param_sets() -> Vec<QuantParams> {
        let mut sets = Vec::new();
        for bits in 2..=8u8 {
            let qmax = (1i32 << bits) - 1;
            for zero_point in [0, qmax / 2, qmax] {
                for scale in [0.25f32, 3.7e-3] {
                    sets.push(QuantParams {
                        scale,
                        zero_point,
                        bits,
                        symmetric: false,
                    });
                }
            }
        }
        sets
    }

    /// NaNs, infinities, signed zeros and subnormals, then every integer
    /// and `±0.5` tie of `v / scale` from two steps below the low clamp
    /// edge to two above the high one, each with its f32 neighbours.
    fn quantizer_edge_values(p: &QuantParams) -> Vec<f32> {
        let mut values = vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
            f32::MAX,
            f32::MIN,
        ];
        for k in p.qmin() - p.zero_point - 2..=p.qmax() - p.zero_point + 2 {
            for x in [k as f32 - 0.5, k as f32, k as f32 + 0.5] {
                let v = x * p.scale;
                values.extend([v.next_down(), v, v.next_up()]);
            }
        }
        values
    }

    #[test]
    fn quantizer_tiers_match_quantize_value() {
        // Every tier writes `quantize_value(v) as u8`: the whole edge set
        // in one call, then windows of every length from 0 to 130, so
        // each tier's vector body and its tail both run, starting at
        // different values.
        for p in unsigned_param_sets() {
            let values = quantizer_edge_values(&p);
            let want: Vec<u8> = values.iter().map(|&v| p.quantize_value(v) as u8).collect();
            for kind in available_kinds() {
                let mut codes = vec![0u8; values.len()];
                quantize_codes(kind, p, &values, &mut codes);
                assert_eq!(codes, want, "{} {p:?}", kind.label());
                for len in 0..=130 {
                    let start = len * 7 % values.len();
                    let x: Vec<f32> = values
                        .iter()
                        .cycle()
                        .skip(start)
                        .take(len)
                        .copied()
                        .collect();
                    let want: Vec<u8> =
                        want.iter().cycle().skip(start).take(len).copied().collect();
                    let mut codes = vec![0xa5u8; len];
                    quantize_codes(kind, p, &x, &mut codes);
                    assert_eq!(codes, want, "{} {p:?} len {len}", kind.label());
                }
            }
        }
    }

    #[test]
    #[ignore = "sweeps all 2^32 bit patterns on every tier (about 10 s on two cores in release)"]
    fn quantizer_tiers_match_quantize_value_on_every_bit_pattern() {
        const CHUNK: u64 = 1 << 12;
        let p = QuantParams::affine(-0.37, 2.11, 8);
        let kinds = available_kinds();
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(lanes).next_multiple_of(CHUNK);
        std::thread::scope(|s| {
            for lane in 0..lanes {
                let kinds = &kinds;
                s.spawn(move || {
                    let end = ((lane + 1) * span).min(1 << 32);
                    let (mut x, mut want) = (Vec::new(), Vec::new());
                    let mut codes = vec![0u8; CHUNK as usize];
                    for first in (lane * span..end).step_by(CHUNK as usize) {
                        x.clear();
                        x.extend((first..first + CHUNK).map(|b| f32::from_bits(b as u32)));
                        want.clear();
                        want.extend(x.iter().map(|&v| p.quantize_value(v) as u8));
                        for &kind in kinds {
                            quantize_codes(kind, p, &x, &mut codes);
                            if codes != want {
                                let i = codes.iter().zip(&want).position(|(a, b)| a != b);
                                let bits = first + i.unwrap_or(0) as u64;
                                panic!("{} diverges at {bits:#010x}", kind.label());
                            }
                        }
                    }
                });
            }
        });
    }

    /// Quantizes through a 4-bit engine's entry, first with parameters
    /// that fit it, then with `refused`.
    fn quantize_through_a_4_bit_engine(refused: QuantParams) {
        use crate::macro_model::{MacroParams, RomMvm};
        let mut params = MacroParams::rom_paper();
        params.act_bits = 4;
        let engine = RomMvm::program(params, &[1, -1, 2, -2], 1, 4);
        let x = [0.5f32, -0.5, 3.0, 1e9];
        let mut codes = [0u8; 4];
        let fits = QuantParams::affine(-1.0, 2.0, 4);
        engine.quantize_codes(&fits, &x, &mut codes);
        let want: Vec<u8> = x.iter().map(|&v| fits.quantize_value(v) as u8).collect();
        assert_eq!(codes.to_vec(), want);
        engine.quantize_codes(&refused, &x, &mut codes);
    }

    #[test]
    #[should_panic(expected = "5-bit unsigned codes do not fit the engine's unsigned 4-bit")]
    fn quantizer_entry_refuses_codes_wider_than_the_engine() {
        quantize_through_a_4_bit_engine(QuantParams::affine(-1.0, 2.0, 5));
    }

    #[test]
    #[should_panic(expected = "4-bit signed codes do not fit the engine's unsigned 4-bit")]
    fn quantizer_entry_refuses_signed_codes() {
        quantize_through_a_4_bit_engine(QuantParams::symmetric(1.0, 4));
    }
}
