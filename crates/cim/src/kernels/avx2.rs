//! The AVX2 kernel tier: `std::arch` x86_64 intrinsics behind safe
//! wrappers, pinned bit-identical to [`super::scalar`].
//!
//! This file and `kernels/avx512.rs` are the crate's entire `unsafe`
//! surface. Every function here is structured the same way: a safe
//! wrapper asserts AVX2 support, then enters a
//! `#[target_feature(enable = "avx2")]` implementation; inside, only
//! the raw-pointer loads/stores need `unsafe` blocks (arithmetic
//! intrinsics are safe once the feature is statically enabled on the
//! enclosing function), and each carries its bounds argument.
//!
//! The kernels:
//!
//! * [`matmul_exact`] — the row-major exact-path integer matmul,
//!   cache-blocked (8 vectors x 4 output rows per block so both the
//!   staged `i16` activations and the code-row quad stay L1-resident),
//!   using `_mm256_madd_epi16` on the lane-packed `i16` codes against
//!   the block's `u8` codes widened to `i16`, each accumulator reduced
//!   in registers;
//! * [`matmul_transposed`] — the batch-transposed matmul over a
//!   lane-major [`Panel`], vectorizing across 8 vectors per
//!   `_mm256_mullo_epi32` for the narrow shapes whose rows cannot fill
//!   lanes; its `i32` lanes store straight into the channel-major
//!   accumulator row;
//! * [`fold`] — the portable event-counter fold of the `fold` module in
//!   both layouts, compiled with AVX2 enabled: no intrinsics, the
//!   compiler vectorizes it, 32 lanes per panel block;
//! * [`group_counts`] — the bit-plane popcount stream: one stored column
//!   mask `AND`ed against four vectors' staged pulse planes at once,
//!   popcounted with the `vpshufb` nibble-LUT + `_mm256_sad_epu8` trick;
//! * [`quantize_codes`] — the portable activation quantizer of the
//!   `quant` module compiled with AVX2 enabled, eight values per op.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m128i, __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256,
    _mm256_castsi256_si128, _mm256_cvtepu8_epi16, _mm256_cvtepu8_epi32, _mm256_extracti128_si256,
    _mm256_loadu_si256, _mm256_madd_epi16, _mm256_mullo_epi32, _mm256_sad_epu8, _mm256_set1_epi32,
    _mm256_set1_epi64x, _mm256_set1_epi8, _mm256_setr_epi8, _mm256_setzero_si256,
    _mm256_shuffle_epi8, _mm256_sll_epi64, _mm256_srli_epi16, _mm256_storeu_si256,
    _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi32, _mm256_unpacklo_epi64,
    _mm_add_epi32, _mm_cvtsi128_si32, _mm_cvtsi32_si128, _mm_loadl_epi64, _mm_loadu_si128,
    _mm_shuffle_epi32, _mm_storeu_si128,
};

use yoloc_quant::QuantParams;

use super::{fold, quant, scalar, ExactCodes, FoldSrc, PackedCodes, Panel};

/// Vectors staged per cache block of the blocked matmuls: 8 activation
/// rows of `i16` codes stay well inside L1 alongside a 4-row code quad.
const V_BLOCK: usize = 8;

fn assert_avx2() {
    assert!(
        super::avx2_available(),
        "AVX2 kernel invoked on a host without AVX2"
    );
}

/// AVX2 tier of the exact-path batched matmul. Bit-identical to
/// [`scalar::matmul_into`]: integer arithmetic only, in `i32` lanes
/// whose sums `program` proved fit. Codes with no `i16` packing run on
/// the scalar tier.
pub(crate) fn matmul_exact(
    c: &ExactCodes<'_>,
    acts: &[u8],
    n: usize,
    out: &mut [i32],
    acts16: &mut Vec<i16>,
) {
    assert_avx2();
    debug_assert_eq!(acts.len(), n * c.ins);
    debug_assert_eq!(out.len(), n * c.outs);
    match c.packed {
        // One madd row can't amortize the i16 staging below 8 inputs;
        // the scalar reference is bit-identical, so this is pure
        // heuristics.
        PackedCodes::I16 { data, stride } if c.outs > 1 || c.ins >= 8 => {
            // SAFETY: AVX2 support asserted above.
            unsafe { matmul_i16(data, *stride, c.outs, c.ins, acts, n, out, acts16) }
        }
        _ => scalar::matmul_into(c.codes, c.outs, c.ins, acts, n, out),
    }
}

/// `_mm256_madd_epi16` matmul over the lane-packed `i16` codes (rows
/// `ins16` apart).
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn matmul_i16(
    codes16: &[i16],
    ins16: usize,
    outs: usize,
    ins: usize,
    acts: &[u8],
    n: usize,
    out: &mut [i32],
    acts16: &mut Vec<i16>,
) {
    debug_assert_eq!(codes16.len(), outs * ins16);
    // Stage the block's activations as zero-padded i16 rows, 16 codes
    // widened per `_mm256_cvtepu8_epi16`. `clear` first so rows shorter
    // than a previous caller's cannot leak stale nonzero padding into
    // the dot products.
    acts16.clear();
    acts16.resize(n * ins16, 0);
    for v in 0..n {
        let av = &acts[v * ins..(v + 1) * ins];
        let dst = &mut acts16[v * ins16..v * ins16 + ins];
        let mut i = 0;
        while i + 16 <= ins {
            // SAFETY: i + 16 <= ins keeps the 16-byte load inside `av`
            // and the 32-byte store inside `dst`; unaligned ops.
            unsafe {
                let a = _mm_loadu_si128(av.as_ptr().add(i) as *const __m128i);
                let wide = _mm256_cvtepu8_epi16(a);
                _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, wide);
            }
            i += 16;
        }
        for (d, &a) in dst[i..].iter_mut().zip(&av[i..]) {
            *d = i16::from(a);
        }
    }
    // Cache-blocked nest: one V_BLOCK x 4 tile of outputs at a time, so
    // the four code rows stream from L1 against every staged activation
    // row of the block.
    let mut vb = 0;
    while vb < n {
        let vb_end = (vb + V_BLOCK).min(n);
        let mut o = 0;
        while o + 4 <= outs {
            for v in vb..vb_end {
                let av = &acts16[v * ins16..(v + 1) * ins16];
                let mut acc = [_mm256_setzero_si256(); 4];
                let mut i = 0;
                while i < ins16 {
                    // SAFETY: ins16 is a multiple of 16, so i + 16 <=
                    // ins16 bounds all five 32-byte loads (codes16 rows
                    // o..o+4 and the activation row share that stride).
                    unsafe {
                        let a = _mm256_loadu_si256(av.as_ptr().add(i) as *const __m256i);
                        for (k, ak) in acc.iter_mut().enumerate() {
                            let w = _mm256_loadu_si256(
                                codes16.as_ptr().add((o + k) * ins16 + i) as *const __m256i
                            );
                            *ak = _mm256_add_epi32(*ak, _mm256_madd_epi16(a, w));
                        }
                    }
                    i += 16;
                }
                for (k, sum) in reduce4(acc).into_iter().enumerate() {
                    out[(o + k) * n + v] = sum;
                }
            }
            o += 4;
        }
        while o < outs {
            for v in vb..vb_end {
                let av = &acts16[v * ins16..(v + 1) * ins16];
                let mut acc = _mm256_setzero_si256();
                let mut i = 0;
                while i < ins16 {
                    // SAFETY: i + 16 <= ins16 as above.
                    unsafe {
                        let a = _mm256_loadu_si256(av.as_ptr().add(i) as *const __m256i);
                        let w = _mm256_loadu_si256(
                            codes16.as_ptr().add(o * ins16 + i) as *const __m256i
                        );
                        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a, w));
                    }
                    i += 16;
                }
                out[o * n + v] = hsum_epi32(acc);
            }
            o += 1;
        }
        vb += V_BLOCK;
    }
}

/// AVX2 tier of the batch-transposed matmul: activations arrive as a
/// lane-major [`Panel`], so each 8-byte load carries 8 *vectors'* codes
/// for one activation index, widened to `i32` lanes, and the
/// multiply-add runs across the batch — full lanes even for the 9-deep
/// conv shapes the row-major path cannot fill. Accumulation is `i32`
/// (`_mm256_mullo_epi32`), exact because `program` proved every
/// accumulator fits. Bit-identical to [`scalar::matmul_transposed`].
pub(crate) fn matmul_transposed(c: &ExactCodes<'_>, panel: &Panel<'_>, out: &mut [i32]) {
    assert_avx2();
    debug_assert_eq!(panel.ins(), c.ins);
    debug_assert_eq!(out.len(), panel.n() * c.outs);
    // SAFETY: AVX2 support asserted above.
    unsafe { matmul_transposed_impl(c.codes, c.outs, panel, out) }
}

#[target_feature(enable = "avx2")]
fn matmul_transposed_impl(codes: &[i32], outs: usize, panel: &Panel<'_>, out: &mut [i32]) {
    let (acts, rows, n, ins) = (panel.acts(), panel.rows(), panel.n(), panel.ins());
    let mut vb = 0;
    while vb < n {
        let lanes_live = (n - vb).min(8);
        let mut o = 0;
        // Output quads share every panel load across four broadcast
        // code scalars, amortizing the load to one per 4 x 8 MACs.
        while o + 4 <= outs {
            let mut acc = [_mm256_setzero_si256(); 4];
            for (i, &row) in rows.iter().enumerate() {
                // SAFETY: vb < n and both vb and transposed_pad(n) are
                // multiples of 8, so vb + 8 <= transposed_pad(n);
                // and row + transposed_pad(n) <= acts.len() (`Panel::new`).
                let a = unsafe { load8(acts.as_ptr().add(row + vb)) };
                for (k, ak) in acc.iter_mut().enumerate() {
                    let w = _mm256_set1_epi32(codes[(o + k) * ins + i]);
                    *ak = _mm256_add_epi32(*ak, _mm256_mullo_epi32(a, w));
                }
            }
            for (k, ak) in acc.iter().enumerate() {
                let row = (o + k) * n + vb;
                store_lanes(*ak, &mut out[row..row + lanes_live]);
            }
            o += 4;
        }
        while o < outs {
            let mut acc = _mm256_setzero_si256();
            for (i, &row) in rows.iter().enumerate() {
                // SAFETY: as above.
                let a = unsafe { load8(acts.as_ptr().add(row + vb)) };
                let w = _mm256_set1_epi32(codes[o * ins + i]);
                acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(a, w));
            }
            store_lanes(acc, &mut out[o * n + vb..o * n + vb + lanes_live]);
            o += 1;
        }
        vb += 8;
    }
}

/// Loads the 8 codes at `p`, widened to `i32` lanes.
///
/// # Safety
///
/// `p..p + 8` must be readable.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load8(p: *const u8) -> __m256i {
    // SAFETY: the caller guarantees 8 readable bytes; unaligned load.
    _mm256_cvtepu8_epi32(unsafe { _mm_loadl_epi64(p as *const __m128i) })
}

/// Stores the live `i32` lanes of one transposed accumulator into
/// `dst`, the contiguous run of their output channel's accumulator row.
/// Only a block's last run can be short.
#[target_feature(enable = "avx2")]
fn store_lanes(acc: __m256i, dst: &mut [i32]) {
    if dst.len() == 8 {
        // SAFETY: `dst` holds exactly 8 i32 = one 32-byte unaligned
        // store.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, acc) };
    } else {
        let mut lanes = [0i32; 8];
        // SAFETY: `lanes` is exactly 32 bytes; unaligned store.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc) };
        dst.copy_from_slice(&lanes[..dst.len()]);
    }
}

/// Sums the eight `i32` lanes in registers: the two 128-bit halves,
/// then the two 64-bit halves, then the two dwords. Wrapping `i32` adds
/// in any order give the exact sum whenever it fits, which `program`
/// proved.
#[target_feature(enable = "avx2")]
fn hsum_epi32(v: __m256i) -> i32 {
    let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b01_00_11_10>(s));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b10_11_00_01>(s));
    _mm_cvtsi128_si32(s)
}

/// The lane sums of four accumulators, reduced together in registers by
/// a two-level unpack-and-add tree, then the two 128-bit halves. Exact
/// as [`hsum_epi32`] is.
#[target_feature(enable = "avx2")]
pub(crate) fn reduce4([b0, b1, b2, b3]: [__m256i; 4]) -> [i32; 4] {
    let c01 = _mm256_add_epi32(_mm256_unpacklo_epi32(b0, b1), _mm256_unpackhi_epi32(b0, b1));
    let c23 = _mm256_add_epi32(_mm256_unpacklo_epi32(b2, b3), _mm256_unpackhi_epi32(b2, b3));
    let d = _mm256_add_epi32(
        _mm256_unpacklo_epi64(c01, c23),
        _mm256_unpackhi_epi64(c01, c23),
    );
    let s = _mm_add_epi32(_mm256_castsi256_si128(d), _mm256_extracti128_si256::<1>(d));
    let mut sums = [0i32; 4];
    // SAFETY: `sums` is exactly 16 bytes; unaligned store.
    unsafe { _mm_storeu_si128(sums.as_mut_ptr() as *mut __m128i, s) };
    sums
}

/// The portable event-counter fold ([`fold::fold`]) compiled for AVX2.
pub(crate) fn fold(
    src: &FoldSrc<'_>,
    bounds: &[(u32, u32)],
    active: &mut [u32],
    pulses: &mut [u32],
) {
    assert_avx2();
    // SAFETY: AVX2 support asserted above.
    unsafe { fold_avx2(src, bounds, active, pulses) }
}

#[target_feature(enable = "avx2")]
fn fold_avx2(src: &FoldSrc<'_>, bounds: &[(u32, u32)], active: &mut [u32], pulses: &mut [u32]) {
    fold::fold::<32>(src, bounds, active, pulses);
}

/// The portable activation quantizer ([`quant::quantize_codes`])
/// compiled for AVX2.
pub(crate) fn quantize_codes(p: QuantParams, x: &[f32], codes: &mut [u8]) {
    assert_avx2();
    // SAFETY: AVX2 support asserted above.
    unsafe { quantize_codes_avx2(p, x, codes) }
}

#[target_feature(enable = "avx2")]
fn quantize_codes_avx2(p: QuantParams, x: &[f32], codes: &mut [u8]) {
    quant::quantize_codes(p, x, codes);
}

/// AVX2 tier of the bit-plane popcount stream: the column mask is
/// broadcast and `AND`ed against four vectors' staged planes per step,
/// popcounted via the `vpshufb` nibble LUT and `_mm256_sad_epu8`, and
/// weighted by plane significance with a single variable shift.
pub(crate) fn group_counts(
    mask: u64,
    planes: &[u64],
    n_planes: usize,
    n_pad: usize,
    counts: &mut [u64],
) {
    assert_avx2();
    debug_assert_eq!(n_pad % 4, 0, "staging layout must pad to 4 lanes");
    debug_assert!(planes.len() >= n_planes * n_pad);
    debug_assert_eq!(counts.len(), n_pad);
    // SAFETY: AVX2 support asserted above.
    unsafe { group_counts_impl(mask, planes, n_planes, n_pad, counts) }
}

#[target_feature(enable = "avx2")]
fn group_counts_impl(mask: u64, planes: &[u64], n_planes: usize, n_pad: usize, counts: &mut [u64]) {
    if n_planes == 0 {
        counts.fill(0);
        return;
    }
    // Per-byte popcounts of the low/high nibbles, summed, then reduced
    // to per-64-bit-lane totals by summing bytes against zero.
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_nibble = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    let mask_v = _mm256_set1_epi64x(mask as i64);
    let mut v = 0;
    while v < n_pad {
        let mut acc = zero;
        for b in 0..n_planes {
            // SAFETY: v + 4 <= n_pad and b < n_planes keep the 32-byte
            // load inside `planes[..n_planes * n_pad]` (checked by the
            // wrapper); unaligned load.
            let pl =
                unsafe { _mm256_loadu_si256(planes.as_ptr().add(b * n_pad + v) as *const __m256i) };
            let x = _mm256_and_si256(pl, mask_v);
            let lo = _mm256_and_si256(x, low_nibble);
            let hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low_nibble);
            let pops = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
            let lane_counts = _mm256_sad_epu8(pops, zero);
            // Weight this plane by 2^b while still vectorized.
            acc = _mm256_add_epi64(
                acc,
                _mm256_sll_epi64(lane_counts, _mm_cvtsi32_si128(b as i32)),
            );
        }
        // SAFETY: v + 4 <= n_pad == counts.len(); unaligned store.
        unsafe { _mm256_storeu_si256(counts.as_mut_ptr().add(v) as *mut __m256i, acc) };
        v += 4;
    }
}
