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
//!   using `_mm256_madd_epi16` on the lane-packed `i16` codes when the
//!   design point makes 32-bit accumulation overflow-safe, and a
//!   `_mm256_mul_epi32` 64-bit-accumulate fallback otherwise;
//! * [`matmul_transposed`] — the batch-transposed matmul over a
//!   lane-major [`Panel`], vectorizing across 8 vectors per
//!   `_mm256_mullo_epi32` for the narrow shapes whose rows cannot fill
//!   lanes; its lanes widen and store straight into the channel-major
//!   accumulator row;
//! * [`fold_event_counters`] / [`fold_event_counters_t`] — the
//!   event-counter folds in both layouts: 8 rows per step with
//!   per-chunk nonzero bitmaps (row-major), or 8 vectors per step with
//!   lane-resident activity counters (transposed);
//! * [`group_counts`] — the bit-plane popcount stream: one stored column
//!   mask `AND`ed against four vectors' staged pulse planes at once,
//!   popcounted with the `vpshufb` nibble-LUT + `_mm256_sad_epu8` trick.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256,
    _mm256_castsi256_ps, _mm256_castsi256_si128, _mm256_cmpgt_epi32, _mm256_cvtepi32_epi64,
    _mm256_extracti128_si256, _mm256_hadd_epi32, _mm256_loadu_si256, _mm256_madd_epi16,
    _mm256_movemask_ps, _mm256_mul_epi32, _mm256_mullo_epi32, _mm256_or_si256, _mm256_packs_epi32,
    _mm256_permute4x64_epi64, _mm256_sad_epu8, _mm256_set1_epi32, _mm256_set1_epi64x,
    _mm256_set1_epi8, _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
    _mm256_sll_epi64, _mm256_srl_epi32, _mm256_srli_epi16, _mm256_srli_epi32, _mm256_srli_epi64,
    _mm256_storeu_si256, _mm256_sub_epi32, _mm_cvtsi32_si128,
};

use super::{scalar, ExactCodes, FoldParams, Panel};

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
/// [`scalar::matmul_into`]: integer arithmetic only, and the `i16` path
/// is used only when `program` proved 32-bit accumulation cannot
/// overflow (8-bit codes, 8-bit acts, `ins <= 32768`).
pub(crate) fn matmul_exact(
    c: &ExactCodes<'_>,
    acts: &[i32],
    n: usize,
    out: &mut [i64],
    acts16: &mut Vec<i16>,
) {
    assert_avx2();
    debug_assert_eq!(acts.len(), n * c.ins);
    debug_assert_eq!(out.len(), n * c.outs);
    if c.outs == 1 && c.ins < 8 {
        // One madd row can't amortize the i16 staging below 8 inputs;
        // the scalar reference is bit-identical, so this is pure
        // heuristics.
        scalar::matmul_into(c.codes, c.outs, c.ins, acts, n, out);
    } else if !c.codes16.is_empty() {
        // SAFETY: AVX2 support asserted above.
        unsafe { matmul_i16(c, acts, n, out, acts16) }
    } else {
        // SAFETY: AVX2 support asserted above.
        unsafe { matmul_i32(c.codes, c.outs, c.ins, acts, n, out) }
    }
}

/// `_mm256_madd_epi16` matmul over the lane-packed `i16` codes.
#[target_feature(enable = "avx2")]
fn matmul_i16(c: &ExactCodes<'_>, acts: &[i32], n: usize, out: &mut [i64], acts16: &mut Vec<i16>) {
    let (ins, ins16, outs) = (c.ins, c.ins16, c.outs);
    debug_assert_eq!(c.codes16.len(), outs * ins16);
    // Stage the block's activations as zero-padded i16 rows. `clear`
    // first so rows shorter than a previous caller's cannot leak stale
    // nonzero padding into the dot products.
    acts16.clear();
    acts16.resize(n * ins16, 0);
    for v in 0..n {
        let av = &acts[v * ins..(v + 1) * ins];
        let dst = &mut acts16[v * ins16..v * ins16 + ins];
        let mut i = 0;
        while i + 16 <= ins {
            // SAFETY: i + 16 <= ins keeps both 32-byte loads and the
            // 32-byte store inside `av` / `dst`; unaligned ops.
            unsafe {
                let a0 = _mm256_loadu_si256(av.as_ptr().add(i) as *const __m256i);
                let a1 = _mm256_loadu_si256(av.as_ptr().add(i + 8) as *const __m256i);
                // packs interleaves 128-bit halves; the permute restores
                // element order. No saturation: codes16 exists only when
                // activations fit 8 unsigned bits.
                let packed = _mm256_permute4x64_epi64(_mm256_packs_epi32(a0, a1), 0b11011000);
                _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, packed);
            }
            i += 16;
        }
        for (d, &a) in dst[i..].iter_mut().zip(&av[i..]) {
            *d = a as i16;
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
                                c.codes16.as_ptr().add((o + k) * ins16 + i) as *const __m256i
                            );
                            *ak = _mm256_add_epi32(*ak, _mm256_madd_epi16(a, w));
                        }
                    }
                    i += 16;
                }
                for (k, ak) in acc.iter().enumerate() {
                    out[(o + k) * n + v] = hsum_epi32(*ak);
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
                            c.codes16.as_ptr().add(o * ins16 + i) as *const __m256i
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
/// lane-major [`Panel`], so each 32-byte load carries 8 *vectors'*
/// codes for one activation index and the multiply-add runs across the
/// batch — full lanes even for the 9-deep conv shapes the row-major
/// path cannot fill. Accumulation is `i32` (`_mm256_mullo_epi32`), exact
/// under the same `codes16` eligibility proof the madd path uses
/// (`|code| <= 128`, acts fit 8 unsigned bits, `ins <= 32768` → partial
/// sums < 2^31). Bit-identical to [`scalar::matmul_transposed`].
pub(crate) fn matmul_transposed(c: &ExactCodes<'_>, panel: &Panel<'_>, out: &mut [i64]) {
    assert_avx2();
    assert!(
        !c.codes16.is_empty(),
        "transposed AVX2 path requires the i16-eligibility overflow proof"
    );
    debug_assert_eq!(panel.ins(), c.ins);
    debug_assert_eq!(out.len(), panel.n() * c.outs);
    // SAFETY: AVX2 support asserted above.
    unsafe { matmul_transposed_impl(c.codes, c.outs, panel, out) }
}

#[target_feature(enable = "avx2")]
fn matmul_transposed_impl(codes: &[i32], outs: usize, panel: &Panel<'_>, out: &mut [i64]) {
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
                // multiples of 8, so vb + 8 <= transposed_pad(n); and
                // row + transposed_pad(n) <= acts.len() (`Panel::new`).
                // Unaligned load.
                let a =
                    unsafe { _mm256_loadu_si256(acts.as_ptr().add(row + vb) as *const __m256i) };
                for (k, ak) in acc.iter_mut().enumerate() {
                    let w = _mm256_set1_epi32(codes[(o + k) * ins + i]);
                    *ak = _mm256_add_epi32(*ak, _mm256_mullo_epi32(a, w));
                }
            }
            for (k, ak) in acc.iter().enumerate() {
                let row = (o + k) * n + vb;
                store_widened(*ak, &mut out[row..row + lanes_live]);
            }
            o += 4;
        }
        while o < outs {
            let mut acc = _mm256_setzero_si256();
            for (i, &row) in rows.iter().enumerate() {
                // SAFETY: as above.
                let a =
                    unsafe { _mm256_loadu_si256(acts.as_ptr().add(row + vb) as *const __m256i) };
                let w = _mm256_set1_epi32(codes[o * ins + i]);
                acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(a, w));
            }
            store_widened(acc, &mut out[o * n + vb..o * n + vb + lanes_live]);
            o += 1;
        }
        vb += 8;
    }
}

/// Stores the live `i32` lanes of one transposed accumulator, widened
/// to `i64`, into `dst` — the contiguous run of their output channel's
/// accumulator row (exact: per-lane sums are bounded below `i32::MAX` by
/// the eligibility proof). Only a block's last run can be short.
#[target_feature(enable = "avx2")]
fn store_widened(acc: __m256i, dst: &mut [i64]) {
    let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc));
    let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(acc));
    if dst.len() == 8 {
        // SAFETY: `dst` holds exactly 8 i64 = two 32-byte unaligned
        // stores.
        unsafe {
            _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, lo);
            _mm256_storeu_si256(dst.as_mut_ptr().add(4) as *mut __m256i, hi);
        }
    } else {
        let mut lanes = [0i64; 8];
        // SAFETY: `lanes` is exactly 64 bytes; unaligned stores.
        unsafe {
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, lo);
            _mm256_storeu_si256(lanes.as_mut_ptr().add(4) as *mut __m256i, hi);
        }
        dst.copy_from_slice(&lanes[..dst.len()]);
    }
}

/// Sums the eight `i32` lanes into an `i64`. Per-lane partial sums are
/// bounded far below `i32::MAX` (see the `codes16` eligibility proof),
/// so widening only at the horizontal step is exact.
#[target_feature(enable = "avx2")]
fn hsum_epi32(v: __m256i) -> i64 {
    let mut lanes = [0i32; 8];
    // SAFETY: `lanes` is exactly 32 bytes; unaligned store.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v) };
    lanes.iter().map(|&x| x as i64).sum()
}

/// `_mm256_mul_epi32` matmul with 64-bit accumulation — the general
/// fallback when the `i16` overflow proof does not hold.
#[target_feature(enable = "avx2")]
fn matmul_i32(codes: &[i32], outs: usize, ins: usize, acts: &[i32], n: usize, out: &mut [i64]) {
    let mut vb = 0;
    while vb < n {
        let vb_end = (vb + V_BLOCK).min(n);
        let mut o = 0;
        while o + 4 <= outs {
            for v in vb..vb_end {
                let av = &acts[v * ins..(v + 1) * ins];
                let quad = dot4_i32(codes, o, ins, av);
                for (k, &q) in quad.iter().enumerate() {
                    out[(o + k) * n + v] = q;
                }
            }
            o += 4;
        }
        while o < outs {
            for v in vb..vb_end {
                let av = &acts[v * ins..(v + 1) * ins];
                out[o * n + v] = codes[o * ins..(o + 1) * ins]
                    .iter()
                    .zip(av)
                    .map(|(&w, &a)| w as i64 * a as i64)
                    .sum();
            }
            o += 1;
        }
        vb += V_BLOCK;
    }
}

/// Four consecutive code-row dot products sharing one activation load.
/// Even/odd 32-bit lanes are multiplied separately (`_mm256_mul_epi32`
/// sign-extends the low half of each 64-bit lane) and accumulated in
/// 64 bits, so no overflow is possible for any `i32` inputs.
#[target_feature(enable = "avx2")]
fn dot4_i32(codes: &[i32], o: usize, ins: usize, av: &[i32]) -> [i64; 4] {
    let mut acc = [_mm256_setzero_si256(); 4];
    let mut i = 0;
    while i + 8 <= ins {
        // SAFETY: i + 8 <= ins bounds the activation load and, with the
        // caller's `o + 4 <= outs`, the four code-row loads.
        unsafe {
            let a = _mm256_loadu_si256(av.as_ptr().add(i) as *const __m256i);
            let a_hi = _mm256_srli_epi64(a, 32);
            for (k, ak) in acc.iter_mut().enumerate() {
                let w = _mm256_loadu_si256(codes.as_ptr().add((o + k) * ins + i) as *const __m256i);
                let w_hi = _mm256_srli_epi64(w, 32);
                let lo = _mm256_mul_epi32(a, w);
                let hi = _mm256_mul_epi32(a_hi, w_hi);
                *ak = _mm256_add_epi64(*ak, _mm256_add_epi64(lo, hi));
            }
        }
        i += 8;
    }
    let mut quad = [0i64; 4];
    for (k, (slot, ak)) in quad.iter_mut().zip(&acc).enumerate() {
        let mut lanes = [0i64; 4];
        // SAFETY: `lanes` is exactly 32 bytes; unaligned store.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, *ak) };
        *slot = lanes.iter().sum();
        for (w, a) in codes[(o + k) * ins + i..(o + k + 1) * ins]
            .iter()
            .zip(&av[i..])
        {
            *slot += *w as i64 * *a as i64;
        }
    }
    quad
}

/// `CHUNK_SPREAD_LUT[a]` holds the four 2-bit chunk fields of the 8-bit
/// activation code `a`, each spread into its own 16-bit lane of a `u64`
/// — so the small-shape fold accumulates all four per-chunk sums with a
/// single table load and one 64-bit add per activation.
const fn build_chunk_spread_lut() -> [u64; 256] {
    let mut lut = [0u64; 256];
    let mut a = 0usize;
    while a < 256 {
        let mut b = 0;
        while b < 4 {
            lut[a] |= (((a >> (2 * b)) & 0x3) as u64) << (16 * b);
            b += 1;
        }
        a += 1;
    }
    lut
}
static CHUNK_SPREAD_LUT: [u64; 256] = build_chunk_spread_lut();

/// Small-`ins` event-counter fold of the AVX2 tier, for the paper
/// chunking (`chunk_bits = 2`, 4 chunks, so codes fit 8 bits). Below
/// the vector fold's cutover the per-row work is too small to amortize
/// lane reductions, but the shift-and-mask chunk extraction of the
/// scalar reference (4 shift+mask+add per activation) still dominates;
/// this variant replaces it with one [`CHUNK_SPREAD_LUT`] load and one
/// add. Each 16-bit lane accumulates at most `3 * ins`, so the packing
/// is exact for the `ins < 64` shapes this path is gated to.
/// Bit-identical to [`scalar::fold_event_counters`]: identical integer
/// sums, identical group-activity predicate, identical counter updates.
pub(crate) fn fold_event_counters_small(
    acts: &[i32],
    ins: usize,
    n: usize,
    p: &FoldParams<'_>,
    counters: &mut [[u64; 3]],
) {
    debug_assert!(p.chunk_bits == 2 && p.n_chunks == 4);
    debug_assert!(ins <= 21845, "16-bit spread lanes hold at most 3 * 21845");
    debug_assert_eq!(counters.len(), n);
    debug_assert_eq!(acts.len(), n * ins);
    for (v, c) in counters.iter_mut().enumerate() {
        let av = &acts[v * ins..(v + 1) * ins];
        let mut active = 0u64;
        let mut tot = 0u64;
        for &(lo, hi) in p.group_bounds {
            let mut group_or = 0u32;
            for &a in &av[lo as usize..hi as usize] {
                group_or |= a as u32;
                tot += CHUNK_SPREAD_LUT[a as usize];
            }
            for ci in 0..4u32 {
                active += (((group_or >> (2 * ci)) & 0x3) != 0) as u64;
            }
        }
        let total = (tot & 0xffff) + ((tot >> 16) & 0xffff) + ((tot >> 32) & 0xffff) + (tot >> 48);
        c[0] += active * p.col_tiles;
        c[1] += active * p.cols * p.col_tiles;
        c[2] += total * p.col_tiles;
    }
}

/// AVX2 tier of the event-counter fold: all chunk sums accumulate 8
/// rows per step, and group activity is answered from per-chunk nonzero
/// bitmaps instead of a second walk. Accumulates into `counters`
/// exactly like [`scalar::fold_event_counters`].
pub(crate) fn fold_event_counters(
    acts: &[i32],
    ins: usize,
    n: usize,
    p: &FoldParams<'_>,
    counters: &mut [[u64; 3]],
    bitmaps: &mut Vec<u64>,
) {
    assert_avx2();
    debug_assert!(p.n_chunks <= 4, "vector fold handles at most 4 chunks");
    // SAFETY: AVX2 support asserted above.
    unsafe { fold_impl(acts, ins, n, p, counters, bitmaps) }
}

#[target_feature(enable = "avx2")]
fn fold_impl(
    acts: &[i32],
    ins: usize,
    n: usize,
    p: &FoldParams<'_>,
    counters: &mut [[u64; 3]],
    bitmaps: &mut Vec<u64>,
) {
    debug_assert_eq!(counters.len(), n);
    debug_assert_eq!(acts.len(), n * ins);
    let chunk_mask = (1u32 << p.chunk_bits) - 1;
    let n_words = ins.div_ceil(64).max(1);
    bitmaps.clear();
    bitmaps.resize(p.n_chunks * n_words, 0);
    let mask_v = _mm256_set1_epi32(chunk_mask as i32);
    let zero = _mm256_setzero_si256();
    for (v, c) in counters.iter_mut().enumerate() {
        let av = &acts[v * ins..(v + 1) * ins];
        bitmaps.fill(0);
        let mut sum_acc = [zero; 4];
        let mut i = 0;
        while i + 8 <= ins {
            // SAFETY: i + 8 <= ins == av.len(); unaligned 32-byte load.
            let a = unsafe { _mm256_loadu_si256(av.as_ptr().add(i) as *const __m256i) };
            for (ci, acc) in sum_acc[..p.n_chunks].iter_mut().enumerate() {
                let shift = _mm_cvtsi32_si128((ci as u32 * p.chunk_bits as u32) as i32);
                let pulses = _mm256_and_si256(_mm256_srl_epi32(a, shift), mask_v);
                *acc = _mm256_add_epi32(*acc, pulses);
                // Validated activation codes are non-negative, so a
                // signed greater-than-zero test is a nonzero test.
                let nz = _mm256_cmpgt_epi32(pulses, zero);
                let m = _mm256_movemask_ps(_mm256_castsi256_ps(nz)) as u32 as u64;
                // i is 8-aligned, so the 8 fresh bits stay in one word.
                bitmaps[ci * n_words + i / 64] |= m << (i % 64);
            }
            i += 8;
        }
        // Two hadd pairs fold the four accumulators into one vector
        // laid out [c0 c1 c2 c3 | c0 c1 c2 c3].
        let s01 = _mm256_hadd_epi32(sum_acc[0], sum_acc[1]);
        let s23 = _mm256_hadd_epi32(sum_acc[2], sum_acc[3]);
        let s = _mm256_hadd_epi32(s01, s23);
        let mut lanes = [0i32; 8];
        // SAFETY: `lanes` is exactly 32 bytes; unaligned store.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, s) };
        let mut sums = [0u64; 4];
        for (ci, s) in sums.iter_mut().enumerate() {
            *s = (lanes[ci] + lanes[4 + ci]) as u64;
        }
        for (j, &a) in av.iter().enumerate().skip(i) {
            let a = a as u32;
            for (ci, s) in sums[..p.n_chunks].iter_mut().enumerate() {
                let pulse = (a >> (ci as u32 * p.chunk_bits as u32)) & chunk_mask;
                if pulse != 0 {
                    *s += pulse as u64;
                    bitmaps[ci * n_words + j / 64] |= 1u64 << (j % 64);
                }
            }
        }
        let mut total = 0u64;
        let mut active = 0u64;
        for ci in 0..p.n_chunks {
            total += sums[ci];
            let bm = &bitmaps[ci * n_words..(ci + 1) * n_words];
            for &(lo, hi) in p.group_bounds {
                let (mut j, hi) = (lo as usize, hi as usize);
                let mut any = 0u64;
                while j < hi {
                    let span = (hi - j).min(64 - j % 64);
                    let m = if span == 64 {
                        !0u64
                    } else {
                        ((1u64 << span) - 1) << (j % 64)
                    };
                    any |= bm[j / 64] & m;
                    j += span;
                }
                active += (any != 0) as u64;
            }
        }
        c[0] += active * p.col_tiles;
        c[1] += active * p.cols * p.col_tiles;
        c[2] += total * p.col_tiles;
    }
}

/// AVX2 tier of the batch-transposed event-counter fold: walks the
/// [`Panel`] group-major, keeping per-chunk pulse totals and
/// active-group counts for 8 vectors at once in `i32` lanes (the
/// dispatcher bounds `ins * max_pulse` below `i32::MAX`). The group
/// activity predicate is the vectorized OR-then-compare of the scalar
/// walk, so the fold is bit-identical to
/// [`scalar::fold_event_counters_t`].
pub(crate) fn fold_event_counters_t(
    panel: &Panel<'_>,
    p: &FoldParams<'_>,
    counters: &mut [[u64; 3]],
) {
    assert_avx2();
    debug_assert!(p.n_chunks <= 4, "vector fold handles at most 4 chunks");
    debug_assert_eq!(counters.len(), panel.n());
    // SAFETY: AVX2 support asserted above.
    unsafe { fold_t_impl(panel, p, counters) }
}

#[target_feature(enable = "avx2")]
fn fold_t_impl(panel: &Panel<'_>, p: &FoldParams<'_>, counters: &mut [[u64; 3]]) {
    if p.chunk_bits == 2 && p.n_chunks == 4 {
        return fold_t_design_point(panel, p, counters);
    }
    let (acts, rows, n) = (panel.acts(), panel.rows(), panel.n());
    let chunk_mask = (1u32 << p.chunk_bits) - 1;
    let mask_v = _mm256_set1_epi32(chunk_mask as i32);
    let zero = _mm256_setzero_si256();
    let mut shifts = [_mm_cvtsi32_si128(0); 4];
    for (ci, s) in shifts[..p.n_chunks].iter_mut().enumerate() {
        *s = _mm_cvtsi32_si128((ci as u32 * p.chunk_bits as u32) as i32);
    }
    let mut vb = 0;
    while vb < n {
        let lanes_live = (n - vb).min(8);
        let mut tot_acc = [zero; 4];
        let mut act_acc = [zero; 4];
        for &(lo, hi) in p.group_bounds {
            let mut group_or = zero;
            for &row in &rows[lo as usize..hi as usize] {
                // SAFETY: vb + 8 <= transposed_pad(n) (vb < n, both
                // multiples of 8) and row + transposed_pad(n) <=
                // acts.len() (`Panel::new`); unaligned load.
                let a =
                    unsafe { _mm256_loadu_si256(acts.as_ptr().add(row + vb) as *const __m256i) };
                group_or = _mm256_or_si256(group_or, a);
                for (acc, &shift) in tot_acc[..p.n_chunks].iter_mut().zip(&shifts) {
                    let pulses = _mm256_and_si256(_mm256_srl_epi32(a, shift), mask_v);
                    *acc = _mm256_add_epi32(*acc, pulses);
                }
            }
            for (acc, &shift) in act_acc[..p.n_chunks].iter_mut().zip(&shifts) {
                let field = _mm256_and_si256(_mm256_srl_epi32(group_or, shift), mask_v);
                // cmpgt yields -1 per active lane; subtracting counts.
                *acc = _mm256_sub_epi32(*acc, _mm256_cmpgt_epi32(field, zero));
            }
        }
        // Fold the per-chunk accumulators in-register before the lane
        // extraction (the caller's eligibility gate bounds the summed
        // totals below `i32::MAX`): one store per quantity, and the
        // scalar tail is three multiply-adds per vector.
        let mut tot = zero;
        let mut act = zero;
        for ci in 0..p.n_chunks {
            tot = _mm256_add_epi32(tot, tot_acc[ci]);
            act = _mm256_add_epi32(act, act_acc[ci]);
        }
        let mut tot_lanes = [0i32; 8];
        let mut act_lanes = [0i32; 8];
        // SAFETY: each destination is exactly 32 bytes; unaligned
        // stores.
        unsafe {
            _mm256_storeu_si256(tot_lanes.as_mut_ptr() as *mut __m256i, tot);
            _mm256_storeu_si256(act_lanes.as_mut_ptr() as *mut __m256i, act);
        }
        for (v, c) in counters[vb..vb + lanes_live].iter_mut().enumerate() {
            let active = act_lanes[v] as u64;
            let total = tot_lanes[v] as u64;
            c[0] += active * p.col_tiles;
            c[1] += active * p.cols * p.col_tiles;
            c[2] += total * p.col_tiles;
        }
        vb += 8;
    }
}

/// Design-point specialization of the transposed fold (`chunk_bits = 2`,
/// `n_chunks = 4`, i.e. 8-bit codes split into four 2-bit pulse fields):
/// the per-chunk extract/add cascade collapses into a sideways field sum
/// with immediate shifts — `(a & 0x33) + ((a >> 2) & 0x33)` pairs the
/// fields into two nibbles, one more fold adds the nibbles — feeding a
/// single pulse-total accumulator. Reads exactly bits 0..8 of each code,
/// the same bits the generic chunk walk extracts, so it stays
/// bit-identical for any input.
#[target_feature(enable = "avx2")]
fn fold_t_design_point(panel: &Panel<'_>, p: &FoldParams<'_>, counters: &mut [[u64; 3]]) {
    let (acts, rows, n) = (panel.acts(), panel.rows(), panel.n());
    let pair_mask = _mm256_set1_epi32(0x33);
    let nib_mask = _mm256_set1_epi32(0x0F);
    let chunk_mask = _mm256_set1_epi32(0x3);
    let zero = _mm256_setzero_si256();
    let mut vb = 0;
    while vb < n {
        let lanes_live = (n - vb).min(8);
        let mut tot = zero;
        let mut act = zero;
        for &(lo, hi) in p.group_bounds {
            let mut group_or = zero;
            for &row in &rows[lo as usize..hi as usize] {
                // SAFETY: vb + 8 <= transposed_pad(n) (vb < n, both
                // multiples of 8) and row + transposed_pad(n) <=
                // acts.len() (`Panel::new`); unaligned load.
                let a =
                    unsafe { _mm256_loadu_si256(acts.as_ptr().add(row + vb) as *const __m256i) };
                group_or = _mm256_or_si256(group_or, a);
                let pairs = _mm256_add_epi32(
                    _mm256_and_si256(a, pair_mask),
                    _mm256_and_si256(_mm256_srli_epi32::<2>(a), pair_mask),
                );
                // `pairs` is at most 0x66 per lane, so the high shift
                // needs no mask.
                let pulses = _mm256_add_epi32(
                    _mm256_and_si256(pairs, nib_mask),
                    _mm256_srli_epi32::<4>(pairs),
                );
                tot = _mm256_add_epi32(tot, pulses);
            }
            let mut fields = group_or;
            for _ in 0..4 {
                let field = _mm256_and_si256(fields, chunk_mask);
                // cmpgt yields -1 per active lane; subtracting counts.
                act = _mm256_sub_epi32(act, _mm256_cmpgt_epi32(field, zero));
                fields = _mm256_srli_epi32::<2>(fields);
            }
        }
        let mut tot_lanes = [0i32; 8];
        let mut act_lanes = [0i32; 8];
        // SAFETY: each destination is exactly 32 bytes; unaligned
        // stores.
        unsafe {
            _mm256_storeu_si256(tot_lanes.as_mut_ptr() as *mut __m256i, tot);
            _mm256_storeu_si256(act_lanes.as_mut_ptr() as *mut __m256i, act);
        }
        for (v, c) in counters[vb..vb + lanes_live].iter_mut().enumerate() {
            let active = act_lanes[v] as u64;
            let total = tot_lanes[v] as u64;
            c[0] += active * p.col_tiles;
            c[1] += active * p.cols * p.col_tiles;
            c[2] += total * p.col_tiles;
        }
        vb += 8;
    }
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
