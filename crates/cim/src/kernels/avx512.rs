//! The AVX-512 kernel tier: 512-bit `std::arch` intrinsics behind safe
//! wrappers, pinned bit-identical to [`super::scalar`].
//!
//! Together with `kernels/avx2.rs` this file is the crate's entire
//! `unsafe` surface, under the same discipline: a safe wrapper asserts
//! the required feature subsets (F + BW + VL + VPOPCNTDQ, see
//! [`super::avx512_available`]), then enters a `#[target_feature]`
//! implementation where only raw-pointer loads/stores need `unsafe`
//! blocks, each carrying its bounds argument.
//!
//! What the extra width buys over the AVX2 tier:
//!
//! * [`matmul_exact`] — 32-lane `_mm512_madd_epi16` matmuls over the
//!   lane-packed `i16` codes (two AVX2 registers of work per op), with
//!   a `_mm512_maskz_loadu_epi16` half-register tail since code rows
//!   are padded to 16, not 32, lanes;
//! * [`matmul_transposed`] — the batch-transposed matmul eating 16
//!   vectors per `_mm512_mullo_epi32`, one 16-byte load of `u8` codes
//!   widened per activation row, its `i32` lanes stored straight into
//!   the channel-major accumulator row (a masked store for a block's
//!   short tail);
//! * [`fold`] — the portable event-counter fold of the `fold` module
//!   compiled with AVX-512 enabled, so the compiler vectorizes its
//!   64-lane panel blocks one register of codes wide;
//! * [`group_counts`] — the bit-plane popcount stream with native
//!   `vpopcntq` (`_mm512_popcnt_epi64`), replacing the `vpshufb`
//!   nibble-LUT + `_mm256_sad_epu8` emulation, 8 staged vectors per
//!   step;
//! * [`quantize_codes`] — the portable activation quantizer of the
//!   `quant` module compiled with AVX-512 enabled, sixteen values per
//!   op.
//!
//! Shapes outside a kernel's profitable range delegate to the AVX2 or
//! scalar implementations — any host that can select this tier can run
//! both (AVX-512 implies AVX2): the row-major matmul without an `i16`
//! packing, and the transposed matmul at `n <= 8`.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m128i, __m512i, _mm256_loadu_si256, _mm512_add_epi32, _mm512_add_epi64, _mm512_and_si512,
    _mm512_cvtepu8_epi16, _mm512_cvtepu8_epi32, _mm512_loadu_epi16, _mm512_loadu_epi64,
    _mm512_madd_epi16, _mm512_mask_storeu_epi32, _mm512_maskz_loadu_epi16, _mm512_mullo_epi32,
    _mm512_popcnt_epi64, _mm512_set1_epi32, _mm512_set1_epi64, _mm512_setzero_si512,
    _mm512_sll_epi64, _mm512_storeu_epi16, _mm512_storeu_epi32, _mm512_storeu_epi64,
    _mm_cvtsi32_si128, _mm_loadu_si128,
};

use yoloc_quant::QuantParams;

use super::{avx2, fold, quant, scalar, ExactCodes, FoldSrc, Panel};

/// Vectors staged per cache block of the blocked matmul (matches the
/// AVX2 tier: the staged `i16` rows plus a 4-row code quad stay
/// L1-resident).
const V_BLOCK: usize = 8;

fn assert_avx512() {
    assert!(
        super::avx512_available(),
        "AVX-512 kernel invoked on a host without the required subsets"
    );
}

/// AVX-512 tier of the exact-path batched matmul. Bit-identical to
/// [`scalar::matmul_into`]; codes wider than `i16` (no `codes16`
/// packing) and shapes too small to amortize the staging run on the
/// scalar tier.
pub(crate) fn matmul_exact(
    c: &ExactCodes<'_>,
    acts: &[u8],
    n: usize,
    out: &mut [i32],
    acts16: &mut Vec<i16>,
) {
    assert_avx512();
    debug_assert_eq!(acts.len(), n * c.ins);
    debug_assert_eq!(out.len(), n * c.outs);
    if (c.outs == 1 && c.ins < 8) || c.codes16.is_empty() {
        scalar::matmul_into(c.codes, c.outs, c.ins, acts, n, out);
    } else {
        // SAFETY: AVX-512 support asserted above.
        unsafe { matmul_i16(c, acts, n, out, acts16) }
    }
}

/// `_mm512_madd_epi16` matmul over the lane-packed `i16` codes: 32
/// multiply-accumulates per op. Code rows are padded to 16 lanes, so a
/// half-register masked load finishes rows where `ins16 % 32 == 16`.
#[target_feature(enable = "avx512f,avx512bw")]
fn matmul_i16(c: &ExactCodes<'_>, acts: &[u8], n: usize, out: &mut [i32], acts16: &mut Vec<i16>) {
    let (ins, ins16, outs) = (c.ins, c.ins16, c.outs);
    debug_assert_eq!(c.codes16.len(), outs * ins16);
    // Stage the block's activations as zero-padded i16 rows, 32 codes
    // widened per `_mm512_cvtepu8_epi16`. `clear` first so shorter rows
    // cannot leak stale nonzero padding.
    acts16.clear();
    acts16.resize(n * ins16, 0);
    for v in 0..n {
        let av = &acts[v * ins..(v + 1) * ins];
        let dst = &mut acts16[v * ins16..v * ins16 + ins];
        let mut i = 0;
        while i + 32 <= ins {
            // SAFETY: i + 32 <= ins bounds the 32-byte load from `av`
            // and the widened 64-byte store into dst[i..i + 32].
            unsafe {
                let a = _mm256_loadu_si256(av.as_ptr().add(i) as *const _);
                _mm512_storeu_epi16(dst.as_mut_ptr().add(i), _mm512_cvtepu8_epi16(a));
            }
            i += 32;
        }
        for (d, &a) in dst[i..].iter_mut().zip(&av[i..]) {
            *d = i16::from(a);
        }
    }
    let mut vb = 0;
    while vb < n {
        let vb_end = (vb + V_BLOCK).min(n);
        let mut o = 0;
        while o + 4 <= outs {
            for v in vb..vb_end {
                let av = &acts16[v * ins16..(v + 1) * ins16];
                let mut acc = [_mm512_setzero_si512(); 4];
                let mut i = 0;
                while i + 32 <= ins16 {
                    // SAFETY: i + 32 <= ins16 bounds all five 64-byte
                    // loads (code rows o..o+4 share the stride).
                    unsafe {
                        let a = _mm512_loadu_epi16(av.as_ptr().add(i));
                        for (k, ak) in acc.iter_mut().enumerate() {
                            let w = _mm512_loadu_epi16(c.codes16.as_ptr().add((o + k) * ins16 + i));
                            *ak = _mm512_add_epi32(*ak, _mm512_madd_epi16(a, w));
                        }
                    }
                    i += 32;
                }
                if i < ins16 {
                    // Exactly 16 lanes remain (ins16 is a multiple of
                    // 16); masked loads zero the upper half, which
                    // contributes nothing to the madd.
                    // SAFETY: the low 16 enabled lanes read
                    // av[i..i + 16] / the matching code row lanes, all
                    // in bounds.
                    unsafe {
                        let a = _mm512_maskz_loadu_epi16(0xffff, av.as_ptr().add(i));
                        for (k, ak) in acc.iter_mut().enumerate() {
                            let w = _mm512_maskz_loadu_epi16(
                                0xffff,
                                c.codes16.as_ptr().add((o + k) * ins16 + i),
                            );
                            *ak = _mm512_add_epi32(*ak, _mm512_madd_epi16(a, w));
                        }
                    }
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
                let mut acc = _mm512_setzero_si512();
                let mut i = 0;
                while i + 32 <= ins16 {
                    // SAFETY: i + 32 <= ins16 as above.
                    unsafe {
                        let a = _mm512_loadu_epi16(av.as_ptr().add(i));
                        let w = _mm512_loadu_epi16(c.codes16.as_ptr().add(o * ins16 + i));
                        acc = _mm512_add_epi32(acc, _mm512_madd_epi16(a, w));
                    }
                    i += 32;
                }
                if i < ins16 {
                    // SAFETY: low 16 lanes in bounds as above.
                    unsafe {
                        let a = _mm512_maskz_loadu_epi16(0xffff, av.as_ptr().add(i));
                        let w =
                            _mm512_maskz_loadu_epi16(0xffff, c.codes16.as_ptr().add(o * ins16 + i));
                        acc = _mm512_add_epi32(acc, _mm512_madd_epi16(a, w));
                    }
                }
                out[o * n + v] = hsum_epi32(acc);
            }
            o += 1;
        }
        vb += V_BLOCK;
    }
}

/// Sums the sixteen `i32` lanes. Every partial sum is a sum of some of
/// one accumulator's products, so it fits an `i32` whenever the whole
/// does, which `program` proved.
#[target_feature(enable = "avx512f")]
fn hsum_epi32(v: __m512i) -> i32 {
    let mut lanes = [0i32; 16];
    // SAFETY: `lanes` is exactly 64 bytes; unaligned store.
    unsafe { _mm512_storeu_epi32(lanes.as_mut_ptr(), v) };
    lanes.iter().sum()
}

/// AVX-512 tier of the batch-transposed matmul: one 16-byte panel load
/// carries 16 vectors' codes for an activation index, widened to `i32`
/// lanes and shared across a quad of broadcast code scalars. `i32` lane
/// accumulation is exact because `program` proved every accumulator
/// fits. Bit-identical to [`scalar::matmul_transposed`].
pub(crate) fn matmul_transposed(c: &ExactCodes<'_>, panel: &Panel<'_>, out: &mut [i32]) {
    assert_avx512();
    debug_assert_eq!(panel.ins(), c.ins);
    debug_assert_eq!(out.len(), panel.n() * c.outs);
    if panel.n() <= 8 {
        // Half-block batches run at AVX2 width: same op count, better
        // per-op throughput.
        return avx2::matmul_transposed(c, panel, out);
    }
    // SAFETY: AVX-512 support asserted above.
    unsafe { matmul_transposed_impl(c.codes, c.outs, panel, out) }
}

#[target_feature(enable = "avx512f")]
fn matmul_transposed_impl(codes: &[i32], outs: usize, panel: &Panel<'_>, out: &mut [i32]) {
    let (acts, rows, n, ins) = (panel.acts(), panel.rows(), panel.n(), panel.ins());
    let mut vb = 0;
    while vb < n {
        let lanes_live = (n - vb).min(16);
        let mut o = 0;
        while o + 4 <= outs {
            let mut acc = [_mm512_setzero_si512(); 4];
            for (i, &row) in rows.iter().enumerate() {
                // SAFETY: vb < n and both vb and transposed_pad(n) are
                // multiples of 16, so vb + 16 <= transposed_pad(n);
                // and row + transposed_pad(n) <= acts.len() (`Panel::new`).
                let a = unsafe { load16(acts.as_ptr().add(row + vb)) };
                for (k, ak) in acc.iter_mut().enumerate() {
                    let w = _mm512_set1_epi32(codes[(o + k) * ins + i]);
                    *ak = _mm512_add_epi32(*ak, _mm512_mullo_epi32(a, w));
                }
            }
            for (k, ak) in acc.iter().enumerate() {
                let row = (o + k) * n + vb;
                store_lanes(*ak, &mut out[row..row + lanes_live]);
            }
            o += 4;
        }
        while o < outs {
            let mut acc = _mm512_setzero_si512();
            for (i, &row) in rows.iter().enumerate() {
                // SAFETY: as above.
                let a = unsafe { load16(acts.as_ptr().add(row + vb)) };
                let w = _mm512_set1_epi32(codes[o * ins + i]);
                acc = _mm512_add_epi32(acc, _mm512_mullo_epi32(a, w));
            }
            store_lanes(acc, &mut out[o * n + vb..o * n + vb + lanes_live]);
            o += 1;
        }
        vb += 16;
    }
}

/// Loads the 16 codes at `p`, widened to `i32` lanes.
///
/// # Safety
///
/// `p..p + 16` must be readable.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn load16(p: *const u8) -> __m512i {
    // SAFETY: the caller guarantees 16 readable bytes; unaligned load.
    _mm512_cvtepu8_epi32(unsafe { _mm_loadu_si128(p as *const __m128i) })
}

/// Stores the live `i32` lanes of one transposed accumulator into
/// `dst`, the contiguous run of their output channel's accumulator row,
/// with one masked store, so a block's short last run writes only its
/// live lanes.
#[target_feature(enable = "avx512f")]
fn store_lanes(acc: __m512i, dst: &mut [i32]) {
    debug_assert!(dst.len() <= 16);
    let mask = ((1u32 << dst.len()) - 1) as u16;
    // SAFETY: the masked store writes only its enabled lanes, all
    // inside `dst`.
    unsafe { _mm512_mask_storeu_epi32(dst.as_mut_ptr(), mask, acc) };
}

/// The portable event-counter fold ([`fold::fold`]) compiled for
/// AVX-512.
pub(crate) fn fold(
    src: &FoldSrc<'_>,
    bounds: &[(u32, u32)],
    active: &mut [u32],
    pulses: &mut [u32],
) {
    assert_avx512();
    // SAFETY: AVX-512 support asserted above.
    unsafe { fold_avx512(src, bounds, active, pulses) }
}

#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
fn fold_avx512(src: &FoldSrc<'_>, bounds: &[(u32, u32)], active: &mut [u32], pulses: &mut [u32]) {
    fold::fold::<64>(src, bounds, active, pulses);
}

/// The portable activation quantizer ([`quant::quantize_codes`])
/// compiled for AVX-512.
pub(crate) fn quantize_codes(p: QuantParams, x: &[f32], codes: &mut [u8]) {
    assert_avx512();
    // SAFETY: AVX-512 support asserted above.
    unsafe { quantize_codes_avx512(p, x, codes) }
}

#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
fn quantize_codes_avx512(p: QuantParams, x: &[f32], codes: &mut [u8]) {
    quant::quantize_codes(p, x, codes);
}

/// AVX-512 tier of the bit-plane popcount stream: the column mask is
/// broadcast and `AND`ed against eight vectors' staged planes per step
/// and popcounted with native `vpopcntq`, the nibble-LUT emulation
/// gone. Plane significance is applied with a single variable shift
/// while still vectorized.
pub(crate) fn group_counts(
    mask: u64,
    planes: &[u64],
    n_planes: usize,
    n_pad: usize,
    counts: &mut [u64],
) {
    assert_avx512();
    debug_assert_eq!(n_pad % 8, 0, "staging layout must pad to 8 lanes");
    debug_assert!(planes.len() >= n_planes * n_pad);
    debug_assert_eq!(counts.len(), n_pad);
    // SAFETY: AVX-512 support asserted above.
    unsafe { group_counts_impl(mask, planes, n_planes, n_pad, counts) }
}

#[target_feature(enable = "avx512f,avx512vpopcntdq")]
fn group_counts_impl(mask: u64, planes: &[u64], n_planes: usize, n_pad: usize, counts: &mut [u64]) {
    if n_planes == 0 {
        counts.fill(0);
        return;
    }
    let mask_v = _mm512_set1_epi64(mask as i64);
    let mut v = 0;
    while v < n_pad {
        let mut acc = _mm512_setzero_si512();
        for b in 0..n_planes {
            // SAFETY: v + 8 <= n_pad and b < n_planes keep the 64-byte
            // load inside `planes[..n_planes * n_pad]` (checked by the
            // wrapper); unaligned load.
            let pl =
                unsafe { _mm512_loadu_epi64(planes.as_ptr().add(b * n_pad + v) as *const i64) };
            let pops = _mm512_popcnt_epi64(_mm512_and_si512(pl, mask_v));
            acc = _mm512_add_epi64(acc, _mm512_sll_epi64(pops, _mm_cvtsi32_si128(b as i32)));
        }
        // SAFETY: v + 8 <= n_pad == counts.len(); unaligned store.
        unsafe { _mm512_storeu_epi64(counts.as_mut_ptr().add(v) as *mut i64, acc) };
        v += 8;
    }
}
