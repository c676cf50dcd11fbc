//! The AVX-512 kernel tier: 512-bit `std::arch` intrinsics behind safe
//! wrappers, pinned bit-identical to [`super::scalar`].
//!
//! Together with `kernels/avx2.rs` this file is the crate's entire
//! `unsafe` surface, under the same discipline: a safe wrapper asserts
//! the required feature subsets (F + BW + VL + VPOPCNTDQ + VNNI, see
//! [`super::avx512_available`]), then enters a `#[target_feature]`
//! implementation where only raw-pointer loads/stores need `unsafe`
//! blocks, each carrying its bounds argument.
//!
//! What the extra width buys over the AVX2 tier:
//!
//! * [`matmul_exact`] — the row-major matmul at the macro's operand
//!   widths: `_mm512_dpbusd_epi32` multiplies 64 `u8` activation codes,
//!   read straight from the block's rows, by 64 `i8` weight codes and
//!   adds each 4 adjacent products into one of 16 `i32` lanes, with a
//!   masked byte load for a row's last partial step; four output
//!   channels' accumulators reduce together in registers;
//! * [`matmul_transposed`] — the batch-transposed matmul over 16-vector
//!   blocks: every quad of 4 taps is interleaved once per block into one
//!   register of 16 vectors x 4 codes (a dword transpose across the four
//!   128-bit lanes, then a byte transpose within each), and each output
//!   channel takes the quad in one `_mm512_dpbusd_epi32` against its 4
//!   broadcast weight codes; its `i32` lanes store straight into the
//!   channel-major accumulator row (masked for a block's short tail);
//! * [`fold`] — the portable event-counter fold of the `fold` module
//!   compiled with AVX-512 enabled, so the compiler vectorizes its
//!   64-lane panel blocks one register of codes wide;
//! * [`group_counts`] — the bit-plane popcount stream with native
//!   `vpopcntq` (`_mm512_popcnt_epi64`), replacing the `vpshufb`
//!   nibble-LUT + `_mm256_sad_epu8` emulation, 8 staged vectors per
//!   step;
//! * [`quantize_codes`] — the portable activation quantizer of the
//!   `quant` module compiled with AVX-512 enabled, sixteen values per
//!   op, a short tail included.
//!
//! `vpdpbusd` adds without saturating, and every product and partial
//! sum is exact under the `program`-time bound, so both matmuls are
//! exact integer arithmetic. Codes wider than `i8` have no packing on
//! this tier, and both matmuls run the scalar ones.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m512i, _mm256_add_epi32, _mm512_add_epi64, _mm512_and_si512, _mm512_castsi128_si512,
    _mm512_castsi512_si256, _mm512_dpbusd_epi32, _mm512_extracti64x4_epi64, _mm512_inserti32x4,
    _mm512_loadu_epi64, _mm512_loadu_si512, _mm512_mask_storeu_epi32, _mm512_maskz_loadu_epi8,
    _mm512_permutexvar_epi32, _mm512_popcnt_epi64, _mm512_reduce_add_epi32, _mm512_set1_epi32,
    _mm512_set1_epi64, _mm512_set4_epi32, _mm512_setr_epi32, _mm512_setzero_si512,
    _mm512_shuffle_epi8, _mm512_sll_epi64, _mm512_storeu_epi64, _mm512_storeu_si512,
    _mm_cvtsi32_si128, _mm_loadu_si128,
};

use yoloc_quant::QuantParams;

use super::{avx2, fold, quant, scalar, ExactCodes, FoldSrc, PackedCodes, Panel};

/// Vectors per cache block of the row-major matmul: their rows of `u8`
/// codes stay L1-resident against a quad of `i8` code rows.
const V_BLOCK: usize = 8;

fn assert_avx512() {
    assert!(
        super::avx512_available(),
        "AVX-512 kernel invoked on a host without the required subsets"
    );
}

/// AVX-512 tier of the exact-path batched matmul. Bit-identical to
/// [`scalar::matmul_into`]; codes with no `i8` packing run on the
/// scalar tier.
pub(crate) fn matmul_exact(c: &ExactCodes<'_>, acts: &[u8], n: usize, out: &mut [i32]) {
    assert_avx512();
    debug_assert_eq!(acts.len(), n * c.ins);
    debug_assert_eq!(out.len(), n * c.outs);
    match c.packed {
        // SAFETY: AVX-512 support asserted above.
        PackedCodes::I8 { data, stride } => unsafe {
            matmul_vnni(data, *stride, c.outs, c.ins, acts, n, out)
        },
        _ => scalar::matmul_into(c.codes, c.outs, c.ins, acts, n, out),
    }
}

/// `_mm512_dpbusd_epi32` matmul of the `u8` rows against the `i8` code
/// rows (`stride` apart, at least `ins` long): 64 multiply-adds per op,
/// in tiles of 2 vectors by 4 output channels, so each step loads 6
/// registers for 8 `vpdpbusd`.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn matmul_vnni(
    codes: &[i8],
    stride: usize,
    outs: usize,
    ins: usize,
    acts: &[u8],
    n: usize,
    out: &mut [i32],
) {
    debug_assert!(stride >= ins && codes.len() == outs * stride);
    let steps = Steps::new(ins);
    let act = |v: usize| acts[v * ins..(v + 1) * ins].as_ptr();
    let code = |o: usize| codes[o * stride..o * stride + ins].as_ptr();
    let mut vb = 0;
    while vb < n {
        let vb_end = (vb + V_BLOCK).min(n);
        let mut o = 0;
        while o + 4 <= outs {
            let w = [code(o), code(o + 1), code(o + 2), code(o + 3)];
            let mut store = |v: usize, acc: [__m512i; 4]| {
                for (k, sum) in reduce4(acc).into_iter().enumerate() {
                    out[(o + k) * n + v] = sum;
                }
            };
            let mut v = vb;
            while v + 2 <= vb_end {
                // SAFETY: every row holds `ins` codes (checked slices).
                let [a0, a1] = unsafe { steps.dots([act(v), act(v + 1)], w) };
                store(v, a0);
                store(v + 1, a1);
                v += 2;
            }
            if v < vb_end {
                // SAFETY: as above.
                let [a0] = unsafe { steps.dots([act(v)], w) };
                store(v, a0);
            }
            o += 4;
        }
        while o < outs {
            for v in vb..vb_end {
                // SAFETY: as above.
                let [[acc]] = unsafe { steps.dots([act(v)], [code(o)]) };
                out[o * n + v] = _mm512_reduce_add_epi32(acc);
            }
            o += 1;
        }
        vb += V_BLOCK;
    }
}

/// The 64-code steps of one row of `ins` codes: whole steps up to
/// `whole`, then, if `ins % 64 != 0`, one step masked to `tail`.
struct Steps {
    whole: usize,
    tail: u64,
}

impl Steps {
    fn new(ins: usize) -> Self {
        Steps {
            whole: ins - ins % 64,
            tail: (1 << (ins % 64)) - 1,
        }
    }

    /// The `vpdpbusd` accumulators of `V` activation rows against `K`
    /// code rows, `acc[v][k]` for row pair `(a[v], w[k])`. The masked
    /// last step reads nothing past a row.
    ///
    /// # Safety
    ///
    /// Every row must hold the `ins` codes this walk was built for.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    #[inline]
    unsafe fn dots<const V: usize, const K: usize>(
        &self,
        a: [*const u8; V],
        w: [*const i8; K],
    ) -> [[__m512i; K]; V] {
        let mut acc = [[_mm512_setzero_si512(); K]; V];
        let mut i = 0;
        while i < self.whole {
            // SAFETY: i + 64 <= whole <= ins bounds every 64-byte load.
            unsafe {
                let mut av = [_mm512_setzero_si512(); V];
                for (x, p) in av.iter_mut().zip(a) {
                    *x = _mm512_loadu_si512(p.add(i).cast());
                }
                for (k, p) in w.into_iter().enumerate() {
                    let wk = _mm512_loadu_si512(p.add(i).cast());
                    for (accv, x) in acc.iter_mut().zip(av) {
                        accv[k] = _mm512_dpbusd_epi32(accv[k], x, wk);
                    }
                }
            }
            i += 64;
        }
        if self.tail != 0 {
            // SAFETY: the masked loads read only the enabled codes
            // i..ins of each row.
            unsafe {
                let mut av = [_mm512_setzero_si512(); V];
                for (x, p) in av.iter_mut().zip(a) {
                    *x = _mm512_maskz_loadu_epi8(self.tail, p.add(i).cast());
                }
                for (k, p) in w.into_iter().enumerate() {
                    let wk = _mm512_maskz_loadu_epi8(self.tail, p.add(i));
                    for (accv, x) in acc.iter_mut().zip(av) {
                        accv[k] = _mm512_dpbusd_epi32(accv[k], x, wk);
                    }
                }
            }
        }
        acc
    }
}

/// The lane sums of four accumulators, reduced in registers: each
/// halves to 256 bits, then the AVX2 tier's four-way tree. Wrapping
/// `i32` adds in any order give the exact sum whenever it fits, which
/// `program` proved.
#[target_feature(enable = "avx512f")]
fn reduce4(acc: [__m512i; 4]) -> [i32; 4] {
    avx2::reduce4(
        acc.map(|a| _mm256_add_epi32(_mm512_castsi512_si256(a), _mm512_extracti64x4_epi64::<1>(a))),
    )
}

/// AVX-512 tier of the batch-transposed matmul: 16 vectors per block,
/// 4 taps per `_mm512_dpbusd_epi32`. Bit-identical to
/// [`scalar::matmul_transposed`]; codes with no `i8` packing run on the
/// scalar tier. `taps` holds one block's interleaved quads.
pub(crate) fn matmul_transposed(
    c: &ExactCodes<'_>,
    panel: &Panel<'_>,
    out: &mut [i32],
    taps: &mut Vec<u8>,
) {
    assert_avx512();
    debug_assert_eq!(panel.ins(), c.ins);
    debug_assert_eq!(out.len(), panel.n() * c.outs);
    match c.packed {
        // SAFETY: AVX-512 support asserted above.
        PackedCodes::I8 { data, stride } => unsafe {
            matmul_transposed_vnni(data, *stride, c.outs, panel, out, taps)
        },
        _ => scalar::matmul_transposed(c.codes, c.outs, panel, out),
    }
}

/// Per 16-vector block, interleaves every quad of 4 taps once and runs
/// each output channel's accumulator over the quads against its 4
/// weight codes broadcast to every lane. Up to 4 channels take each
/// quad straight from registers; more read it back from `taps`, where
/// the block's quads are stored (quad `q` at `taps[64 * q..]`). The
/// register path pays: sending 1 to 4 channels through `taps` as well
/// made this matmul 1.22-1.69x slower on 1x9, 2x9, 3x27, 4x18, 4x36
/// and 1x32 at 16, 64 and 256 vectors, and 2.0-2.7x on 2x72 (best of
/// 9 rounds, 2-vCPU Xeon with AVX-512 VNNI).
///
/// A last quad short of taps repeats its last row, whose codes meet the
/// packing's zero padding.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn matmul_transposed_vnni(
    codes: &[i8],
    stride: usize,
    outs: usize,
    panel: &Panel<'_>,
    out: &mut [i32],
    taps: &mut Vec<u8>,
) {
    let (acts, rows, n) = (panel.acts(), panel.rows(), panel.n());
    let (whole, quads) = (rows.len() / 4, rows.len().div_ceil(4));
    // The stored quads' loads below rely on one code quad per panel
    // quad.
    assert_eq!(stride, 4 * quads, "code rows of another depth");
    let tail: [usize; 4] = match &rows[4 * whole..] {
        [] => [0; 4],
        short => std::array::from_fn(|j| short[j.min(short.len() - 1)]),
    };
    let t = Transpose::new();
    // Quad `q` of the block at `vb`, read from the panel.
    let panel_quad = |vb: usize, q: usize| {
        let r = if q < whole {
            rows[4 * q..4 * q + 4].try_into().unwrap()
        } else {
            tail
        };
        // SAFETY: vb < n and both vb and transposed_pad(n) are multiples
        // of 16, so vb + 16 <= transposed_pad(n), and every row +
        // transposed_pad(n) <= acts.len() (`Panel::new`).
        unsafe { t.quad(acts, r, vb) }
    };
    if outs > 4 {
        taps.clear();
        taps.resize(64 * quads, 0);
    }
    let mut vb = 0;
    while vb < n {
        let mut at = Block {
            out: &mut *out,
            n,
            vb,
        };
        let from_panel = |q: usize| panel_quad(vb, q);
        match outs {
            0 => {}
            1 => at.channels::<1>(codes, stride, 0, from_panel),
            2 => at.channels::<2>(codes, stride, 0, from_panel),
            3 => at.channels::<3>(codes, stride, 0, from_panel),
            4 => at.channels::<4>(codes, stride, 0, from_panel),
            _ => {
                for q in 0..quads {
                    // SAFETY: q < quads bounds the 64-byte store inside
                    // taps.
                    unsafe {
                        _mm512_storeu_si512(taps.as_mut_ptr().add(64 * q).cast(), from_panel(q))
                    };
                }
                // SAFETY: `channels` asks only for q < stride / 4 ==
                // quads, which bounds the 64-byte load inside taps.
                let stored =
                    |q: usize| unsafe { _mm512_loadu_si512(taps.as_ptr().add(64 * q).cast()) };
                let mut o = 0;
                while o + 4 <= outs {
                    at.channels::<4>(codes, stride, o, stored);
                    o += 4;
                }
                while o < outs {
                    at.channels::<1>(codes, stride, o, stored);
                    o += 1;
                }
            }
        }
        vb += 16;
    }
}

/// The two constant shuffles that interleave a quad of panel rows.
#[derive(Clone, Copy)]
struct Transpose {
    dwords: __m512i,
    bytes: __m512i,
}

impl Transpose {
    /// The shuffle controls, opaque to the optimizer: folded into one
    /// constant four-source shuffle, LLVM lowered each quad to seventeen
    /// 256-bit shuffles and blends, which made the kernel about twice as
    /// slow as the two shuffles written here.
    #[target_feature(enable = "avx512f")]
    fn new() -> Self {
        Transpose {
            dwords: std::hint::black_box(_mm512_setr_epi32(
                0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
            )),
            bytes: std::hint::black_box(_mm512_set4_epi32(
                0x0f0b_0703,
                0x0e0a_0602,
                0x0d09_0501,
                0x0c08_0400,
            )),
        }
    }

    /// The 16 vectors from `vb` of the panel rows at `rows`,
    /// interleaved: vector `v`'s code of tap `j` in byte `j` of dword
    /// `v`. Tap `j` loads into 128-bit lane `j`; the dword transpose
    /// gathers dword `L` of every tap into lane `L`, and the byte
    /// transpose within each lane makes its dword `e` the 4 codes of
    /// vector `4L + e`.
    ///
    /// # Safety
    ///
    /// Every `rows[j] + vb..rows[j] + vb + 16` must lie inside `acts`.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    unsafe fn quad(&self, acts: &[u8], rows: [usize; 4], vb: usize) -> __m512i {
        let [r0, r1, r2, r3] = rows.map(|r| acts.as_ptr().wrapping_add(r + vb).cast());
        // SAFETY: the caller guarantees 16 readable bytes at each row.
        let z = unsafe {
            let z = _mm512_castsi128_si512(_mm_loadu_si128(r0));
            let z = _mm512_inserti32x4::<1>(z, _mm_loadu_si128(r1));
            let z = _mm512_inserti32x4::<2>(z, _mm_loadu_si128(r2));
            _mm512_inserti32x4::<3>(z, _mm_loadu_si128(r3))
        };
        _mm512_shuffle_epi8(_mm512_permutexvar_epi32(self.dwords, z), self.bytes)
    }
}

/// The block of 16 vectors from `vb` whose channel-major accumulators
/// one transposed call writes into `out` (`n` vectors per channel row).
struct Block<'a> {
    out: &'a mut [i32],
    n: usize,
    vb: usize,
}

impl Block<'_> {
    /// Runs channels `o..o + K` over the block's tap quads, each quad
    /// `q < stride / 4` from `quad(q)` against each channel's 4 codes at
    /// `4 * q` of its `i8` row, and stores their live lanes.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    #[inline]
    fn channels<const K: usize>(
        &mut self,
        codes: &[i8],
        stride: usize,
        o: usize,
        quad: impl Fn(usize) -> __m512i,
    ) {
        let w = codes[o * stride..(o + K) * stride].as_ptr();
        let mut acc = [_mm512_setzero_si512(); K];
        for q in 0..stride / 4 {
            let a = quad(q);
            for (k, ak) in acc.iter_mut().enumerate() {
                // SAFETY: k < K and 4 * q + 4 <= stride keep the 4-byte
                // read inside the K code rows at `w`.
                let wq = unsafe { w.add(k * stride + 4 * q).cast::<i32>().read_unaligned() };
                *ak = _mm512_dpbusd_epi32(*ak, a, _mm512_set1_epi32(wq));
            }
        }
        let live = (self.n - self.vb).min(16);
        for (k, ak) in acc.iter().enumerate() {
            let row = (o + k) * self.n + self.vb;
            store_lanes(*ak, &mut self.out[row..row + live]);
        }
    }
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
/// compiled for AVX-512, its last partial register of values included.
pub(crate) fn quantize_codes(p: QuantParams, x: &[f32], codes: &mut [u8]) {
    assert_avx512();
    // SAFETY: AVX-512 support asserted above.
    unsafe { quantize_codes_avx512(p, x, codes) }
}

/// Runs the compiled loop over whole registers of 16 values, then, from
/// 16 values up, the last 16 again as one register, rewriting the codes
/// it overlaps with the same codes. Left to the loop, the last `n % 16`
/// values would take its scalar remainder, one at a time (2.5 times the
/// per-code cost of a long input at 16 to 63 values); under 16 they
/// still do.
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
fn quantize_codes_avx512(p: QuantParams, x: &[f32], codes: &mut [u8]) {
    let n = x.len().min(codes.len());
    let (x, codes) = (&x[..n], &mut codes[..n]);
    let whole = n - n % 16;
    quant::quantize_codes(p, &x[..whole], &mut codes[..whole]);
    if whole == n {
        return;
    }
    if n >= 16 {
        let last: &[f32; 16] = x[n - 16..].try_into().unwrap();
        let codes: &mut [u8; 16] = (&mut codes[n - 16..]).try_into().unwrap();
        quant::quantize_codes(p, last, codes);
    } else {
        quant::quantize_codes(p, x, codes);
    }
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
