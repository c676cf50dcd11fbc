//! The event-counter fold at the paper chunking, in portable Rust.
//!
//! At `chunk_bits == 2` a `u8` code has four 2-bit chunks, and each
//! drives that many word-line pulses. So a code's pulses are the digit
//! sum of its base-4 digits,
//! and a group's live chunks (the `(group, chunk)` analog evaluations)
//! are the same digit sum over one bit per chunk of the OR of its codes:
//! chunk `c` of the OR is nonzero iff some code's chunk `c` is. Both are
//! a few byte operations per code, with no per-chunk loop, and the
//! codes stream one byte per lane.
//!
//! There is one body per activation layout, safe and
//! `#[inline(always)]`, so it compiles into whatever
//! `#[target_feature]` function calls it: each SIMD tier enters it
//! through one wrapper (`avx2::fold`, `avx512::fold`) and the compiler
//! vectorizes it at that tier's width. The scalar tier and every other
//! chunking run the scalar walks instead, which stay the oracle this
//! fold is pinned to.

use std::ops::Range;

use super::{FoldParams, FoldSrc, Panel};

/// Whether `p` is the chunking this fold computes: 2-bit chunks, of
/// which an 8-bit code (`program` proved `act_bits <= 8`) has at most
/// four.
pub(crate) fn applies(p: &FoldParams<'_>) -> bool {
    p.chunk_bits == 2
}

/// The word-line pulses of one code: the sum of its four 2-bit chunks.
/// Pairs of chunks add into two nibbles (at most 6 each, so no carry
/// crosses), then the nibbles add.
#[inline(always)]
fn pulses(a: u8) -> u8 {
    let t = (a & 0x33) + ((a >> 2) & 0x33);
    (t & 15) + (t >> 4)
}

/// The nonzero chunks among the four 2-bit chunks of `or`: one bit per
/// chunk, set iff either of its bits is, then the same digit sum.
#[inline(always)]
fn live_chunks(or: u8) -> u8 {
    pulses((or | or >> 1) & 0x55)
}

/// Writes every vector's live `(group, chunk)` evaluations into
/// `active` and its word-line pulses into `pulses_out`. A row-major
/// source fills `n` entries of each. A panel fills
/// [`transposed_pad`](super::transposed_pad)`(n)` entries in whole lane
/// blocks, so the lane sums stay in registers and store whole: blocks
/// of `BLOCK` lanes (a multiple of 16, chosen per tier) while the live
/// lanes fill them, then 16-lane blocks.
#[inline(always)]
pub(crate) fn fold<const BLOCK: usize>(
    src: &FoldSrc<'_>,
    group_bounds: &[(u32, u32)],
    active: &mut [u32],
    pulses_out: &mut [u32],
) {
    match src {
        FoldSrc::Rows { acts, ins } => fold_rows(acts, *ins, group_bounds, active, pulses_out),
        FoldSrc::Panel(panel) => {
            let wide = panel.n() / BLOCK * BLOCK;
            fold_panel::<BLOCK>(panel, group_bounds, 0..wide, active, pulses_out);
            let tail = wide..active.len();
            fold_panel::<16>(panel, group_bounds, tail, active, pulses_out);
        }
    }
}

/// Row-major body: one vector at a time, pulses over the whole row
/// (the groups partition it), then one OR per group.
#[inline(always)]
fn fold_rows(
    acts: &[u8],
    ins: usize,
    group_bounds: &[(u32, u32)],
    active: &mut [u32],
    pulses_out: &mut [u32],
) {
    for (v, (act, pul)) in active.iter_mut().zip(pulses_out.iter_mut()).enumerate() {
        let base = v * ins;
        *pul = acts[base..base + ins]
            .iter()
            .map(|&a| u32::from(pulses(a)))
            .sum();
        // Eight groups' ORs to a word, one per byte, and their live
        // chunks in one digit sum.
        *act = group_bounds
            .chunks(8)
            .map(|eight| {
                let ors = eight.iter().enumerate().fold(0u64, |w, (k, &(lo, hi))| {
                    let (at, len) = (base + lo as usize, (hi - lo) as usize);
                    w | u64::from(window_or(acts, at, len)) << (8 * k)
                });
                live_chunks8(ors)
            })
            .sum();
    }
}

/// The OR of the `len` codes at `acts[at..]`. A group is a few codes
/// (10 at the paper design point), too short for the compiler's vector
/// loop, which would leave a byte-at-a-time one. So a group of at most
/// 16 codes reads one 16-code window, masked to its codes, wherever the
/// window lies inside `acts` (it may run into the next vector's codes);
/// any other group ORs a word at a time.
#[inline(always)]
fn window_or(acts: &[u8], at: usize, len: usize) -> u8 {
    if len <= 16 {
        if let Some(window) = acts.get(at..at + 16) {
            let w = u128::from_le_bytes(window.try_into().expect("a 16-code window"));
            let mask = u128::MAX.checked_shr(128 - 8 * len as u32).unwrap_or(0);
            let mut or = w & mask;
            or |= or >> 64;
            or |= or >> 32;
            or |= or >> 16;
            or |= or >> 8;
            return or as u8;
        }
    }
    group_or(&acts[at..at + len])
}

/// [`live_chunks`] of each byte of `ors`, summed: the same digit sums
/// in every byte at once (no shift carries a bit into a kept field of
/// the next byte down), then a multiply adds the bytes (at most 32).
#[inline(always)]
fn live_chunks8(ors: u64) -> u32 {
    const BYTES: u64 = 0x0101_0101_0101_0101;
    let c = (ors | ors >> 1) & (0x55 * BYTES);
    let t = (c & (0x33 * BYTES)) + ((c >> 2) & (0x33 * BYTES));
    let p = (t & (0x0F * BYTES)) + ((t >> 4) & (0x0F * BYTES));
    (p.wrapping_mul(BYTES) >> 56) as u32
}

/// The OR of one group's codes, eight at a time as a `u64` word.
#[inline(always)]
fn group_or(codes: &[u8]) -> u8 {
    let mut words = codes.chunks_exact(8);
    let mut or = (&mut words).fold(0u64, |m, w| {
        m | u64::from_le_bytes(w.try_into().expect("an 8-code word"))
    });
    or |= or >> 32;
    or |= or >> 16;
    or |= or >> 8;
    words.remainder().iter().fold(or as u8, |m, &a| m | a)
}

/// Panel body over the lanes `lanes`, `B` vectors at a time, each
/// group's rows read as `B`-lane runs from their offsets. Every block
/// ends at or before [`transposed_pad`](super::transposed_pad)`(n)`, and
/// [`Panel::new`] proved that every row holds that many readable lanes,
/// so a block never reads past the buffer.
#[inline(always)]
fn fold_panel<const B: usize>(
    panel: &Panel<'_>,
    group_bounds: &[(u32, u32)],
    lanes: Range<usize>,
    active: &mut [u32],
    pulses_out: &mut [u32],
) {
    let (acts, rows) = (panel.acts(), panel.rows());
    let blocks = active[lanes.clone()]
        .chunks_exact_mut(B)
        .zip(pulses_out[lanes.clone()].chunks_exact_mut(B));
    for (b, (act_out, pul_out)) in blocks.enumerate() {
        let vb = lanes.start + b * B;
        let mut act = [0u32; B];
        let mut pul = [0u32; B];
        for &(lo, hi) in group_bounds {
            let mut or = [0u8; B];
            // 21 codes of at most 12 pulses each sum within a `u8`, so
            // the pulses add in byte lanes and widen once per 21 rows.
            for run in rows[lo as usize..hi as usize].chunks(21) {
                let mut sum = [0u8; B];
                for &row in run {
                    let codes: &[u8; B] = acts[row + vb..row + vb + B]
                        .try_into()
                        .expect("a whole lane block");
                    for ((o, s), &a) in or.iter_mut().zip(sum.iter_mut()).zip(codes) {
                        *o |= a;
                        *s += pulses(a);
                    }
                }
                for (p, &s) in pul.iter_mut().zip(&sum) {
                    *p += u32::from(s);
                }
            }
            for (a, &o) in act.iter_mut().zip(&or) {
                *a += u32::from(live_chunks(o));
            }
        }
        act_out.copy_from_slice(&act);
        pul_out.copy_from_slice(&pul);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_digit_sums_match_the_byte_ones() {
        // Every code in every byte position, beside codes that set
        // every bit a shift could carry across.
        for a in 0..=u8::MAX {
            for k in 0..8 {
                for fill in [0u64, u64::MAX] {
                    let word = (fill & !(0xff << (8 * k))) | u64::from(a) << (8 * k);
                    let want: u32 = word
                        .to_le_bytes()
                        .iter()
                        .map(|&b| u32::from(live_chunks(b)))
                        .sum();
                    assert_eq!(live_chunks8(word), want, "code {a} in byte {k}");
                }
            }
        }
    }

    #[test]
    fn group_ors_match_a_byte_fold_at_every_length() {
        // Every start and length, windows that end at the buffer's end
        // or would run past it (the word loop), and groups longer than
        // one window.
        let codes: Vec<u8> = (0..40u32).map(|i| (1u32 << (i % 8)) as u8).collect();
        for lo in 0..codes.len() {
            for hi in lo..=codes.len() {
                let want = codes[lo..hi].iter().fold(0, |m, &a| m | a);
                assert_eq!(group_or(&codes[lo..hi]), want, "{lo}..{hi}");
                assert_eq!(window_or(&codes, lo, hi - lo), want, "{lo}..{hi}");
            }
        }
    }

    #[test]
    fn digit_sums_match_the_chunk_walk_on_every_8_bit_code() {
        for a in 0..=u8::MAX {
            let chunks = (0..4).map(|c| (a >> (2 * c)) & 3);
            assert_eq!(pulses(a), chunks.clone().sum::<u8>(), "code {a}");
            let live = chunks.filter(|&c| c != 0).count() as u8;
            assert_eq!(live_chunks(a), live, "code {a}");
        }
    }
}
