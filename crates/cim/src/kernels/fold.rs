//! The event-counter fold at the paper chunking, in portable Rust.
//!
//! At `chunk_bits == 2` with at most four chunks, a code is at most 8
//! bits wide and each of its 2-bit chunks drives that many word-line
//! pulses. So a code's pulses are the digit sum of its base-4 digits,
//! and a group's live chunks (the `(group, chunk)` analog evaluations)
//! are the same digit sum over one bit per chunk of the OR of its codes:
//! chunk `c` of the OR is nonzero iff some code's chunk `c` is. Both are
//! a few byte operations per code, with no per-chunk loop.
//!
//! There is one body per activation layout, safe and
//! `#[inline(always)]`, so it compiles into whatever
//! `#[target_feature]` function calls it: each SIMD tier enters it
//! through one wrapper (`avx2::fold`, `avx512::fold`) and the compiler
//! vectorizes it at that tier's width. The scalar tier and every other
//! chunking run the scalar walks instead, which stay the oracle this
//! fold is pinned to.

use super::{FoldParams, FoldSrc, Panel};

/// Whether `p` is the chunking this fold computes.
pub(crate) fn applies(p: &FoldParams<'_>) -> bool {
    p.chunk_bits == 2 && p.n_chunks <= 4
}

/// The word-line pulses of one code: the sum of its four 2-bit chunks.
/// Pairs of chunks add into two nibbles (at most 6 each, so no carry
/// crosses), then the nibbles add. Reads bits 0..8 of `a` only.
#[inline(always)]
fn pulses(a: u32) -> u32 {
    let t = (a & 0x33) + ((a >> 2) & 0x33);
    (t & 15) + (t >> 4)
}

/// The nonzero chunks among the four 2-bit chunks of `or`: one bit per
/// chunk, set iff either of its bits is, then the same digit sum.
#[inline(always)]
fn live_chunks(or: u32) -> u32 {
    pulses((or | or >> 1) & 0x55)
}

/// Writes every vector's live `(group, chunk)` evaluations into
/// `active` and its word-line pulses into `pulses_out`. A row-major
/// source fills `n` entries of each; a panel fills whole 16-lane blocks,
/// [`transposed_pad`](super::transposed_pad)`(n)` entries, so its lane
/// sums stay in registers and store whole.
///
/// The codes must lie in the engine's activation range: this fold reads
/// only their low 8 bits.
#[inline(always)]
pub(crate) fn fold(
    src: &FoldSrc<'_>,
    group_bounds: &[(u32, u32)],
    active: &mut [u32],
    pulses_out: &mut [u32],
) {
    match src {
        FoldSrc::Rows { acts, ins } => fold_rows(acts, *ins, group_bounds, active, pulses_out),
        FoldSrc::Panel(panel) => fold_panel(panel, group_bounds, active, pulses_out),
    }
}

/// Row-major body: one vector at a time, pulses over the whole row
/// (the groups partition it), then one OR per group.
#[inline(always)]
fn fold_rows(
    acts: &[i32],
    ins: usize,
    group_bounds: &[(u32, u32)],
    active: &mut [u32],
    pulses_out: &mut [u32],
) {
    for (v, (act, pul)) in active.iter_mut().zip(pulses_out.iter_mut()).enumerate() {
        let av = &acts[v * ins..(v + 1) * ins];
        *pul = av.iter().map(|&a| pulses(a as u32)).sum();
        *act = group_bounds
            .iter()
            .map(|&(lo, hi)| {
                let or = av[lo as usize..hi as usize]
                    .iter()
                    .fold(0u32, |m, &a| m | a as u32);
                live_chunks(or)
            })
            .sum();
    }
}

/// Panel body: 16 vectors at a time, each group's rows read as 16-lane
/// runs from their offsets. [`Panel::new`] proved that every row holds
/// `transposed_pad(n)` readable lanes, so a block never reads past the
/// buffer.
#[inline(always)]
fn fold_panel(
    panel: &Panel<'_>,
    group_bounds: &[(u32, u32)],
    active: &mut [u32],
    pulses_out: &mut [u32],
) {
    let (acts, rows) = (panel.acts(), panel.rows());
    let blocks = active
        .chunks_exact_mut(16)
        .zip(pulses_out.chunks_exact_mut(16));
    for (b, (act_out, pul_out)) in blocks.enumerate() {
        let vb = b * 16;
        let mut act = [0u32; 16];
        let mut pul = [0u32; 16];
        for &(lo, hi) in group_bounds {
            let mut or = [0u32; 16];
            for &row in &rows[lo as usize..hi as usize] {
                let lanes: &[i32; 16] = acts[row + vb..row + vb + 16]
                    .try_into()
                    .expect("a 16-lane run");
                for ((o, p), &a) in or.iter_mut().zip(pul.iter_mut()).zip(lanes) {
                    *o |= a as u32;
                    *p += pulses(a as u32);
                }
            }
            for (a, &o) in act.iter_mut().zip(&or) {
                *a += live_chunks(o);
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
    fn digit_sums_match_the_chunk_walk_on_every_8_bit_code() {
        for a in 0u32..256 {
            let chunks = (0..4).map(|c| (a >> (2 * c)) & 3);
            assert_eq!(pulses(a), chunks.clone().sum::<u32>(), "code {a}");
            let live = chunks.filter(|&c| c != 0).count() as u32;
            assert_eq!(live_chunks(a), live, "code {a}");
        }
    }
}
