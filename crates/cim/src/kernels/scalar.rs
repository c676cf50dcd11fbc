//! The portable scalar kernel tier — the bit-identical reference every
//! other tier is pinned against. No `unsafe`, no ISA assumptions.

use super::{FoldParams, Panel};

/// The scalar tier's integer matmul:
/// `out[o*n + v] = sum_i codes[o*ins + i] * acts[v*ins + i]` (row-major
/// `u8` activation codes, channel-major `i32` accumulators). Exact in
/// `i32` because [`RomMvm::program`] proved every accumulator fits one
/// ([`MacroParams::accumulators_fit`]).
///
/// [`RomMvm::program`]: crate::macro_model::RomMvm::program
/// [`MacroParams::accumulators_fit`]: crate::macro_model::MacroParams::accumulators_fit
pub(crate) fn matmul_into(
    codes: &[i32],
    outs: usize,
    ins: usize,
    acts: &[u8],
    n: usize,
    out: &mut [i32],
) {
    debug_assert_eq!(codes.len(), outs * ins);
    debug_assert_eq!(acts.len(), n * ins);
    debug_assert_eq!(out.len(), n * outs);
    for o in 0..outs {
        let row = &codes[o * ins..(o + 1) * ins];
        for (v, slot) in out[o * n..(o + 1) * n].iter_mut().enumerate() {
            *slot = row
                .iter()
                .zip(&acts[v * ins..(v + 1) * ins])
                .map(|(&w, &a)| w * i32::from(a))
                .sum();
        }
    }
}

/// The batch-transposed reference matmul over a lane-major [`Panel`]:
/// `out[o*n + v] = sum_i codes[o*ins + i] * panel.lane(i)[v]`. Same
/// arithmetic as [`matmul_into`] in a different traversal order (exact
/// integer sums, so ordering cannot change them) — this entry keeps the
/// scalar tier the parity oracle for the transposed SIMD paths.
pub(crate) fn matmul_transposed(codes: &[i32], outs: usize, panel: &Panel<'_>, out: &mut [i32]) {
    let (ins, n) = (panel.ins(), panel.n());
    debug_assert_eq!(codes.len(), outs * ins);
    debug_assert_eq!(out.len(), n * outs);
    out.fill(0);
    for o in 0..outs {
        let out_row = &mut out[o * n..(o + 1) * n];
        for (i, &w) in codes[o * ins..(o + 1) * ins].iter().enumerate() {
            for (slot, &a) in out_row.iter_mut().zip(panel.lane(i)) {
                *slot += w * i32::from(a);
            }
        }
    }
}

/// Scalar event-counter fold, the oracle of every other fold: one pass
/// over each vector's activation codes, group by group, writing the
/// vector's active `(group, chunk)` evaluations into `active[v]` and its
/// word-line pulses into `pulses[v]`. A group is *active* for a chunk iff
/// the OR of its rows has a nonzero field at that chunk's bit position,
/// the same predicate the analog walk applies per `(row tile, chunk)`
/// step, folded over the whole vector at once (a silent step adds
/// nothing to any counter).
pub(crate) fn fold_event_counters(
    acts: &[u8],
    ins: usize,
    p: &FoldParams<'_>,
    active: &mut [u32],
    pulses: &mut [u32],
) {
    for (v, (act, pul)) in active.iter_mut().zip(pulses.iter_mut()).enumerate() {
        let av = &acts[v * ins..(v + 1) * ins];
        (*act, *pul) = walk_groups(p, |i| u32::from(av[i]));
    }
}

/// Batch-transposed scalar event-counter fold: the same walk as
/// [`fold_event_counters`] over the `n` live lanes of a lane-major
/// [`Panel`]. Pure integer sums in a different traversal order, so it is
/// bit-identical to the row-major walk by construction.
pub(crate) fn fold_event_counters_t(
    panel: &Panel<'_>,
    p: &FoldParams<'_>,
    active: &mut [u32],
    pulses: &mut [u32],
) {
    let (acts, rows) = (panel.acts(), panel.rows());
    let counters = active.iter_mut().zip(pulses.iter_mut());
    for (v, (act, pul)) in counters.take(panel.n()).enumerate() {
        (*act, *pul) = walk_groups(p, |i| u32::from(acts[rows[i] + v]));
    }
}

/// One vector's `(active, pulses)` over every group, reading code `i` of
/// the vector through `code`.
fn walk_groups(p: &FoldParams<'_>, code: impl Fn(usize) -> u32) -> (u32, u32) {
    let chunk_mask = (1u32 << p.chunk_bits) - 1;
    let shifts = (0..p.n_chunks as u32).map(|c| c * p.chunk_bits as u32);
    let (mut active, mut pulses) = (0, 0);
    for &(lo, hi) in p.group_bounds {
        let mut group_or = 0u32;
        for i in lo as usize..hi as usize {
            let a = code(i);
            group_or |= a;
            pulses += shifts.clone().map(|s| (a >> s) & chunk_mask).sum::<u32>();
        }
        active += shifts
            .clone()
            .filter(|&s| (group_or >> s) & chunk_mask != 0)
            .count() as u32;
    }
    (active, pulses)
}

/// Scalar discharge-count stream for one stored column mask against the
/// plane-major staged pulse bit-planes (`planes[b * n_pad + v]`).
pub(crate) fn group_counts(
    mask: u64,
    planes: &[u64],
    n_planes: usize,
    n_pad: usize,
    counts: &mut [u64],
) {
    debug_assert!(planes.len() >= n_planes * n_pad);
    debug_assert_eq!(counts.len(), n_pad);
    if n_planes == 0 {
        counts.fill(0);
        return;
    }
    let (first, rest) = planes[..n_planes * n_pad].split_at(n_pad);
    for (c, &pl) in counts.iter_mut().zip(first) {
        *c = (mask & pl).count_ones() as u64;
    }
    for (b, plane) in rest.chunks_exact(n_pad).enumerate() {
        let w = 1u64 << (b + 1);
        for (c, &pl) in counts.iter_mut().zip(plane) {
            *c += w * (mask & pl).count_ones() as u64;
        }
    }
}
