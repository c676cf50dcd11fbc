//! The portable scalar kernel tier — the bit-identical reference every
//! other tier is pinned against. No `unsafe`, no ISA assumptions.

use super::{FoldParams, Panel};

/// The one integer matmul every digital path shares:
/// `out[o*n + v] = sum_i codes[o*ins + i] * acts[v*ins + i]` (row-major
/// activations, channel-major accumulators) — used by [`reference_mvm`]
/// and the scalar tier of [`RomMvm::mvm_batch_exact`], so the arithmetic
/// can never diverge between them.
///
/// [`reference_mvm`]: crate::macro_model::reference_mvm
/// [`RomMvm::mvm_batch_exact`]: crate::macro_model::RomMvm
pub(crate) fn matmul_into(
    codes: &[i32],
    outs: usize,
    ins: usize,
    acts: &[i32],
    n: usize,
    out: &mut [i64],
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
                .map(|(&w, &a)| w as i64 * a as i64)
                .sum();
        }
    }
}

/// The batch-transposed reference matmul over a lane-major [`Panel`]:
/// `out[o*n + v] = sum_i codes[o*ins + i] * panel.lane(i)[v]`. Same
/// arithmetic as [`matmul_into`] in a different traversal order (each
/// addend is an exact `i64` product, so ordering cannot change the sum)
/// — this entry keeps the scalar tier the parity oracle for the
/// transposed SIMD paths.
pub(crate) fn matmul_transposed(codes: &[i32], outs: usize, panel: &Panel<'_>, out: &mut [i64]) {
    let (ins, n) = (panel.ins(), panel.n());
    debug_assert_eq!(codes.len(), outs * ins);
    debug_assert_eq!(out.len(), n * outs);
    out.fill(0);
    for o in 0..outs {
        let out_row = &mut out[o * n..(o + 1) * n];
        for (i, &w) in codes[o * ins..(o + 1) * ins].iter().enumerate() {
            for (slot, &a) in out_row.iter_mut().zip(panel.lane(i)) {
                *slot += w as i64 * a as i64;
            }
        }
    }
}

/// Scalar event-counter fold: one pass over each vector's activation
/// codes, accumulating all chunks simultaneously. A group is *active*
/// for a chunk iff the OR of its rows has a nonzero field at that
/// chunk's bit position — the same predicate the per-(tile, chunk)
/// popcount walk applies, folded over the whole vector at once (legal
/// because a silent `(tile, chunk)` step contributes zero to every
/// counter, and the per-tile column fan-out `col_tiles` is a constant).
pub(crate) fn fold_event_counters(
    acts: &[i32],
    ins: usize,
    n: usize,
    p: &FoldParams<'_>,
    counters: &mut [[u64; 3]],
) {
    debug_assert!(p.n_chunks <= 8, "chunk count exceeds the fold accumulators");
    debug_assert_eq!(counters.len(), n);
    debug_assert_eq!(acts.len(), n * ins);
    let chunk_mask = (1u32 << p.chunk_bits) - 1;
    for (v, c) in counters.iter_mut().enumerate() {
        let av = &acts[v * ins..(v + 1) * ins];
        let mut totals = [0u64; 8];
        let mut actives = [0u64; 8];
        for &(lo, hi) in p.group_bounds {
            let mut group_or = 0u32;
            for &a in &av[lo as usize..hi as usize] {
                let a = a as u32;
                group_or |= a;
                for (ci, t) in totals[..p.n_chunks].iter_mut().enumerate() {
                    *t += ((a >> (ci as u32 * p.chunk_bits as u32)) & chunk_mask) as u64;
                }
            }
            for (ci, act) in actives[..p.n_chunks].iter_mut().enumerate() {
                if (group_or >> (ci as u32 * p.chunk_bits as u32)) & chunk_mask != 0 {
                    *act += 1;
                }
            }
        }
        let active: u64 = actives[..p.n_chunks].iter().sum();
        let total: u64 = totals[..p.n_chunks].iter().sum();
        c[0] += active * p.col_tiles;
        c[1] += active * p.cols * p.col_tiles;
        c[2] += total * p.col_tiles;
    }
}

/// Batch-transposed scalar event-counter fold: identical statistics to
/// [`fold_event_counters`], derived from the lane-major [`Panel`]. Pure
/// integer accumulation in a different traversal order, so it is
/// bit-identical to the row-major fold by construction.
pub(crate) fn fold_event_counters_t(
    panel: &Panel<'_>,
    p: &FoldParams<'_>,
    counters: &mut [[u64; 3]],
) {
    debug_assert!(p.n_chunks <= 8, "chunk count exceeds the fold accumulators");
    debug_assert_eq!(counters.len(), panel.n());
    let (acts, rows) = (panel.acts(), panel.rows());
    let chunk_mask = (1u32 << p.chunk_bits) - 1;
    // Per-vector strided walk with stack accumulators: slower than the
    // SIMD lane walk but allocation-free (this entry runs inside the
    // zero-alloc arena steady state as the reference and the fallback).
    for (v, c) in counters.iter_mut().enumerate() {
        let mut totals = [0u64; 8];
        let mut actives = [0u64; 8];
        for &(lo, hi) in p.group_bounds {
            let mut group_or = 0u32;
            for &row in &rows[lo as usize..hi as usize] {
                let a = acts[row + v] as u32;
                group_or |= a;
                for (ci, t) in totals[..p.n_chunks].iter_mut().enumerate() {
                    *t += ((a >> (ci as u32 * p.chunk_bits as u32)) & chunk_mask) as u64;
                }
            }
            for (ci, act) in actives[..p.n_chunks].iter_mut().enumerate() {
                if (group_or >> (ci as u32 * p.chunk_bits as u32)) & chunk_mask != 0 {
                    *act += 1;
                }
            }
        }
        let active: u64 = actives[..p.n_chunks].iter().sum();
        let total: u64 = totals[..p.n_chunks].iter().sum();
        c[0] += active * p.col_tiles;
        c[1] += active * p.cols * p.col_tiles;
        c[2] += total * p.col_tiles;
    }
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
