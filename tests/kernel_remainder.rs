//! Remainder-lane kernel parity suite (tier-3 acceptance gate): every
//! kernel tier the host can execute, in **both** batch layouts, must be
//! bit-identical to the scalar row-major reference — in values *and*
//! `MvmStats` — at shapes that are deliberately not multiples of any
//! SIMD lane width (1, 2, 3, 9, 17, 31) across batch sizes 1..=33.
//!
//! These shapes pin every tail path: the AVX2 8-lane and AVX-512
//! 16-lane panel remainders, the `i16` madd half-register tail, the
//! popcount plane padding (4 vs 8 staged vectors), and the quad-column
//! remainder of the blocked matmuls. Batch sizes also straddle the
//! counter fold's 32-lane (AVX2) and 64-lane (AVX-512) panel blocks,
//! whose tails fall back to 16-lane blocks. The overdriven-ADC variant
//! forces the pulse mask-stream path, and the noisy variant checks the
//! per-vector analog fallback consumes its RNG stream identically
//! through the transposed entry.
//!
//! Two more depths, 130 and 257, cross the 128-row tile boundary inside
//! one call, where the analog groups restart. Every chunking of 1-, 2-
//! and 3-bit chunks over 4- to 8-bit codes is checked against the
//! per-vector analog walk, on both sides of the paper chunking the
//! portable counter fold is built for; an engine with codes wider than
//! the `u8` the batch path carries is refused at programming.
//!
//! The transposed run step reads its panel through a per-row offset
//! table, so the suite also drives it with rows permuted, gapped and
//! overlapping in one buffer, the last row ending exactly at the
//! buffer's end, and checks that a table reaching one lane further
//! panics before any kernel runs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use yoloc::cim::backend::{program_backend, BackendKind, MvmScratch};
use yoloc::cim::kernels::{available_kinds, transposed_pad, KernelKind};
use yoloc::cim::{MacroParams, MvmStats};

/// Dimensions that are not a multiple of any lane width in play
/// (4, 8, 16 and 32 all miss every value except via the 1/2-aliasing
/// the padding logic must absorb).
const ODD_DIMS: [usize; 6] = [1, 2, 3, 9, 17, 31];

/// Depths past one 128-row tile, so the analog groups restart inside a
/// call (and 257 opens a third tile).
const TILE_CROSSING_INS: [usize; 2] = [130, 257];

/// Batch sizes around every lane width, the fold's 32- and 64-lane
/// panel blocks included.
const LANE_NS: [usize; 11] = [1, 4, 8, 9, 16, 17, 32, 33, 63, 64, 65];

/// Batch sizes just past whole 32- and 64-lane fold blocks, where the
/// 16-lane tail blocks run.
const BLOCK_TAIL_NS: [usize; 5] = [48, 63, 64, 65, 81];

fn seeded_matrix(outs: usize, ins: usize, seed: u64) -> Vec<i32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..outs * ins).map(|_| rng.gen_range(-128..=127)).collect()
}

fn seeded_acts(n: usize, ins: usize, seed: u64) -> Vec<i32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_AC75);
    (0..n * ins).map(|_| rng.gen_range(0..=255)).collect()
}

/// [`seeded_acts`] as the `u8` codes the run steps read.
fn seeded_codes8(n: usize, ins: usize, seed: u64) -> Vec<u8> {
    seeded_acts(n, ins, seed)
        .into_iter()
        .map(|a| u8::try_from(a).expect("an 8-bit code"))
        .collect()
}

/// Seeded activation codes spanning the whole `act_bits` range.
fn seeded_codes(n: usize, ins: usize, act_bits: u8, seed: u64) -> Vec<i32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE_5EED);
    let max = (1i32 << act_bits) - 1;
    (0..n * ins).map(|_| rng.gen_range(0..=max)).collect()
}

/// Stages `acts` (vector-major) as the lane-major transposed panel.
fn to_panel(acts: &[i32], n: usize, ins: usize) -> (Vec<i32>, usize) {
    let n_pad = transposed_pad(n);
    let mut acts_t = vec![0i32; ins * n_pad];
    for v in 0..n {
        for i in 0..ins {
            acts_t[i * n_pad + v] = acts[v * ins + i];
        }
    }
    (acts_t, n_pad)
}

/// Runs one backend at `(outs, ins, n)` under every available kernel
/// tier and both layouts, asserting each run reproduces the forced
/// scalar row-major golden result bit for bit from the same RNG seed.
fn assert_remainder_parity(params: MacroParams, outs: usize, ins: usize, n: usize, seed: u64) {
    let codes = seeded_matrix(outs, ins, seed);
    let acts = seeded_acts(n, ins, seed);
    let (acts_t, n_pad) = to_panel(&acts, n, ins);
    let mut b = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
    let mut scratch = MvmScratch::new();

    b.set_kernel(KernelKind::Scalar);
    let mut golden = vec![0i64; n * outs];
    let mut golden_stats = MvmStats::default();
    let mut rng = StdRng::seed_from_u64(seed);
    b.mvm_batch(
        &acts,
        n,
        &mut golden,
        &mut golden_stats,
        &mut scratch,
        &mut rng,
    );

    for kind in available_kinds() {
        b.set_kernel(kind);
        let mut out = vec![0i64; n * outs];
        let mut stats = MvmStats::default();
        let mut rng = StdRng::seed_from_u64(seed);
        b.mvm_batch(&acts, n, &mut out, &mut stats, &mut scratch, &mut rng);
        assert_eq!(
            out,
            golden,
            "{} row-major diverges at {outs}x{ins} n={n}",
            kind.label()
        );
        assert_eq!(
            stats,
            golden_stats,
            "{} row-major stats diverge at {outs}x{ins} n={n}",
            kind.label()
        );

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
        assert_eq!(
            out_t,
            golden,
            "{} transposed diverges at {outs}x{ins} n={n}",
            kind.label()
        );
        assert_eq!(
            stats_t,
            golden_stats,
            "{} transposed stats diverge at {outs}x{ins} n={n}",
            kind.label()
        );
    }
}

#[test]
fn remainder_shapes_hold_parity_on_the_exact_path() {
    // Paper design point: identity ADC, so the exact matmul (madd /
    // mullo tails included) carries the batch. Full cross of the odd
    // dimensions; batch sizes sweep every panel-tail residue mod 16.
    let params = MacroParams::rom_paper();
    for &outs in &ODD_DIMS {
        for &ins in &ODD_DIMS {
            for n in (1..=33).chain(BLOCK_TAIL_NS) {
                assert_remainder_parity(params, outs, ins, n, 0xD1 + n as u64);
            }
        }
        for &ins in &TILE_CROSSING_INS {
            for n in LANE_NS {
                assert_remainder_parity(params, outs, ins, n, 0xD2 + n as u64);
            }
        }
    }
}

#[test]
fn remainder_shapes_hold_parity_under_adc_quantization() {
    // Overdriven rows (full scale >> 31 ADC levels): the batch goes
    // down the pulse mask-stream path, whose plane padding differs by
    // tier (4 vs 8 staged vectors). Subset of the cross — this path is
    // an order of magnitude slower per call.
    let mut params = MacroParams::rom_paper();
    params.rows_per_activation = 32;
    for &(outs, ins) in &[(1, 9), (3, 17), (17, 31), (2, 2)] {
        for n in [1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
            assert_remainder_parity(params, outs, ins, n, 0xADC + n as u64);
        }
    }
}

#[test]
fn remainder_shapes_hold_parity_on_the_noisy_fallback() {
    // Noise disables the fast path entirely: both batch entries must
    // fall back to the per-vector analog walk and consume the RNG
    // stream in the same vector order.
    let mut params = MacroParams::rom_paper();
    params.noise_sigma = 0.25;
    for &(outs, ins) in &[(2, 9), (3, 31), (17, 1)] {
        for n in [1, 4, 16, 33] {
            assert_remainder_parity(params, outs, ins, n, 0x0157 + n as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_random_odd_shapes_hold_parity(seed in 0u64..100_000) {
        // Random draws over the odd-dimension grid with fresh random
        // codes and activations per case; rotates the ADC regime so the
        // sweep covers both the exact and the quantizing path.
        let mut rng = StdRng::seed_from_u64(seed);
        let outs = ODD_DIMS[rng.gen_range(0..ODD_DIMS.len())];
        let ins = ODD_DIMS[rng.gen_range(0..ODD_DIMS.len())];
        let n = rng.gen_range(1..=33usize);
        let mut params = MacroParams::rom_paper();
        if seed % 3 == 0 {
            params.rows_per_activation = 32;
        }
        assert_remainder_parity(params, outs, ins, n, seed);
    }
}

/// Runs one block through both batch entries on every tier, each
/// against a per-vector `mvm` loop over the same codes on an analog
/// twin (the cell walk), in values and `MvmStats`.
fn assert_analog_parity(params: MacroParams, outs: usize, ins: usize, n: usize, seed: u64) {
    let codes = seeded_matrix(outs, ins, seed);
    let acts = seeded_codes(n, ins, params.act_bits, seed);
    let (acts_t, n_pad) = to_panel(&acts, n, ins);
    let mut b = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
    let twin = program_backend(BackendKind::Analog, params, &codes, outs, ins);
    // Noiseless throughout, so no path draws from the RNG.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut golden = vec![0i64; n * outs];
    let mut golden_stats = MvmStats::default();
    for v in 0..n {
        let (y, s) = twin.mvm(&acts[v * ins..(v + 1) * ins], &mut rng);
        for (o, y) in y.into_iter().enumerate() {
            golden[o * n + v] = y;
        }
        golden_stats.merge(&s);
    }
    let mut scratch = MvmScratch::new();
    for kind in available_kinds() {
        b.set_kernel(kind);
        let label = format!(
            "{} at {outs}x{ins} n={n}, {}-bit codes in {}-bit chunks",
            kind.label(),
            params.act_bits,
            params.chunk_bits
        );
        let mut out = vec![0i64; n * outs];
        let mut stats = MvmStats::default();
        b.mvm_batch(&acts, n, &mut out, &mut stats, &mut scratch, &mut rng);
        assert_eq!(out, golden, "{label}: row-major values");
        assert_eq!(stats, golden_stats, "{label}: row-major stats");
        let mut out = vec![0i64; n * outs];
        let mut stats = MvmStats::default();
        b.mvm_batch_transposed(
            &acts_t,
            n,
            n_pad,
            &mut out,
            &mut stats,
            &mut scratch,
            &mut rng,
        );
        assert_eq!(out, golden, "{label}: transposed values");
        assert_eq!(stats, golden_stats, "{label}: transposed stats");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_every_chunking_holds_parity_with_the_analog_walk(seed in 0u64..100_000) {
        // One random shape per case, run at every chunk width and code
        // width: 2-bit chunks take the portable fold on the SIMD tiers,
        // every other chunk width the scalar walks. An ideal ADC keeps
        // every chunking on the exact matmul; 32-row groups overdrive
        // the 5-bit ADC onto the quantizing mask stream.
        let mut rng = StdRng::seed_from_u64(seed);
        let outs = ODD_DIMS[rng.gen_range(0..ODD_DIMS.len())];
        let ins = [1, 2, 9, 17, 31, 130][rng.gen_range(0..6usize)];
        let n = rng.gen_range(1..=33usize);
        for chunk_bits in 1..=3u8 {
            for act_bits in [4u8, 6, 8] {
                let base = MacroParams { chunk_bits, act_bits, ..MacroParams::rom_paper() };
                let exact = MacroParams { adc_bits: 16, ..base };
                let quantizing = MacroParams { rows_per_activation: 32, ..base };
                for params in [exact, quantizing] {
                    assert_analog_parity(params, outs, ins, n, seed);
                }
            }
        }
    }
}

/// Offset tables over one buffer for `ins` panel rows of `n` lanes, and
/// the buffer length each needs: every row's `transposed_pad(n)`
/// readable lanes fit, and the last of them ends exactly at the end.
fn offset_tables(ins: usize, n: usize) -> Vec<(&'static str, Vec<usize>, usize)> {
    let n_pad = transposed_pad(n);
    // A fixed scramble of 0..ins (a permutation for every `ins` this
    // suite uses: 7 is coprime to each).
    let scramble = |i: usize| (i * 7 + 3) % ins;
    let step = (n / 2).max(1);
    let tables = [
        (
            "permuted",
            (0..ins).map(|i| scramble(i) * n_pad).collect::<Vec<_>>(),
        ),
        (
            "gapped",
            (0..ins).map(|i| (ins - 1 - i) * (n_pad + 5) + 2).collect(),
        ),
        (
            "overlapping",
            (0..ins).map(|i| scramble(i) * step).collect(),
        ),
    ];
    tables
        .into_iter()
        .map(|(name, rows)| {
            let end = rows.iter().max().unwrap() + n_pad;
            (name, rows, end)
        })
        .collect()
}

/// Runs `run_batch_transposed` over every offset table of
/// [`offset_tables`] on every tier, each against the scalar row-major
/// golden of the vectors the table reads.
fn assert_offset_parity(params: MacroParams, outs: usize, ins: usize, n: usize, seed: u64) {
    let codes = seeded_matrix(outs, ins, seed);
    let mut b = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
    let mut scratch = MvmScratch::new();
    for (name, rows, len) in offset_tables(ins, n) {
        let buf = seeded_codes8(1, len, seed);
        let acts: Vec<i32> = (0..n)
            .flat_map(|v| rows.iter().map(move |&r| r + v))
            .map(|j| i32::from(buf[j]))
            .collect();
        b.set_kernel(KernelKind::Scalar);
        let mut golden = vec![0i64; n * outs];
        let mut golden_stats = MvmStats::default();
        let mut rng = StdRng::seed_from_u64(seed);
        b.mvm_batch(
            &acts,
            n,
            &mut golden,
            &mut golden_stats,
            &mut scratch,
            &mut rng,
        );
        for kind in available_kinds() {
            b.set_kernel(kind);
            let mut accs = vec![0i32; n * outs];
            let mut stats = MvmStats::default();
            let mut rng = StdRng::seed_from_u64(seed);
            b.run_batch_transposed(&buf, &rows, n, &mut accs, &mut scratch, &mut rng);
            b.fold_stats(&scratch, 0..n, &mut stats);
            let out: Vec<i64> = accs.into_iter().map(i64::from).collect();
            let label = format!("{} {name} rows at {outs}x{ins} n={n}", kind.label());
            assert_eq!(out, golden, "{label}: accumulators");
            assert_eq!(stats, golden_stats, "{label}: stats");
        }
    }
}

#[test]
fn row_offset_tables_hold_parity_on_every_path() {
    // The exact path, the quantizing-ADC mask stream and the noisy
    // per-vector fallback (which unpacks through the offsets), at
    // batch sizes around every lane width.
    let exact = MacroParams::rom_paper();
    let mut quantizing = exact;
    quantizing.rows_per_activation = 32;
    let mut noisy = exact;
    noisy.noise_sigma = 0.25;
    for (params, seed) in [(exact, 0x0FF), (quantizing, 0x0FA), (noisy, 0x0F5)] {
        for &(outs, ins) in &[(1, 9), (3, 17), (17, 31), (2, 2), (3, 130), (17, 257)] {
            for n in LANE_NS {
                assert_offset_parity(params, outs, ins, n, seed + n as u64);
            }
        }
    }
}

#[test]
#[should_panic(expected = "panel row reaches lane")]
fn row_offset_one_lane_past_the_buffer_panics_before_any_kernel() {
    let (outs, ins, n) = (3, 9, 5);
    let b = program_backend(
        BackendKind::Popcount,
        MacroParams::rom_paper(),
        &seeded_matrix(outs, ins, 1),
        outs,
        ins,
    );
    let (_, rows, len) = offset_tables(ins, n).swap_remove(1);
    // One code short of what the table needs: its last row's padded
    // lanes reach one past the end.
    let buf = seeded_codes8(1, len - 1, 1);
    let mut out = vec![0i32; n * outs];
    b.run_batch_transposed(
        &buf,
        &rows,
        n,
        &mut out,
        &mut MvmScratch::new(),
        &mut StdRng::seed_from_u64(1),
    );
}

#[test]
#[should_panic(expected = "9-bit activation codes do not fit u8")]
fn nine_bit_activation_codes_are_refused_at_programming() {
    // The batch path carries codes as `u8`, so an engine whose codes
    // need a ninth bit cannot be programmed (a plan naming one is a
    // clean cache miss instead, see `plan_cache_corruption`).
    let params = MacroParams {
        act_bits: 9,
        ..MacroParams::rom_paper()
    };
    program_backend(BackendKind::Popcount, params, &seeded_matrix(2, 9, 1), 2, 9);
}
