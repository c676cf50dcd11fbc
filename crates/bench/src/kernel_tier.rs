//! Kernel-tier speedup measurement shared by `bench_engine` and
//! `bench_kernels` (schema v7 `kernel_tier` block).
//!
//! The kernel-tier work (runtime-dispatched SIMD, cache-blocked
//! bit-plane MVM, and the tier-3 batch-transposed layouts in
//! `yoloc-cim`) is required to be *speed*, never *arithmetic*: every
//! tier and layout is pinned bit-identical to the scalar reference by
//! the cim parity suites. This module measures what the dispatch
//! actually buys on the workload that matters — the im2col shapes of
//! the zoo networks the engine harness runs — and renders the result as
//! the `kernel_tier` report block the CI schema gate checks.
//!
//! Per unique lowered shape `(outs, ins)` across the zoo (weighted by
//! how many matrix-vector products per inference the zoo performs at
//! that shape), the harness programs one `RomMvm` at the paper design
//! point with seeded random codes and times one `u8` run step — the one
//! `batch_layout` picks, `run_batch_transposed` over a pre-staged panel
//! of `n` contiguous lanes and its row offsets, or `run_batch` over
//! row-major vectors — plus one `fold_stats` over those `n` vectors.
//! That is under the forced scalar tier and under the runtime-dispatched
//! tier, asserting the two agree bit-for-bit in accumulators **and**
//! `MvmStats` on the way. It is the kernel work of `CimConv2d::run_in`
//! without the rest of a conv's cost: a transposed conv also lowers its
//! input to shifted planes, runs the planes' gap lanes through the
//! kernel and drops them with `keep_runs`, and every conv folds its
//! stats once per placement tile and merges them. The checked `i32`
//! entries (`mvm_batch`, `mvm_batch_transposed`) stay out of the timing:
//! their range scan, narrowing and widening are a boundary inference
//! does not cross, and at 4 vectors their 16-lane panel padding
//! outweighed either kernel.
//! Samples
//! of the two tiers are interleaved and each side reports its
//! best-of-reps minimum — the noise-robust estimator
//! for a deterministic fixed-work loop on a shared host. The
//! headline `speedup_vs_scalar` is the MVM-weighted aggregate
//! `sum(w_i * scalar_i) / sum(w_i * dispatched_i)` — the ratio of total
//! kernel time a full zoo pass would spend in each tier. When dispatch
//! selects the scalar tier (no SIMD host), the speedup is 1.0 *by
//! construction*, not by timing a path against itself.
//!
//! Schema v7 adds the per-shape `time_share`: this shape's fraction of
//! the zoo's total dispatched MVM nanoseconds, so gates can hit the heavy
//! tail instead of the unweighted mean. Staging (quantizing the layer
//! input and lowering its codes) is measured per layer where inference
//! runs it, by the host benchmark's traced `qconv.staging_share`.
//!
//! An informational `end_to_end` sub-block records the whole-inference
//! effect on one zoo network (`infer_in` under `YOLOC_KERNEL=scalar` vs
//! the dispatched default, logits checked bit-identical); it is
//! deliberately not gated — the MVM kernel is only part of an inference
//! (im2col, quantize and epilogues bound the end-to-end ratio well below
//! the kernel-level speedup; Amdahl's law, not a regression).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Json;
use yoloc_cim::backend::MvmScratch;
use yoloc_cim::kernels::transposed_pad;
use yoloc_cim::{
    avx2_available, avx512_available, KernelDispatch, KernelKind, MacroParams, MatmulLayout,
    MvmStats, RomMvm,
};
use yoloc_models::NetworkDesc;

/// One unique lowered matrix shape measured under both kernel tiers.
pub struct ShapeMeasure {
    /// Output neurons of the lowered matrix.
    pub outs: usize,
    /// Dot-product depth of the lowered matrix.
    pub ins: usize,
    /// Matrix-vector products per full zoo pass at this shape (the
    /// weight in the aggregate speedup).
    pub mvms: u64,
    /// Scalar-tier nanoseconds per matrix-vector product.
    pub scalar_ns_per_mvm: f64,
    /// Dispatched-tier nanoseconds per matrix-vector product.
    pub dispatched_ns_per_mvm: f64,
    /// Layout the backend's crossover picked at this shape and batch.
    pub layout: MatmulLayout,
    /// Whether the two tiers agreed bit-for-bit (values and `MvmStats`).
    pub bit_identical: bool,
}

impl ShapeMeasure {
    fn speedup(&self) -> f64 {
        self.scalar_ns_per_mvm / self.dispatched_ns_per_mvm
    }
}

/// The measured `kernel_tier` block.
pub struct KernelTier {
    /// Tier the runtime dispatch selected (`Auto` resolution).
    pub selected: KernelKind,
    /// Whether the host reports AVX2.
    pub avx2_detected: bool,
    /// Whether the host reports the AVX-512 subsets the tier needs
    /// (F + BW + VL + VPOPCNTDQ + VNNI).
    pub avx512_detected: bool,
    /// MVM-weighted aggregate kernel speedup over the forced scalar tier.
    pub speedup_vs_scalar: f64,
    /// Per-shape measurements, heaviest shape first.
    pub shapes: Vec<ShapeMeasure>,
    /// Informational whole-inference comparison (one zoo network).
    pub end_to_end: Option<EndToEnd>,
}

impl KernelTier {
    /// MVM-weighted dispatched kernel nanoseconds of one full zoo pass.
    fn total_mvm_ns(&self) -> f64 {
        self.shapes
            .iter()
            .map(|s| s.mvms as f64 * s.dispatched_ns_per_mvm)
            .sum()
    }
}

/// Informational whole-inference scalar-vs-dispatched comparison.
pub struct EndToEnd {
    /// Zoo network measured.
    pub model: String,
    /// Per-inference wall seconds, engine compiled under
    /// `YOLOC_KERNEL=scalar`.
    pub scalar_s: f64,
    /// Per-inference wall seconds under the dispatched default.
    pub dispatched_s: f64,
    /// Whether the two compiles produced bit-identical logits.
    pub bit_identical: bool,
}

/// Collects the unique lowered `(outs, ins)` shapes across `descs`,
/// summing per-inference MVM counts as weights; heaviest first.
pub fn zoo_shapes(descs: &[NetworkDesc]) -> Vec<(usize, usize, u64)> {
    let mut shapes: Vec<(usize, usize, u64)> = Vec::new();
    for desc in descs {
        let reports = desc.analyze().expect("zoo description must analyze");
        for lowered in reports.iter().flat_map(|r| &r.lowered) {
            match shapes
                .iter_mut()
                .find(|(o, i, _)| *o == lowered.outs && *i == lowered.ins)
            {
                Some((_, _, w)) => *w += lowered.mvms,
                None => shapes.push((lowered.outs, lowered.ins, lowered.mvms)),
            }
        }
    }
    shapes.sort_by_key(|&(outs, ins, mvms)| std::cmp::Reverse(mvms * (outs * ins) as u64));
    shapes
}

/// One block of `u8` activation codes, staged in both layouts before any
/// timing: row-major rows, and a lane-major `[ins x n_pad]` panel with
/// its row offsets (pad lanes hold code 0, as a conv's planes pad theirs).
struct Block {
    rows: Vec<u8>,
    panel: Vec<u8>,
    offsets: Vec<usize>,
    n: usize,
}

impl Block {
    fn new(rows: Vec<u8>, n: usize, ins: usize) -> Self {
        let n_pad = transposed_pad(n);
        let mut panel = vec![0u8; ins * n_pad];
        for (v, row) in rows.chunks_exact(ins).enumerate() {
            for (i, &a) in row.iter().enumerate() {
                panel[i * n_pad + v] = a;
            }
        }
        Block {
            rows,
            panel,
            offsets: (0..ins).map(|i| i * n_pad).collect(),
            n,
        }
    }

    /// Runs the block: the `u8` run step `engine.batch_layout` picks,
    /// then one stats fold over all `n` vectors (no gap lanes and no
    /// per-tile folds, which `CimConv2d::run_in` adds).
    fn run(
        &self,
        engine: &RomMvm,
        out: &mut [i32],
        stats: &mut MvmStats,
        scratch: &mut MvmScratch,
        rng: &mut StdRng,
    ) {
        match engine.batch_layout(self.n) {
            MatmulLayout::Transposed => {
                engine.run_batch_transposed(&self.panel, &self.offsets, self.n, out, scratch, rng)
            }
            MatmulLayout::RowMajor => engine.run_batch(&self.rows, self.n, out, scratch, rng),
        }
        engine.fold_stats(scratch, 0..self.n, stats);
    }
}

/// One timed sample: `calls` consecutive batch invocations, returning
/// seconds per invocation.
fn sample_batch(
    engine: &RomMvm,
    block: &Block,
    out: &mut [i32],
    scratch: &mut MvmScratch,
    calls: usize,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(0); // untouched by noiseless paths
    let mut stats = MvmStats::default();
    let t0 = Instant::now();
    for _ in 0..calls {
        block.run(engine, out, &mut stats, scratch, &mut rng);
        std::hint::black_box(out[0]);
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

fn median(times: &mut [f64]) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Best-of-reps estimator for deterministic fixed-work loops: scheduler
/// preemption, interrupts and frequency dips only ever *add* time, so
/// the minimum sample is the closest observation of the true cost — and
/// the one stable under host noise that a median over a handful of reps
/// still inherits (a dip spanning most of a shape's samples shifts the
/// median but rarely every sample).
fn min_time(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Measures one shape under the forced scalar tier and the dispatched
/// tier, checking bit-identity of values and stats between the two.
fn measure_shape(
    outs: usize,
    ins: usize,
    mvms: u64,
    seed: u64,
    selected: KernelKind,
) -> ShapeMeasure {
    let mut rng = StdRng::seed_from_u64(seed);
    let codes: Vec<i32> = (0..outs * ins).map(|_| rng.gen_range(-128..=127)).collect();
    // Batch like the arena runtime: one block per conv (all of its
    // output positions at once), capped so one timed call stays cheap
    // on the largest shapes.
    let n = (mvms as usize).clamp(1, 256);
    let acts: Vec<u8> = (0..n * ins).map(|_| rng.gen_range(0..=255) as u8).collect();
    let block = Block::new(acts, n, ins);
    let mut engine = RomMvm::program(MacroParams::rom_paper(), &codes, outs, ins);
    let mut out = vec![0i32; n * outs];
    let mut scratch = MvmScratch::new();
    let mut dummy = StdRng::seed_from_u64(0);

    // Bit-identity first: golden scalar result vs the dispatched tier.
    engine.set_kernel(KernelKind::Scalar);
    let mut golden = vec![0i32; n * outs];
    let mut golden_stats = MvmStats::default();
    block.run(
        &engine,
        &mut golden,
        &mut golden_stats,
        &mut scratch,
        &mut dummy,
    );
    engine.set_kernel(selected);
    let mut stats = MvmStats::default();
    block.run(&engine, &mut out, &mut stats, &mut scratch, &mut dummy);
    let bit_identical = out == golden && stats == golden_stats;

    // Calibrate the inner repeat count off one scalar call so every
    // timed sample spans at least ~200us of work.
    engine.set_kernel(KernelKind::Scalar);
    let t0 = Instant::now();
    block.run(&engine, &mut out, &mut stats, &mut scratch, &mut dummy);
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let calls = ((200e-6 / once).ceil() as usize).clamp(1, 20_000);
    let reps = crate::smoke_or(3, 9);

    // Interleave the two tiers' samples: measuring one tier's reps
    // back-to-back before the other's reads host warm-up drift (the
    // first-measured tier is systematically favored), not the tier
    // difference.
    let (scalar_s, dispatched_s) = if selected == KernelKind::Scalar {
        let s = min_time(
            &(0..reps)
                .map(|_| sample_batch(&engine, &block, &mut out, &mut scratch, calls))
                .collect::<Vec<_>>(),
        );
        (s, s) // dispatch picked the reference tier: 1.0 by construction
    } else {
        let mut times_s = Vec::with_capacity(reps);
        let mut times_d = Vec::with_capacity(reps);
        engine.set_kernel(selected); // warm the dispatched tier too
        block.run(&engine, &mut out, &mut stats, &mut scratch, &mut dummy);
        for _ in 0..reps {
            engine.set_kernel(KernelKind::Scalar);
            times_s.push(sample_batch(&engine, &block, &mut out, &mut scratch, calls));
            engine.set_kernel(selected);
            times_d.push(sample_batch(&engine, &block, &mut out, &mut scratch, calls));
        }
        (min_time(&times_s), min_time(&times_d))
    };

    // Record the dispatched tier's layout (the scalar tier is always
    // row-major).
    engine.set_kernel(selected);
    ShapeMeasure {
        outs,
        ins,
        mvms,
        scalar_ns_per_mvm: scalar_s * 1e9 / n as f64,
        dispatched_ns_per_mvm: dispatched_s * 1e9 / n as f64,
        layout: engine.batch_layout(n),
        bit_identical,
    }
}

/// Informational end-to-end comparison on one zoo network: two compiles
/// of the same plan, one forced scalar via the `YOLOC_KERNEL` override,
/// one under the dispatched default; logits must match bit-for-bit.
///
/// Touches the process environment, so call it before any worker pool
/// or test harness threads are running (the bench binaries are
/// single-threaded at this point).
pub fn measure_end_to_end(desc: &NetworkDesc, seed: u64) -> EndToEnd {
    use yoloc_core::compiler::{CompileOptions, CompiledNetwork};
    use yoloc_tensor::Tensor;
    let reps = crate::smoke_or(5, 9);
    let saved = std::env::var("YOLOC_KERNEL").ok();
    let compile_tier = |tier: Option<&str>| {
        match tier {
            Some(t) => std::env::set_var("YOLOC_KERNEL", t),
            None => match &saved {
                Some(v) => std::env::set_var("YOLOC_KERNEL", v),
                None => std::env::remove_var("YOLOC_KERNEL"),
            },
        }
        CompiledNetwork::compile_random(desc, seed, CompileOptions::paper_default())
            .expect("zoo description must compile")
    };
    // Compile both tiers up front, warm both, then interleave the timed
    // reps — back-to-back measurement of one tier then the other reads
    // mostly host warm-up drift, not the tier difference.
    let net_s = compile_tier(Some("scalar"));
    let net_d = compile_tier(None);
    let (c, h, w) = net_s.input_shape();
    let mut rng = StdRng::seed_from_u64(seed + 3);
    let x = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng);
    let mut arena_s = net_s.take_arena();
    let mut arena_d = net_d.take_arena();
    let mut exec_rng = StdRng::seed_from_u64(seed + 5);
    let scalar_logits = net_s
        .infer_in(&x, &mut exec_rng, &mut arena_s)
        .0
        .data()
        .to_vec();
    let dispatched_logits = net_d
        .infer_in(&x, &mut exec_rng, &mut arena_d)
        .0
        .data()
        .to_vec();
    let mut times_s = Vec::with_capacity(reps);
    let mut times_d = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let (y, r) = net_s.infer_in(&x, &mut exec_rng, &mut arena_s);
        std::hint::black_box((y.data()[0], r.latency_ns));
        times_s.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let (y, r) = net_d.infer_in(&x, &mut exec_rng, &mut arena_d);
        std::hint::black_box((y.data()[0], r.latency_ns));
        times_d.push(t1.elapsed().as_secs_f64());
    }
    net_s.give_arena(arena_s);
    net_d.give_arena(arena_d);
    EndToEnd {
        model: desc.name.clone(),
        scalar_s: median(&mut times_s),
        dispatched_s: median(&mut times_d),
        bit_identical: scalar_logits == dispatched_logits,
    }
}

/// Measures the full `kernel_tier` block over the zoo networks.
pub fn measure_kernel_tier(descs: &[NetworkDesc], seed: u64) -> KernelTier {
    // Honor a `YOLOC_KERNEL` override so every sub-measurement (shape
    // timings and the end-to-end compile) reports the same dispatch the
    // engines actually ran; unset, this is the `auto` host resolution.
    let selected = KernelDispatch::from_env().resolve();
    let shapes_in = zoo_shapes(descs);
    println!(
        "[kernel-tier] {} unique lowered shapes, dispatch selected {}",
        shapes_in.len(),
        selected.label()
    );
    let mut shapes = Vec::new();
    for (i, &(outs, ins, mvms)) in shapes_in.iter().enumerate() {
        println!("[kernel-tier] shape {outs}x{ins} (weight {mvms} mvms) ...");
        shapes.push(measure_shape(outs, ins, mvms, seed + i as u64, selected));
    }
    let weighted =
        |f: fn(&ShapeMeasure) -> f64| -> f64 { shapes.iter().map(|s| s.mvms as f64 * f(s)).sum() };
    let speedup_vs_scalar = if selected == KernelKind::Scalar {
        1.0
    } else {
        weighted(|s| s.scalar_ns_per_mvm) / weighted(|s| s.dispatched_ns_per_mvm)
    };
    let end_to_end = descs.last().map(|d| {
        println!(
            "[kernel-tier] end-to-end scalar vs {} on {} ...",
            selected.label(),
            d.name
        );
        measure_end_to_end(d, seed + 101)
    });
    KernelTier {
        selected,
        avx2_detected: avx2_available(),
        avx512_detected: avx512_available(),
        speedup_vs_scalar,
        shapes,
        end_to_end,
    }
}

impl KernelTier {
    /// Serializes the block for the v7 report.
    pub fn json(&self) -> Json {
        let total_mvm_ns = self.total_mvm_ns();
        let mut fields = vec![
            ("selected", Json::str(self.selected.label())),
            ("avx2_detected", Json::Bool(self.avx2_detected)),
            ("avx512_detected", Json::Bool(self.avx512_detected)),
            ("speedup_vs_scalar", Json::Num(self.speedup_vs_scalar)),
            (
                "bit_identical",
                Json::Bool(self.shapes.iter().all(|s| s.bit_identical)),
            ),
            (
                "shapes",
                Json::Arr(
                    self.shapes
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("outs", Json::Num(s.outs as f64)),
                                ("ins", Json::Num(s.ins as f64)),
                                ("mvms", Json::Num(s.mvms as f64)),
                                ("scalar_ns_per_mvm", Json::Num(s.scalar_ns_per_mvm)),
                                ("dispatched_ns_per_mvm", Json::Num(s.dispatched_ns_per_mvm)),
                                (
                                    "layout",
                                    Json::str(match s.layout {
                                        MatmulLayout::Transposed => "transposed",
                                        MatmulLayout::RowMajor => "row-major",
                                    }),
                                ),
                                (
                                    // v7: fraction of the zoo's total
                                    // dispatched kernel time spent at
                                    // this shape.
                                    "time_share",
                                    Json::Num(
                                        s.mvms as f64 * s.dispatched_ns_per_mvm
                                            / total_mvm_ns.max(1e-12),
                                    ),
                                ),
                                ("speedup", Json::Num(s.speedup())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(e) = &self.end_to_end {
            fields.push((
                "end_to_end",
                Json::obj([
                    ("model", Json::str(e.model.clone())),
                    ("scalar_s", Json::Num(e.scalar_s)),
                    ("dispatched_s", Json::Num(e.dispatched_s)),
                    ("ratio", Json::Num(e.scalar_s / e.dispatched_s)),
                    ("bit_identical", Json::Bool(e.bit_identical)),
                ]),
            ));
        }
        Json::obj(fields)
    }

    /// Table rows (`shape | weight | scalar | dispatched | layout |
    /// share | speedup | identical`) for
    /// [`crate::print_table`].
    pub fn rows(&self) -> Vec<Vec<String>> {
        let total_mvm_ns = self.total_mvm_ns();
        self.shapes
            .iter()
            .map(|s| {
                vec![
                    format!("{}x{}", s.outs, s.ins),
                    format!("{}", s.mvms),
                    format!("{:.0}", s.scalar_ns_per_mvm),
                    format!("{:.0}", s.dispatched_ns_per_mvm),
                    match s.layout {
                        MatmulLayout::Transposed => "T",
                        MatmulLayout::RowMajor => "rm",
                    }
                    .to_string(),
                    format!(
                        "{:.1}%",
                        100.0 * s.mvms as f64 * s.dispatched_ns_per_mvm / total_mvm_ns.max(1e-12)
                    ),
                    crate::fmt_x(s.speedup()),
                    if s.bit_identical { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect()
    }
}

/// Validates the `kernel_tier` block of a v7 report; returns every
/// violation found. Gates: block present with a selected tier in
/// {scalar, avx2, avx512}, all tiers bit-identical, aggregate
/// speedup at least 1.0 always, the v7 fields (`avx512_detected`,
/// per-shape `time_share`) present, and — for committed full runs that
/// selected a SIMD tier — the MVM-weighted aggregate at least 3.0
/// plus every small shape (`outs <= 4`, where the transposed layout
/// must engage) at least 2.5 (smoke configs measure tiny shapes and
/// only gate the 1.0 floor).
pub fn kernel_tier_violations(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let smoke_doc = doc.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            errs.push(format!("kernel_tier: {msg}"));
        }
    };
    let Some(kt) = doc.get("kernel_tier") else {
        return vec!["missing kernel_tier block".to_string()];
    };
    let selected = kt.get("selected").and_then(Json::as_str);
    let simd = matches!(selected, Some("avx2") | Some("avx512"));
    check(
        matches!(selected, Some("scalar")) || simd,
        "selected must be \"scalar\", \"avx2\" or \"avx512\"",
    );
    check(
        kt.get("avx2_detected").and_then(Json::as_bool).is_some(),
        "missing avx2_detected",
    );
    check(
        kt.get("avx512_detected").and_then(Json::as_bool).is_some(),
        "missing avx512_detected",
    );
    check(
        kt.get("bit_identical").and_then(Json::as_bool) == Some(true),
        "kernel tiers must agree bit-for-bit on every measured shape",
    );
    let shapes = kt.get("shapes").and_then(Json::as_arr);
    check(
        shapes.is_some_and(|a| !a.is_empty()),
        "shapes must be a non-empty array",
    );
    if let Some(arr) = shapes {
        let mut share_sum = 0.0;
        for sh in arr {
            let outs = sh.get("outs").and_then(Json::as_num).unwrap_or(0.0);
            let ins = sh.get("ins").and_then(Json::as_num).unwrap_or(0.0);
            let label = format!("{outs:.0}x{ins:.0}");
            let share = sh.get("time_share").and_then(Json::as_num);
            check(
                share.is_some(),
                &format!("shape {label} missing time_share"),
            );
            share_sum += share.unwrap_or(0.0);
            if !smoke_doc && simd && outs <= 4.0 {
                let sp = sh.get("speedup").and_then(Json::as_num).unwrap_or(0.0);
                check(
                    sp >= 2.5,
                    &format!(
                        "small shape {label} speedup is {sp:.2}x, need >= 2.5 (transposed layout)"
                    ),
                );
            }
        }
        check(
            (share_sum - 1.0).abs() < 1e-6,
            &format!("time_share must sum to 1.0 (got {share_sum:.6})"),
        );
    }
    let speedup = kt.get("speedup_vs_scalar").and_then(Json::as_num);
    check(speedup.is_some(), "missing speedup_vs_scalar");
    if let Some(s) = speedup {
        check(
            s >= 1.0,
            &format!("dispatched kernel is slower than scalar ({s:.2}x, need >= 1.0)"),
        );
        if !smoke_doc && simd {
            check(
                s >= 3.0,
                &format!("SIMD tier speedup is {s:.2}x on the zoo workload, need >= 3.0"),
            );
        }
    }
    if let Some(e) = kt.get("end_to_end") {
        check(
            e.get("bit_identical").and_then(Json::as_bool) == Some(true),
            "end_to_end logits must be bit-identical across tiers",
        );
    }
    errs
}
