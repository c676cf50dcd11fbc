//! Full-network deployment onto the CiM functional simulator (Fig. 9's
//! logical flow, end to end).
//!
//! A trained [`TinyCnn`] is *deployed*: every trunk convolution is
//! quantized per-channel to 8 bits and mask-programmed into ROM-CiM
//! subarrays; ReBranch residual convs and the classifier go into SRAM-CiM;
//! activation functions, pooling and the residual merges run digitally
//! through the cache (exactly the split of Fig. 9).
//!
//! # Lowering onto the graph executor
//!
//! Since the graph-compiler refactor, deployment is a **thin lowering**
//! into the same [`ExecPlan`] that executes arbitrary
//! [`yoloc_models::NetworkDesc`] graphs (see [`crate::compiler`]): each
//! block becomes a CiM conv or ReBranch group op plus its digital
//! residual/activation/pooling ops, and the classifier a CiM linear op.
//! The pre-refactor direct walk is kept as [`legacy::LegacyDeployedModel`]
//! — the golden reference the parity tests pin the executor against,
//! bit-for-bit in both logits and [`DeployStats`], serial and batched.
//!
//! # Serial vs batched inference
//!
//! [`CimDeployedModel::infer`] walks the plan once for a whole
//! `(N, C, H, W)` batch on the calling thread.
//! [`CimDeployedModel::infer_batch`] fans the `N` samples across a
//! persistent [`WorkerPool`], giving each sample its own deterministic RNG
//! stream (derived from a base seed and the sample index by
//! [`sample_stream_seed`]), so its output is bit-identical across worker
//! counts — and, on the default noiseless datapath, bit-identical to the
//! serial path (tests pin both).

use rand::Rng;

use crate::compiler::{gap, ExecPlan, ExecutionReport, MemDomain, MemoryParams, OpSource, PlanOp};
pub use crate::engine::sample_stream_seed;
use crate::engine::WorkerPool;
use crate::qconv::{CimConv2d, CimLinear};
use crate::tiny_models::{ConvUnit, TinyCnn};
use yoloc_cim::macro_model::{MacroParams, MvmStats};
use yoloc_models::ActKind;
use yoloc_tensor::layers::MaxPool2d;
use yoloc_tensor::ops::conv2d_reference;
use yoloc_tensor::{Layer, Tensor};

/// Aggregate execution statistics of a deployed inference, split by
/// memory domain.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeployStats {
    /// ROM-CiM macro activity (trunk + branch projections).
    pub rom: MvmStats,
    /// SRAM-CiM macro activity (residual convs + classifier).
    pub sram: MvmStats,
}

impl DeployStats {
    /// Accumulates another execution's statistics into this one (used to
    /// reduce per-sample stats from the batched engine).
    pub fn merge(&mut self, other: &DeployStats) {
        self.rom.merge(&other.rom);
        self.sram.merge(&other.sram);
    }

    /// Total energy across both domains, pJ.
    #[must_use]
    pub fn total_energy_pj(&self) -> f64 {
        self.rom.energy_pj + self.sram.energy_pj
    }
}

impl From<&ExecutionReport> for DeployStats {
    fn from(r: &ExecutionReport) -> Self {
        DeployStats {
            rom: r.rom,
            sram: r.sram,
        }
    }
}

/// Runs the software reference of one block, returning the block output
/// so deployment can calibrate activations.
fn software_block(x: &Tensor, unit: &ConvUnit, pool: bool, skip: bool) -> Tensor {
    let conv_out = match unit {
        ConvUnit::Plain(c) => conv2d_reference(x, &c.weight.value, None, 1, 1),
        ConvUnit::ReBranch(rb) => {
            let trunk = conv2d_reference(x, &rb.trunk().weight.value, None, 1, 1);
            let (w1, wb, w2) = rb.branch_weights();
            let c = conv2d_reference(x, w1, None, 1, 0);
            let r = conv2d_reference(&c, wb, None, 1, 1);
            let d = conv2d_reference(&r, w2, None, 1, 0);
            trunk.add(&d)
        }
        ConvUnit::Spwd(s) => {
            let a = conv2d_reference(x, &s.frozen.weight.value, None, 1, 1);
            let b = conv2d_reference(x, &s.deco.weight.value, None, 1, 1);
            a.add(&b)
        }
    };
    let merged = if skip { conv_out.add(x) } else { conv_out };
    let act = merged.map(|v| v.max(0.0));
    if pool {
        MaxPool2d::new(2, 2).forward(&act, false)
    } else {
        act
    }
}

/// A [`TinyCnn`] compiled onto CiM macros, lowered onto the graph
/// executor's [`ExecPlan`].
pub struct CimDeployedModel {
    plan: ExecPlan,
    classes: usize,
}

impl CimDeployedModel {
    /// Compiles a trained model onto CiM macros, calibrating every
    /// layer's activation quantization on `calibration` images.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use yoloc_cim::MacroParams;
    /// use yoloc_core::pipeline::CimDeployedModel;
    /// use yoloc_core::tiny_models::{Family, TinyCnn};
    /// use yoloc_tensor::Tensor;
    ///
    /// let mut rng = StdRng::seed_from_u64(0);
    /// let model = TinyCnn::plain(Family::Vgg, 3, &[4], 3, &mut rng);
    /// let calibration = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
    /// let deployed = CimDeployedModel::deploy(
    ///     &model,
    ///     &calibration,
    ///     MacroParams::rom_paper(),
    ///     MacroParams::sram_paper(),
    /// );
    /// assert_eq!(deployed.classes(), 3);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is not a `(N, C, H, W)` batch matching the
    /// model input.
    pub fn deploy(
        model: &TinyCnn,
        calibration: &Tensor,
        rom: MacroParams,
        sram: MacroParams,
    ) -> Self {
        Self::deploy_with(model, calibration, rom, sram, MemoryParams::paper_default())
    }

    /// [`CimDeployedModel::deploy`] with an explicit memory hierarchy for
    /// the live traffic accounting of [`CimDeployedModel::infer_report`].
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is not a `(N, C, H, W)` batch matching the
    /// model input.
    pub fn deploy_with(
        model: &TinyCnn,
        calibration: &Tensor,
        rom: MacroParams,
        sram: MacroParams,
        memory: MemoryParams,
    ) -> Self {
        assert_eq!(calibration.ndim(), 4, "calibration must be (N, C, H, W)");
        let cal_n = calibration.shape()[0].max(1);
        let mut plan = ExecPlan::new(memory);
        let mut h = calibration.clone();
        // Per-sample output footprint of the current block (conv keeps
        // the spatial dims: stride 1, pad 1, 3x3).
        let mut spatial = (calibration.shape()[2], calibration.shape()[3]);
        let mut last_op: Option<usize> = None;
        for b in &model.blocks {
            // Where the block input comes from (the residual skip source).
            let block_input = match last_op {
                Some(i) => OpSource::Op(i),
                None => OpSource::Input,
            };
            let out_ch = match &b.unit {
                ConvUnit::Plain(c) => c.weight.value.shape()[0],
                ConvUnit::ReBranch(rb) => rb.trunk().weight.value.shape()[0],
                ConvUnit::Spwd(s) => s.frozen.weight.value.shape()[0],
            };
            let map_elems = out_ch * spatial.0 * spatial.1;
            let op = match &b.unit {
                ConvUnit::Plain(c) => PlanOp::Conv {
                    conv: CimConv2d::compile(&c.weight.value, 1, 1, &[&h], rom),
                    domain: MemDomain::Rom,
                    epilogue: Vec::new(),
                },
                ConvUnit::ReBranch(rb) => {
                    let (w1, wb, w2) = rb.branch_weights();
                    // Calibrate each stage on its actual software input.
                    let c_out = conv2d_reference(&h, w1, None, 1, 0);
                    let r_out = conv2d_reference(&c_out, wb, None, 1, 1);
                    PlanOp::ReBranch {
                        trunk: CimConv2d::compile(&rb.trunk().weight.value, 1, 1, &[&h], rom),
                        compress: CimConv2d::compile(w1, 1, 0, &[&h], rom),
                        res_conv: CimConv2d::compile(wb, 1, 1, &[&c_out], sram),
                        decompress: CimConv2d::compile(w2, 1, 0, &[&r_out], rom),
                        epilogue: Vec::new(),
                    }
                }
                ConvUnit::Spwd(s) => PlanOp::Conv {
                    // Deploy the *effective* conv (trunk + decoration) as
                    // a single ROM matrix.
                    conv: CimConv2d::compile(
                        &s.frozen.weight.value.add(&s.deco.weight.value),
                        1,
                        1,
                        &[&h],
                        rom,
                    ),
                    domain: MemDomain::Rom,
                    epilogue: Vec::new(),
                },
            };
            plan.push(op, map_elems);
            if b.skip {
                plan.push(
                    PlanOp::ResidualAdd {
                        source: block_input,
                        projection: None,
                    },
                    map_elems,
                );
            }
            plan.push(PlanOp::Activation(ActKind::Relu), map_elems);
            let pool = b.pool_enabled();
            if pool {
                spatial = (spatial.0 / 2, spatial.1 / 2);
                plan.push(
                    PlanOp::MaxPool {
                        kernel: 2,
                        stride: 2,
                    },
                    out_ch * spatial.0 * spatial.1,
                );
            }
            last_op = Some(plan.len() - 1);
            h = software_block(&h, &b.unit, pool, b.skip);
        }
        // Classifier onto SRAM-CiM.
        let feats = gap(&h);
        plan.push(PlanOp::GlobalAvgPool, feats.data().len() / cal_n);
        let w = &model.classifier.weight.value;
        let bias = model
            .classifier
            .bias
            .as_ref()
            .map(|b| b.value.data().to_vec());
        let linear = CimLinear::compile(w, bias.as_deref(), &[&feats], sram);
        let classes = linear.outs();
        plan.push(
            PlanOp::Linear {
                linear,
                domain: MemDomain::Sram,
                epilogue: Vec::new(),
            },
            classes,
        );
        CimDeployedModel { plan, classes }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Access to the lowered execution plan (op count, per-domain
    /// subarray totals).
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Runs inference through the analog datapath; returns logits and the
    /// per-domain macro statistics.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use yoloc_cim::MacroParams;
    /// use yoloc_core::pipeline::CimDeployedModel;
    /// use yoloc_core::tiny_models::{Family, TinyCnn};
    /// use yoloc_tensor::Tensor;
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let model = TinyCnn::plain(Family::Vgg, 3, &[4], 2, &mut rng);
    /// let x = Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng);
    /// let deployed = CimDeployedModel::deploy(
    ///     &model,
    ///     &x,
    ///     MacroParams::rom_paper(),
    ///     MacroParams::sram_paper(),
    /// );
    /// let (logits, stats) = deployed.infer(&x, &mut rng);
    /// assert_eq!(logits.shape(), &[1, 2]);
    /// assert!(stats.rom.energy_pj > 0.0);
    /// ```
    pub fn infer<R: Rng + ?Sized>(&self, x: &Tensor, rng: &mut R) -> (Tensor, DeployStats) {
        let (logits, report) = self.plan.execute(x, rng);
        (logits, DeployStats::from(&report))
    }

    /// Like [`CimDeployedModel::infer`], but returns the full live
    /// [`ExecutionReport`] — macro statistics *plus* the measured
    /// memory-hierarchy energy breakdown of this inference.
    pub fn infer_report<R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        rng: &mut R,
    ) -> (Tensor, ExecutionReport) {
        self.plan.execute(x, rng)
    }

    /// Runs inference on a `(N, C, H, W)` batch by fanning the samples
    /// across a persistent [`WorkerPool`], one deterministic RNG stream
    /// per sample (see [`sample_stream_seed`]).
    ///
    /// Guarantees, both pinned by tests:
    ///
    /// * the logits are **bit-identical for any worker count** (sample
    ///   `i`'s stream depends only on `(seed, i)`, and
    ///   [`WorkerPool::run`] returns results in input order);
    /// * on a noiseless datapath (the paper's design point) the logits
    ///   are **bit-identical to the serial [`CimDeployedModel::infer`]**,
    ///   which consumes no randomness there.
    ///
    /// Statistics event counters are exact; the floating-point energy and
    /// latency fields can differ from the serial path only by f64
    /// summation order.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use yoloc_cim::MacroParams;
    /// use yoloc_core::engine::WorkerPool;
    /// use yoloc_core::pipeline::CimDeployedModel;
    /// use yoloc_core::tiny_models::{Family, TinyCnn};
    /// use yoloc_tensor::Tensor;
    ///
    /// let mut rng = StdRng::seed_from_u64(2);
    /// let model = TinyCnn::plain(Family::Vgg, 3, &[4], 2, &mut rng);
    /// let x = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
    /// let deployed = CimDeployedModel::deploy(
    ///     &model,
    ///     &x,
    ///     MacroParams::rom_paper(),
    ///     MacroParams::sram_paper(),
    /// );
    /// let (serial, _) = deployed.infer(&x, &mut rng);
    /// let (batched, _) = WorkerPool::with(2, |pool| deployed.infer_batch(&x, 7, pool));
    /// assert_eq!(serial.data(), batched.data());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank-4.
    pub fn infer_batch<'env>(
        &'env self,
        x: &Tensor,
        seed: u64,
        pool: &WorkerPool<'env>,
    ) -> (Tensor, DeployStats) {
        let (logits, report) = self.plan.execute_batch(x, seed, pool);
        (logits, DeployStats::from(&report))
    }
}

pub mod legacy {
    //! The pre-compiler `TinyCnn` deployment: a hand-written walk over
    //! per-block deployed units. Kept verbatim as the **golden reference**
    //! the graph executor's lowering is pinned against — the parity tests
    //! require bit-identical logits and [`DeployStats`] on the noiseless
    //! datapath, for both serial and batched inference.

    use super::*;

    /// A conv deployed on a macro, with where it physically lives.
    #[allow(clippy::large_enum_variant)] // variants are few and long-lived
    enum DeployedUnit {
        Plain {
            conv: CimConv2d,
        },
        ReBranch {
            trunk: CimConv2d,
            compress: CimConv2d,
            res_conv: CimConv2d,
            decompress: CimConv2d,
        },
    }

    struct DeployedBlock {
        unit: DeployedUnit,
        pool: bool,
        skip: bool,
    }

    /// A [`TinyCnn`] compiled onto CiM macros via the legacy direct walk.
    pub struct LegacyDeployedModel {
        blocks: Vec<DeployedBlock>,
        classifier: CimLinear,
        classes: usize,
    }

    impl LegacyDeployedModel {
        /// Legacy counterpart of [`CimDeployedModel::deploy`].
        ///
        /// # Panics
        ///
        /// Panics if `calibration` is not a `(N, C, H, W)` batch matching
        /// the model input.
        pub fn deploy(
            model: &TinyCnn,
            calibration: &Tensor,
            rom: MacroParams,
            sram: MacroParams,
        ) -> Self {
            assert_eq!(calibration.ndim(), 4, "calibration must be (N, C, H, W)");
            let mut blocks = Vec::new();
            let mut h = calibration.clone();
            for b in &model.blocks {
                let unit = match &b.unit {
                    ConvUnit::Plain(c) => DeployedUnit::Plain {
                        conv: CimConv2d::compile(&c.weight.value, 1, 1, &[&h], rom),
                    },
                    ConvUnit::ReBranch(rb) => {
                        let (w1, wb, w2) = rb.branch_weights();
                        let c_out = conv2d_reference(&h, w1, None, 1, 0);
                        let r_out = conv2d_reference(&c_out, wb, None, 1, 1);
                        DeployedUnit::ReBranch {
                            trunk: CimConv2d::compile(&rb.trunk().weight.value, 1, 1, &[&h], rom),
                            compress: CimConv2d::compile(w1, 1, 0, &[&h], rom),
                            res_conv: CimConv2d::compile(wb, 1, 1, &[&c_out], sram),
                            decompress: CimConv2d::compile(w2, 1, 0, &[&r_out], rom),
                        }
                    }
                    ConvUnit::Spwd(s) => DeployedUnit::Plain {
                        conv: CimConv2d::compile(
                            &s.frozen.weight.value.add(&s.deco.weight.value),
                            1,
                            1,
                            &[&h],
                            rom,
                        ),
                    },
                };
                let pool = b.pool_enabled();
                blocks.push(DeployedBlock {
                    unit,
                    pool,
                    skip: b.skip,
                });
                h = software_block(&h, &b.unit, pool, b.skip);
            }
            let feats = gap(&h);
            let w = &model.classifier.weight.value;
            let bias = model
                .classifier
                .bias
                .as_ref()
                .map(|b| b.value.data().to_vec());
            let classifier = CimLinear::compile(w, bias.as_deref(), &[&feats], sram);
            let classes = classifier.outs();
            LegacyDeployedModel {
                blocks,
                classifier,
                classes,
            }
        }

        /// Legacy counterpart of [`CimDeployedModel::infer`].
        ///
        /// Statistics fold block-locally first (from zero, in stage
        /// order), then merge into the running totals — the same
        /// per-op-then-reduce shape the graph executor's `finalize` uses,
        /// so the two walks stay bit-identical down to f64 summation
        /// order.
        pub fn infer<R: Rng + ?Sized>(&self, x: &Tensor, rng: &mut R) -> (Tensor, DeployStats) {
            let mut stats = DeployStats::default();
            let mut h = x.clone();
            for b in &self.blocks {
                let mut block = DeployStats::default();
                let conv_out = match &b.unit {
                    DeployedUnit::Plain { conv } => {
                        let (y, s) = conv.forward(&h, rng);
                        block.rom.merge(&s);
                        y
                    }
                    DeployedUnit::ReBranch {
                        trunk,
                        compress,
                        res_conv,
                        decompress,
                    } => {
                        let (t, s1) = trunk.forward(&h, rng);
                        let (c, s2) = compress.forward(&h, rng);
                        let (r, s3) = res_conv.forward(&c, rng);
                        let (d, s4) = decompress.forward(&r, rng);
                        block.rom.merge(&s1);
                        block.rom.merge(&s2);
                        block.sram.merge(&s3);
                        block.rom.merge(&s4);
                        t.add(&d)
                    }
                };
                stats.merge(&block);
                let merged = if b.skip { conv_out.add(&h) } else { conv_out };
                let act = merged.map(|v| v.max(0.0));
                h = if b.pool {
                    MaxPool2d::new(2, 2).forward(&act, false)
                } else {
                    act
                };
            }
            let feats = gap(&h);
            let (logits, s) = self.classifier.forward(&feats, rng);
            stats.sram.merge(&s);
            (logits, stats)
        }

        /// Legacy counterpart of [`CimDeployedModel::infer_batch`].
        ///
        /// # Panics
        ///
        /// Panics if `x` is not rank-4.
        pub fn infer_batch<'env>(
            &'env self,
            x: &Tensor,
            seed: u64,
            pool: &WorkerPool<'env>,
        ) -> (Tensor, DeployStats) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            assert_eq!(x.ndim(), 4, "input must be (N, C, H, W)");
            let n = x.shape()[0];
            let sample_shape = [1, x.shape()[1], x.shape()[2], x.shape()[3]];
            let sample_len = x.shape()[1] * x.shape()[2] * x.shape()[3];
            let jobs: Vec<_> = (0..n)
                .map(|i| {
                    let sample = Tensor::from_vec(
                        x.data()[i * sample_len..(i + 1) * sample_len].to_vec(),
                        &sample_shape,
                    )
                    .expect("sample slice matches shape");
                    move || {
                        let mut rng = StdRng::seed_from_u64(sample_stream_seed(seed, i));
                        self.infer(&sample, &mut rng)
                    }
                })
                .collect();
            let results = pool.run(jobs);
            let mut logits = Tensor::zeros(&[n, self.classes]);
            let mut stats = DeployStats::default();
            for (i, (sample_logits, sample_stats)) in results.into_iter().enumerate() {
                logits.data_mut()[i * self.classes..(i + 1) * self.classes]
                    .copy_from_slice(sample_logits.data());
                stats.merge(&sample_stats);
            }
            (logits, stats)
        }
    }
}

/// Compares software vs CiM-deployed accuracy over `n` samples of `task`,
/// returning `(software_acc, cim_acc, stats_of_one_batch)`.
pub fn accuracy_software_vs_cim<R: Rng + ?Sized>(
    model: &mut TinyCnn,
    deployed: &CimDeployedModel,
    task: &yoloc_data::classification::SyntheticTask,
    n: usize,
    rng: &mut R,
) -> (f32, f32, DeployStats) {
    let (x, y) = task.batch(n, rng);
    let sw_logits = model.forward(&x, false);
    let sw_acc = yoloc_tensor::loss::accuracy(&sw_logits, &y);
    let (cim_logits, stats) = deployed.infer(&x, rng);
    let cim_acc = yoloc_tensor::loss::accuracy(&cim_logits, &y);
    (sw_acc, cim_acc, stats)
}

/// Batched counterpart of [`accuracy_software_vs_cim`]: samples `n` images
/// of `task` (deterministically from `seed`), evaluates the software model
/// serially and the deployed model through
/// [`CimDeployedModel::infer_batch`] on `pool`, returning
/// `(software_acc, cim_acc, stats_of_one_batch)`.
pub fn accuracy_software_vs_cim_batch<'env>(
    model: &mut TinyCnn,
    deployed: &'env CimDeployedModel,
    task: &yoloc_data::classification::SyntheticTask,
    n: usize,
    seed: u64,
    pool: &WorkerPool<'env>,
) -> (f32, f32, DeployStats) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let (x, y) = task.batch(n, &mut rng);
    let sw_logits = model.forward(&x, false);
    let sw_acc = yoloc_tensor::loss::accuracy(&sw_logits, &y);
    let (cim_logits, stats) = deployed.infer_batch(&x, seed, pool);
    let cim_acc = yoloc_tensor::loss::accuracy(&cim_logits, &y);
    (sw_acc, cim_acc, stats)
}

#[cfg(test)]
mod tests {
    use super::legacy::LegacyDeployedModel;
    use super::*;
    use crate::strategies::{pretrain_base, TrainConfig};
    use crate::tiny_models::Family;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use yoloc_data::classification::TransferSuite;

    fn small_params() -> (MacroParams, MacroParams) {
        (MacroParams::rom_paper(), MacroParams::sram_paper())
    }

    #[test]
    fn deployed_model_matches_software_logits() {
        let suite = TransferSuite::new(5);
        let mut model = pretrain_base(
            Family::Vgg,
            &[8, 10],
            &suite.pretrain,
            TrainConfig {
                steps: 60,
                batch: 12,
                lr: 0.08,
                momentum: 0.9,
            },
            5,
        );
        let mut rng = StdRng::seed_from_u64(6);
        let (cal, _) = suite.pretrain.batch(8, &mut rng);
        let (rom, sram) = small_params();
        let deployed = CimDeployedModel::deploy(&model, &cal, rom, sram);
        let (x, _) = suite.pretrain.batch(4, &mut rng);
        let sw = model.forward(&x, false);
        let (cim, stats) = deployed.infer(&x, &mut rng);
        // Quantized inference tracks software logits closely.
        let mag = sw.abs_max().max(1e-6);
        for (a, b) in cim.data().iter().zip(sw.data()) {
            assert!((a - b).abs() / mag < 0.12, "cim {a} vs sw {b}");
        }
        assert!(stats.rom.energy_pj > 0.0);
        assert!(stats.sram.energy_pj > 0.0);
    }

    #[test]
    fn deployed_accuracy_close_to_software() {
        let suite = TransferSuite::new(9);
        let mut model = pretrain_base(
            Family::Vgg,
            &[8, 10],
            &suite.pretrain,
            TrainConfig {
                steps: 120,
                batch: 16,
                lr: 0.08,
                momentum: 0.9,
            },
            9,
        );
        let mut rng = StdRng::seed_from_u64(10);
        let (cal, _) = suite.pretrain.batch(8, &mut rng);
        let (rom, sram) = small_params();
        let deployed = CimDeployedModel::deploy(&model, &cal, rom, sram);
        let (sw, cim, _) =
            accuracy_software_vs_cim(&mut model, &deployed, &suite.pretrain, 80, &mut rng);
        // Paper: -0.5% ~ +0.2% mAP change; at smoke scale allow a few
        // percentage points either way.
        assert!((sw - cim).abs() < 0.08, "software {sw} vs CiM {cim}");
    }

    /// An untrained model deployed on a small input — enough to exercise
    /// the full datapath without paying for training.
    fn quick_deployment(
        rom: MacroParams,
        sram: MacroParams,
        batch: usize,
    ) -> (CimDeployedModel, Tensor) {
        let (model, x) = quick_model(batch);
        let deployed = CimDeployedModel::deploy(&model, &x, rom, sram);
        (deployed, x)
    }

    fn quick_model(batch: usize) -> (TinyCnn, Tensor) {
        let mut rng = StdRng::seed_from_u64(20);
        let model = TinyCnn::plain(Family::Vgg, 3, &[6, 8], 4, &mut rng);
        let x = Tensor::rand_uniform(&[batch, 3, 12, 12], 0.0, 1.0, &mut rng);
        (model, x)
    }

    #[test]
    fn executor_lowering_bit_identical_to_legacy_serial() {
        // THE parity pin of the graph-compiler refactor: the TinyCnn
        // lowering onto the ExecPlan must reproduce the legacy direct
        // walk bit-for-bit — logits AND stats — on the noiseless
        // datapath.
        let (rom, sram) = small_params();
        let (model, x) = quick_model(5);
        let new = CimDeployedModel::deploy(&model, &x, rom, sram);
        let old = LegacyDeployedModel::deploy(&model, &x, rom, sram);
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let (logits_new, stats_new) = new.infer(&x, &mut rng_a);
        let (logits_old, stats_old) = old.infer(&x, &mut rng_b);
        assert_eq!(
            logits_new.data(),
            logits_old.data(),
            "logits must match bit-for-bit"
        );
        assert_eq!(stats_new, stats_old, "MvmStats must match bit-for-bit");
    }

    #[test]
    fn executor_lowering_bit_identical_to_legacy_with_rebranch() {
        // Same pin through the ReBranch group op: wrap the model's convs
        // into ReBranch units and deploy both ways.
        use crate::rebranch::ReBranchRatios;
        use crate::strategies::{build_strategy_model, Strategy};
        let suite = TransferSuite::new(40);
        let model = pretrain_base(
            Family::Vgg,
            &[6, 8],
            &suite.pretrain,
            TrainConfig::smoke(),
            40,
        );
        let mut rng = StdRng::seed_from_u64(41);
        let rb = build_strategy_model(
            &model,
            Strategy::ReBranch(ReBranchRatios { d: 2, u: 2 }),
            4,
            &mut rng,
        );
        let (cal, _) = suite.pretrain.batch(6, &mut rng);
        let (rom, sram) = small_params();
        let new = CimDeployedModel::deploy(&rb, &cal, rom, sram);
        let old = LegacyDeployedModel::deploy(&rb, &cal, rom, sram);
        let (x, _) = suite.pretrain.batch(3, &mut rng);
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let (ln, sn) = new.infer(&x, &mut rng_a);
        let (lo, so) = old.infer(&x, &mut rng_b);
        assert_eq!(ln.data(), lo.data());
        assert_eq!(sn, so);
        assert!(sn.sram.energy_pj > 0.0, "res-conv must land in SRAM");
    }

    #[test]
    fn executor_lowering_bit_identical_to_legacy_batched() {
        // Parity holds through the batched engine too, for any worker
        // count (exact logits and event counters; f64 energy within
        // summation-order tolerance by construction — both reduce in
        // sample order, so they are equal here as well).
        let (rom, sram) = small_params();
        let (model, x) = quick_model(6);
        let new = CimDeployedModel::deploy(&model, &x, rom, sram);
        let old = LegacyDeployedModel::deploy(&model, &x, rom, sram);
        for workers in [1, 3] {
            let (ln, sn) = WorkerPool::with(workers, |pool| new.infer_batch(&x, 99, pool));
            let (lo, so) = WorkerPool::with(workers, |pool| old.infer_batch(&x, 99, pool));
            assert_eq!(ln.data(), lo.data(), "workers = {workers}");
            assert_eq!(sn, so, "workers = {workers}");
        }
    }

    #[test]
    fn batched_inference_bit_identical_to_serial() {
        // The paper's noiseless design point: the serial path consumes no
        // randomness, so batched and serial must agree bit-for-bit, for
        // any worker count.
        let (rom, sram) = small_params();
        let (deployed, x) = quick_deployment(rom, sram, 6);
        let mut rng = StdRng::seed_from_u64(21);
        let (serial, serial_stats) = deployed.infer(&x, &mut rng);
        for workers in [1, 2, 4] {
            let (batched, stats) =
                crate::engine::WorkerPool::with(workers, |pool| deployed.infer_batch(&x, 99, pool));
            assert_eq!(
                serial.data(),
                batched.data(),
                "workers = {workers}: batched logits must be bit-identical to serial"
            );
            // Event counters are exact; energy/latency may differ only by
            // f64 summation order.
            assert_eq!(
                serial_stats.rom.analog_evaluations,
                stats.rom.analog_evaluations
            );
            assert_eq!(serial_stats.rom.adc_conversions, stats.rom.adc_conversions);
            assert_eq!(serial_stats.rom.wl_pulses, stats.rom.wl_pulses);
            assert_eq!(
                serial_stats.sram.adc_conversions,
                stats.sram.adc_conversions
            );
            let rel = (serial_stats.total_energy_pj() - stats.total_energy_pj()).abs()
                / serial_stats.total_energy_pj();
            assert!(rel < 1e-9, "energy drifted: {rel}");
        }
    }

    #[test]
    fn noisy_batched_inference_identical_across_worker_counts() {
        // With bit-line noise the RNG matters; per-sample streams make the
        // batched result a pure function of (seed, sample), so worker
        // count must not change a single bit.
        let mut rom = MacroParams::rom_paper();
        rom.noise_sigma = 0.3;
        let (deployed, x) = quick_deployment(rom, MacroParams::sram_paper(), 5);
        let (w1, _) = crate::engine::WorkerPool::with(1, |pool| deployed.infer_batch(&x, 7, pool));
        for workers in [2, 4] {
            let (wn, _) =
                crate::engine::WorkerPool::with(workers, |pool| deployed.infer_batch(&x, 7, pool));
            assert_eq!(w1.data(), wn.data(), "workers = {workers}");
        }
        // A different seed draws different noise.
        let (other, _) =
            crate::engine::WorkerPool::with(2, |pool| deployed.infer_batch(&x, 8, pool));
        assert_ne!(w1.data(), other.data());
    }

    #[test]
    fn live_report_prices_the_memory_hierarchy() {
        // The unification point of the refactor: a TinyCnn inference now
        // yields a live EnergyBreakdown, not just macro counters.
        let (rom, sram) = small_params();
        let (deployed, x) = quick_deployment(rom, sram, 2);
        let mut rng = StdRng::seed_from_u64(23);
        let (_, report) = deployed.infer_report(&x, &mut rng);
        assert!(report.energy.cim_uj > 0.0);
        assert!(report.energy.buffer_uj > 0.0);
        assert!(report.energy.noc_uj > 0.0);
        assert!(report.energy.dram_uj > 0.0);
        assert!(report.energy.peripheral_uj > 0.0);
        assert!(report.buffer_traffic_bits > report.dram_traffic_bits);
        assert!(report.latency_ns > 0.0);
        // Consistency with the DeployStats view, through the one shared
        // summation site.
        assert!((report.energy.cim_uj - report.cim_energy_pj() / 1e6).abs() < 1e-12);
    }

    #[test]
    fn batched_accuracy_matches_serial_evaluation() {
        let suite = TransferSuite::new(31);
        let mut model = pretrain_base(
            Family::Vgg,
            &[8, 10],
            &suite.pretrain,
            TrainConfig::smoke(),
            31,
        );
        let mut rng = StdRng::seed_from_u64(32);
        let (cal, _) = suite.pretrain.batch(8, &mut rng);
        let (rom, sram) = small_params();
        let deployed = CimDeployedModel::deploy(&model, &cal, rom, sram);
        let model_ref = &mut model;
        let (sw, cim, stats) = crate::engine::WorkerPool::with(2, |pool| {
            accuracy_software_vs_cim_batch(model_ref, &deployed, &suite.pretrain, 24, 33, pool)
        });
        assert!((sw - cim).abs() < 0.25, "software {sw} vs CiM {cim}");
        assert!(stats.rom.energy_pj > 0.0);
        assert!(stats.sram.energy_pj > 0.0);
    }
}
