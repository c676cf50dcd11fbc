//! Reduced-width trainable CNNs for the accuracy experiments.
//!
//! The paper's accuracy results (Fig. 6b, 10, 11) come from training VGG-8
//! and ResNet-18 in PyTorch on real datasets. Full-width training is not
//! feasible in a CPU-only reproduction, so these models keep the paper's
//! *architecture shape* (conv stages, residual blocks, GAP classifier) at
//! reduced width and train on the synthetic transfer suite in seconds.
//! What the experiments measure — the relative behaviour of the transfer
//! options — is width-independent.

use rand::Rng;

use crate::compiler::NetworkWeights;
use crate::rebranch::ReBranchConv;
use yoloc_models::{ActKind, LayerSpec, NetworkDesc, Shape};
use yoloc_tensor::layers::{Conv2d, GlobalAvgPool, Linear, MaxPool2d, Relu};
use yoloc_tensor::{Layer, LayerExt, Param, Tensor};

/// SRAM-assisted parallel weight decoration (Fig. 6c, Option III): a
/// frozen full-precision trunk plus a *low-bit* trainable decoration conv
/// of the same shape. Decoration weights are constrained to a symmetric
/// `bits`-level grid by projected SGD ([`SpwdConv::project`]).
pub struct SpwdConv {
    /// Frozen full-precision trunk (ROM).
    pub frozen: Conv2d,
    /// Trainable low-bit decoration (SRAM).
    pub deco: Conv2d,
    /// Decoration precision in bits (the paper's working point is 2).
    pub deco_bits: u8,
    deco_scale: f32,
}

impl SpwdConv {
    /// Builds from a pretrained trunk weight; the decoration starts at
    /// zero and its quantization grid scale derives from the trunk's
    /// weight magnitude.
    pub fn from_pretrained<R: Rng + ?Sized>(
        name: &str,
        trunk_weight: Tensor,
        stride: usize,
        padding: usize,
        deco_bits: u8,
        rng: &mut R,
    ) -> Self {
        let (m, n, k) = (
            trunk_weight.shape()[0],
            trunk_weight.shape()[1],
            trunk_weight.shape()[2],
        );
        let scale = trunk_weight.abs_max().max(1e-6) * 0.5;
        let mut frozen = Conv2d::new(
            &format!("{name}.trunk"),
            n,
            m,
            k,
            stride,
            padding,
            false,
            rng,
        );
        frozen.weight.value = trunk_weight;
        frozen.freeze_all();
        let mut deco = Conv2d::new(
            &format!("{name}.deco"),
            n,
            m,
            k,
            stride,
            padding,
            false,
            rng,
        );
        deco.weight.value = Tensor::zeros(deco.weight.value.shape());
        SpwdConv {
            frozen,
            deco,
            deco_bits,
            deco_scale: scale,
        }
    }

    /// Projects decoration weights onto the `bits`-level symmetric grid
    /// (call after each optimizer step: projected gradient descent).
    pub fn project(&mut self) {
        let qmax = ((1i32 << (self.deco_bits - 1)) - 1).max(1) as f32;
        let lsb = self.deco_scale / qmax;
        self.deco
            .weight
            .value
            .map_inplace(|w| (w / lsb).round().clamp(-qmax, qmax) * lsb);
    }

    /// Trainable decoration parameter count.
    pub fn deco_param_count(&self) -> usize {
        self.deco.weight.len()
    }

    /// Frozen trunk parameter count.
    pub fn trunk_param_count(&self) -> usize {
        self.frozen.weight.len()
    }
}

impl Layer for SpwdConv {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let a = self.frozen.forward(x, train);
        let b = self.deco.forward(x, train);
        a.add(&b)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let da = self.frozen.backward(grad_out);
        let db = self.deco.backward(grad_out);
        da.add(&db)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.frozen.params_mut();
        v.extend(self.deco.params_mut());
        v
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = self.frozen.params();
        v.extend(self.deco.params());
        v
    }

    fn name(&self) -> String {
        format!("SpwdConv({}b deco)", self.deco_bits)
    }
}

/// The convolution implementation of one feature block.
#[allow(clippy::large_enum_variant)] // variants are few and long-lived
pub enum ConvUnit {
    /// A plain convolution (all-SRAM / all-ROM / ATL options).
    Plain(Conv2d),
    /// Trunk + residual branch (the proposed Option IV).
    ReBranch(ReBranchConv),
    /// Trunk + low-bit parallel decoration (Option III).
    Spwd(SpwdConv),
}

impl Layer for ConvUnit {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        match self {
            ConvUnit::Plain(c) => c.forward(x, train),
            ConvUnit::ReBranch(c) => c.forward(x, train),
            ConvUnit::Spwd(c) => c.forward(x, train),
        }
    }

    fn backward(&mut self, g: &Tensor) -> Tensor {
        match self {
            ConvUnit::Plain(c) => c.backward(g),
            ConvUnit::ReBranch(c) => c.backward(g),
            ConvUnit::Spwd(c) => c.backward(g),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            ConvUnit::Plain(c) => c.params_mut(),
            ConvUnit::ReBranch(c) => c.params_mut(),
            ConvUnit::Spwd(c) => c.params_mut(),
        }
    }

    fn params(&self) -> Vec<&Param> {
        match self {
            ConvUnit::Plain(c) => c.params(),
            ConvUnit::ReBranch(c) => c.params(),
            ConvUnit::Spwd(c) => c.params(),
        }
    }

    fn name(&self) -> String {
        match self {
            ConvUnit::Plain(c) => c.name(),
            ConvUnit::ReBranch(c) => c.name(),
            ConvUnit::Spwd(c) => c.name(),
        }
    }
}

/// One feature block: conv unit -> ReLU -> optional 2x2 max pool.
pub struct ConvBlock {
    /// The convolution implementation.
    pub unit: ConvUnit,
    act: Relu,
    pool: Option<MaxPool2d>,
    /// Residual skip over this block (tiny-ResNet style). Only valid when
    /// the unit preserves the feature-map shape.
    pub skip: bool,
    cached_in: Option<Tensor>,
}

impl ConvBlock {
    /// Builds a block from parts (used by the strategy constructors).
    pub fn bare(unit: ConvUnit, pool: bool, skip: bool) -> Self {
        Self::new(unit, pool, skip)
    }

    /// Whether a 2x2 max pool follows the activation.
    pub fn pool_enabled(&self) -> bool {
        self.pool.is_some()
    }

    fn new(unit: ConvUnit, pool: bool, skip: bool) -> Self {
        ConvBlock {
            unit,
            act: Relu::new(),
            pool: pool.then(|| MaxPool2d::new(2, 2)),
            skip,
            cached_in: None,
        }
    }
}

impl Layer for ConvBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.cached_in = Some(x.clone());
        let mut h = self.unit.forward(x, train);
        if self.skip {
            h = h.add(x);
        }
        h = self.act.forward(&h, train);
        match &mut self.pool {
            Some(p) => p.forward(&h, train),
            None => h,
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = match &mut self.pool {
            Some(p) => p.backward(grad_out),
            None => grad_out.clone(),
        };
        let g = self.act.backward(&g);
        let g_unit = self.unit.backward(&g);
        if self.skip {
            g_unit.add(&g)
        } else {
            g_unit
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.unit.params_mut()
    }

    fn params(&self) -> Vec<&Param> {
        self.unit.params()
    }

    fn name(&self) -> String {
        format!(
            "Block[{}{}]",
            self.unit.name(),
            if self.skip { "+skip" } else { "" }
        )
    }
}

/// Architecture family of a tiny model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// VGG-style plain stack.
    Vgg,
    /// ResNet-style stack with identity skips on shape-preserving blocks.
    ResNet,
}

/// A small trainable CNN: feature blocks -> GAP -> linear classifier.
pub struct TinyCnn {
    /// Feature blocks.
    pub blocks: Vec<ConvBlock>,
    gap: GlobalAvgPool,
    /// The task head (always SRAM-resident; retrained per task).
    pub classifier: Linear,
    family: Family,
}

/// Block plan entry: (in_ch, out_ch, pool_after, skip).
type BlockPlan = (usize, usize, bool, bool);

fn plan(family: Family, channels: &[usize], in_ch: usize) -> Vec<BlockPlan> {
    let mut blocks = Vec::new();
    let mut prev = in_ch;
    for (i, &c) in channels.iter().enumerate() {
        let pool = i + 1 < channels.len(); // pool between stages
        match family {
            Family::Vgg => blocks.push((prev, c, pool, false)),
            Family::ResNet => {
                // A channel-changing conv followed by a skip-wrapped conv.
                blocks.push((prev, c, false, false));
                blocks.push((c, c, pool, true));
            }
        }
        prev = c;
    }
    blocks
}

impl TinyCnn {
    /// Assembles a model from pre-built blocks and a classifier.
    pub fn from_parts(blocks: Vec<ConvBlock>, classifier: Linear, family: Family) -> Self {
        TinyCnn {
            blocks,
            gap: GlobalAvgPool::new(),
            classifier,
            family,
        }
    }

    /// Builds a plain (all-trainable) model.
    pub fn plain<R: Rng + ?Sized>(
        family: Family,
        in_ch: usize,
        channels: &[usize],
        classes: usize,
        rng: &mut R,
    ) -> Self {
        let blocks = plan(family, channels, in_ch)
            .into_iter()
            .enumerate()
            .map(|(i, (ci, co, pool, skip))| {
                let mut conv = Conv2d::new(&format!("conv{i}"), ci, co, 3, 1, 1, false, rng);
                if skip {
                    // Without batch-norm, identity-skip stacks need damped
                    // residual init to keep activation variance bounded
                    // (fixup-style): y = x + small * f(x).
                    conv.weight.value = conv.weight.value.scale(0.3);
                }
                ConvBlock::new(ConvUnit::Plain(conv), pool, skip)
            })
            .collect();
        TinyCnn {
            blocks,
            gap: GlobalAvgPool::new(),
            classifier: Linear::new(
                "fc",
                *channels.last().expect("channels"),
                classes,
                true,
                rng,
            ),
            family,
        }
    }

    /// The architecture family.
    pub fn family(&self) -> Family {
        self.family
    }

    /// Exports the conv trunk weights (for strategy construction).
    pub fn trunk_weights(&self) -> Vec<Tensor> {
        self.blocks
            .iter()
            .map(|b| match &b.unit {
                ConvUnit::Plain(c) => c.weight.value.clone(),
                ConvUnit::ReBranch(c) => c.trunk().weight.value.clone(),
                ConvUnit::Spwd(c) => c.frozen.weight.value.clone(),
            })
            .collect()
    }

    /// Block plan metadata `(pool_after, skip)` for reconstruction.
    pub fn block_meta(&self) -> Vec<(bool, bool)> {
        self.blocks
            .iter()
            .map(|b| (b.pool.is_some(), b.skip))
            .collect()
    }

    /// Computes the pooled feature vector `(N, C_last)` without the
    /// classifier (used by the ROSL prototype classifier).
    pub fn features(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut h = x.clone();
        for b in &mut self.blocks {
            h = b.forward(&h, train);
        }
        self.gap.forward(&h, train)
    }

    /// Exports the model as an IR description of `input`-shaped
    /// (`(C, H, W)`) images plus its weights — what
    /// [`crate::compiler::CompiledNetwork::compile`] deploys. Each block
    /// becomes its conv (a Spwd unit one conv of its frozen + decoration
    /// weights, a ReBranch unit a [`LayerSpec::ReBranch`]), an identity
    /// `ResidualAdd` over the block when it skips, a ReLU and the 2x2 max
    /// pool if it pools; global average pooling and the linear classifier
    /// follow.
    pub fn to_network(&self, input: Shape) -> (NetworkDesc, NetworkWeights) {
        let mut desc = NetworkDesc::new(self.name(), input);
        let mut weights = NetworkWeights {
            weights: Vec::new(),
            branches: Vec::new(),
            projections: Vec::new(),
            biases: Vec::new(),
        };
        let mut push = |layer, weight, branch, bias| {
            desc.layers.push(layer);
            weights.weights.push(weight);
            weights.branches.push(branch);
            weights.projections.push(None);
            weights.biases.push(bias);
        };
        for (i, b) in self.blocks.iter().enumerate() {
            let name = format!("conv{i}");
            let conv = |c: &Conv2d| {
                let g = c.geometry();
                LayerSpec::Conv {
                    name: name.clone(),
                    in_ch: g.in_channels,
                    out_ch: c.out_channels(),
                    kernel: g.kernel,
                    stride: g.stride,
                    padding: g.padding,
                    bias: false,
                }
            };
            let (layer, weight, branch) = match &b.unit {
                ConvUnit::Plain(c) => (conv(c), c.weight.value.clone(), None),
                ConvUnit::Spwd(s) => (
                    conv(&s.frozen),
                    s.frozen.weight.value.add(&s.deco.weight.value),
                    None,
                ),
                ConvUnit::ReBranch(rb) => {
                    let (trunk, ratios) = (rb.trunk(), rb.ratios());
                    let g = trunk.geometry();
                    let (w1, wb, w2) = rb.branch_weights();
                    let layer = LayerSpec::ReBranch {
                        name: name.clone(),
                        in_ch: g.in_channels,
                        out_ch: trunk.out_channels(),
                        kernel: g.kernel,
                        stride: g.stride,
                        padding: g.padding,
                        d: ratios.d,
                        u: ratios.u,
                    };
                    let branch = [w1.clone(), wb.clone(), w2.clone()];
                    (layer, trunk.weight.value.clone(), Some(branch))
                }
            };
            push(layer, Some(weight), branch, None);
            if b.skip {
                // Back past the conv to the block input.
                let skip = LayerSpec::ResidualAdd {
                    blocks_back: 2,
                    projection: None,
                };
                push(skip, None, None, None);
            }
            push(LayerSpec::Activation(ActKind::Relu), None, None, None);
            if b.pool_enabled() {
                let pool = LayerSpec::MaxPool {
                    kernel: 2,
                    stride: 2,
                };
                push(pool, None, None, None);
            }
        }
        push(LayerSpec::GlobalAvgPool, None, None, None);
        let fc = &self.classifier;
        let bias = fc.bias.as_ref().map(|b| b.value.data().to_vec());
        let head = LayerSpec::Linear {
            name: "fc".to_string(),
            in_features: fc.in_features(),
            out_features: fc.out_features(),
            bias: bias.is_some(),
        };
        push(head, Some(fc.weight.value.clone()), None, bias);
        (desc, weights)
    }

    /// Parameter bits resident in ROM vs SRAM, where `deco_bits` applies
    /// to SPWD decoration weights and 8-bit precision to everything else.
    /// The classifier is always SRAM.
    pub fn memory_bits(&self) -> (u64, u64) {
        let mut rom = 0u64;
        let mut sram = 0u64;
        for b in &self.blocks {
            match &b.unit {
                ConvUnit::Plain(c) => {
                    for p in c.params() {
                        if p.frozen {
                            rom += p.len() as u64 * 8;
                        } else {
                            sram += p.len() as u64 * 8;
                        }
                    }
                }
                ConvUnit::ReBranch(c) => {
                    rom += c.rom_param_count() as u64 * 8;
                    sram += c.sram_param_count() as u64 * 8;
                }
                ConvUnit::Spwd(c) => {
                    rom += c.trunk_param_count() as u64 * 8;
                    sram += c.deco_param_count() as u64 * c.deco_bits as u64;
                }
            }
        }
        for p in self.classifier.params() {
            sram += p.len() as u64 * 8;
        }
        (rom, sram)
    }
}

impl Layer for TinyCnn {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let f = self.features(x, train);
        self.classifier.forward(&f, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.classifier.backward(grad_out);
        let mut g = self.gap.backward(&g);
        for b in self.blocks.iter_mut().rev() {
            g = b.backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v: Vec<&mut Param> = self
            .blocks
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect();
        v.extend(self.classifier.params_mut());
        v
    }

    fn params(&self) -> Vec<&Param> {
        let mut v: Vec<&Param> = self.blocks.iter().flat_map(|b| b.params()).collect();
        v.extend(self.classifier.params());
        v
    }

    fn name(&self) -> String {
        format!("TinyCnn({:?}, {} blocks)", self.family, self.blocks.len())
    }
}

/// Reference channel widths used across the experiments.
pub fn default_channels() -> Vec<usize> {
    vec![16, 24, 32]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use yoloc_data::classification::{IMG_C, IMG_H, IMG_W};
    use yoloc_tensor::LayerExt;

    #[test]
    fn vgg_forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = TinyCnn::plain(Family::Vgg, IMG_C, &default_channels(), 10, &mut rng);
        let x = Tensor::zeros(&[2, IMG_C, IMG_H, IMG_W]);
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn resnet_has_skip_blocks() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = TinyCnn::plain(Family::ResNet, IMG_C, &[8, 12], 4, &mut rng);
        assert_eq!(m.blocks.len(), 4);
        assert!(m.blocks.iter().any(|b| b.skip));
        let x = Tensor::zeros(&[1, IMG_C, IMG_H, IMG_W]);
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), &[1, 4]);
    }

    #[test]
    fn backward_runs_and_accumulates() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = TinyCnn::plain(Family::Vgg, IMG_C, &[6, 8], 3, &mut rng);
        let x = Tensor::randn(&[2, IMG_C, IMG_H, IMG_W], 0.0, 1.0, &mut rng);
        let y = m.forward(&x, true);
        let (_, grad) = yoloc_tensor::loss::cross_entropy(&y, &[0, 1]);
        m.backward(&grad);
        assert!(m.params().iter().any(|p| p.grad.abs_max() > 0.0));
    }

    #[test]
    fn exported_reference_is_the_model() {
        // The export's float reference computes the model's own function
        // for every unit kind and family, skips and pools included.
        use crate::compiler::software_forward;
        use crate::rebranch::ReBranchRatios;
        use crate::strategies::{build_strategy_model, Strategy};
        let mut rng = StdRng::seed_from_u64(6);
        for family in [Family::Vgg, Family::ResNet] {
            let base = TinyCnn::plain(family, IMG_C, &[6, 8], 3, &mut rng);
            for strategy in [
                Strategy::AllRom,
                Strategy::Spwd { bits: 2 },
                Strategy::ReBranch(ReBranchRatios { d: 2, u: 2 }),
            ] {
                let mut model = build_strategy_model(&base, strategy, 3, &mut rng);
                // Nonzero decorations and res-convs.
                for b in &mut model.blocks {
                    let trainable = match &mut b.unit {
                        ConvUnit::Spwd(s) => &mut s.deco.weight.value,
                        ConvUnit::ReBranch(rb) => &mut rb.res_conv_mut().weight.value,
                        ConvUnit::Plain(_) => continue,
                    };
                    *trainable = Tensor::randn(trainable.shape(), 0.0, 0.1, &mut rng);
                }
                let x = Tensor::rand_uniform(&[2, IMG_C, IMG_H, IMG_W], 0.0, 1.0, &mut rng);
                let (desc, weights) = model.to_network((IMG_C, IMG_H, IMG_W));
                let reference = software_forward(&desc, &weights, &x).unwrap();
                let y = model.forward(&x, false);
                let mag = y.abs_max().max(1e-6);
                for (a, b) in reference.data().iter().zip(y.data()) {
                    assert!(
                        (a - b).abs() / mag < 1e-4,
                        "{family:?} {strategy:?}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_export_keeps_the_trained_accuracy() {
        // A trained VGG through its export: the quantized logits track
        // the float model, both CiM domains work, and accuracy holds
        // (paper: -0.5% ~ +0.2%; a few points either way at this scale).
        use crate::compiler::{CompileOptions, CompiledNetwork};
        use crate::strategies::{pretrain_base, TrainConfig};
        use yoloc_data::classification::TransferSuite;
        use yoloc_tensor::loss::accuracy;
        let suite = TransferSuite::new(9);
        let config = TrainConfig {
            steps: 120,
            batch: 16,
            lr: 0.08,
            momentum: 0.9,
        };
        let mut model = pretrain_base(Family::Vgg, &[8, 10], &suite.pretrain, config, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let (cal, _) = suite.pretrain.batch(8, &mut rng);
        let (desc, weights) = model.to_network((IMG_C, IMG_H, IMG_W));
        let net = CompiledNetwork::compile(&desc, &weights, &cal, CompileOptions::paper_default())
            .unwrap();
        let (x, labels) = suite.pretrain.batch(80, &mut rng);
        let sw = model.forward(&x, false);
        let (cim, report) = net.infer(&x, &mut rng);
        let mag = sw.abs_max().max(1e-6);
        for (a, b) in cim.data().iter().zip(sw.data()) {
            assert!((a - b).abs() / mag < 0.12, "cim {a} vs sw {b}");
        }
        assert!(report.rom.energy_pj > 0.0);
        assert!(report.sram.energy_pj > 0.0);
        let (sw_acc, cim_acc) = (accuracy(&sw, &labels), accuracy(&cim, &labels));
        assert!(
            (sw_acc - cim_acc).abs() < 0.08,
            "software {sw_acc} vs CiM {cim_acc}"
        );
    }

    #[test]
    fn spwd_projection_snaps_to_grid() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = Tensor::randn(&[4, 4, 3, 3], 0.0, 0.3, &mut rng);
        let mut s = SpwdConv::from_pretrained("s", w, 1, 1, 2, &mut rng);
        s.deco.weight.value = Tensor::randn(&[4, 4, 3, 3], 0.0, 0.2, &mut rng);
        s.project();
        // 2-bit symmetric: values in {-scale, 0, +scale}.
        let lsb = s.deco_scale;
        for &v in s.deco.weight.value.data() {
            let q = v / lsb;
            assert!((q - q.round()).abs() < 1e-5 && q.abs() <= 1.0 + 1e-5, "{v}");
        }
    }

    #[test]
    fn memory_bits_split_rom_sram() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = TinyCnn::plain(Family::Vgg, IMG_C, &[6, 8], 3, &mut rng);
        // All trainable: everything in SRAM.
        let (rom, sram) = m.memory_bits();
        assert_eq!(rom, 0);
        assert!(sram > 0);
        // Freeze convs: they move to ROM.
        for b in &mut m.blocks {
            b.unit.freeze_all();
        }
        let (rom2, sram2) = m.memory_bits();
        assert!(rom2 > 0);
        assert!(sram2 < sram);
    }
}
