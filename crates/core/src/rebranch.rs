//! The Residual Branch (ReBranch) structure of Fig. 7 — the paper's
//! central contribution.
//!
//! A ReBranch convolution runs two parallel paths over the same input
//! feature map:
//!
//! * the **trunk**: a frozen full-size convolution whose pretrained
//!   weights live in ROM-CiM;
//! * the **branch**: `Res-Compress` (frozen point-wise conv, N -> N/D) →
//!   `Res-Conv` (trainable k x k conv, N/D -> M/U, SRAM-CiM) →
//!   `Res-Decompress` (frozen point-wise conv, M/U -> M).
//!
//! The output is their sum. Only `Res-Conv` is trainable, so the
//! trainable parameter count is `1/(D*U)` of the trunk's — the paper's
//! "only 1/(D*U) weights" annotation. The branch is initialized to zero so
//! a freshly-wrapped ReBranch layer computes exactly the pretrained trunk
//! function, and transfer training learns the *residual* of the trunk.
//!
//! Fig. 8's point-wise equivalence (`decompress ∘ conv ∘ compress` equals
//! one full-size convolution of factorized weights) is implemented in
//! [`ReBranchConv::equivalent_kernel`] and property-tested.

use rand::Rng;

use yoloc_models::rebranch_widths;
use yoloc_tensor::layers::Conv2d;
use yoloc_tensor::{Layer, LayerExt, Param, Tensor};

/// ReBranch hyper-parameters: channel compression/decompression ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReBranchRatios {
    /// Channel compression ratio D (input side).
    pub d: usize,
    /// Channel decompression ratio U (output side).
    pub u: usize,
}

impl ReBranchRatios {
    /// The paper's best configuration, D = U = 4 (16x compression).
    pub fn paper_default() -> Self {
        ReBranchRatios { d: 4, u: 4 }
    }

    /// Overall trainable-parameter compression ratio `D * U`.
    pub fn compression(&self) -> usize {
        self.d * self.u
    }
}

/// A convolution with a frozen ROM trunk and a trainable SRAM residual
/// branch (Fig. 7).
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use yoloc_core::rebranch::{ReBranchConv, ReBranchRatios};
/// use yoloc_tensor::Tensor;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let pretrained = Tensor::randn(&[16, 16, 3, 3], 0.0, 0.2, &mut rng);
/// let rb = ReBranchConv::from_pretrained(
///     "layer3", pretrained, None, 1, 1, ReBranchRatios::paper_default(), &mut rng,
/// );
/// // The trainable set is 1/(D*U) = 1/16 of the trunk.
/// assert_eq!(rb.trunk().weight.len() / rb.sram_param_count(), 16);
/// ```
pub struct ReBranchConv {
    trunk: Conv2d,
    compress: Conv2d,
    res_conv: Conv2d,
    decompress: Conv2d,
    ratios: ReBranchRatios,
}

impl ReBranchConv {
    /// Wraps a pretrained convolution weight as the (frozen) trunk and
    /// builds the residual branch around it.
    ///
    /// `trunk_weight` has shape `(M, N, k, k)`; the branch uses
    /// `N/D` and `M/U` intermediate channels (at least 1 each). `Res-Conv`
    /// is zero-initialized; compress/decompress are random projections,
    /// fixed at fabrication time like the trunk.
    ///
    /// # Panics
    ///
    /// Panics if `trunk_weight` is not rank-4 or ratios are zero.
    pub fn from_pretrained<R: Rng + ?Sized>(
        name: &str,
        trunk_weight: Tensor,
        trunk_bias: Option<Tensor>,
        stride: usize,
        padding: usize,
        ratios: ReBranchRatios,
        rng: &mut R,
    ) -> Self {
        assert_eq!(trunk_weight.ndim(), 4, "trunk weight must be (M, N, k, k)");
        assert!(ratios.d > 0 && ratios.u > 0, "ratios must be positive");
        let (m, n, k) = (
            trunk_weight.shape()[0],
            trunk_weight.shape()[1],
            trunk_weight.shape()[2],
        );
        let (nc, mc) = rebranch_widths(n, m, ratios.d, ratios.u);

        let has_bias = trunk_bias.is_some();
        let mut trunk = Conv2d::new(
            &format!("{name}.trunk"),
            n,
            m,
            k,
            stride,
            padding,
            has_bias,
            rng,
        );
        trunk.weight.value = trunk_weight;
        if let (Some(b), Some(bias)) = (&mut trunk.bias, trunk_bias) {
            b.value = bias;
        }
        trunk.freeze_all();

        let mut compress = Conv2d::pointwise(&format!("{name}.res_compress"), n, nc, rng);
        // Variance-preserving random projection: keeps branch activations
        // and gradients on the trunk's scale regardless of D/U, so one
        // learning rate works for every compression ratio.
        compress.weight.value = Tensor::randn(&[nc, n, 1, 1], 0.0, (1.0 / n as f32).sqrt(), rng);
        compress.freeze_all();
        let mut res_conv = Conv2d::new(
            &format!("{name}.res_conv"),
            nc,
            mc,
            k,
            stride,
            padding,
            false,
            rng,
        );
        // Zero-init: the wrapped layer starts out computing the trunk only.
        res_conv.weight.value = Tensor::zeros(res_conv.weight.value.shape());
        let mut decompress = Conv2d::pointwise(&format!("{name}.res_decompress"), mc, m, rng);
        decompress.weight.value = Tensor::randn(&[m, mc, 1, 1], 0.0, (1.0 / mc as f32).sqrt(), rng);
        decompress.freeze_all();

        ReBranchConv {
            trunk,
            compress,
            res_conv,
            decompress,
            ratios,
        }
    }

    /// The branch ratios.
    pub fn ratios(&self) -> ReBranchRatios {
        self.ratios
    }

    /// Parameters resident in ROM-CiM (trunk + compress + decompress).
    pub fn rom_param_count(&self) -> usize {
        self.trunk.weight.len() + self.compress.weight.len() + self.decompress.weight.len()
    }

    /// Trainable parameters resident in SRAM-CiM (`Res-Conv`).
    pub fn sram_param_count(&self) -> usize {
        self.res_conv.weight.len()
    }

    /// The branch path as one full-size equivalent kernel (Fig. 8):
    /// `W_eq[o, i, kh, kw] = sum_{a,b} W2[o, a] * Wb[a, b, kh, kw] * W1[b, i]`.
    pub fn equivalent_kernel(&self) -> Tensor {
        let w1 = &self.compress.weight.value; // (nc, n, 1, 1)
        let wb = &self.res_conv.weight.value; // (mc, nc, k, k)
        let w2 = &self.decompress.weight.value; // (m, mc, 1, 1)
        let (nc, n) = (w1.shape()[0], w1.shape()[1]);
        let (mc, _, k, _) = (wb.shape()[0], wb.shape()[1], wb.shape()[2], wb.shape()[3]);
        let m = w2.shape()[0];
        let mut eq = Tensor::zeros(&[m, n, k, k]);
        for o in 0..m {
            for a in 0..mc {
                let w2v = w2.at(&[o, a, 0, 0]);
                if w2v == 0.0 {
                    continue;
                }
                for b in 0..nc {
                    for i in 0..n {
                        let w1v = w1.at(&[b, i, 0, 0]);
                        if w1v == 0.0 {
                            continue;
                        }
                        for kh in 0..k {
                            for kw in 0..k {
                                *eq.at_mut(&[o, i, kh, kw]) += w2v * wb.at(&[a, b, kh, kw]) * w1v;
                            }
                        }
                    }
                }
            }
        }
        eq
    }

    /// Immutable access to the trunk convolution.
    pub fn trunk(&self) -> &Conv2d {
        &self.trunk
    }

    /// Branch weights `(compress, res_conv, decompress)` for deployment.
    pub fn branch_weights(&self) -> (&Tensor, &Tensor, &Tensor) {
        (
            &self.compress.weight.value,
            &self.res_conv.weight.value,
            &self.decompress.weight.value,
        )
    }

    /// Mutable access to the trainable residual convolution.
    pub fn res_conv_mut(&mut self) -> &mut Conv2d {
        &mut self.res_conv
    }
}

impl Layer for ReBranchConv {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let trunk_out = self.trunk.forward(x, train);
        let c = self.compress.forward(x, train);
        let r = self.res_conv.forward(&c, train);
        let d = self.decompress.forward(&r, train);
        trunk_out.add(&d)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let d_trunk = self.trunk.backward(grad_out);
        let d_dec = self.decompress.backward(grad_out);
        let d_res = self.res_conv.backward(&d_dec);
        let d_comp = self.compress.backward(&d_res);
        d_trunk.add(&d_comp)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.trunk.params_mut();
        v.extend(self.compress.params_mut());
        v.extend(self.res_conv.params_mut());
        v.extend(self.decompress.params_mut());
        v
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = self.trunk.params();
        v.extend(self.compress.params());
        v.extend(self.res_conv.params());
        v.extend(self.decompress.params());
        v
    }

    fn name(&self) -> String {
        format!(
            "ReBranchConv(D={}, U={}, trunk={})",
            self.ratios.d,
            self.ratios.u,
            self.trunk.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use yoloc_tensor::ops::conv2d_reference;
    use yoloc_tensor::LayerExt;

    #[test]
    fn fresh_wrap_compiles_to_the_trunk_only_logits() {
        // The zero-init property on the deployed datapath: a fresh wrap's
        // res-convs are zero, so its compiled network reproduces the
        // trunk-only model's logits bit for bit while the branch runs.
        use crate::compiler::{CompileOptions, CompiledNetwork};
        use crate::strategies::{build_strategy_model, Strategy};
        use crate::tiny_models::{Family, TinyCnn};
        let mut rng = StdRng::seed_from_u64(5);
        let base = TinyCnn::plain(Family::ResNet, 3, &[6, 8], 4, &mut rng);
        let cal = Tensor::rand_uniform(&[4, 3, 12, 12], 0.0, 1.0, &mut rng);
        let x = Tensor::rand_uniform(&[3, 3, 12, 12], 0.0, 1.0, &mut rng);
        let deploy = |strategy| {
            // Same seed: the same classifier heads both models.
            let model = build_strategy_model(&base, strategy, 4, &mut StdRng::seed_from_u64(6));
            let (desc, weights) = model.to_network((3, 12, 12));
            let opts = CompileOptions::paper_default();
            let net = CompiledNetwork::compile(&desc, &weights, &cal, opts).unwrap();
            net.infer(&x, &mut StdRng::seed_from_u64(7))
        };
        let (trunk_only, _) = deploy(Strategy::AllRom);
        let (wrapped, report) = deploy(Strategy::ReBranch(ReBranchRatios { d: 2, u: 2 }));
        assert_eq!(trunk_only.data(), wrapped.data());
        assert!(report.sram.adc_conversions > 0, "the res-convs ran on SRAM");
    }

    #[test]
    fn zero_branch_equals_trunk() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Tensor::randn(&[8, 8, 3, 3], 0.0, 0.3, &mut rng);
        let mut rb = ReBranchConv::from_pretrained(
            "rb",
            w.clone(),
            None,
            1,
            1,
            ReBranchRatios::paper_default(),
            &mut rng,
        );
        let x = Tensor::randn(&[2, 8, 6, 6], 0.0, 1.0, &mut rng);
        let y = rb.forward(&x, false);
        let expect = conv2d_reference(&x, &w, None, 1, 1);
        for (a, b) in y.data().iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn compression_ratio_of_trainable_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = Tensor::randn(&[16, 16, 3, 3], 0.0, 0.3, &mut rng);
        let rb = ReBranchConv::from_pretrained(
            "rb",
            w,
            None,
            1,
            1,
            ReBranchRatios { d: 4, u: 4 },
            &mut rng,
        );
        // Trainable / trunk = 1 / (D*U).
        let ratio = rb.trunk().weight.len() as f64 / rb.sram_param_count() as f64;
        assert!((ratio - 16.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn only_res_conv_is_trainable_after_deploy() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Tensor::randn(&[8, 8, 3, 3], 0.0, 0.3, &mut rng);
        let rb = ReBranchConv::from_pretrained(
            "rb",
            w,
            None,
            1,
            1,
            ReBranchRatios::paper_default(),
            &mut rng,
        );
        assert_eq!(rb.trainable_param_count(), rb.sram_param_count());
        assert!(rb.sram_param_count() > 0);
    }

    #[test]
    fn branch_equals_equivalent_kernel() {
        // Fig. 8: pointwise ∘ conv ∘ pointwise == conv with the contracted
        // kernel. Check on a ReBranch with a *nonzero* res-conv.
        let mut rng = StdRng::seed_from_u64(4);
        let w = Tensor::zeros(&[6, 8, 3, 3]); // zero trunk isolates the branch
        let mut rb = ReBranchConv::from_pretrained(
            "rb",
            w,
            None,
            1,
            1,
            ReBranchRatios { d: 2, u: 2 },
            &mut rng,
        );
        rb.res_conv.weight.value =
            Tensor::randn(rb.res_conv.weight.value.shape(), 0.0, 0.4, &mut rng);
        let x = Tensor::randn(&[1, 8, 5, 5], 0.0, 1.0, &mut rng);
        let y = rb.forward(&x, false);
        let eq = rb.equivalent_kernel();
        let expect = conv2d_reference(&x, &eq, None, 1, 1);
        for (a, b) in y.data().iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn gradients_flow_only_to_res_conv() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = Tensor::randn(&[4, 4, 3, 3], 0.0, 0.3, &mut rng);
        let mut rb = ReBranchConv::from_pretrained(
            "rb",
            w,
            None,
            1,
            1,
            ReBranchRatios { d: 2, u: 2 },
            &mut rng,
        );
        let x = Tensor::randn(&[1, 4, 5, 5], 0.0, 1.0, &mut rng);
        let y = rb.forward(&x, true);
        rb.backward(&Tensor::ones(y.shape()));
        // All parameters receive gradients, but after an SGD step only the
        // res-conv moves.
        let before: Vec<Tensor> = rb.params().iter().map(|p| p.value.clone()).collect();
        let opt = yoloc_tensor::optim::Sgd::new(0.1);
        opt.step(&mut rb.params_mut());
        let after: Vec<Tensor> = rb.params().iter().map(|p| p.value.clone()).collect();
        let mut moved = 0;
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if b != a {
                moved += 1;
                assert!(
                    rb.params()[i].name.contains("res_conv"),
                    "unexpected update to {}",
                    rb.params()[i].name
                );
            }
        }
        assert_eq!(moved, 1, "exactly the res-conv weight should move");
    }

    #[test]
    fn training_recovers_representable_residual() {
        // The branch can learn a target residual that lies in its own
        // function class: build the target as trunk + the equivalent
        // kernel of a *different* branch with the same D/U, then fit by
        // SGD on res-conv only. Loss must drop by a large factor.
        let mut rng = StdRng::seed_from_u64(6);
        let trunk_w = Tensor::randn(&[4, 4, 3, 3], 0.0, 0.3, &mut rng);
        let mut ghost = ReBranchConv::from_pretrained(
            "ghost",
            Tensor::zeros(&[4, 4, 3, 3]),
            None,
            1,
            1,
            ReBranchRatios { d: 2, u: 2 },
            &mut rng,
        );
        ghost.res_conv.weight.value =
            Tensor::randn(ghost.res_conv.weight.value.shape(), 0.0, 0.25, &mut rng);
        let target_w = trunk_w.add(&ghost.equivalent_kernel());
        let mut rb = ReBranchConv::from_pretrained(
            "rb",
            trunk_w,
            None,
            1,
            1,
            ReBranchRatios { d: 2, u: 2 },
            &mut rng,
        );
        let opt = yoloc_tensor::optim::Sgd::new(0.12).with_momentum(0.9);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for step in 0..300 {
            // 9x9 maps: the equivalent-kernel identity holds only away
            // from the zero-padded border, so tiny maps leave a large
            // irreducible loss floor that masks the convergence signal.
            let x = Tensor::randn(&[4, 4, 9, 9], 0.0, 1.0, &mut rng);
            let target = conv2d_reference(&x, &target_w, None, 1, 1);
            let y = rb.forward(&x, true);
            let (loss, grad) = yoloc_tensor::loss::mse(&y, &target);
            rb.backward(&grad);
            opt.step(&mut rb.params_mut());
            if step == 0 {
                first_loss = Some(loss);
            }
            last_loss = loss;
        }
        let first = first_loss.unwrap();
        assert!(
            last_loss < first * 0.6,
            "residual training should reduce loss: {first} -> {last_loss}"
        );
    }
}
