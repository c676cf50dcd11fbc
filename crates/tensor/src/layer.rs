//! The [`Layer`] trait and trainable [`Param`] storage.
//!
//! Parameter freezing (`Param::frozen`) is the central mechanism of this
//! reproduction: weights destined for ROM-CiM are frozen after pretraining,
//! while SRAM-CiM weights stay trainable — exactly the split the paper's
//! transfer-learning options manipulate.

use crate::tensor::Tensor;

/// A named, trainable tensor with its gradient and optimizer state.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter values.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// Momentum buffer used by SGD (same shape as `value`).
    pub velocity: Tensor,
    /// Frozen parameters receive gradients but are never updated; in the
    /// hardware mapping they live in ROM-CiM.
    pub frozen: bool,
    /// Human-readable identifier, e.g. `"conv1.weight"`.
    pub name: String,
}

impl Param {
    /// Wraps `value` as a trainable parameter named `name`.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        let velocity = Tensor::zeros(value.shape());
        Param {
            value,
            grad,
            velocity,
            frozen: false,
            name: name.into(),
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros(self.value.shape());
    }

    /// Marks the parameter as frozen (ROM-resident).
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Marks the parameter as trainable (SRAM-resident).
    pub fn unfreeze(&mut self) {
        self.frozen = false;
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter holds no weights.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable network building block with explicit backward pass.
///
/// `forward` caches whatever the subsequent `backward` needs; calling
/// `backward` without a preceding `forward` on the same input is a logic
/// error and panics.
pub trait Layer {
    /// Computes the layer output. `train` selects training-time behaviour
    /// in layers that have one.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. the layer output) backwards,
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer input.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable access to all parameters of this layer (possibly nested).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Immutable access to all parameters of this layer (possibly nested).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// A short human-readable layer description.
    fn name(&self) -> String;
}

/// Extension helpers available on every [`Layer`].
pub trait LayerExt: Layer {
    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Number of scalar parameters that are trainable (not frozen).
    fn trainable_param_count(&self) -> usize {
        self.params()
            .iter()
            .filter(|p| !p.frozen)
            .map(|p| p.len())
            .sum()
    }

    /// Clears all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Freezes every parameter of the layer.
    fn freeze_all(&mut self) {
        for p in self.params_mut() {
            p.freeze();
        }
    }

    /// Unfreezes every parameter of the layer.
    fn unfreeze_all(&mut self) {
        for p in self.params_mut() {
            p.unfreeze();
        }
    }
}

impl<L: Layer + ?Sized> LayerExt for L {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Identity;
    impl Layer for Identity {
        fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, g: &Tensor) -> Tensor {
            g.clone()
        }
        fn name(&self) -> String {
            "identity".into()
        }
    }

    #[test]
    fn param_freeze_cycle() {
        let mut p = Param::new("w", Tensor::ones(&[2, 2]));
        assert!(!p.frozen);
        p.freeze();
        assert!(p.frozen);
        p.unfreeze();
        assert!(!p.frozen);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::new("w", Tensor::ones(&[3]));
        p.grad = Tensor::ones(&[3]);
        p.zero_grad();
        assert!(p.grad.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn layer_ext_counts() {
        let mut id = Identity;
        assert_eq!(id.param_count(), 0);
        assert_eq!(id.trainable_param_count(), 0);
        let x = Tensor::ones(&[2]);
        assert_eq!(id.forward(&x, false), x);
    }
}
