//! Optimizers. Frozen (ROM-resident) parameters are skipped by every
//! optimizer, which is how the transfer-learning strategies implement the
//! "fixed trunk, trainable branch" split.

use crate::layer::Param;

/// Stochastic gradient descent with momentum.
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0 }
    }

    /// Sets the momentum coefficient.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Applies one update step to every non-frozen parameter and clears all
    /// gradients (including those of frozen parameters).
    pub fn step(&self, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            if !p.frozen {
                if self.momentum != 0.0 {
                    // v = mu * v + g ; w -= lr * v
                    let mu = self.momentum;
                    for (v, &g) in p.velocity.data_mut().iter_mut().zip(p.grad.data()) {
                        *v = mu * *v + g;
                    }
                    let velocity = p.velocity.clone();
                    p.value.add_scaled_inplace(&velocity, -self.lr);
                } else {
                    let grad = p.grad.clone();
                    p.value.add_scaled_inplace(&grad, -self.lr);
                }
            }
            p.zero_grad();
        }
    }
}

/// Clips gradient L2 norm across all parameters to `max_norm`. Returns the
/// pre-clip norm.
pub fn clip_grad_norm(params: &mut [&mut Param], max_norm: f32) -> f32 {
    let total: f32 = params.iter().map(|p| p.grad.sq_norm()).sum();
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params.iter_mut() {
            p.grad.map_inplace(|g| g * scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn sgd_descends_quadratic() {
        // Minimize f(w) = 0.5 * w^2; grad = w.
        let mut p = Param::new("w", Tensor::full(&[1], 10.0));
        let opt = Sgd::new(0.1);
        for _ in 0..100 {
            p.grad = p.value.clone();
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.data()[0].abs() < 1e-3);
    }

    #[test]
    fn frozen_params_do_not_move() {
        let mut p = Param::new("w", Tensor::full(&[1], 5.0));
        p.freeze();
        p.grad = Tensor::full(&[1], 100.0);
        Sgd::new(0.1).step(&mut [&mut p]);
        assert_eq!(p.value.data()[0], 5.0);
        // Gradient is still cleared.
        assert_eq!(p.grad.data()[0], 0.0);
    }

    #[test]
    fn momentum_accelerates() {
        // On a constant gradient, momentum accumulates displacement.
        let mut plain = Param::new("a", Tensor::full(&[1], 0.0));
        let mut with_mom = Param::new("b", Tensor::full(&[1], 0.0));
        let sgd = Sgd::new(0.1);
        let sgdm = Sgd::new(0.1).with_momentum(0.9);
        for _ in 0..10 {
            plain.grad = Tensor::full(&[1], 1.0);
            with_mom.grad = Tensor::full(&[1], 1.0);
            sgd.step(&mut [&mut plain]);
            sgdm.step(&mut [&mut with_mom]);
        }
        assert!(with_mom.value.data()[0] < plain.value.data()[0]);
    }

    #[test]
    fn clip_reduces_norm() {
        let mut p = Param::new("w", Tensor::zeros(&[2]));
        p.grad = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let pre = clip_grad_norm(&mut [&mut p], 1.0);
        assert!((pre - 5.0).abs() < 1e-5);
        let post = p.grad.sq_norm().sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }
}
