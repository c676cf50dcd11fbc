//! The ReLU activation layer.

use crate::layer::Layer;
use crate::tensor::Tensor;

/// Rectified linear unit, `y = max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.cached_input = Some(x.clone());
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("backward before forward");
        grad_out.zip_map(x, |g, v| if v > 0.0 { g } else { 0.0 })
    }

    fn name(&self) -> String {
        "ReLU".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Tensor::ones(&[3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }
}
