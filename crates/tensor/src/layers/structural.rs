//! Structural layers: flatten and the sequential container.

use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// Flattens `(N, ...)` into `(N, features)`.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert!(x.ndim() >= 2, "Flatten expects a batch dimension");
        let n = x.shape()[0];
        let features: usize = x.shape()[1..].iter().product();
        self.cached_shape = Some(x.shape().to_vec());
        x.reshape(&[n, features]).expect("same element count")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.cached_shape.as_ref().expect("backward before forward");
        grad_out.reshape(shape).expect("same element count")
    }

    fn name(&self) -> String {
        "Flatten".into()
    }
}

/// A chain of layers applied in order.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer, returning `self` for chaining.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, train);
        }
        h
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn name(&self) -> String {
        format!("Sequential[{}]", self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::activation::Relu;
    use crate::layers::conv::Conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flatten_roundtrip() {
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let mut f = Flatten::new();
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let dx = f.backward(&Tensor::ones(&[2, 48]));
        assert_eq!(dx.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn sequential_composes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seq = Sequential::new()
            .push(Conv2d::new("c1", 1, 2, 3, 1, 1, true, &mut rng))
            .push(Relu::new())
            .push(Conv2d::new("c2", 2, 1, 3, 1, 1, true, &mut rng));
        let x = Tensor::randn(&[1, 1, 5, 5], 0.0, 1.0, &mut rng);
        let y = seq.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 5, 5]);
        let dx = seq.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(seq.params().len(), 4);
    }
}
