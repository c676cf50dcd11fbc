//! Dense row-major `f32` tensor.
//!
//! This is the numerical substrate the whole reproduction is built on: it
//! replaces the role PyTorch plays in the paper's custom workflow simulator.
//! Only the operations the YOLoC stack needs are provided, but each is
//! implemented carefully and tested, including the backward passes built on
//! top of them.

use std::fmt;

use rand::Rng;

/// Error raised by fallible tensor constructors and reshapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    msg: String,
}

impl ShapeError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape error: {}", self.msg)
    }
}

impl std::error::Error for ShapeError {}

/// A dense, row-major (C-order), heap-allocated `f32` tensor.
///
/// # Examples
///
/// ```
/// use yoloc_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{} elements])", self.data.len())
        }
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor with zero elements.
    fn default() -> Self {
        Tensor {
            data: Vec::new(),
            shape: vec![0],
        }
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the number of elements overflows `usize`.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = numel(shape);
        Tensor {
            data: vec![0.0; n],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = numel(shape);
        Tensor {
            data: vec![value; n],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor from a flat `Vec` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len()` does not match the product of
    /// `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, ShapeError> {
        if data.len() != numel(shape) {
            return Err(ShapeError::new(format!(
                "data length {} does not match shape {:?} ({} elements)",
                data.len(),
                shape,
                numel(shape)
            )));
        }
        Ok(Tensor {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Samples every element i.i.d. from a normal distribution
    /// `N(mean, std^2)` using the Box-Muller transform over `rng`.
    pub fn randn<R: Rng + ?Sized>(shape: &[usize], mean: f32, std: f32, rng: &mut R) -> Self {
        let n = numel(shape);
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Samples every element i.i.d. uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let n = numel(shape);
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// The tensor's shape (dimension sizes).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, ShapeError> {
        if numel(shape) != self.data.len() {
            return Err(ShapeError::new(format!(
                "cannot reshape {:?} ({} elements) to {:?} ({} elements)",
                self.shape,
                self.data.len(),
                shape,
                numel(shape)
            )));
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: shape.to_vec(),
        })
    }

    /// Consumes the tensor and reinterprets it under a new shape without
    /// touching the element buffer — the move-based counterpart of
    /// [`Tensor::reshape`] for owned tensors (row-major order means a
    /// reshape never has to copy when the source is owned).
    ///
    /// # Examples
    ///
    /// ```
    /// use yoloc_tensor::Tensor;
    ///
    /// let t = Tensor::zeros(&[2, 3, 4]);
    /// let flat = t.into_reshaped(&[2, 12]).unwrap();
    /// assert_eq!(flat.shape(), &[2, 12]);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the element counts differ.
    pub fn into_reshaped(self, shape: &[usize]) -> Result<Tensor, ShapeError> {
        if numel(shape) != self.data.len() {
            return Err(ShapeError::new(format!(
                "cannot reshape {:?} ({} elements) to {:?} ({} elements)",
                self.shape,
                self.data.len(),
                shape,
                numel(shape)
            )));
        }
        Ok(Tensor {
            data: self.data,
            shape: shape.to_vec(),
        })
    }

    /// Element access by multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` rank or bounds are invalid.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Mutable element access by multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` rank or bounds are invalid.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.offset(idx);
        &mut self.data[off]
    }

    fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "index rank {} != tensor rank {}",
            idx.len(),
            self.shape.len()
        );
        let mut off = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for dim {i} (size {dim})"
            );
            off = off * dim + ix;
        }
        off
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip_map shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Adds `other * alpha` into `self` in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&v| v as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    ///
    /// Returns 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element, or `f32::NEG_INFINITY` if empty.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element, or `f32::INFINITY` if empty.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence), or 0 if empty.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut bv = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > bv {
                bv = v;
                best = i;
            }
        }
        best
    }

    /// Maximum absolute element value.
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Matrix multiply of two rank-2 tensors: `(m,k) x (k,n) -> (m,n)`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be rank-2");
        assert_eq!(other.ndim(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        // i-k-j loop order keeps the inner loop streaming over contiguous rows.
        for i in 0..m {
            let arow = &self.data[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (kk, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        Tensor {
            data: out,
            shape: vec![m, n],
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose2 requires rank-2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            data: out,
            shape: vec![n, m],
        }
    }

    /// Returns the `i`-th slice along the first axis (e.g. one sample of a
    /// batch), as an owned tensor of rank `ndim - 1`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank-0 or `i` is out of bounds.
    pub fn index_axis0(&self, i: usize) -> Tensor {
        assert!(!self.shape.is_empty(), "cannot index a rank-0 tensor");
        assert!(i < self.shape[0], "axis-0 index out of range");
        let inner: usize = self.shape[1..].iter().product();
        Tensor {
            data: self.data[i * inner..(i + 1) * inner].to_vec(),
            shape: self.shape[1..].to_vec(),
        }
    }

    /// Stacks same-shape tensors along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the input is empty or shapes differ.
    pub fn stack(parts: &[Tensor]) -> Result<Tensor, ShapeError> {
        let first = parts
            .first()
            .ok_or_else(|| ShapeError::new("stack of zero tensors"))?;
        let mut data = Vec::with_capacity(first.len() * parts.len());
        for p in parts {
            if p.shape != first.shape {
                return Err(ShapeError::new(format!(
                    "stack shape mismatch: {:?} vs {:?}",
                    p.shape, first.shape
                )));
            }
            data.extend_from_slice(&p.data);
        }
        let mut shape = vec![parts.len()];
        shape.extend_from_slice(&first.shape);
        Ok(Tensor { data, shape })
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>() as f32
    }
}

/// Product of a shape's dimensions (number of elements).
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        assert_eq!(t.at(&[1]), 2.0);
    }

    #[test]
    fn indexing_row_major() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        assert_eq!(t.at(&[1, 0, 2]), 14.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        t.at(&[2, 0]);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::randn(&[4, 4], 0.0, 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        let c = a.matmul(&eye);
        for (x, y) in c.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::randn(&[3, 5], 0.0, 1.0, &mut rng);
        let b = a.transpose2().transpose2();
        assert_eq!(a, b);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -4.0, 3.0], &[3]).unwrap();
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -4.0);
        assert_eq!(a.argmax(), 2);
        assert_eq!(a.abs_max(), 4.0);
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&[10_000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t.map(|v| (v - mean) * (v - mean)).mean();
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn stack_and_index_axis0() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.index_axis0(0), a);
        assert_eq!(s.index_axis0(1), b);
    }

    #[test]
    fn reshape_checks() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.reshape(&[6]).is_ok());
        assert!(t.reshape(&[4]).is_err());
    }
}
