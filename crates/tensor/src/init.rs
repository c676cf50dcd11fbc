//! Weight initialization schemes.

use rand::Rng;

use crate::tensor::Tensor;

/// Kaiming (He) normal initialization for a conv weight `(OC, C, k, k)` or
/// linear weight `(OUT, IN)`: `std = sqrt(2 / fan_in)`.
///
/// # Panics
///
/// Panics if `shape` has fewer than 2 dimensions.
pub fn kaiming_normal<R: Rng + ?Sized>(shape: &[usize], rng: &mut R) -> Tensor {
    assert!(shape.len() >= 2, "kaiming init needs rank >= 2");
    let fan_in: usize = shape[1..].iter().product();
    let std = (2.0 / fan_in as f32).sqrt();
    Tensor::randn(shape, 0.0, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = kaiming_normal(&[64, 128, 3, 3], &mut rng);
        let fan_in = 128 * 9;
        let expected_std = (2.0 / fan_in as f32).sqrt();
        let mean = t.mean();
        let std = t.map(|v| (v - mean) * (v - mean)).mean().sqrt();
        assert!((std - expected_std).abs() / expected_std < 0.1);
    }
}
