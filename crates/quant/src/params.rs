//! Quantization parameters and quantized tensors.

use yoloc_tensor::Tensor;

/// Scale/zero-point parameters for uniform integer quantization.
///
/// # Examples
///
/// ```
/// use yoloc_quant::QuantParams;
///
/// let p = QuantParams::symmetric(1.0, 8);
/// assert_eq!(p.quantize_value(1.0), 127);
/// assert_eq!(p.quantize_value(-1.0), -127);
/// ```
///
/// YOLoC stores 8-bit weights in ROM and drives 8-bit activations
/// (Table I: "Input x weight: 8-bit x 8-bit"); the SPWD baseline (option
/// III) uses 2-bit SRAM decoration, so the bit width is a parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real value represented by one integer step.
    pub scale: f32,
    /// Integer that represents real zero.
    pub zero_point: i32,
    /// Bit width (2..=16).
    pub bits: u8,
    /// Symmetric quantization (signed range, zero_point = 0).
    pub symmetric: bool,
}

impl QuantParams {
    /// Symmetric (signed) quantization covering `[-abs_max, abs_max]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16` or `abs_max` is not positive.
    pub fn symmetric(abs_max: f32, bits: u8) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16");
        assert!(abs_max > 0.0, "abs_max must be positive");
        let qmax = (1i32 << (bits - 1)) - 1;
        QuantParams {
            scale: abs_max / qmax as f32,
            zero_point: 0,
            bits,
            symmetric: true,
        }
    }

    /// Affine (unsigned) quantization covering `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16` or `min >= max`.
    pub fn affine(min: f32, max: f32, bits: u8) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16");
        assert!(min < max, "min must be < max");
        let qmax = (1i32 << bits) - 1;
        let scale = (max - min) / qmax as f32;
        let zero_point = (-min / scale).round() as i32;
        QuantParams {
            scale,
            zero_point: zero_point.clamp(0, qmax),
            bits,
            symmetric: false,
        }
    }

    /// Smallest representable integer code.
    pub fn qmin(&self) -> i32 {
        if self.symmetric {
            -(1i32 << (self.bits - 1)) + 1
        } else {
            0
        }
    }

    /// Largest representable integer code.
    pub fn qmax(&self) -> i32 {
        if self.symmetric {
            (1i32 << (self.bits - 1)) - 1
        } else {
            (1i32 << self.bits) - 1
        }
    }

    /// Quantizes a real value to its integer code (round half away from
    /// zero, saturating; NaN maps to the zero point).
    ///
    /// The rounding is built from an exact truncation instead of a
    /// `roundf` call, so a loop over a whole map makes no call and its
    /// arithmetic vectorizes: for `|x| < 2^31` the `as` cast truncates
    /// exactly and `x - t` is the exact fractional part. Larger
    /// magnitudes and infinities saturate in the cast, NaN casts to 0,
    /// and the adds saturate too, so no input can wrap past the clamp.
    #[inline]
    pub fn quantize_value(&self, v: f32) -> i32 {
        let x = v / self.scale;
        let t = x as i32;
        let f = x - t as f32;
        let q = t
            .saturating_add(i32::from(f >= 0.5))
            .saturating_sub(i32::from(f <= -0.5));
        q.saturating_add(self.zero_point)
            .clamp(self.qmin(), self.qmax())
    }

    /// Reconstructs the real value of an integer code.
    pub fn dequantize_value(&self, q: i32) -> f32 {
        (q - self.zero_point) as f32 * self.scale
    }

    /// Quantizes a slice of real values to integer codes (the shape the
    /// CiM datapath drives: one activation vector per matrix-vector
    /// product).
    pub fn quantize_all(&self, values: &[f32]) -> Vec<i32> {
        values.iter().map(|&v| self.quantize_value(v)).collect()
    }
}

/// An integer tensor together with its quantization parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    /// Integer codes, row-major, same layout as the source tensor.
    pub values: Vec<i32>,
    /// Shape of the source tensor.
    pub shape: Vec<usize>,
    /// Parameters used to produce the codes.
    pub params: QuantParams,
}

impl QuantTensor {
    /// Quantizes `t` under `params`.
    pub fn quantize(t: &Tensor, params: QuantParams) -> Self {
        QuantTensor {
            values: t.data().iter().map(|&v| params.quantize_value(v)).collect(),
            shape: t.shape().to_vec(),
            params,
        }
    }

    /// Reconstructs the (lossy) real-valued tensor.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.values
                .iter()
                .map(|&q| self.params.dequantize_value(q))
                .collect(),
            &self.shape,
        )
        .expect("shape preserved by quantization")
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total storage footprint in bits at the quantized precision.
    pub fn storage_bits(&self) -> u64 {
        self.values.len() as u64 * self.params.bits as u64
    }
}

/// Per-output-channel symmetric quantization of a conv weight `(OC, ...)`,
/// the scheme used when lowering trunk weights into ROM images.
#[derive(Debug, Clone, PartialEq)]
pub struct PerChannelQuant {
    /// Integer codes, same layout as the weight tensor.
    pub values: Vec<i32>,
    /// Weight tensor shape; axis 0 is the channel axis.
    pub shape: Vec<usize>,
    /// One parameter set per output channel.
    pub channel_params: Vec<QuantParams>,
}

impl PerChannelQuant {
    /// Quantizes `w` (axis 0 = output channel) symmetrically per channel.
    ///
    /// # Panics
    ///
    /// Panics if `w` is rank-0.
    pub fn quantize(w: &Tensor, bits: u8) -> Self {
        assert!(w.ndim() >= 1, "weight must have a channel axis");
        let oc = w.shape()[0];
        let inner: usize = w.shape()[1..].iter().product();
        let mut values = Vec::with_capacity(w.len());
        let mut channel_params = Vec::with_capacity(oc);
        for c in 0..oc {
            let chunk = &w.data()[c * inner..(c + 1) * inner];
            let abs_max = chunk
                .iter()
                .fold(0.0f32, |m, &v| m.max(v.abs()))
                .max(f32::EPSILON);
            let p = QuantParams::symmetric(abs_max, bits);
            values.extend(chunk.iter().map(|&v| p.quantize_value(v)));
            channel_params.push(p);
        }
        PerChannelQuant {
            values,
            shape: w.shape().to_vec(),
            channel_params,
        }
    }

    /// Reconstructs the real-valued weight.
    pub fn dequantize(&self) -> Tensor {
        let inner: usize = self.shape[1..].iter().product();
        let mut out = Vec::with_capacity(self.values.len());
        for (c, p) in self.channel_params.iter().enumerate() {
            out.extend(
                self.values[c * inner..(c + 1) * inner]
                    .iter()
                    .map(|&q| p.dequantize_value(q)),
            );
        }
        Tensor::from_vec(out, &self.shape).expect("shape preserved")
    }
}

/// Min/max calibration over a set of tensors, returning affine parameters.
///
/// # Panics
///
/// Panics if `samples` is empty or all-constant.
pub fn calibrate_affine(samples: &[&Tensor], bits: u8) -> QuantParams {
    assert!(!samples.is_empty(), "calibration needs samples");
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for t in samples {
        lo = lo.min(t.min());
        hi = hi.max(t.max());
    }
    // Always include zero so ReLU outputs quantize exactly.
    lo = lo.min(0.0);
    hi = hi.max(0.0);
    if (hi - lo).abs() < f32::EPSILON {
        hi = lo + 1.0;
    }
    QuantParams::affine(lo, hi, bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_roundtrip_error_bounded() {
        let p = QuantParams::symmetric(1.0, 8);
        for &v in &[0.0f32, 0.5, -0.99, 1.0, -1.0, 0.123] {
            let q = p.quantize_value(v);
            let r = p.dequantize_value(q);
            assert!((v - r).abs() <= p.scale / 2.0 + 1e-6, "{v} -> {q} -> {r}");
        }
    }

    #[test]
    fn symmetric_saturates() {
        let p = QuantParams::symmetric(1.0, 8);
        assert_eq!(p.quantize_value(100.0), 127);
        assert_eq!(p.quantize_value(-100.0), -127);
    }

    #[test]
    fn affine_represents_zero_exactly() {
        let p = QuantParams::affine(-0.37, 2.11, 8);
        let q0 = p.quantize_value(0.0);
        assert!((p.dequantize_value(q0)).abs() <= p.scale / 2.0);
    }

    #[test]
    fn quant_tensor_roundtrip() {
        let t = Tensor::from_vec(vec![-1.0, -0.5, 0.0, 0.5, 1.0], &[5]).unwrap();
        let q = QuantTensor::quantize(&t, QuantParams::symmetric(1.0, 8));
        let r = q.dequantize();
        for (a, b) in t.data().iter().zip(r.data()) {
            assert!((a - b).abs() <= q.params.scale / 2.0 + 1e-6);
        }
        assert_eq!(q.storage_bits(), 40);
    }

    #[test]
    fn per_channel_tracks_each_range() {
        // Channel 0 tiny values, channel 1 large: per-channel keeps both
        // accurate, per-tensor would crush channel 0.
        let w = Tensor::from_vec(vec![0.01, -0.02, 10.0, -20.0], &[2, 2]).unwrap();
        let pc = PerChannelQuant::quantize(&w, 8);
        let r = pc.dequantize();
        for (a, b) in w.data().iter().zip(r.data()) {
            let rel = (a - b).abs() / a.abs().max(1e-6);
            assert!(rel < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn calibrate_includes_zero() {
        let t = Tensor::from_vec(vec![2.0, 3.0, 4.0], &[3]).unwrap();
        let p = calibrate_affine(&[&t], 8);
        assert!(p.dequantize_value(p.quantize_value(0.0)).abs() <= p.scale / 2.0);
    }

    /// Reference quantizer: `f32::round` (half away from zero), then a
    /// saturating zero-point add and the clamp.
    fn quantize_via_round(p: &QuantParams, v: f32) -> i32 {
        ((v / p.scale).round() as i32)
            .saturating_add(p.zero_point)
            .clamp(p.qmin(), p.qmax())
    }

    /// SplitMix64 step: the seeded stream the float properties draw from.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn quantize_saturates_at_extremes() {
        // Affine over [-1, 1] puts the zero point at 127, where an
        // unsaturated zero-point add wraps for huge inputs: the brightest
        // pixel would become code 0 (or panic with overflow checks on).
        let affine = QuantParams::affine(-1.0, 1.0, 8);
        let symmetric = QuantParams::symmetric(1.0, 8);
        assert_eq!(affine.zero_point, 127);
        for p in [affine, symmetric] {
            let (lo, hi, zp) = (p.qmin(), p.qmax(), p.zero_point);
            assert_eq!(p.quantize_value(f32::INFINITY), hi);
            assert_eq!(p.quantize_value(f32::NEG_INFINITY), lo);
            assert_eq!(p.quantize_value(1e9), hi);
            assert_eq!(p.quantize_value(1e12), hi);
            assert_eq!(p.quantize_value(-1e12), lo);
            assert_eq!(p.quantize_value(f32::MAX), hi);
            assert_eq!(p.quantize_value(f32::MIN), lo);
            assert_eq!(p.quantize_value(f32::NAN), zp);
            assert_eq!(p.quantize_value(-f32::NAN), zp);
            assert_eq!(p.quantize_value(-0.0), zp);
            assert_eq!(p.quantize_value(0.0), zp);
            for sub in [f32::from_bits(1), f32::MIN_POSITIVE / 2.0] {
                assert_eq!(p.quantize_value(sub), zp, "{sub:e}");
                assert_eq!(p.quantize_value(-sub), zp, "{:e}", -sub);
            }
        }
    }

    #[test]
    fn quantize_rounds_ties_away_from_zero() {
        // Power-of-two scales make `k * scale / scale == k` exact, so
        // these inputs are true ties.
        let symmetric = QuantParams {
            scale: 0.25,
            zero_point: 0,
            bits: 8,
            symmetric: true,
        };
        let affine = QuantParams {
            scale: 0.25,
            zero_point: 100,
            bits: 8,
            symmetric: false,
        };
        for p in [symmetric, affine] {
            let zp = p.zero_point;
            for (steps, want) in [(0.5, 1), (-0.5, -1), (2.5, 3), (-2.5, -3), (1.5, 2)] {
                assert_eq!(p.quantize_value(steps * p.scale), zp + want, "{steps}");
            }
            // Just inside a tie rounds toward the nearer code.
            let below = f32::from_bits(0.5f32.to_bits() - 1);
            assert_eq!(p.quantize_value(below * p.scale), zp);
            assert_eq!(p.quantize_value(-below * p.scale), zp);
        }
    }

    #[test]
    fn quantize_matches_round_on_random_bit_patterns() {
        // Every f32 bit pattern (subnormals, NaNs and infinities
        // included) under every width, symmetric and affine: the
        // truncation-built rounding equals `f32::round`.
        let mut state = 0x5EED_5EED_5EED_5EEDu64;
        for bits in 2..=16u8 {
            let mut params = vec![
                QuantParams::symmetric(1.0, bits),
                QuantParams::symmetric(3.7e-3, bits),
                QuantParams::affine(-1.0, 1.0, bits),
                QuantParams::affine(-0.37, 2.11, bits),
                QuantParams::affine(0.0, 6.0, bits),
            ];
            // Random scales too, including ones where `v / scale`
            // overflows or underflows.
            for _ in 0..4 {
                let scale = f32::from_bits(splitmix64(&mut state) as u32).abs();
                if scale.is_finite() && scale > 0.0 {
                    let mut p = QuantParams::affine(-1.0, 1.0, bits);
                    p.scale = scale;
                    params.push(p);
                }
            }
            for p in &params {
                for _ in 0..2_000 {
                    let v = f32::from_bits(splitmix64(&mut state) as u32);
                    assert_eq!(p.quantize_value(v), quantize_via_round(p, v), "{v:e} {p:?}");
                }
                // Ties, the top codes and magnitudes past `i32::MAX`.
                for k in [0.5f32, 2.5, 127.5, 254.5, 8_388_607.5, 3e9] {
                    for v in [k * p.scale, -k * p.scale] {
                        assert_eq!(p.quantize_value(v), quantize_via_round(p, v), "{v:e} {p:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=16")]
    fn rejects_1_bit() {
        let _ = QuantParams::symmetric(1.0, 1);
    }
}
