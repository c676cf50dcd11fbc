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
    /// `v / scale` is clamped in float to the code range shifted by the
    /// zero point, so the rest only ever sees `|x| <= 65535 < 2^22`.
    /// There, adding `1.5 * 2^23` rounds `x` to the nearest integer (ties
    /// to even) and leaves that integer in the low mantissa bits, which
    /// an integer subtract reads out; `x - r` is exact, so a tie is seen
    /// as `±0.5` and moved away from zero. No step is a call or a
    /// saturating float-to-int cast, so a loop over a whole map
    /// vectorizes on baseline x86-64. Every step is IEEE arithmetic
    /// (Rust never fuses a multiply and an add), so the loop gives the
    /// same codes at any vector width: the CiM kernel tiers compile it
    /// at theirs.
    ///
    /// Exact for `bits` in `2..=16` and `zero_point` in
    /// `qmin()..=qmax()`, which every constructor guarantees (and plan
    /// deserialization checks); other parameters give unspecified codes.
    #[inline]
    pub fn quantize_value(&self, v: f32) -> i32 {
        const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
        let zp = self.zero_point;
        let lo = (i64::from(self.qmin()) - i64::from(zp)) as f32;
        let hi = (i64::from(self.qmax()) - i64::from(zp)) as f32;
        let x = v / self.scale;
        let x = if x < lo { lo } else { x };
        let x = if x > hi { hi } else { x };
        let x = if x.is_nan() { 0.0 } else { x };
        let y = x + MAGIC;
        let d = x - (y - MAGIC);
        let r = (y.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
        let away = i32::from((d == 0.5) & (x > 0.0)) - i32::from((d == -0.5) & (x < 0.0));
        r.wrapping_add(away).wrapping_add(zp)
    }

    /// Reconstructs the real value of an integer code.
    pub fn dequantize_value(&self, q: i32) -> f32 {
        (q - self.zero_point) as f32 * self.scale
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

    /// The truncation-built quantizer the magic-number form replaced,
    /// kept as its reference: `x as i32` truncates exactly below 2^31,
    /// `x - t` is the exact fractional part, and every add saturates.
    fn quantize_via_trunc(p: &QuantParams, v: f32) -> i32 {
        let x = v / p.scale;
        let t = x as i32;
        let f = x - t as f32;
        let q = t
            .saturating_add(i32::from(f >= 0.5))
            .saturating_sub(i32::from(f <= -0.5));
        q.saturating_add(p.zero_point).clamp(p.qmin(), p.qmax())
    }

    /// 2-, 8- and 16-bit symmetric and affine sets at unit, power-of-two
    /// and odd scales, each with its zero point at `qmin`, 0, mid-range
    /// and `qmax`.
    fn edge_param_sets() -> Vec<QuantParams> {
        let mut sets = Vec::new();
        for bits in [2u8, 8, 16] {
            for symmetric in [true, false] {
                for scale in [1.0f32, 0.25, 3.7e-3] {
                    let base = QuantParams {
                        scale,
                        zero_point: 0,
                        bits,
                        symmetric,
                    };
                    let mut zps = vec![base.qmin(), 0, base.qmax() / 2, base.qmax()];
                    zps.dedup();
                    for zero_point in zps {
                        sets.push(QuantParams { zero_point, ..base });
                    }
                }
            }
        }
        sets
    }

    /// A value and its two f32 neighbours.
    fn with_neighbours(x: f32) -> [f32; 3] {
        [x.next_down(), x, x.next_up()]
    }

    #[test]
    fn quantize_matches_truncation_reference_on_edge_values() {
        let mut specials = vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc0_0001),
            f32::from_bits(0x7f80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
        ];
        for x in [
            0.0f32,
            f32::from_bits(1),
            f32::from_bits(2),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            4_194_304.0,  // 2^22
            8_388_608.0,  // 2^23
            12_582_912.0, // 1.5 * 2^23
            16_777_216.0, // 2^24
            2_147_483_648.0,
        ] {
            for n in with_neighbours(x) {
                specials.extend([n, -n]);
            }
        }
        for p in edge_param_sets() {
            let check = |v: f32| {
                assert_eq!(
                    p.quantize_value(v),
                    quantize_via_trunc(&p, v),
                    "{v:e} ({:#010x}) {p:?}",
                    v.to_bits()
                );
            };
            specials.iter().copied().for_each(check);
            // Every integer and half-way value of `v / scale` across the
            // code range, two steps past each end, with its neighbours.
            let lo = p.qmin() - p.zero_point - 2;
            let hi = p.qmax() - p.zero_point + 2;
            for k in lo..=hi {
                for x in [k as f32, k as f32 + 0.5] {
                    for n in with_neighbours(x) {
                        check(n * p.scale);
                        check(n);
                    }
                }
            }
        }
    }

    #[test]
    #[ignore = "sweeps all 2^32 bit patterns (about 10 s on two cores in release)"]
    fn quantize_matches_truncation_reference_on_every_bit_pattern() {
        let p = QuantParams::affine(-0.37, 2.11, 8);
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(lanes);
        std::thread::scope(|s| {
            for lane in 0..lanes {
                s.spawn(move || {
                    let end = ((lane + 1) * span).min(1 << 32);
                    for bits in lane * span..end {
                        let v = f32::from_bits(bits as u32);
                        if p.quantize_value(v) != quantize_via_trunc(&p, v) {
                            panic!("{v:e} ({bits:#010x}) diverges");
                        }
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=16")]
    fn rejects_1_bit() {
        let _ = QuantParams::symmetric(1.0, 1);
    }
}
