//! Integration: the per-channel weight quantization every CiM layer is
//! deployed with keeps each output channel's own range, which a shared
//! per-tensor scale does not.

use rand::rngs::StdRng;
use rand::SeedableRng;

use yoloc::quant::{PerChannelQuant, QuantParams, QuantTensor};
use yoloc::tensor::Tensor;

#[test]
fn per_channel_beats_per_tensor_on_imbalanced_weights() {
    // The reason the deployment pipeline quantizes per channel: channels
    // with tiny dynamic range are crushed by a shared scale.
    let mut rng = StdRng::seed_from_u64(3);
    let mut w = Tensor::randn(&[4, 64], 0.0, 0.01, &mut rng);
    // One loud channel dominates the per-tensor scale.
    for v in &mut w.data_mut()[..64] {
        *v *= 100.0;
    }
    let per_tensor = QuantTensor::quantize(&w, QuantParams::symmetric(w.abs_max(), 8));
    let per_channel = PerChannelQuant::quantize(&w, 8);
    // Compare reconstruction error on the *quiet* channels, which the
    // shared per-tensor scale crushes.
    let quiet_err = |r: &Tensor| -> f64 {
        r.sub(&w).data()[64..]
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
    };
    let e_tensor = quiet_err(&per_tensor.dequantize());
    let e_channel = quiet_err(&per_channel.dequantize());
    assert!(
        e_channel < e_tensor / 100.0,
        "per-channel {e_channel} vs per-tensor {e_tensor}"
    );
}
