//! The activation quantizer in portable Rust.
//!
//! [`QuantParams::quantize_value`] is IEEE arithmetic and nothing else:
//! a division, compares and selects, two adds, a bit cast and integer
//! adds. Each of those gives the same bits at any vector width, and
//! Rust never contracts a multiply and an add into an FMA, so a loop of
//! it gives the same codes however the compiler vectorizes it.
//!
//! There is one body, safe and `#[inline(always)]`: each SIMD tier
//! enters it through one `#[target_feature]` wrapper
//! (`avx2::quantize_codes`, `avx512::quantize_codes`), which compiles
//! the loop at that tier's width, and the scalar tier runs it as it is,
//! the oracle the others are pinned to.

use yoloc_quant::QuantParams;

/// Writes `quantize_value(x[i]) as u8` to `codes[i]` for every `i` of
/// the shorter slice. The caller proves the codes fit a `u8`
/// ([`RomMvm::quantize_codes`] asserts it once per call).
///
/// [`RomMvm::quantize_codes`]: crate::macro_model::RomMvm::quantize_codes
#[inline(always)]
pub(crate) fn quantize_codes(p: QuantParams, x: &[f32], codes: &mut [u8]) {
    for (c, &v) in codes.iter_mut().zip(x) {
        *c = p.quantize_value(v) as u8;
    }
}
