//! # yoloc-quant
//!
//! Quantization support for the YOLoC (DAC 2022) reproduction: uniform
//! integer quantization (per-tensor affine/symmetric and per-channel
//! symmetric), calibration, and the bit-serial decompositions that the
//! ROM-CiM macro datapath executes (weight bit-planes, 2-bit activation
//! chunks with unary pulse counts).
//!
//! # Examples
//!
//! ```
//! use yoloc_quant::{QuantParams, QuantTensor};
//! use yoloc_tensor::Tensor;
//!
//! let w = Tensor::from_vec(vec![0.5, -0.25, 1.0], &[3])?;
//! let q = QuantTensor::quantize(&w, QuantParams::symmetric(1.0, 8));
//! let back = q.dequantize();
//! assert!((back.data()[2] - 1.0).abs() < 1.0 / 127.0);
//! # Ok::<(), yoloc_tensor::ShapeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitplane;
pub mod params;
pub mod qat;

pub use params::{calibrate_affine, PerChannelQuant, QuantParams, QuantTensor};
