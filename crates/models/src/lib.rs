//! # yoloc-models
//!
//! The network-description IR and model zoo of the YOLoC (DAC 2022)
//! reproduction: VGG-8, ResNet-18, DarkNet-19 and the YOLO / Tiny-YOLO
//! detectors, with shape propagation, parameter/MAC counting and the
//! im2col-lowered matrix geometry every CiM mapping decision is based on.
//!
//! # Examples
//!
//! ```
//! let yolo = yoloc_models::zoo::yolo_v2(20, 5);
//! // Tens of millions of weights — too large for on-chip SRAM, the
//! // motivating problem of the paper.
//! assert!(yolo.param_count() > 40_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ir;
pub mod summary;
pub mod zoo;

pub use ir::{
    rebranch_widths, ActKind, LayerReport, LayerSpec, LoweredMatrix, NetworkDesc, NetworkError,
    ProjectionSpec, Shape, REBRANCH_CONVS,
};
