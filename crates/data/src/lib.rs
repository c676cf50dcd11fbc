//! # yoloc-data
//!
//! Synthetic datasets and evaluators for the YOLoC (DAC 2022)
//! reproduction. Real CIFAR/MNIST/Caltech101/VOC/COCO data cannot ship with
//! this repository, so classification and detection tasks are *generated*
//! from shared feature dictionaries with a controllable domain-novelty
//! knob: transfer pairs (pretrain -> target) exercise exactly the
//! trunk-frozen / branch-trainable code paths the paper's Fig. 10-12
//! experiments measure, and a VOC-protocol mAP evaluator scores detectors.
//!
//! # Examples
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use yoloc_data::classification::TransferSuite;
//!
//! let suite = TransferSuite::new(42);
//! let mut rng = StdRng::seed_from_u64(0);
//! let (images, labels) = suite.pretrain.batch(4, &mut rng);
//! assert_eq!(images.shape()[0], 4);
//! assert_eq!(labels.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classification;
pub mod detection;

pub use classification::{FeatureDictionary, SyntheticTask, TransferSuite};
pub use detection::{
    average_precision, mean_average_precision, BBox, Detection, DetectionTask, GtObject,
};
