//! # yoloc-tensor
//!
//! The numerical substrate of the YOLoC (DAC 2022) reproduction: a dense
//! `f32` tensor library with 2-D convolution lowering (`im2col`), a small
//! set of neural-network layers with hand-written backward passes, SGD, and
//! loss functions. It plays the role PyTorch plays in the paper's custom
//! workflow simulator.
//!
//! Design points that matter for the reproduction:
//!
//! * **Parameter freezing** ([`Param::frozen`]) models the ROM/SRAM split —
//!   ROM-resident weights receive gradients (so statistics can be computed)
//!   but are never updated.
//! * **im2col lowering** ([`ops::im2col`]) is shared with the hardware
//!   mapper: the matrix that a convolution becomes is exactly the matrix
//!   whose columns are placed on CiM bitlines. CiM convs read its rows in
//!   place from column-shifted planes of the input
//!   ([`ops::ShiftedPlanes`]) instead of copying it, or copy its
//!   vector-major rows window by window from the padded input
//!   ([`ops::PatchRows`]).
//! * Everything is deterministic given a caller-provided RNG.
//!
//! # Examples
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use yoloc_tensor::{layers::{Conv2d, Relu, Flatten, Linear, Sequential}, Layer, Tensor};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Sequential::new()
//!     .push(Conv2d::new("c1", 1, 4, 3, 1, 1, true, &mut rng))
//!     .push(Relu::new())
//!     .push(Flatten::new())
//!     .push(Linear::new("fc", 4 * 8 * 8, 10, true, &mut rng));
//! let x = Tensor::zeros(&[2, 1, 8, 8]);
//! let logits = net.forward(&x, false);
//! assert_eq!(logits.shape(), &[2, 10]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod init;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod ops;
pub mod optim;
mod tensor;

pub use layer::{Layer, LayerExt, Param};
pub use tensor::{numel, ShapeError, Tensor};
