//! Neural-network layers with explicit forward/backward passes.

mod activation;
mod conv;
mod linear;
mod pool;
mod structural;

pub use activation::Relu;
pub use conv::Conv2d;
pub use linear::Linear;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use structural::{Flatten, Sequential};
