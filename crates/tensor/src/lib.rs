//! Dense f32 linear algebra and small utilities underpinning the PGE
//! reproduction.
//!
//! The crate deliberately stays tiny and predictable: a row-major
//! [`Matrix`] type, the elementwise and reduction kernels the neural
//! layers need ([`ops`]), a tanh whose bits do not depend on the
//! platform libm ([`math`]), weight initializers ([`init`]), and an
//! Fx-style fast hasher ([`fx`]) used for string interning throughout
//! the workspace, and a CRC-32 ([`crc32`]) checksumming the durable
//! artifacts (model snapshots, scan shards).
//!
//! Everything is `f32`: the models in this workspace are small enough
//! that single precision is ample, and it halves memory traffic, which
//! dominates the training loops.

pub mod crc32;
pub mod fx;
pub mod init;
pub mod kernels;
pub mod math;
pub mod matrix;
pub mod ops;

pub use crc32::{crc32, Crc32};
pub use fx::{FxHashMap, FxHashSet};
pub use kernels::{active_kernel, set_kernel, simd_supported, Kernel};
pub use matrix::Matrix;
