//! # gpuflow-templates
//!
//! Domain-specific templates from the paper's recognition domain, expressed
//! as parallel operator graphs:
//!
//! * [`edge`] — edge detection from images (§4.1.1): convolutions with an
//!   oriented edge filter, remaps for the rotated orientations, and an
//!   element-wise combine. The paper's `find_edges(Image, Kernel,
//!   num_orientations, Combine_op)` API.
//! * [`cnn`] — convolutional neural networks (§4.1.2): a torch5-like layer
//!   builder (`SpatialConvolution`, `SpatialSubSampling`, `Tanh`) with the
//!   Fig. 7 layer transformation into convolution / add / bias primitives,
//!   plus the paper's "small" (~1600-operator) and "large"
//!   (~7500-operator) networks.
//! * [`stencil`] — iterative Jacobi stencils (the CFD/seismic shape the
//!   paper's introduction motivates): the stress case for halo exchanges
//!   between split bands.
//! * [`gemm`] — matrix-multiply chains, §3.2's worked splitting example.
//! * [`data`] — deterministic synthetic inputs: procedural micrograph-like
//!   images standing in for the cancer-diagnosis histology data the paper
//!   used, and reproducible CNN weights.

#![warn(missing_docs)]

pub mod cnn;
pub mod data;
pub mod edge;
mod error;
pub mod gemm;
pub mod stencil;

pub use cnn::{CnnBuilder, CnnTemplate};
pub use edge::{find_edges, CombineOp, EdgeTemplate};
pub use error::ParamError;
pub use gemm::{matmul_chain, GemmTemplate};
pub use stencil::{heat_diffusion, StencilTemplate};
