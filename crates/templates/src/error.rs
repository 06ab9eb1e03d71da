//! The typed error of the builtin templates' parameter checks.
//!
//! The builders panic on parameters they cannot build from (a template is
//! static configuration). A front end that builds one from outside input
//! — the CLI's source argument, the serving daemon's named templates —
//! runs the same check first ([`crate::edge::check_params`],
//! [`crate::cnn::check_input`]) and reports this error instead.

use std::fmt;

/// Why a builtin template cannot be built from the given parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamError {
    /// An edge filter of size zero.
    EmptyKernel,
    /// An edge image smaller than its filter in some dimension.
    ImageSmallerThanKernel {
        /// Image rows.
        rows: usize,
        /// Image cols.
        cols: usize,
        /// Filter edge.
        kernel: usize,
    },
    /// An orientation count that is odd, below 2, or beyond what the
    /// combine operator's arity holds.
    Orientations(usize),
    /// A CNN input too small for its convolution and pooling layers.
    CnnInputTooSmall {
        /// Input rows.
        rows: usize,
        /// Input cols.
        cols: usize,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ParamError::EmptyKernel => write!(f, "edge kernel must be non-empty (k >= 1)"),
            ParamError::ImageSmallerThanKernel { rows, cols, kernel } => {
                write!(f, "edge image {rows}x{cols} smaller than kernel {kernel}")
            }
            ParamError::Orientations(o) => write!(
                f,
                "orientations must be even and in 2..={}, got {o}",
                crate::edge::MAX_ORIENTATIONS
            ),
            ParamError::CnnInputTooSmall { rows, cols } => write!(
                f,
                "cnn input {rows}x{cols} too small (at least {min}x{min})",
                min = crate::cnn::MIN_INPUT
            ),
        }
    }
}

impl std::error::Error for ParamError {}
