//! # gpuflow-graph
//!
//! The parallel operator graph intermediate representation used by the
//! gpuflow framework (a reproduction of *"A framework for efficient and
//! scalable execution of domain-specific templates on GPUs"*, IPDPS 2009).
//!
//! A domain-specific template is expressed as a directed acyclic graph whose
//! vertices are **parallel operators** ([`OpNode`]) and whose edges are the
//! data dependencies between them, carried by **data structures**
//! ([`DataDesc`]). Memory footprints of all operators are statically defined
//! and their scaling behaviour with input size is fully understood — the
//! properties the paper relies on to plan offloading ahead of time.
//!
//! This crate is purely structural: it knows shapes, sizes, dependencies
//! and how each operator class *can* be split ([`SplitClass`]), but
//! contains no numeric kernels (see `gpuflow-ops`) and no scheduling logic
//! (see `gpuflow-core`).

#![warn(missing_docs)]

pub mod canon;
pub mod csr;
pub mod data;
pub mod dot;
pub mod graph;
pub mod op;
pub mod shape;
pub mod text;
pub mod topo;

pub use canon::{canonical_hash, skeleton_hash};
pub use csr::Csr;
pub use data::{DataDesc, DataId, DataKind, Region};
pub use graph::{Graph, GraphError};
pub use op::{OpId, OpKind, OpNode, ReduceKind, RemapKind, SplitClass, SubsampleKind};
pub use shape::{infer_output_shape, Shape, ShapeError};
pub use text::{parse_graph, write_graph, TextError};
pub use topo::{topo_sort, TopoError};

/// Size in bytes of one element of every data structure in the framework.
///
/// The paper's operator library works on single-precision floats, and all
/// transfer volumes in its Table 1 are reported in "number of floats".
pub const FLOAT_BYTES: u64 = 4;
