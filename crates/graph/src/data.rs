//! Data structure descriptors.
//!
//! Every rectangle of floats flowing through a template — inputs, outputs,
//! constants (convolution kernels, biases), and temporaries — is described by
//! a [`DataDesc`]. After operator splitting, a data structure may be a
//! *region* (a row range) of an original structure; the [`Region`] link
//! records that so the executor can materialize split views of host data and
//! so analyses can attribute split traffic back to the original.

/// Identifier of a data structure within one [`crate::Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataId(pub u32);

impl DataId {
    /// Index into the graph's data table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DataId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Role a data structure plays at the template boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// Template input: lives on the CPU initially and must be copied to the
    /// GPU before first use (paper constraint 12: all data starts on CPU).
    Input,
    /// Template output: must reside in CPU memory when execution finishes
    /// (paper constraint 13).
    Output,
    /// Constant parameter (convolution kernel matrix, bias). Starts on the
    /// CPU like an input; never produced by an operator; never split.
    Constant,
    /// Intermediate produced and consumed inside the template. May be
    /// deleted eagerly once dead (§3.3.1 step 3).
    Temporary,
}

impl DataKind {
    /// Whether this data initially resides in CPU memory.
    pub fn starts_on_cpu(self) -> bool {
        matches!(self, DataKind::Input | DataKind::Constant)
    }
}

/// A split view: this data structure is rows `row_off .. row_off + rows` and
/// columns `col_off .. col_off + cols` of `parent`.
///
/// Regions of two siblings may overlap (convolution halos, §3.2: splitting a
/// 100×100 convolution by a 5×5 kernel into two yields two 100×52 inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// The original (pre-split) data structure.
    pub parent: DataId,
    /// First row of the parent covered by this view.
    pub row_off: usize,
    /// First column of the parent covered by this view.
    pub col_off: usize,
}

/// Descriptor of one two-dimensional data structure of `f32` elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataDesc {
    /// Human-readable name (`Img`, `E1'`, …) used in plans, DOT dumps and
    /// generated code.
    pub name: String,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Boundary role.
    pub kind: DataKind,
    /// Set when this structure is a split view of another.
    pub region: Option<Region>,
}

impl DataDesc {
    /// Create a descriptor with the given name, shape and kind.
    pub fn new(name: impl Into<String>, rows: usize, cols: usize, kind: DataKind) -> Self {
        DataDesc {
            name: name.into(),
            rows,
            cols,
            kind,
            region: None,
        }
    }

    /// Number of `f32` elements.
    #[inline]
    pub fn len(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// True when the structure holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Size in bytes (`len * 4`).
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.len() * crate::FLOAT_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_desc_sizes() {
        let d = DataDesc::new("Img", 1000, 1000, DataKind::Input);
        assert_eq!(d.len(), 1_000_000);
        assert_eq!(d.bytes(), 4_000_000);
        assert!(!d.is_empty());
    }

    #[test]
    fn empty_data() {
        let d = DataDesc::new("z", 0, 7, DataKind::Temporary);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn kind_boundary_rules() {
        assert!(DataKind::Input.starts_on_cpu());
        assert!(DataKind::Constant.starts_on_cpu());
        assert!(!DataKind::Temporary.starts_on_cpu());
        assert!(!DataKind::Output.starts_on_cpu());
    }

    #[test]
    fn huge_data_len_does_not_overflow_u32_math() {
        // 17 GB-footprint experiments need 64-bit sizes.
        let d = DataDesc::new("big", 100_000, 100_000, DataKind::Input);
        assert_eq!(d.len(), 10_000_000_000);
        assert_eq!(d.bytes(), 40_000_000_000);
    }

    #[test]
    fn display_ids() {
        assert_eq!(DataId(3).to_string(), "d3");
        assert_eq!(DataId(3).index(), 3);
    }
}
