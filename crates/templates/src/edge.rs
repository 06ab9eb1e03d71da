//! The edge-detection template (§4.1.1).
//!
//! ```text
//! edge_map = find_edges(Image, Kernel, num_orientations, Combine_op)
//! ```
//!
//! Computationally: convolve the input image with rotated versions of an
//! edge filter at `num_orientations` orientations, then combine the results
//! element-wise. Half the orientations are computed as convolutions; the
//! other half are derived by remapping the convolution results (the paper
//! uses "2 convolutions and 2 remaps" for four orientations), and the
//! combine consumes *all* edge maps.
//!
//! With 8 orientations this reproduces the Fig. 1(b) graph whose `max`
//! operator has the famous ~9× input-size footprint.

use gpuflow_graph::{DataId, DataKind, Graph, OpId, OpKind, RemapKind};

use crate::ParamError;

/// The combine operation applied across orientations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineOp {
    /// Element-wise maximum (the paper's experiments).
    Max,
    /// Element-wise maximum of absolute values.
    MaxAbs,
    /// Element-wise sum.
    Add,
}

impl CombineOp {
    fn op_kind(self, arity: u8) -> OpKind {
        match self {
            CombineOp::Max => OpKind::EwMax { arity },
            CombineOp::MaxAbs => OpKind::EwMaxAbs { arity },
            CombineOp::Add => OpKind::EwAdd { arity },
        }
    }
}

/// A built edge-detection template.
#[derive(Debug, Clone)]
pub struct EdgeTemplate {
    /// The operator graph.
    pub graph: Graph,
    /// The input image.
    pub image: DataId,
    /// The kernel constants, one per convolution.
    pub kernels: Vec<DataId>,
    /// The output edge map.
    pub edge_map: DataId,
    /// The convolution operators.
    pub convs: Vec<OpId>,
    /// The remap operators.
    pub remaps: Vec<OpId>,
    /// The combine operator.
    pub combine: OpId,
}

/// The most orientations one combine takes: its arity is a `u8`, and the
/// count must be even.
pub const MAX_ORIENTATIONS: usize = 254;

/// Check the parameters of [`find_edges`]: a non-empty kernel no larger
/// than the image, and an even orientation count in
/// `2..=`[`MAX_ORIENTATIONS`].
pub fn check_params(
    image_rows: usize,
    image_cols: usize,
    kernel_size: usize,
    num_orientations: usize,
) -> Result<(), ParamError> {
    if kernel_size == 0 {
        return Err(ParamError::EmptyKernel);
    }
    if image_rows < kernel_size || image_cols < kernel_size {
        return Err(ParamError::ImageSmallerThanKernel {
            rows: image_rows,
            cols: image_cols,
            kernel: kernel_size,
        });
    }
    if !(2..=MAX_ORIENTATIONS).contains(&num_orientations) || !num_orientations.is_multiple_of(2) {
        return Err(ParamError::Orientations(num_orientations));
    }
    Ok(())
}

/// Build the edge-detection template: the paper's `find_edges` API.
///
/// `num_orientations` must be even and ≥ 2: `n/2` convolutions and `n/2`
/// remaps. Panics on parameters [`check_params`] rejects (a template is
/// static configuration; front ends check outside input first).
///
/// ```
/// use gpuflow_templates::edge::{find_edges, CombineOp};
///
/// // The paper's experimental template: 16x16 filter, 4 orientations.
/// let t = find_edges(1000, 1000, 16, 4, CombineOp::Max);
/// assert_eq!(t.graph.num_ops(), 5); // 2 convs + 2 remaps + max
/// // The I/O lower bound of Table 1 (within valid-convolution shrinkage
/// // of the paper's idealized 2,000,512).
/// assert_eq!(t.graph.io_lower_bound_floats(), 1_000_000 + 512 + 985 * 985);
/// ```
pub fn find_edges(
    image_rows: usize,
    image_cols: usize,
    kernel_size: usize,
    num_orientations: usize,
    combine: CombineOp,
) -> EdgeTemplate {
    if let Err(e) = check_params(image_rows, image_cols, kernel_size, num_orientations) {
        panic!("{e}");
    }
    let half = num_orientations / 2;
    let mut g = Graph::new();
    let image = g.add("Img", image_rows, image_cols, DataKind::Input);
    let (er, ec) = (image_rows - kernel_size + 1, image_cols - kernel_size + 1);

    let mut kernels = Vec::with_capacity(half);
    let mut conv_outs = Vec::with_capacity(half);
    let mut convs = Vec::with_capacity(half);
    for i in 0..half {
        let k = g.add(
            format!("K{}", i + 1),
            kernel_size,
            kernel_size,
            DataKind::Constant,
        );
        kernels.push(k);
        let e = g.add(format!("E{}", i + 1), er, ec, DataKind::Temporary);
        let c = g
            .add_op(format!("C{}", i + 1), OpKind::Conv2d, vec![image, k], e)
            .expect("valid conv");
        convs.push(c);
        conv_outs.push(e);
    }
    let mut remap_outs = Vec::with_capacity(half);
    let mut remaps = Vec::with_capacity(half);
    for (i, &conv_out) in conv_outs.iter().enumerate() {
        let e = g.add(format!("E{}", half + i + 1), er, ec, DataKind::Temporary);
        let r = g
            .add_op(
                format!("R{}", i + 1),
                OpKind::Remap(RemapKind::FlipH),
                vec![conv_out],
                e,
            )
            .expect("valid remap");
        remaps.push(r);
        remap_outs.push(e);
    }
    let edge_map = g.add("Edg", er, ec, DataKind::Output);
    let mut all: Vec<DataId> = conv_outs;
    all.extend(remap_outs);
    let combine_op = g
        .add_op(
            "combine",
            combine.op_kind(u8::try_from(num_orientations).expect("checked above")),
            all,
            edge_map,
        )
        .expect("valid combine");

    EdgeTemplate {
        graph: g,
        image,
        kernels,
        edge_map,
        convs,
        remaps,
        combine: combine_op,
    }
}

impl EdgeTemplate {
    /// Footprint of the combine operator in floats — the "max ≈ 9× input"
    /// quantity of Fig. 1(c) (for 8 orientations: 8 inputs + 1 output).
    pub fn combine_footprint_floats(&self) -> u64 {
        self.graph.op_footprint_floats(self.combine)
    }

    /// Footprint of one convolution in floats (≈ 2× input).
    pub fn conv_footprint_floats(&self) -> u64 {
        self.graph.op_footprint_floats(self.convs[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_orientation_template_matches_paper_structure() {
        // §4.1.1: 16×16 filter, four orientations = 2 convolutions and 2
        // remaps, max combine.
        let t = find_edges(1000, 1000, 16, 4, CombineOp::Max);
        t.graph.validate().unwrap();
        assert_eq!(t.convs.len(), 2);
        assert_eq!(t.remaps.len(), 2);
        assert_eq!(t.kernels.len(), 2);
        assert_eq!(t.graph.num_ops(), 5);
        // 8 data structures: Img, 2 kernels, E1, E2, E5->E3, E4, Edg.
        assert_eq!(t.graph.num_data(), 8);
        // The combine consumes all four edge maps.
        assert_eq!(t.graph.op(t.combine).inputs.len(), 4);
    }

    #[test]
    fn table1_lower_bound_arithmetic() {
        // Paper Table 1, edge 1000²: I/O lower bound 2,000,512 floats.
        // With valid convolution the output is 985², slightly below the
        // paper's idealized 1000².
        let t = find_edges(1000, 1000, 16, 4, CombineOp::Max);
        let lb = t.graph.io_lower_bound_floats();
        let expect = 1000 * 1000 + 2 * 256 + 985 * 985;
        assert_eq!(lb, expect);
        // Within 3 % of the paper's idealized 2,000,512.
        assert!((lb as f64 - 2_000_512.0).abs() / 2_000_512.0 < 0.03);
    }

    #[test]
    fn eight_orientation_footprints_match_fig1c() {
        // Fig. 1(c): max ≈ 9× the input image, convolutions ≈ 2×.
        let n = 2000;
        let t = find_edges(n, n, 16, 8, CombineOp::Max);
        let img = (n * n) as f64;
        let maxf = t.combine_footprint_floats() as f64;
        let convf = t.conv_footprint_floats() as f64;
        assert!((maxf / img - 9.0).abs() < 0.3, "max/img = {}", maxf / img);
        assert!(
            (convf / img - 2.0).abs() < 0.1,
            "conv/img = {}",
            convf / img
        );
    }

    #[test]
    fn combine_op_variants() {
        for (c, expect) in [
            (CombineOp::Max, OpKind::EwMax { arity: 4 }),
            (CombineOp::MaxAbs, OpKind::EwMaxAbs { arity: 4 }),
            (CombineOp::Add, OpKind::EwAdd { arity: 4 }),
        ] {
            let t = find_edges(64, 64, 5, 4, c);
            assert_eq!(t.graph.op(t.combine).kind, expect);
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_orientations_rejected() {
        find_edges(64, 64, 5, 3, CombineOp::Max);
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn tiny_image_rejected() {
        find_edges(4, 4, 5, 4, CombineOp::Max);
    }

    #[test]
    fn check_params_names_what_cannot_be_built() {
        assert_eq!(check_params(64, 64, 0, 4), Err(ParamError::EmptyKernel));
        assert_eq!(
            check_params(64, 8, 16, 4),
            Err(ParamError::ImageSmallerThanKernel {
                rows: 64,
                cols: 8,
                kernel: 16
            })
        );
        for o in [0, 1, 3, 256, 2000] {
            assert_eq!(check_params(64, 64, 5, o), Err(ParamError::Orientations(o)));
        }
        assert_eq!(check_params(64, 64, 64, 2), Ok(()));
        // The widest combine the u8 arity holds builds.
        check_params(16, 16, 3, MAX_ORIENTATIONS).unwrap();
        let t = find_edges(16, 16, 3, MAX_ORIENTATIONS, CombineOp::Max);
        assert_eq!(t.graph.op(t.combine).inputs.len(), MAX_ORIENTATIONS);
    }

    #[test]
    fn rectangular_images_supported() {
        let t = find_edges(100, 300, 9, 6, CombineOp::Add);
        t.graph.validate().unwrap();
        let e = t.graph.shape(t.edge_map);
        assert_eq!((e.rows, e.cols), (92, 292));
        assert_eq!(t.convs.len(), 3);
    }
}
