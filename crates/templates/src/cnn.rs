//! Convolutional neural network templates (§4.1.2).
//!
//! The paper builds its CNNs from torch5 primitives and restricts the
//! operator vocabulary to "simple non-separable 2D convolutions, data
//! parallel additions and tanh operations". [`CnnBuilder`] mirrors the
//! torch5 layer API and applies the Fig. 7 transformation: a convolutional
//! layer with `I` input planes and `O` output planes becomes `I·O`
//! convolutions, `(I-1)·O` accumulation adds, and `O` bias adds.
//!
//! [`small_cnn`] and [`large_cnn`] instantiate the paper's two evaluation
//! networks: 11 layers each (4 convolutional, 2 sub-sampling, 5 tanh). The
//! paper reports their graph sizes — small: 1600 operators / 2434 data
//! structures; large: 7500 / 11334 — without giving plane counts; the
//! plane counts here are chosen to match those totals within ~2 %
//! (small: 1568 ops / 2369 data; large: 7496 / 11293).

use gpuflow_graph::{DataId, DataKind, Graph, OpKind, SubsampleKind};

use crate::ParamError;

/// A built CNN template.
#[derive(Debug, Clone)]
pub struct CnnTemplate {
    /// The operator graph.
    pub graph: Graph,
    /// Input plane data ids.
    pub inputs: Vec<DataId>,
    /// Convolution kernel constants, in creation order.
    pub weights: Vec<DataId>,
    /// Bias constants (1×1), in creation order.
    pub biases: Vec<DataId>,
    /// Output plane data ids.
    pub outputs: Vec<DataId>,
    /// Number of layers added.
    pub num_layers: usize,
}

/// Incremental CNN builder with torch5-like layers.
#[derive(Debug)]
pub struct CnnBuilder {
    graph: Graph,
    inputs: Vec<DataId>,
    weights: Vec<DataId>,
    biases: Vec<DataId>,
    /// Current frontier: the planes produced by the last layer.
    planes: Vec<DataId>,
    rows: usize,
    cols: usize,
    layer: usize,
}

impl CnnBuilder {
    /// Start a network with `in_planes` input planes of `rows × cols`.
    pub fn new(in_planes: usize, rows: usize, cols: usize) -> Self {
        assert!(in_planes >= 1 && rows >= 1 && cols >= 1);
        let mut graph = Graph::new();
        let planes: Vec<DataId> = (0..in_planes)
            .map(|p| graph.add(format!("in{p}"), rows, cols, DataKind::Input))
            .collect();
        CnnBuilder {
            graph,
            inputs: planes.clone(),
            weights: Vec::new(),
            biases: Vec::new(),
            planes,
            rows,
            cols,
            layer: 0,
        }
    }

    /// Number of planes at the current frontier.
    pub fn planes(&self) -> usize {
        self.planes.len()
    }

    /// Current plane shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// torch5 `SpatialConvolution`: fully connected convolutional layer
    /// with `out_planes` outputs and a `k × k` kernel per (in, out) pair,
    /// expanded per Fig. 7.
    pub fn spatial_convolution(mut self, out_planes: usize, k: usize) -> Self {
        assert!(out_planes >= 1);
        assert!(
            self.rows >= k && self.cols >= k,
            "plane smaller than kernel"
        );
        self.layer += 1;
        let l = self.layer;
        let in_planes = self.planes.clone();
        let i_n = in_planes.len();
        let (or, oc) = (self.rows - k + 1, self.cols - k + 1);
        let mut outs = Vec::with_capacity(out_planes);
        for j in 0..out_planes {
            // I convolutions.
            let mut partials = Vec::with_capacity(i_n);
            for (i, &inp) in in_planes.iter().enumerate() {
                let w = self
                    .graph
                    .add(format!("L{l}.K{i}.{j}"), k, k, DataKind::Constant);
                self.weights.push(w);
                let lij = self
                    .graph
                    .add(format!("L{l}.L{i}.{j}"), or, oc, DataKind::Temporary);
                self.graph
                    .add_op(
                        format!("L{l}.conv{i}.{j}"),
                        OpKind::Conv2d,
                        vec![inp, w],
                        lij,
                    )
                    .expect("valid conv");
                partials.push(lij);
            }
            // (I-1) accumulation adds.
            let mut acc = partials[0];
            for (i, &p) in partials.iter().enumerate().skip(1) {
                let s = self
                    .graph
                    .add(format!("L{l}.S{i}.{j}"), or, oc, DataKind::Temporary);
                self.graph
                    .add_op(
                        format!("L{l}.add{i}.{j}"),
                        OpKind::EwAdd { arity: 2 },
                        vec![acc, p],
                        s,
                    )
                    .expect("valid add");
                acc = s;
            }
            // Bias add produces the output plane.
            let b = self
                .graph
                .add(format!("L{l}.B{j}"), 1, 1, DataKind::Constant);
            self.biases.push(b);
            let out = self
                .graph
                .add(format!("L{l}.O{j}"), or, oc, DataKind::Temporary);
            self.graph
                .add_op(format!("L{l}.bias{j}"), OpKind::BiasAdd, vec![acc, b], out)
                .expect("valid bias");
            outs.push(out);
        }
        self.planes = outs;
        self.rows = or;
        self.cols = oc;
        self
    }

    /// torch5 `Tanh`: element-wise non-linearity on every plane.
    pub fn tanh(mut self) -> Self {
        self.layer += 1;
        let l = self.layer;
        let planes = self.planes.clone();
        self.planes = planes
            .iter()
            .enumerate()
            .map(|(j, &p)| {
                let out = self.graph.add(
                    format!("L{l}.T{j}"),
                    self.rows,
                    self.cols,
                    DataKind::Temporary,
                );
                self.graph
                    .add_op(format!("L{l}.tanh{j}"), OpKind::Tanh, vec![p], out)
                    .expect("valid tanh");
                out
            })
            .collect();
        self
    }

    /// torch5 `SpatialSubSampling`: `factor × factor` average pooling.
    pub fn spatial_subsample(mut self, factor: usize) -> Self {
        assert!(self.rows >= factor && self.cols >= factor);
        self.layer += 1;
        let l = self.layer;
        let (or, oc) = (self.rows / factor, self.cols / factor);
        let planes = self.planes.clone();
        self.planes = planes
            .iter()
            .enumerate()
            .map(|(j, &p)| {
                let out = self
                    .graph
                    .add(format!("L{l}.P{j}"), or, oc, DataKind::Temporary);
                self.graph
                    .add_op(
                        format!("L{l}.pool{j}"),
                        OpKind::Subsample {
                            factor: factor as u8,
                            kind: SubsampleKind::Avg,
                        },
                        vec![p],
                        out,
                    )
                    .expect("valid pool");
                out
            })
            .collect();
        self.rows = or;
        self.cols = oc;
        self
    }

    /// Finish: retag the frontier planes as template outputs.
    pub fn build(mut self) -> CnnTemplate {
        for &p in &self.planes {
            self.graph.data_mut(p).kind = DataKind::Output;
        }
        CnnTemplate {
            graph: self.graph,
            inputs: self.inputs,
            weights: self.weights,
            biases: self.biases,
            outputs: self.planes,
            num_layers: self.layer,
        }
    }
}

/// The paper's "small CNN": 11 layers, ≈1600 operators, ≈2434 data
/// structures, for a `rows × cols` single-plane input.
pub fn small_cnn(rows: usize, cols: usize) -> CnnTemplate {
    CnnBuilder::new(1, rows, cols)
        .spatial_convolution(6, 5)
        .tanh()
        .spatial_subsample(2)
        .spatial_convolution(16, 5)
        .tanh()
        .spatial_subsample(2)
        .spatial_convolution(32, 5)
        .tanh()
        .spatial_convolution(4, 5)
        .tanh()
        .tanh()
        .build()
}

/// The paper's "large CNN": 11 layers, ≈7500 operators, ≈11334 data
/// structures.
pub fn large_cnn(rows: usize, cols: usize) -> CnnTemplate {
    CnnBuilder::new(1, rows, cols)
        .spatial_convolution(8, 5)
        .tanh()
        .spatial_subsample(2)
        .spatial_convolution(24, 5)
        .tanh()
        .spatial_subsample(2)
        .spatial_convolution(96, 5)
        .tanh()
        .spatial_convolution(12, 5)
        .tanh()
        .tanh()
        .build()
}

/// The smallest input side [`small_cnn`] and [`large_cnn`] build from:
/// both run a 5×5 convolution and 2× pooling twice, then two more 5×5
/// convolutions, which needs `((n − 4) / 2 − 4) / 2 ≥ 9`.
pub const MIN_INPUT: usize = 48;

/// Check that a `rows × cols` input is large enough for [`small_cnn`] and
/// [`large_cnn`].
pub fn check_input(rows: usize, cols: usize) -> Result<(), ParamError> {
    if rows < MIN_INPUT || cols < MIN_INPUT {
        return Err(ParamError::CnnInputTooSmall { rows, cols });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_input_is_the_smallest_both_networks_build_from() {
        assert_eq!(check_input(MIN_INPUT, MIN_INPUT), Ok(()));
        for (rows, cols) in [(MIN_INPUT - 1, 640), (640, MIN_INPUT - 1)] {
            assert_eq!(
                check_input(rows, cols),
                Err(ParamError::CnnInputTooSmall { rows, cols })
            );
        }
        small_cnn(MIN_INPUT, MIN_INPUT).graph.validate().unwrap();
        large_cnn(MIN_INPUT, MIN_INPUT).graph.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn an_input_below_min_input_does_not_build() {
        let _ = small_cnn(MIN_INPUT - 1, MIN_INPUT);
    }

    #[test]
    fn fig7_layer_expansion() {
        // 3 input planes, 2 output planes: 6 convs, 4 accumulation adds,
        // 2 bias adds — exactly the Fig. 7 right-hand side.
        let t = CnnBuilder::new(3, 16, 16).spatial_convolution(2, 3).build();
        t.graph.validate().unwrap();
        let convs = t
            .graph
            .op_ids()
            .filter(|&o| t.graph.op(o).kind == OpKind::Conv2d)
            .count();
        let adds = t
            .graph
            .op_ids()
            .filter(|&o| matches!(t.graph.op(o).kind, OpKind::EwAdd { .. }))
            .count();
        let biases = t
            .graph
            .op_ids()
            .filter(|&o| t.graph.op(o).kind == OpKind::BiasAdd)
            .count();
        assert_eq!((convs, adds, biases), (6, 4, 2));
        assert_eq!(t.graph.num_ops(), 12); // 2·I·O
        assert_eq!(t.outputs.len(), 2);
        assert_eq!(t.weights.len(), 6);
        assert_eq!(t.biases.len(), 2);
    }

    #[test]
    fn small_cnn_matches_reported_graph_size() {
        let t = small_cnn(640, 480);
        t.graph.validate().unwrap();
        assert_eq!(t.num_layers, 11);
        // Paper: ~1600 operators, ~2434 data structures.
        let ops = t.graph.num_ops();
        let data = t.graph.num_data();
        assert!((1500..=1700).contains(&ops), "ops = {ops}");
        assert!((2300..=2500).contains(&data), "data = {data}");
    }

    #[test]
    fn large_cnn_matches_reported_graph_size() {
        let t = large_cnn(640, 480);
        t.graph.validate().unwrap();
        assert_eq!(t.num_layers, 11);
        // Paper: ~7500 operators, ~11334 data structures.
        let ops = t.graph.num_ops();
        let data = t.graph.num_data();
        assert!((7300..=7700).contains(&ops), "ops = {ops}");
        assert!((11000..=11600).contains(&data), "data = {data}");
    }

    #[test]
    fn layer_kinds_count() {
        // 4 conv + 2 subsample + 5 tanh = 11 layers, as in the paper.
        let t = small_cnn(64, 64);
        assert_eq!(t.num_layers, 11);
        let pools = t
            .graph
            .op_ids()
            .filter(|&o| matches!(t.graph.op(o).kind, OpKind::Subsample { .. }))
            .count();
        // 6 + 16 pooled planes.
        assert_eq!(pools, 22);
    }

    #[test]
    fn shapes_flow_through_layers() {
        let b = CnnBuilder::new(1, 100, 80)
            .spatial_convolution(4, 5) // 96 x 76
            .tanh()
            .spatial_subsample(2); // 48 x 38
        assert_eq!(b.shape(), (48, 38));
        assert_eq!(b.planes(), 4);
        let t = b.build();
        for &o in &t.outputs {
            assert_eq!(t.graph.shape(o), gpuflow_graph::Shape::new(48, 38));
            assert_eq!(t.graph.data(o).kind, DataKind::Output);
        }
    }

    #[test]
    fn single_input_plane_has_no_accumulation_adds() {
        let t = CnnBuilder::new(1, 10, 10).spatial_convolution(3, 3).build();
        let adds = t
            .graph
            .op_ids()
            .filter(|&o| matches!(t.graph.op(o).kind, OpKind::EwAdd { .. }))
            .count();
        assert_eq!(adds, 0);
        assert_eq!(t.graph.num_ops(), 6); // 3 convs + 3 bias adds
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn conv_on_tiny_plane_rejected() {
        let _ = CnnBuilder::new(1, 4, 4).spatial_convolution(1, 5);
    }
}
