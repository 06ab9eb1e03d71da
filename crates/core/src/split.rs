//! Operator splitting (§3.2): make every operator's working set fit the
//! device memory budget.
//!
//! The pass computes, for every operator, the minimal number of row-band
//! pieces that brings its footprint (sum of the sizes of its input and
//! output data structures) under the budget, takes the maximum `P` over the
//! graph, and rewrites the graph with every large operator split into `P`
//! band pieces:
//!
//! * **Element-wise** operators read exactly the matching band of each
//!   non-broadcast input; kernels and biases are replicated (§3.2: "The
//!   convolution kernel matrix … should not be split").
//! * **Stencil** operators (convolutions) read a *halo-extended* region —
//!   the paper's 100×100 ⊛ 5×5 example splits into two 100×52 inputs.
//! * **Row-scaled** operators (subsampling) read `factor`× the band.
//! * **Mirrored** remaps read the mirrored region.
//! * **Matrix multiplies** split input 0 and the output and broadcast
//!   input 1 (the paper's splitting hint for large GEMMs).
//! * **Reductions** split structurally into partial reductions plus a
//!   combine chain.
//! * **Unsplittable** operators must fit whole, matching the paper's
//!   closing remark in §3.2.
//!
//! Input regions are resolved against whatever pieces the producing
//! operator creates; host-resident data (template inputs and constants) is
//! sliced into exact views at transfer time, so overlapping halo regions
//! cost no extra operator. When a required region of a *produced* data
//! structure does not align with its producer's bands, an explicit
//! [`OpKind::GatherRows`] operator reassembles it on the device.

use std::collections::HashMap;

use gpuflow_graph::{
    DataDesc, DataId, DataKind, Graph, OpId, OpKind, ReduceKind, SplitClass, FLOAT_BYTES,
};

use crate::error::FrameworkError;

/// Where a data structure of the split graph comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataOrigin {
    /// Rows `row_off ..` of the original graph's data structure `parent`
    /// (covering the piece's own row count).
    Region {
        /// Data id *in the original graph*.
        parent: DataId,
        /// First covered row of the parent.
        row_off: usize,
    },
    /// Created by the pass itself (partial-reduction scalars, combine
    /// intermediates).
    Fresh,
}

/// Output of [`split_graph`].
#[derive(Debug, Clone)]
pub struct SplitResult {
    /// The rewritten graph in which every operator fits the budget.
    pub graph: Graph,
    /// Per new-graph data id: provenance relative to the original graph.
    pub origin: Vec<DataOrigin>,
    /// Per new-graph op id: the original operator it implements (`None`
    /// only for inserted gather operators' — they are attributed to the
    /// consuming original operator, so in practice always `Some`).
    pub op_parent: Vec<Option<OpId>>,
    /// The global split factor `P` that was applied (1 = graph unchanged
    /// structurally).
    pub parts: usize,
}

impl SplitResult {
    /// Origin of new data `d`.
    pub fn origin_of(&self, d: DataId) -> DataOrigin {
        self.origin[d.index()]
    }
}

/// Row range of band `i` of `P` over `rows` rows: `[rows·i/P, rows·(i+1)/P)`.
pub fn band_bounds(rows: usize, parts: usize, i: usize) -> (usize, usize) {
    (rows * i / parts, rows * (i + 1) / parts)
}

/// Worst-case footprint in bytes of one piece of `op` when split into
/// `parts` row bands.
pub fn piece_footprint_bytes(g: &Graph, op: OpId, parts: usize) -> u64 {
    let node = g.op(op);
    let out = node.outputs[0];
    let out_shape = g.shape(out);
    if parts <= 1 {
        return g.op_footprint_bytes(op);
    }
    let band = |rows: usize| rows.div_ceil(parts) as u64;
    let floats: u64 = match node.kind.split_class() {
        SplitClass::Elementwise { broadcast_inputs } => {
            let mut total = band(out_shape.rows) * out_shape.cols as u64;
            for (i, &inp) in node.inputs.iter().enumerate() {
                let s = g.shape(inp);
                if broadcast_inputs.contains(&i) {
                    total += s.len();
                } else {
                    total += band(s.rows) * s.cols as u64;
                }
            }
            total
        }
        SplitClass::Stencil => {
            let img = g.shape(node.inputs[0]);
            let ker = g.shape(node.inputs[1]);
            let halo = ker.rows - 1;
            band(out_shape.rows) * out_shape.cols as u64
                + (band(out_shape.rows) + halo as u64) * img.cols as u64
                + ker.len()
        }
        SplitClass::RowScaled { factor } => {
            let inp = g.shape(node.inputs[0]);
            band(out_shape.rows) * out_shape.cols as u64
                + band(out_shape.rows) * factor as u64 * inp.cols as u64
        }
        SplitClass::MirrorRows => {
            let inp = g.shape(node.inputs[0]);
            band(out_shape.rows) * out_shape.cols as u64 + band(inp.rows) * inp.cols as u64
        }
        SplitClass::MatMulRows => {
            let a = g.shape(node.inputs[0]);
            let b = g.shape(node.inputs[1]);
            band(out_shape.rows) * out_shape.cols as u64 + band(a.rows) * a.cols as u64 + b.len()
        }
        SplitClass::Reduction { .. } => {
            let inp = g.shape(node.inputs[0]);
            // One partial reduction piece: an input band plus two scalars.
            band(inp.rows) * inp.cols as u64 + 2
        }
        SplitClass::Unsplittable => return g.op_footprint_bytes(op),
    };
    floats * FLOAT_BYTES
}

/// Minimal number of parts that brings `op` under `budget` bytes.
pub fn op_parts_needed(g: &Graph, op: OpId, budget: u64) -> Result<usize, FrameworkError> {
    let footprint = g.op_footprint_bytes(op);
    if footprint <= budget {
        return Ok(1);
    }
    let node = g.op(op);
    if node.kind.split_class() == SplitClass::Unsplittable {
        return Err(FrameworkError::UnsplittableTooLarge {
            op,
            footprint,
            budget,
        });
    }
    let max_parts = match node.kind.split_class() {
        SplitClass::Reduction { .. } => g.shape(node.inputs[0]).rows,
        _ => g.shape(node.outputs[0]).rows,
    }
    .clamp(1, 255);
    if max_parts < 2 {
        return Err(FrameworkError::CannotSplitEnough {
            op,
            min_footprint: piece_footprint_bytes(g, op, max_parts),
            budget,
        });
    }
    // Jump straight to the naive estimate, then refine upward.
    let mut p = ((footprint / budget.max(1)) as usize).clamp(2, max_parts);
    // The estimate can overshoot minimality; walk down first.
    while p > 2 && piece_footprint_bytes(g, op, p - 1) <= budget {
        p -= 1;
    }
    while p <= max_parts {
        if piece_footprint_bytes(g, op, p) <= budget {
            return Ok(p);
        }
        p += 1;
    }
    Err(FrameworkError::CannotSplitEnough {
        op,
        min_footprint: piece_footprint_bytes(g, op, max_parts),
        budget,
    })
}

/// State for the rewrite.
struct Rewriter<'a> {
    orig: &'a Graph,
    ng: Graph,
    origin: Vec<DataOrigin>,
    op_parent: Vec<Option<OpId>>,
    /// Per original data id: its pieces `(lo, hi, new id)`, in order, once
    /// its producer has been rewritten (empty before, and for host data).
    produced: Vec<Vec<(usize, usize, DataId)>>,
    /// Cached host-data views and gathers keyed by `(orig, lo, hi)`. Only
    /// probed and filled, never iterated, so its order cannot reach the
    /// rewrite.
    region_cache: HashMap<(DataId, usize, usize), DataId>,
}

impl<'a> Rewriter<'a> {
    fn add_data(&mut self, mut desc: DataDesc, origin: DataOrigin) -> DataId {
        if let DataOrigin::Region { parent, row_off } = origin {
            // Record provenance on the descriptor too, so exported plans
            // and DOT dumps carry it. `parent` refers to the ORIGINAL
            // (pre-split) graph's data id.
            desc.region = Some(gpuflow_graph::Region {
                parent,
                row_off,
                col_off: 0,
            });
        }
        let id = self.ng.add_data(desc);
        self.origin.push(origin);
        id
    }

    fn add_op(
        &mut self,
        name: String,
        kind: OpKind,
        inputs: Vec<DataId>,
        output: DataId,
        parent: Option<OpId>,
    ) -> Result<(), FrameworkError> {
        self.ng
            .add_op(name, kind, inputs, output)
            .map_err(|e| FrameworkError::InvalidGraph(e.to_string()))?;
        self.op_parent.push(parent);
        Ok(())
    }

    /// Data id in the new graph holding rows `[lo, hi)` of original data
    /// `d`. May create a host view or a gather operator.
    fn resolve(
        &mut self,
        d: DataId,
        lo: usize,
        hi: usize,
        for_op: OpId,
    ) -> Result<DataId, FrameworkError> {
        let pieces = &self.produced[d.index()];
        if !pieces.is_empty() {
            // Exact band?
            if let Some(&(_, _, id)) = pieces.iter().find(|&&(a, b, _)| a == lo && b == hi) {
                return Ok(id);
            }
            if let Some(&id) = self.region_cache.get(&(d, lo, hi)) {
                return Ok(id);
            }
            // Gather the covering bands.
            let covering: Vec<(usize, usize, DataId)> = pieces
                .iter()
                .copied()
                .filter(|&(a, b, _)| a < hi && b > lo)
                .collect();
            assert!(
                !covering.is_empty(),
                "region not covered by producer pieces"
            );
            let virt_off = lo - covering[0].0;
            let desc = self.orig.data(d);
            let out = self.add_data(
                DataDesc::new(
                    format!("{}[{lo}..{hi}]", desc.name),
                    hi - lo,
                    desc.cols,
                    DataKind::Temporary,
                ),
                DataOrigin::Region {
                    parent: d,
                    row_off: lo,
                },
            );
            let kind = OpKind::GatherRows {
                arity: covering.len() as u8,
                row_off: virt_off as u32,
                rows: (hi - lo) as u32,
            };
            let inputs: Vec<DataId> = covering.iter().map(|&(_, _, id)| id).collect();
            self.add_op(
                format!("gather:{}[{lo}..{hi}]", desc.name),
                kind,
                inputs,
                out,
                Some(for_op),
            )?;
            self.region_cache.insert((d, lo, hi), out);
            Ok(out)
        } else {
            // Host-resident data: a view extracted at transfer time.
            if let Some(&id) = self.region_cache.get(&(d, lo, hi)) {
                return Ok(id);
            }
            let desc = self.orig.data(d);
            debug_assert!(
                desc.kind.starts_on_cpu(),
                "unproduced data must be host-resident"
            );
            let full = lo == 0 && hi == desc.rows;
            let name = if full {
                desc.name.clone()
            } else {
                format!("{}[{lo}..{hi}]", desc.name)
            };
            let id = self.add_data(
                DataDesc::new(name, hi - lo, desc.cols, desc.kind),
                DataOrigin::Region {
                    parent: d,
                    row_off: lo,
                },
            );
            self.region_cache.insert((d, lo, hi), id);
            Ok(id)
        }
    }
}

/// Split every oversized operator of `g` so that all working sets fit in
/// `budget_bytes`.
///
/// The per-operator piece-footprint model does not account for the
/// `GatherRows` halo exchanges the rewrite may have to insert (a gather
/// touches the covering bands *and* its output region at once), so the
/// split factor is verified against the rewritten graph and escalated
/// until every operator — gathers included — fits. This mirrors the
/// paper's §3.2 loop: "Perform steps 1 & 2 until it is feasible to execute
/// all operators on the GPU."
pub fn split_graph(g: &Graph, budget_bytes: u64) -> Result<SplitResult, FrameworkError> {
    split_graph_min_parts(g, budget_bytes, 1)
}

/// Like [`split_graph`], but never applies a split factor below
/// `min_parts` (the memory-driven factor still escalates past it when the
/// budget demands more). Multi-device sharding uses this to force at least
/// one row-band piece per device even when everything would fit on one.
pub fn split_graph_min_parts(
    g: &Graph,
    budget_bytes: u64,
    min_parts: usize,
) -> Result<SplitResult, FrameworkError> {
    let mut rewrites = Rewrites::default();
    rewrites.split(g, budget_bytes, min_parts)?;
    Ok(rewrites.take())
}

/// The rewrites of one template at a sequence of shrinking budgets — the
/// margin ladder's. A rewrite is a pure function of the template and the
/// split factor; only the factor the loop starts from and the footprint
/// check depend on the budget. So the latest rewrite that fit is kept and
/// reused whenever the loop lands on its factor again. A rewrite that did
/// not fit is dropped at once, and a fitting one gives way to the next
/// one that fits: a smaller budget never goes back to a coarser factor,
/// so one rewrite is all that is worth keeping.
#[derive(Debug, Default)]
pub(crate) struct Rewrites {
    /// The template's topological op order, once the template validated.
    order: Option<Vec<OpId>>,
    /// The latest rewrite that fit its budget.
    latest: Option<SplitResult>,
}

impl Rewrites {
    /// [`split_graph_min_parts`] of `g`, which must be the template of
    /// every earlier call. Returns whether a rewrite ran; either way the
    /// result is [`Rewrites::latest`].
    pub(crate) fn split(
        &mut self,
        g: &Graph,
        budget_bytes: u64,
        min_parts: usize,
    ) -> Result<bool, FrameworkError> {
        if self.order.is_none() {
            g.validate()
                .map_err(|e| FrameworkError::InvalidGraph(e.to_string()))?;
            self.order = Some(
                gpuflow_graph::topo_sort(g)
                    .map_err(|e| FrameworkError::InvalidGraph(e.to_string()))?,
            );
        }
        let order = self.order.as_deref().expect("validated above");

        let mut parts_global = min_parts.clamp(1, 255);
        for o in g.op_ids() {
            parts_global = parts_global.max(op_parts_needed(g, o, budget_bytes)?);
        }

        let mut rewrote = false;
        loop {
            let fresh = match &self.latest {
                Some(latest) if latest.parts == parts_global => None,
                _ => Some(rewrite_with_parts(g, order, parts_global)?),
            };
            rewrote |= fresh.is_some();
            let result = fresh
                .as_ref()
                .or(self.latest.as_ref())
                .expect("the latest rewrite or a fresh one");
            let bad = (0..result.graph.num_ops() as u32)
                .map(gpuflow_graph::OpId)
                .find(|&o| result.graph.op_footprint_bytes(o) > budget_bytes);
            match bad {
                None => {
                    if fresh.is_some() {
                        self.latest = fresh;
                    }
                    return Ok(rewrote);
                }
                Some(bad) => {
                    if parts_global >= 255 {
                        return Err(FrameworkError::CannotSplitEnough {
                            op: result.op_parent[bad.index()].unwrap_or(gpuflow_graph::OpId(0)),
                            min_footprint: result.graph.op_footprint_bytes(bad),
                            budget: budget_bytes,
                        });
                    }
                    // Halo-exchange working sets shrink with the band
                    // height; escalate and rebuild.
                    parts_global = (parts_global * 2).min(255);
                }
            }
        }
    }

    /// The result of the last successful [`Rewrites::split`].
    pub(crate) fn latest(&self) -> &SplitResult {
        self.latest.as_ref().expect("a split succeeded")
    }

    /// [`Rewrites::latest`], moved out.
    pub(crate) fn take(&mut self) -> SplitResult {
        self.latest.take().expect("a split succeeded")
    }
}

/// One rewrite attempt at a fixed global split factor.
fn rewrite_with_parts(
    g: &Graph,
    order: &[gpuflow_graph::OpId],
    parts_global: usize,
) -> Result<SplitResult, FrameworkError> {
    let mut rw = Rewriter {
        orig: g,
        ng: Graph::new(),
        origin: Vec::new(),
        op_parent: Vec::new(),
        produced: vec![Vec::new(); g.num_data()],
        region_cache: HashMap::new(),
    };

    for &o in order {
        let node = g.op(o).clone();
        let out_d = node.outputs[0];
        let out_desc = g.data(out_d).clone();
        let class = node.kind.split_class();

        // Effective piece count for this operator.
        let p_eff = if parts_global <= 1 {
            1
        } else {
            match class {
                SplitClass::Unsplittable => 1,
                SplitClass::Reduction { .. } => {
                    parts_global.min(g.shape(node.inputs[0]).rows).max(1)
                }
                _ => parts_global.min(out_desc.rows).max(1),
            }
        };

        if p_eff <= 1 {
            // Whole operator: resolve full input regions, one output piece.
            let mut inputs = Vec::with_capacity(node.inputs.len());
            for &inp in &node.inputs {
                let rows = g.data(inp).rows;
                inputs.push(rw.resolve(inp, 0, rows, o)?);
            }
            let out = rw.add_data(
                DataDesc::new(
                    out_desc.name.clone(),
                    out_desc.rows,
                    out_desc.cols,
                    out_desc.kind,
                ),
                DataOrigin::Region {
                    parent: out_d,
                    row_off: 0,
                },
            );
            rw.produced[out_d.index()] = vec![(0, out_desc.rows, out)];
            rw.add_op(node.name.clone(), node.kind, inputs, out, Some(o))?;
            continue;
        }

        if let SplitClass::Reduction { combine } = class {
            split_reduction(&mut rw, g, o, &node, combine, p_eff)?;
            continue;
        }

        // Create the output bands up front so consumers can find them.
        let mut out_pieces = Vec::with_capacity(p_eff);
        for i in 0..p_eff {
            let (lo, hi) = band_bounds(out_desc.rows, p_eff, i);
            let id = rw.add_data(
                DataDesc::new(
                    format!("{}[{i}]", out_desc.name),
                    hi - lo,
                    out_desc.cols,
                    out_desc.kind,
                ),
                DataOrigin::Region {
                    parent: out_d,
                    row_off: lo,
                },
            );
            out_pieces.push((lo, hi, id));
        }
        rw.produced[out_d.index()] = out_pieces.clone();

        for (i, &(lo, hi)) in out_pieces
            .iter()
            .map(|&(a, b, _)| (a, b))
            .collect::<Vec<_>>()
            .iter()
            .enumerate()
        {
            let mut inputs = Vec::with_capacity(node.inputs.len());
            match class {
                SplitClass::Elementwise { broadcast_inputs } => {
                    for (k, &inp) in node.inputs.iter().enumerate() {
                        if broadcast_inputs.contains(&k) {
                            let rows = g.data(inp).rows;
                            inputs.push(rw.resolve(inp, 0, rows, o)?);
                        } else {
                            inputs.push(rw.resolve(inp, lo, hi, o)?);
                        }
                    }
                }
                SplitClass::Stencil => {
                    let halo = g.shape(node.inputs[1]).rows - 1;
                    inputs.push(rw.resolve(node.inputs[0], lo, hi + halo, o)?);
                    let krows = g.data(node.inputs[1]).rows;
                    inputs.push(rw.resolve(node.inputs[1], 0, krows, o)?);
                }
                SplitClass::RowScaled { factor } => {
                    let f = factor as usize;
                    inputs.push(rw.resolve(node.inputs[0], lo * f, hi * f, o)?);
                }
                SplitClass::MirrorRows => {
                    let r = g.data(node.inputs[0]).rows;
                    inputs.push(rw.resolve(node.inputs[0], r - hi, r - lo, o)?);
                }
                SplitClass::MatMulRows => {
                    inputs.push(rw.resolve(node.inputs[0], lo, hi, o)?);
                    let rows = g.data(node.inputs[1]).rows;
                    inputs.push(rw.resolve(node.inputs[1], 0, rows, o)?);
                }
                SplitClass::Reduction { .. } | SplitClass::Unsplittable => unreachable!(),
            }
            let out_id = out_pieces[i].2;
            rw.add_op(
                format!("{}[{i}]", node.name),
                node.kind,
                inputs,
                out_id,
                Some(o),
            )?;
        }
    }

    let graph = std::mem::take(&mut rw.ng);
    Ok(SplitResult {
        graph,
        origin: rw.origin,
        op_parent: rw.op_parent,
        parts: parts_global,
    })
}

/// Structural split of a full reduction: partial reductions over input
/// bands, then a chain of binary combines.
fn split_reduction(
    rw: &mut Rewriter<'_>,
    g: &Graph,
    o: OpId,
    node: &gpuflow_graph::OpNode,
    combine: ReduceKind,
    p_eff: usize,
) -> Result<(), FrameworkError> {
    let in_d = node.inputs[0];
    let in_rows = g.data(in_d).rows;
    let out_d = node.outputs[0];
    let out_desc = g.data(out_d).clone();

    let mut partials = Vec::with_capacity(p_eff);
    for i in 0..p_eff {
        let (lo, hi) = band_bounds(in_rows, p_eff, i);
        let inp = rw.resolve(in_d, lo, hi, o)?;
        let part = rw.add_data(
            DataDesc::new(format!("{}:part{i}", node.name), 1, 1, DataKind::Temporary),
            DataOrigin::Fresh,
        );
        rw.add_op(
            format!("{}[{i}]", node.name),
            node.kind,
            vec![inp],
            part,
            Some(o),
        )?;
        partials.push(part);
    }
    // Combine chain: acc₀ = p₀; accᵢ = combine(accᵢ₋₁, pᵢ); last acc is the
    // original output.
    let combine_kind = match combine {
        ReduceKind::Sum => OpKind::EwAdd { arity: 2 },
        // MaxAbs partials are already absolute values.
        ReduceKind::Max | ReduceKind::MaxAbs => OpKind::EwMax { arity: 2 },
    };
    let mut acc = partials[0];
    for (j, &part) in partials.iter().enumerate().skip(1) {
        let is_last = j == p_eff - 1;
        let (dest, origin) = if is_last {
            (
                DataDesc::new(out_desc.name.clone(), 1, 1, out_desc.kind),
                DataOrigin::Region {
                    parent: out_d,
                    row_off: 0,
                },
            )
        } else {
            (
                DataDesc::new(format!("{}:acc{j}", node.name), 1, 1, DataKind::Temporary),
                DataOrigin::Fresh,
            )
        };
        let dest_id = rw.add_data(dest, origin);
        rw.add_op(
            format!("{}:combine{j}", node.name),
            combine_kind,
            vec![acc, part],
            dest_id,
            Some(o),
        )?;
        acc = dest_id;
    }
    rw.produced[out_d.index()] = vec![(0, 1, acc)];
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_graph::{RemapKind, SubsampleKind};

    /// The paper's experimental edge template: 2 convs, 2 remaps, 4-ary max.
    fn edge_graph(n: usize, k: usize) -> Graph {
        let mut g = Graph::new();
        let img = g.add("Img", n, n, DataKind::Input);
        let k1 = g.add("K1", k, k, DataKind::Constant);
        let k2 = g.add("K2", k, k, DataKind::Constant);
        let e = n - k + 1;
        let e1 = g.add("E1", e, e, DataKind::Temporary);
        let e2 = g.add("E2", e, e, DataKind::Temporary);
        let e5 = g.add("E5", e, e, DataKind::Temporary);
        let e6 = g.add("E6", e, e, DataKind::Temporary);
        let edg = g.add("Edg", e, e, DataKind::Output);
        g.add_op("C1", OpKind::Conv2d, vec![img, k1], e1).unwrap();
        g.add_op("C2", OpKind::Conv2d, vec![img, k2], e2).unwrap();
        g.add_op("R1", OpKind::Remap(RemapKind::FlipH), vec![e1], e5)
            .unwrap();
        g.add_op("R2", OpKind::Remap(RemapKind::FlipH), vec![e2], e6)
            .unwrap();
        g.add_op("max", OpKind::EwMax { arity: 4 }, vec![e1, e2, e5, e6], edg)
            .unwrap();
        g
    }

    #[test]
    fn band_bounds_partition_exactly() {
        let (r, p) = (10, 4);
        let mut covered = 0;
        for i in 0..p {
            let (lo, hi) = band_bounds(r, p, i);
            assert_eq!(lo, covered);
            covered = hi;
            assert!(hi > lo);
        }
        assert_eq!(covered, r);
    }

    #[test]
    fn no_split_when_everything_fits() {
        let g = edge_graph(100, 5);
        let res = split_graph(&g, u64::MAX).unwrap();
        assert_eq!(res.parts, 1);
        assert_eq!(res.graph.num_ops(), g.num_ops());
        assert_eq!(res.graph.num_data(), g.num_data());
        res.graph.validate().unwrap();
        // Names survive.
        assert_eq!(res.graph.op(OpId(0)).name, "C1");
    }

    #[test]
    fn parts_needed_matches_footprint_arithmetic() {
        let g = edge_graph(1000, 16);
        // max: 5 structures of 985² floats ≈ 19.4 MB.
        let max_op = OpId(4);
        let fp = g.op_footprint_bytes(max_op);
        assert_eq!(op_parts_needed(&g, max_op, fp).unwrap(), 1);
        assert_eq!(op_parts_needed(&g, max_op, fp - 1).unwrap(), 2);
        // Budget of ~1/4 footprint needs ≥ 5 parts (broadcast-free op).
        let p = op_parts_needed(&g, max_op, fp / 4).unwrap();
        assert!(p >= 4, "p = {p}");
        assert!(piece_footprint_bytes(&g, max_op, p) <= fp / 4);
    }

    #[test]
    fn split_edge_template_structure() {
        let g = edge_graph(1000, 16);
        // Budget forcing P=2 on the max (the Fig. 3 situation).
        let budget = g.op_footprint_bytes(OpId(4)) / 2 + 400 * 1000 * 4;
        let res = split_graph(&g, budget).unwrap();
        assert!(res.parts >= 2);
        res.graph.validate().unwrap();
        // Every op in the split graph fits the budget.
        for o in res.graph.op_ids() {
            assert!(
                res.graph.op_footprint_bytes(o) <= budget,
                "{} exceeds budget",
                res.graph.op(o).name
            );
        }
        // Convolution pieces read halo-extended host views of Img.
        let conv_piece = res
            .graph
            .op_ids()
            .find(|&o| res.graph.op(o).name == "C1[0]")
            .expect("split conv piece");
        let img_view = res.graph.op(conv_piece).inputs[0];
        match res.origin_of(img_view) {
            DataOrigin::Region { parent, row_off } => {
                assert_eq!(parent, DataId(0));
                assert_eq!(row_off, 0);
            }
            other => panic!("{other:?}"),
        }
        let view_rows = res.graph.data(img_view).rows;
        let (lo, hi) = band_bounds(985, res.parts, 0);
        assert_eq!(view_rows, (hi - lo) + 15, "halo of kr-1 = 15 rows");
    }

    #[test]
    fn split_preserves_output_coverage() {
        let g = edge_graph(200, 9);
        let budget = g.op_footprint_bytes(OpId(4)) / 3;
        let res = split_graph(&g, budget).unwrap();
        // The Output pieces exactly tile the original output rows.
        let mut out_rows: Vec<(usize, usize)> = res
            .graph
            .data_ids()
            .filter(|&d| res.graph.data(d).kind == DataKind::Output)
            .map(|d| match res.origin_of(d) {
                DataOrigin::Region { row_off, .. } => (row_off, row_off + res.graph.data(d).rows),
                DataOrigin::Fresh => panic!("output piece must map to a region"),
            })
            .collect();
        out_rows.sort();
        let mut covered = 0;
        for (lo, hi) in out_rows {
            assert_eq!(lo, covered);
            covered = hi;
        }
        assert_eq!(covered, 192);
    }

    #[test]
    fn unsplittable_transpose_errors_when_too_large() {
        let mut g = Graph::new();
        let a = g.add("A", 100, 100, DataKind::Input);
        let b = g.add("B", 100, 100, DataKind::Output);
        g.add_op("T", OpKind::Remap(RemapKind::Transpose), vec![a], b)
            .unwrap();
        let err = split_graph(&g, 1000).unwrap_err();
        assert!(matches!(err, FrameworkError::UnsplittableTooLarge { .. }));
        // But fits-whole is fine even when other ops split around it.
        assert!(split_graph(&g, 100 * 100 * 4 * 2).is_ok());
    }

    #[test]
    fn reduction_splits_structurally() {
        let mut g = Graph::new();
        let a = g.add("A", 100, 100, DataKind::Input);
        let r = g.add("r", 1, 1, DataKind::Output);
        g.add_op("sum", OpKind::Reduce(ReduceKind::Sum), vec![a], r)
            .unwrap();
        // Footprint = 10001 floats ≈ 40 KB; budget forces ~4 parts.
        let res = split_graph(&g, 11_000).unwrap();
        assert!(res.parts >= 4);
        res.graph.validate().unwrap();
        let reduces = res
            .graph
            .op_ids()
            .filter(|&o| matches!(res.graph.op(o).kind, OpKind::Reduce(_)))
            .count();
        let combines = res
            .graph
            .op_ids()
            .filter(|&o| matches!(res.graph.op(o).kind, OpKind::EwAdd { .. }))
            .count();
        assert_eq!(reduces, res.parts);
        assert_eq!(combines, res.parts - 1);
        // Output is still a single scalar with Output kind.
        let outs = res.graph.outputs();
        assert_eq!(outs.len(), 1);
        assert_eq!(res.graph.data(outs[0]).rows, 1);
    }

    #[test]
    fn subsample_split_reads_scaled_regions() {
        let mut g = Graph::new();
        let a = g.add("A", 64, 64, DataKind::Input);
        let b = g.add("B", 32, 32, DataKind::Output);
        g.add_op(
            "pool",
            OpKind::Subsample {
                factor: 2,
                kind: SubsampleKind::Avg,
            },
            vec![a],
            b,
        )
        .unwrap();
        let budget = g.op_footprint_bytes(OpId(0)) / 2;
        let res = split_graph(&g, budget).unwrap();
        assert!(res.parts >= 2);
        // Each pool piece reads a 2× tall region of A.
        for o in res.graph.op_ids() {
            let node = res.graph.op(o);
            if matches!(node.kind, OpKind::Subsample { .. }) {
                let in_rows = res.graph.data(node.inputs[0]).rows;
                let out_rows = res.graph.data(node.outputs[0]).rows;
                assert_eq!(in_rows, out_rows * 2);
            }
        }
    }

    #[test]
    fn mirror_split_reads_mirrored_regions() {
        let mut g = Graph::new();
        let a = g.add("A", 100, 8, DataKind::Input);
        let t = g.add("T", 100, 8, DataKind::Temporary);
        let b = g.add("B", 100, 8, DataKind::Output);
        g.add_op("f", OpKind::Remap(RemapKind::FlipV), vec![a], t)
            .unwrap();
        g.add_op("i", OpKind::Identity, vec![t], b).unwrap();
        let res = split_graph(&g, g.op_footprint_bytes(OpId(0)) / 2).unwrap();
        assert!(res.parts >= 2);
        // FlipV piece 0 (output rows [0, 50)) reads source rows [50, 100).
        let f0 = res
            .graph
            .op_ids()
            .find(|&o| res.graph.op(o).name == "f[0]")
            .unwrap();
        let src = res.graph.op(f0).inputs[0];
        match res.origin_of(src) {
            DataOrigin::Region { row_off, .. } => assert_eq!(row_off, 50),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn gather_inserted_for_misaligned_regions() {
        // conv -> conv chain: the second conv's halo regions cannot align
        // with the first conv's output bands, so gathers appear.
        let mut g = Graph::new();
        let a = g.add("A", 64, 64, DataKind::Input);
        let k = g.add("K", 3, 3, DataKind::Constant);
        let t = g.add("T", 62, 62, DataKind::Temporary);
        let b = g.add("B", 60, 60, DataKind::Output);
        g.add_op("c1", OpKind::Conv2d, vec![a, k], t).unwrap();
        g.add_op("c2", OpKind::Conv2d, vec![t, k], b).unwrap();
        let budget = g.op_footprint_bytes(OpId(0)) / 2;
        let res = split_graph(&g, budget).unwrap();
        res.graph.validate().unwrap();
        let gathers = res
            .graph
            .op_ids()
            .filter(|&o| matches!(res.graph.op(o).kind, OpKind::GatherRows { .. }))
            .count();
        assert!(gathers > 0, "expected gather ops for halo regions");
        // All ops still fit.
        for o in res.graph.op_ids() {
            assert!(res.graph.op_footprint_bytes(o) <= budget);
        }
    }

    #[test]
    fn matmul_split_broadcasts_b() {
        let mut g = Graph::new();
        let a = g.add("A", 64, 32, DataKind::Input);
        let b = g.add("B", 32, 16, DataKind::Input);
        let c = g.add("C", 64, 16, DataKind::Output);
        g.add_op("mm", OpKind::MatMul, vec![a, b], c).unwrap();
        let res = split_graph(&g, g.op_footprint_bytes(OpId(0)) / 2).unwrap();
        assert!(res.parts >= 2);
        // Every matmul piece's B input covers all 32 rows.
        for o in res.graph.op_ids() {
            let node = res.graph.op(o);
            if node.kind == OpKind::MatMul {
                assert_eq!(res.graph.data(node.inputs[1]).rows, 32);
            }
        }
    }

    #[test]
    fn min_parts_forces_a_split_under_ample_memory() {
        let g = edge_graph(100, 5);
        // Ample memory, but four pieces demanded (one per device).
        let res = split_graph_min_parts(&g, u64::MAX, 4).unwrap();
        assert_eq!(res.parts, 4);
        res.graph.validate().unwrap();
        // Each non-broadcast op appears in (at least) 4 pieces.
        let c1_pieces = res
            .graph
            .op_ids()
            .filter(|&o| res.graph.op(o).name.starts_with("C1["))
            .count();
        assert_eq!(c1_pieces, 4);
        // A memory-driven factor still wins over a smaller min_parts.
        let budget = g.op_footprint_bytes(OpId(4)) / 3;
        let forced = split_graph_min_parts(&g, budget, 2).unwrap();
        let free = split_graph(&g, budget).unwrap();
        assert!(forced.parts >= free.parts.max(2));
    }

    #[test]
    fn cannot_split_enough_reported() {
        // A 1-row image with monstrous columns cannot be row-split at all.
        let mut g = Graph::new();
        let a = g.add("A", 1, 1_000_000, DataKind::Input);
        let b = g.add("B", 1, 1_000_000, DataKind::Output);
        g.add_op("t", OpKind::Tanh, vec![a], b).unwrap();
        let err = split_graph(&g, 1000).unwrap_err();
        assert!(matches!(err, FrameworkError::CannotSplitEnough { .. }));
    }
}
