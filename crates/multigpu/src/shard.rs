//! The sharding pass: carve a template across the devices of a cluster.
//!
//! Sharding reuses the single-GPU operator-splitting pass (§3.2 of the
//! paper): [`gpuflow_core::split_graph_min_parts`] row-bands every
//! splittable operator into at least as many pieces as the cluster has
//! devices (more if the *smallest* device's memory budget demands it), and
//! this pass then maps each piece to a device by the row band its output
//! covers — piece rows `[rows·i/N, rows·(i+1)/N)` of an original structure
//! land on device `i`. Producer and consumer pieces of the same band
//! therefore share a device, and only halo rows (convolutions) and
//! band-crossing remaps (vertical flips, transposes) travel between
//! devices.

use gpuflow_core::{split_graph_min_parts, DataOrigin, FrameworkError, SplitResult};
use gpuflow_graph::{topo_sort, Graph, OpId, OpKind};

use crate::cluster::Cluster;

/// Output of [`shard_graph`]: the split graph plus a device assignment for
/// every operator.
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    /// The row-banded graph (see [`SplitResult`]).
    pub split: SplitResult,
    /// Per split-graph operator: the device (index into the cluster) it is
    /// assigned to.
    pub op_device: Vec<usize>,
}

impl ShardedGraph {
    /// Device assigned to op `o`.
    pub fn device_of(&self, o: OpId) -> usize {
        self.op_device[o.index()]
    }
}

/// The device whose row band of `orig_rows` rows (split `n_devices` ways)
/// contains `row_off`. Bands follow [`gpuflow_core::split::band_bounds`]:
/// band `i` covers `[rows·i/N, rows·(i+1)/N)`, so this is the unique
/// non-empty band containing the row (rows past the end clamp to the last
/// device).
pub fn device_for_row(orig_rows: usize, n_devices: usize, row_off: usize) -> usize {
    for i in 0..n_devices {
        let (lo, hi) = gpuflow_core::split::band_bounds(orig_rows, n_devices, i);
        if row_off >= lo && row_off < hi {
            return i;
        }
    }
    n_devices - 1
}

/// Shard `g` across `cluster`: split to at least one piece per device
/// (finer if the smallest member's `margin`-derated memory requires it),
/// then assign every operator a device.
///
/// Assignment rules, in order:
///
/// 1. a `GatherRows` halo exchange goes to the device of the piece that
///    consumes its output (its window typically starts in the *previous*
///    band; placing it with its consumer keeps the gathered buffer local);
/// 2. an operator whose output is a region of an original structure goes
///    to the device owning that region's starting row;
/// 3. a fresh output (reduction partials/combines) follows the producer of
///    its first input, falling back to that input's region row, then to
///    device 0.
pub fn shard_graph(
    g: &Graph,
    cluster: &Cluster,
    margin: f64,
) -> Result<ShardedGraph, FrameworkError> {
    let n = cluster.len();
    let budget = cluster.min_plannable_budget(margin);
    let split = split_graph_min_parts(g, budget, n)?;
    let sg = &split.graph;
    let order = topo_sort(sg).map_err(|e| FrameworkError::InvalidGraph(e.to_string()))?;

    let region_device = |origin: DataOrigin| -> Option<usize> {
        match origin {
            DataOrigin::Region { parent, row_off } => {
                Some(device_for_row(g.shape(parent).rows, n, row_off))
            }
            DataOrigin::Fresh => None,
        }
    };

    let mut op_device = vec![usize::MAX; sg.num_ops()];
    for &o in &order {
        let node = sg.op(o);
        let out = node.outputs[0];
        let dev = if matches!(node.kind, OpKind::GatherRows { .. }) {
            // Rule 1: follow the consumer of the gathered window.
            sg.consumers(out)
                .first()
                .and_then(|&c| region_device(split.origin_of(sg.op(c).outputs[0])))
                .or_else(|| region_device(split.origin_of(out)))
                .unwrap_or(0)
        } else if let Some(d) = region_device(split.origin_of(out)) {
            // Rule 2: the band the output covers.
            d
        } else {
            // Rule 3: fresh data follows its first input.
            node.inputs
                .first()
                .and_then(|&i| {
                    sg.producer(i)
                        .map(|p| op_device[p.index()])
                        .or_else(|| region_device(split.origin_of(i)))
                })
                .unwrap_or(0)
        };
        debug_assert!(dev < n);
        op_device[o.index()] = dev;
    }

    Ok(ShardedGraph { split, op_device })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_graph::{DataKind, RemapKind};
    use gpuflow_sim::device::tesla_c870;

    fn edge_like(n: usize, k: usize) -> Graph {
        let mut g = Graph::new();
        let img = g.add("Img", n, n, DataKind::Input);
        let ker = g.add("K1", k, k, DataKind::Constant);
        let e = n - (k - 1);
        let e1 = g.add("E1", e, e, DataKind::Temporary);
        let e5 = g.add("E5", e, e, DataKind::Temporary);
        let edg = g.add("Edg", e, e, DataKind::Output);
        g.add_op("C1", OpKind::Conv2d, vec![img, ker], e1).unwrap();
        g.add_op("R1", OpKind::Remap(RemapKind::FlipH), vec![e1], e5)
            .unwrap();
        g.add_op("max", OpKind::EwMax { arity: 2 }, vec![e1, e5], edg)
            .unwrap();
        g
    }

    #[test]
    fn device_for_row_matches_band_bounds() {
        // 10 rows over 4 devices: bands [0,2) [2,5) [5,7) [7,10).
        assert_eq!(device_for_row(10, 4, 0), 0);
        assert_eq!(device_for_row(10, 4, 2), 1);
        assert_eq!(device_for_row(10, 4, 4), 1);
        assert_eq!(device_for_row(10, 4, 5), 2);
        assert_eq!(device_for_row(10, 4, 9), 3);
        // Clamp past the end.
        assert_eq!(device_for_row(10, 4, 10), 3);
        // Empty bands (more devices than rows) are skipped: bands of 2
        // rows over 4 devices are [0,0) [0,1) [1,1) [1,2).
        assert_eq!(device_for_row(2, 4, 0), 1);
        assert_eq!(device_for_row(2, 4, 1), 3);
    }

    #[test]
    fn sharding_uses_every_device_and_keeps_bands_local() {
        let g = edge_like(4000, 9);
        let cluster = Cluster::homogeneous(tesla_c870(), 4);
        let s = shard_graph(&g, &cluster, 0.05).unwrap();
        assert!(s.split.parts >= 4);
        let mut counts = [0usize; 4];
        for &d in &s.op_device {
            counts[d] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "every device gets work: {counts:?}"
        );
        // Row-aligned chains stay on one device: each non-gather op's
        // region output lands on the device owning its starting row.
        let sg = &s.split.graph;
        for o in sg.op_ids() {
            if matches!(sg.op(o).kind, OpKind::GatherRows { .. }) {
                continue;
            }
            if let DataOrigin::Region { parent, row_off } = s.split.origin_of(sg.op(o).outputs[0]) {
                assert_eq!(
                    s.device_of(o),
                    device_for_row(g.shape(parent).rows, 4, row_off)
                );
            }
        }
    }

    /// Two chained convolutions: the second conv's halo windows read a
    /// *produced* temporary, which is what forces GatherRows insertions
    /// (windows of original inputs are sliced host-side instead).
    fn chained_convs(n: usize, k: usize) -> Graph {
        let mut g = Graph::new();
        let img = g.add("Img", n, n, DataKind::Input);
        let ker = g.add("K", k, k, DataKind::Constant);
        let e1 = n - (k - 1);
        let t = g.add("T", e1, e1, DataKind::Temporary);
        let e2 = e1 - (k - 1);
        let out = g.add("Out", e2, e2, DataKind::Output);
        g.add_op("C1", OpKind::Conv2d, vec![img, ker], t).unwrap();
        g.add_op("C2", OpKind::Conv2d, vec![t, ker], out).unwrap();
        g
    }

    #[test]
    fn gathers_follow_their_consumers() {
        let g = chained_convs(4000, 9);
        let cluster = Cluster::homogeneous(tesla_c870(), 4);
        let s = shard_graph(&g, &cluster, 0.05).unwrap();
        let sg = &s.split.graph;
        let mut saw_gather = false;
        for o in sg.op_ids() {
            if !matches!(sg.op(o).kind, OpKind::GatherRows { .. }) {
                continue;
            }
            saw_gather = true;
            let out = sg.op(o).outputs[0];
            for &c in sg.consumers(out) {
                assert_eq!(s.device_of(o), s.device_of(c), "gather {o:?} strays");
            }
        }
        assert!(saw_gather, "a split conv chain must insert halo gathers");
    }

    #[test]
    fn memory_pressure_can_outvote_the_device_count() {
        // A tight budget forces more pieces than devices; they fold back
        // onto the 2 devices without panicking.
        let g = edge_like(2048, 9);
        let dev = tesla_c870().with_memory(24 << 20);
        let cluster = Cluster::homogeneous(dev, 2);
        let s = shard_graph(&g, &cluster, 0.05).unwrap();
        assert!(s.split.parts > 2, "got {}", s.split.parts);
        assert!(s.op_device.iter().all(|&d| d < 2));
    }

    #[test]
    fn single_device_cluster_degenerates_to_plain_split() {
        let g = edge_like(600, 9);
        let cluster = Cluster::homogeneous(tesla_c870(), 1);
        let s = shard_graph(&g, &cluster, 0.05).unwrap();
        assert!(s.op_device.iter().all(|&d| d == 0));
    }
}
