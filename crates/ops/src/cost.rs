//! Analytic operator cost model.
//!
//! The simulator converts these counts into device time using a roofline
//! rule: `time = max(flops / peak_flops, bytes / internal_bandwidth) +
//! launch_overhead`. The counts only need to be *relatively* right — the
//! paper's results (Fig. 2's 30–75 % transfer share, Table 2's speedups)
//! depend on the compute:transfer ratio, not on absolute accuracy.

use gpuflow_graph::{OpKind, Shape, FLOAT_BYTES};

/// Work performed by one operator invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Floating-point operations (multiply-adds count as 2).
    pub flops: u64,
    /// Bytes read from and written to device memory.
    pub bytes: u64,
}

impl std::ops::Add for OpCost {
    type Output = OpCost;

    fn add(self, other: OpCost) -> OpCost {
        OpCost {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
        }
    }
}

impl std::iter::Sum for OpCost {
    fn sum<I: Iterator<Item = OpCost>>(iter: I) -> OpCost {
        iter.fold(OpCost::default(), |a, b| a + b)
    }
}

/// Cost of applying `kind` to inputs of the given shapes, producing
/// `output`. The shapes are read in one pass, so a caller can stream an
/// operator's input shapes out of its graph without collecting them.
pub fn op_cost(kind: OpKind, inputs: impl IntoIterator<Item = Shape>, output: Shape) -> OpCost {
    let mut shapes = inputs.into_iter();
    let (first, second) = (shapes.next(), shapes.next());
    let len = |s: Option<Shape>| s.map_or(0, Shape::len);
    let in_elems = len(first) + len(second) + shapes.map(Shape::len).sum::<u64>();
    let out_elems = output.len();
    let bytes = (in_elems + out_elems) * FLOAT_BYTES;
    let flops = match kind {
        // Each output element: kr*kc multiply-adds.
        OpKind::Conv2d => out_elems * second.expect("a convolution reads a kernel").len() * 2,
        // Pure data movement.
        OpKind::Remap(_) | OpKind::Identity | OpKind::GatherRows { .. } => 0,
        // One compare/add per input element beyond the first, per output.
        OpKind::EwMax { arity } | OpKind::EwAdd { arity } => out_elems * (arity as u64 - 1),
        // abs + compare per element.
        OpKind::EwMaxAbs { arity } => out_elems * (2 * arity as u64 - 1),
        OpKind::EwMul | OpKind::EwSub => out_elems,
        OpKind::BiasAdd => out_elems,
        // tanh ≈ 8 flops on GPU special-function units.
        OpKind::Tanh => out_elems * 8,
        OpKind::Subsample { factor, .. } => out_elems * (factor as u64 * factor as u64),
        // 2*m*n*k.
        OpKind::MatMul => 2 * first.expect("a product has operands").len() * output.cols as u64,
        OpKind::Reduce(_) => in_elems,
        OpKind::ScaleBits(_) => out_elems,
    };
    OpCost { flops, bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_graph::{ReduceKind, RemapKind, SubsampleKind};

    fn s(r: usize, c: usize) -> Shape {
        Shape::new(r, c)
    }

    #[test]
    fn conv_cost_scales_with_kernel() {
        // Fig. 2's premise: compute per transferred byte grows with kernel
        // size, so the transfer share falls. Check flops grow quadratically
        // with kernel edge while bytes stay ~flat.
        let img = s(1000, 1000);
        let c2 = op_cost(OpKind::Conv2d, [img, s(2, 2)], s(999, 999));
        let c20 = op_cost(OpKind::Conv2d, [img, s(20, 20)], s(981, 981));
        let ratio = c20.flops as f64 / c2.flops as f64;
        assert!(ratio > 90.0 && ratio < 110.0, "ratio {ratio}");
        assert!((c20.bytes as f64) < 1.1 * c2.bytes as f64);
    }

    #[test]
    fn remap_is_pure_movement() {
        let c = op_cost(OpKind::Remap(RemapKind::FlipH), [s(10, 10)], s(10, 10));
        assert_eq!(c.flops, 0);
        assert_eq!(c.bytes, 200 * 4);
    }

    #[test]
    fn ewmax_flops_per_arity() {
        let c = op_cost(OpKind::EwMax { arity: 4 }, [s(10, 10); 4], s(10, 10));
        assert_eq!(c.flops, 300);
        assert_eq!(c.bytes, 500 * 4);
    }

    #[test]
    fn matmul_cost() {
        let c = op_cost(OpKind::MatMul, [s(3, 4), s(4, 5)], s(3, 5));
        assert_eq!(c.flops, 2 * 3 * 4 * 5);
    }

    #[test]
    fn misc_costs_nonzero() {
        assert!(op_cost(OpKind::Tanh, [s(5, 5)], s(5, 5)).flops > 0);
        assert!(
            op_cost(
                OpKind::Subsample {
                    factor: 2,
                    kind: SubsampleKind::Avg
                },
                [s(10, 10)],
                s(5, 5)
            )
            .flops
                > 0
        );
        assert_eq!(
            op_cost(OpKind::Reduce(ReduceKind::Sum), [s(8, 8)], s(1, 1)).flops,
            64
        );
        assert_eq!(op_cost(OpKind::Identity, [s(8, 8)], s(8, 8)).flops, 0);
        assert_eq!(op_cost(OpKind::EwMul, [s(2, 2); 2], s(2, 2)).flops, 4);
        assert_eq!(op_cost(OpKind::EwSub, [s(2, 2); 2], s(2, 2)).flops, 4);
        assert_eq!(
            op_cost(OpKind::BiasAdd, [s(2, 2), s(1, 1)], s(2, 2)).flops,
            4
        );
        assert_eq!(op_cost(OpKind::scale(3.0), [s(2, 2)], s(2, 2)).flops, 4);
        assert_eq!(
            op_cost(OpKind::EwMaxAbs { arity: 2 }, [s(2, 2); 2], s(2, 2)).flops,
            12
        );
        assert_eq!(
            op_cost(OpKind::EwAdd { arity: 3 }, [s(2, 2); 3], s(2, 2)).flops,
            8
        );
    }

    #[test]
    fn cost_add() {
        let a = OpCost { flops: 1, bytes: 2 };
        let b = OpCost {
            flops: 10,
            bytes: 20,
        };
        assert_eq!(
            a + b,
            OpCost {
                flops: 11,
                bytes: 22
            }
        );
        assert_eq!([a, b].into_iter().sum::<OpCost>(), a + b);
    }
}
