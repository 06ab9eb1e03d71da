//! The paper's baseline GPU execution pattern (§4).
//!
//! "For each operator, transfer input data to the GPU, perform the
//! operation and copy the results back to the CPU immediately. There is no
//! persistent storage in GPU memory." — every operator runs in isolation,
//! so feasibility only requires each *single* operator's working set to fit
//! (which is why the paper's baseline columns go "N/A" exactly when one
//! operator outgrows the device, e.g. edge detection at 10000×10000).

use gpuflow_graph::Graph;

use crate::error::FrameworkError;
use crate::partition::OffloadUnit;
use crate::plan::{ExecutionPlan, Step};

/// Build the baseline plan for `g` on a device with `memory_bytes`.
pub fn baseline_plan(g: &Graph, memory_bytes: u64) -> Result<ExecutionPlan, FrameworkError> {
    let order =
        gpuflow_graph::topo_sort(g).map_err(|e| FrameworkError::InvalidGraph(e.to_string()))?;
    for &o in &order {
        let fp = g.op_footprint_bytes(o);
        if fp > memory_bytes {
            return Err(FrameworkError::BaselineInfeasible {
                op: o,
                footprint: fp,
                memory: memory_bytes,
            });
        }
    }
    let units: Vec<OffloadUnit> = order
        .iter()
        .map(|&o| OffloadUnit { ops: vec![o] })
        .collect();
    let mut steps = Vec::new();
    for (u, &o) in order.iter().enumerate() {
        let node = g.op(o);
        // Inputs may repeat across the op list (e.g. the same image into
        // two convolutions) but within one op they are distinct; still,
        // guard against an op listing the same data twice.
        let mut seen = std::collections::HashSet::new();
        for &d in &node.inputs {
            if seen.insert(d) {
                steps.push(Step::CopyIn { device: 0, data: d });
            }
        }
        steps.push(Step::Launch(u));
        for &d in &node.outputs {
            steps.push(Step::CopyOut { device: 0, data: d });
        }
        for &d in node.inputs.iter().chain(node.outputs.iter()) {
            if seen.remove(&d) || node.outputs.contains(&d) {
                steps.push(Step::Free { device: 0, data: d });
            }
        }
    }
    let plan = ExecutionPlan::single_device(units, steps);
    #[cfg(debug_assertions)]
    crate::plan::debug_check_plan(g, &plan, &[memory_bytes], "baseline_plan");
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{fig3_graph, floats_to_units};
    use crate::plan::validate_plan;
    use gpuflow_graph::{DataKind, OpKind};

    #[test]
    fn baseline_on_fig3_costs_30_units() {
        // Per-op in/out with no persistence:
        //   4 slice ops: (2 in + 1 out) × 4      = 12
        //   4 remaps:    (1 in + 1 out) × 4      =  8
        //   2 maxes:     (4 in + 1 out) × 2      = 10
        let g = fig3_graph();
        let plan = baseline_plan(&g, u64::MAX).unwrap();
        validate_plan(&g, &plan, crate::examples::fig3_memory_bytes()).unwrap();
        assert_eq!(floats_to_units(plan.stats(&g).total_floats()), 30.0);
    }

    #[test]
    fn baseline_needs_only_per_op_memory() {
        let g = fig3_graph();
        // Largest op working set: max = 4 in + 1 out = 5 units; the slice
        // ops need Im(2) + 1 = 3.
        let five_units = 5 * crate::examples::FIG3_UNIT_FLOATS as u64 * 4;
        let plan = baseline_plan(&g, five_units).unwrap();
        validate_plan(&g, &plan, five_units).unwrap();
    }

    #[test]
    fn baseline_infeasible_when_one_op_exceeds_memory() {
        let g = fig3_graph();
        let four_units = 4 * crate::examples::FIG3_UNIT_FLOATS as u64 * 4;
        let err = baseline_plan(&g, four_units).unwrap_err();
        assert!(matches!(err, FrameworkError::BaselineInfeasible { .. }));
    }

    #[test]
    fn temporaries_round_trip_through_host() {
        // Baseline copies every op output out, so downstream ops copy
        // temporaries back in; the host copy is always valid.
        let mut g = Graph::new();
        let a = g.add("a", 4, 4, DataKind::Input);
        let m = g.add("m", 4, 4, DataKind::Temporary);
        let o = g.add("o", 4, 4, DataKind::Output);
        g.add_op("t0", OpKind::Tanh, vec![a], m).unwrap();
        g.add_op("t1", OpKind::Tanh, vec![m], o).unwrap();
        let plan = baseline_plan(&g, u64::MAX).unwrap();
        validate_plan(&g, &plan, u64::MAX).unwrap();
        let s = plan.stats(&g);
        // a in, m out, m in, o out = 4 copies of 16 floats.
        assert_eq!(s.total_floats(), 64);
        assert_eq!(s.copies_in, 2);
        assert_eq!(s.copies_out, 2);
    }
}
