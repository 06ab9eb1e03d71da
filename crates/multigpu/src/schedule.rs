//! Cluster transfer scheduling. Per-device residency and budgets, staged
//! device→host→device copies and `pinned_host` replanning all live in the
//! one scheduler, [`schedule_device_transfers`]; what is specific to a
//! cluster is the policy — compilation and failover replanning both evict
//! by the paper's Belady rule — and the tests below, which pin the
//! cross-device behaviour.

use gpuflow_core::xfer::{schedule_device_transfers, EvictionPolicy};
use gpuflow_core::{ExecutionPlan, FrameworkError, OffloadUnit};
use gpuflow_graph::Graph;

// Re-exported under its old path: perf/src/layers.rs names it here.
pub use gpuflow_core::xfer::MultiXferOptions;

/// Produce a multi-device plan for `units` (each assigned the device in
/// `unit_device`) executed in the global topological order `order`.
// Name and signature are frozen: perf/src/layers.rs compiles against them.
pub fn schedule_multi_transfers(
    g: &Graph,
    units: &[OffloadUnit],
    unit_device: &[usize],
    order: &[usize],
    opts: &MultiXferOptions,
) -> Result<ExecutionPlan, FrameworkError> {
    schedule_device_transfers(g, units, unit_device, order, opts, EvictionPolicy::Belady)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_core::{
        partition_offload_units, schedule_units, OpScheduler, PartitionPolicy, Step,
    };
    use gpuflow_graph::{DataKind, OpKind};

    /// in -> t0 -> mid -> t1 -> out; unit 0 on device 0, unit 1 on
    /// device 1, so `mid` must cross the bus as a staged copy.
    fn chain() -> Graph {
        let mut g = Graph::new();
        let a = g.add("in", 64, 64, DataKind::Input);
        let m = g.add("mid", 64, 64, DataKind::Temporary);
        let o = g.add("out", 64, 64, DataKind::Output);
        g.add_op("t0", OpKind::Tanh, vec![a], m).unwrap();
        g.add_op("t1", OpKind::Tanh, vec![m], o).unwrap();
        g
    }

    fn plan_chain(budget: u64) -> (Graph, ExecutionPlan) {
        let g = chain();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let order = schedule_units(&g, &units, OpScheduler::DepthFirst);
        let plan = schedule_multi_transfers(
            &g,
            &units,
            &[0, 1],
            &order,
            &MultiXferOptions {
                budgets: vec![budget; 2],
                eager_free: true,
                pinned_host: vec![],
            },
        )
        .unwrap();
        (g, plan)
    }

    #[test]
    fn cross_device_chain_stages_through_the_host() {
        let (g, plan) = plan_chain(u64::MAX);
        let a = plan.analyze_devices(&g, &[u64::MAX, u64::MAX], false);
        assert!(!a.has_errors(), "{:?}", a.diagnostics);
        // mid (DataId 1) must be copied out of device 0 and into device 1.
        let out0 = plan
            .steps
            .iter()
            .any(|s| matches!(*s, Step::CopyOut { device: 0, data } if data.index() == 1));
        let in1 = plan
            .steps
            .iter()
            .any(|s| matches!(*s, Step::CopyIn { device: 1, data } if data.index() == 1));
        assert!(out0 && in1, "staged copy missing:\n{}", plan.render(&g));
    }

    #[test]
    fn eager_free_releases_the_producer_side_copy() {
        let (g, plan) = plan_chain(u64::MAX);
        // After unit 1 launches nothing reads mid again, so both device
        // copies are freed by the end (eagerly or in the drain).
        let frees = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Free { data, .. } if data.index() == 1))
            .count();
        assert_eq!(frees, 2, "{}", plan.render(&g));
    }

    #[test]
    fn tight_budgets_still_verify() {
        // Exactly two 16 KiB buffers per device: the minimum working set.
        let (g, plan) = plan_chain(2 * 64 * 64 * 4);
        let a = plan.analyze_devices(&g, &[2 * 64 * 64 * 4, 2 * 64 * 64 * 4], false);
        assert!(!a.has_errors(), "{:?}", a.diagnostics);
        assert_eq!(a.peak_per_device, vec![2 * 64 * 64 * 4; 2]);
    }

    #[test]
    fn impossible_budget_reports_the_device() {
        let g = chain();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let order = schedule_units(&g, &units, OpScheduler::DepthFirst);
        let err = schedule_multi_transfers(
            &g,
            &units,
            &[0, 1],
            &order,
            &MultiXferOptions {
                budgets: vec![64 * 64 * 4, u64::MAX], // half the working set
                eager_free: true,
                pinned_host: vec![],
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("device 0"), "{err}");
    }

    #[test]
    fn single_device_multi_plan_matches_single_gpu_shape() {
        // With one device and ample memory the plan has the classic
        // in/launch/launch/out shape — no staged copies.
        let g = chain();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let order = schedule_units(&g, &units, OpScheduler::DepthFirst);
        let plan = schedule_multi_transfers(
            &g,
            &units,
            &[0, 0],
            &order,
            &MultiXferOptions {
                budgets: vec![u64::MAX],
                eager_free: true,
                pinned_host: vec![],
            },
        )
        .unwrap();
        let copies = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::CopyIn { .. } | Step::CopyOut { .. }))
            .count();
        assert_eq!(copies, 2, "only in-in and out-out:\n{}", plan.render(&g));
        let a = plan.analyze_devices(&g, &[u64::MAX], false);
        assert!(!a.has_errors());
    }
}
