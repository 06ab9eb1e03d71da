//! Operator (offload-unit) scheduling heuristics (§3.3.1).
//!
//! The paper adopts a **depth-first** schedule: "we try to schedule the
//! entire sub-tree belonging to a child of a node before exploring its
//! sibling. If a node cannot be scheduled due to precedence constraints
//! (all its inputs are not ready), we backtrack to its parent and explore
//! its other children."
//!
//! The tree in question is rooted at the template *outputs* — the schedule
//! is demand-driven: to schedule a node, first schedule the entire subtree
//! computing its first input, then the subtree of its second input, and so
//! on, then the node itself (iterative post-order). This is what makes the
//! paper's Fig. 3(b) order `C1 C2 R1' R2' max1 R1'' R2'' max2` fall out:
//! `max1`'s whole subtree completes before `max2`'s is begun, so freshly
//! produced data is consumed immediately and rarely needs eviction.
//!
//! A source-driven forward DFS, breadth-first, and plain insertion order
//! are provided as ablation baselines.

use gpuflow_graph::{DataKind, Graph};

use crate::partition::OffloadUnit;

/// Which operator-scheduling heuristic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OpScheduler {
    /// The paper's demand-driven depth-first heuristic (post-order from
    /// the template outputs).
    #[default]
    DepthFirst,
    /// Forward DFS from the source units (dives along producer→consumer
    /// edges); an ablation variant.
    SourceDepthFirst,
    /// Level-order (Kahn) scheduling — schedules all siblings before any
    /// grandchild, the data-reuse worst case.
    BreadthFirst,
    /// The order units were created in (a valid topological order for
    /// graphs built by the template front-ends).
    InsertionOrder,
}

/// Dependency structure between units: `preds[u]` lists the units producing
/// `u`'s external inputs (in input order, deduplicated); `succs[u]` lists
/// units consuming some output of `u`. Shared with the stream-aware list
/// scheduler in [`crate::streams`].
pub(crate) struct UnitDag {
    pub(crate) preds: Vec<Vec<usize>>,
    pub(crate) succs: Vec<Vec<usize>>,
    /// Units producing template outputs, in index order.
    pub(crate) output_units: Vec<usize>,
}

pub(crate) fn unit_dag(g: &Graph, units: &[OffloadUnit]) -> UnitDag {
    let mut owner = vec![usize::MAX; g.num_data()];
    for (ui, u) in units.iter().enumerate() {
        for d in u.outputs(g) {
            owner[d.index()] = ui;
        }
    }
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
    for (ui, u) in units.iter().enumerate() {
        for d in u.external_inputs(g) {
            let p = owner[d.index()];
            if p != usize::MAX && !preds[ui].contains(&p) {
                preds[ui].push(p);
                succs[p].push(ui);
            }
        }
    }
    let output_units: Vec<usize> = units
        .iter()
        .enumerate()
        .filter(|(_, u)| u.outputs(g).any(|d| g.data(d).kind == DataKind::Output))
        .map(|(ui, _)| ui)
        .collect();
    UnitDag {
        preds,
        succs,
        output_units,
    }
}

/// Level-order (Kahn) topological order of the unit DAG: ready units in
/// index order, then each unit's successors as they become ready.
pub(crate) fn kahn_order(dag: &UnitDag) -> Vec<usize> {
    let mut npreds: Vec<usize> = dag.preds.iter().map(Vec::len).collect();
    let mut order: Vec<usize> = (0..npreds.len()).filter(|&u| npreds[u] == 0).collect();
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        for &s in &dag.succs[u] {
            npreds[s] -= 1;
            if npreds[s] == 0 {
                order.push(s);
            }
        }
    }
    order
}

/// Order the units for execution. The result is always a valid topological
/// order of the unit DAG.
pub fn schedule_units(g: &Graph, units: &[OffloadUnit], scheduler: OpScheduler) -> Vec<usize> {
    let n = units.len();
    let dag = unit_dag(g, units);
    let mut order = Vec::with_capacity(n);
    let mut scheduled = vec![false; n];

    match scheduler {
        OpScheduler::InsertionOrder => {
            // Units are already topologically ordered by construction.
            return (0..n).collect();
        }
        OpScheduler::BreadthFirst => order = kahn_order(&dag),
        OpScheduler::SourceDepthFirst => {
            // Forward DFS: after a unit completes, dive into its first
            // ready consumer; a not-yet-ready consumer is skipped and
            // re-pushed by its last-finishing predecessor.
            let mut npreds: Vec<usize> = dag.preds.iter().map(|p| p.len()).collect();
            let mut stack: Vec<usize> = (0..n).filter(|&u| npreds[u] == 0).rev().collect();
            while let Some(u) = stack.pop() {
                if scheduled[u] || npreds[u] > 0 {
                    continue;
                }
                scheduled[u] = true;
                order.push(u);
                for &s in dag.succs[u].iter().rev() {
                    npreds[s] -= 1;
                    stack.push(s);
                }
            }
        }
        OpScheduler::DepthFirst => {
            // Demand-driven: iterative post-order from the output units —
            // finish the entire subtree of each input before its sibling.
            let mut visiting = vec![false; n];
            // Roots: output units first, then any unit not reachable from
            // them (dead branches still must execute).
            let roots: Vec<usize> = dag.output_units.iter().copied().chain(0..n).collect();
            for root in roots {
                if scheduled[root] {
                    continue;
                }
                // (unit, next-pred-index) explicit stack.
                let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
                visiting[root] = true;
                while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                    if *next < dag.preds[u].len() {
                        let p = dag.preds[u][*next];
                        *next += 1;
                        if !scheduled[p] && !visiting[p] {
                            visiting[p] = true;
                            stack.push((p, 0));
                        }
                    } else {
                        stack.pop();
                        visiting[u] = false;
                        if !scheduled[u] {
                            scheduled[u] = true;
                            order.push(u);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        order.len(),
        n,
        "unit DAG must be acyclic and fully reachable"
    );
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{fig3_graph, fig3_schedule_b, fig3_units};
    use crate::partition::{partition_offload_units, PartitionPolicy};
    use gpuflow_graph::OpId;

    fn names(g: &Graph, units: &[OffloadUnit], order: &[usize]) -> Vec<String> {
        order
            .iter()
            .map(|&u| g.op(units[u].ops[0]).name.clone())
            .collect()
    }

    #[test]
    fn all_schedulers_produce_valid_topo_orders() {
        let g = fig3_graph();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        for s in [
            OpScheduler::DepthFirst,
            OpScheduler::SourceDepthFirst,
            OpScheduler::BreadthFirst,
            OpScheduler::InsertionOrder,
        ] {
            let order = schedule_units(&g, &units, s);
            let op_order: Vec<OpId> = order.iter().map(|&u| units[u].ops[0]).collect();
            assert!(
                gpuflow_graph::topo::is_valid_order(&g, &op_order),
                "{s:?}: {:?}",
                names(&g, &units, &order)
            );
        }
    }

    /// The headline property: demand-driven DFS on the paper's units
    /// reproduces the Fig. 3(b) order exactly.
    #[test]
    fn demand_dfs_reproduces_fig3_schedule_b() {
        let g = fig3_graph();
        let units = fig3_units(&g);
        let order = schedule_units(&g, &units, OpScheduler::DepthFirst);
        assert_eq!(order, fig3_schedule_b(&g, &units));
    }

    #[test]
    fn demand_dfs_completes_first_output_subtree_before_second() {
        let g = fig3_graph();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let order = schedule_units(&g, &units, OpScheduler::DepthFirst);
        let ns = names(&g, &units, &order);
        let pos = |n: &str| ns.iter().position(|x| x == n).unwrap();
        // Everything max1 needs comes before anything exclusive to max2.
        assert!(pos("max1") < pos("R1''"), "{ns:?}");
        assert!(pos("max1") < pos("C1b"), "{ns:?}");
        assert!(pos("max1") < pos("max2"));
    }

    #[test]
    fn source_dfs_dives_before_exploring_siblings() {
        let g = fig3_graph();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let order = schedule_units(&g, &units, OpScheduler::SourceDepthFirst);
        let ns = names(&g, &units, &order);
        let pos = |n: &str| ns.iter().position(|x| x == n).unwrap();
        // After C1 (producing E1'), its child R1' runs immediately, rather
        // than the sibling C1b.
        assert_eq!(pos("R1'"), pos("C1") + 1, "schedule: {ns:?}");
    }

    #[test]
    fn bfs_schedules_level_by_level() {
        let g = fig3_graph();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let order = schedule_units(&g, &units, OpScheduler::BreadthFirst);
        let ns = names(&g, &units, &order);
        // All four slices precede any remap.
        let last_conv = ns.iter().rposition(|n| n.starts_with('C')).unwrap();
        let first_remap = ns.iter().position(|n| n.starts_with('R')).unwrap();
        assert!(last_conv < first_remap, "schedule: {ns:?}");
    }

    #[test]
    fn insertion_order_is_identity() {
        let g = fig3_graph();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let order = schedule_units(&g, &units, OpScheduler::InsertionOrder);
        assert_eq!(order, (0..units.len()).collect::<Vec<_>>());
    }

    #[test]
    fn all_schedulers_cover_every_unit() {
        let g = fig3_graph();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        for s in [
            OpScheduler::DepthFirst,
            OpScheduler::SourceDepthFirst,
            OpScheduler::BreadthFirst,
            OpScheduler::InsertionOrder,
        ] {
            let mut order = schedule_units(&g, &units, s);
            order.sort_unstable();
            assert_eq!(order, (0..units.len()).collect::<Vec<_>>(), "{s:?}");
        }
    }

    #[test]
    fn fused_units_schedule_too() {
        let g = fig3_graph();
        let units = partition_offload_units(&g, PartitionPolicy::GreedyFuse, u64::MAX);
        assert!(units.len() < g.num_ops());
        let order = schedule_units(&g, &units, OpScheduler::DepthFirst);
        assert_eq!(order.len(), units.len());
    }

    #[test]
    fn dead_branches_still_scheduled() {
        // A unit whose output nobody consumes (and is not a template
        // output) must still run.
        let mut g = Graph::new();
        let a = g.add("a", 4, 4, DataKind::Input);
        let dead = g.add("dead", 4, 4, DataKind::Temporary);
        let out = g.add("out", 4, 4, DataKind::Output);
        g.add_op("t_dead", gpuflow_graph::OpKind::Tanh, vec![a], dead)
            .unwrap();
        g.add_op("t_out", gpuflow_graph::OpKind::Tanh, vec![a], out)
            .unwrap();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let order = schedule_units(&g, &units, OpScheduler::DepthFirst);
        assert_eq!(order.len(), 2);
    }
}
