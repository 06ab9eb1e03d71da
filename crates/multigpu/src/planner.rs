//! End-to-end multi-device compilation: shard, partition, order, schedule.

use gpuflow_core::{
    partition_offload_units, schedule_units, simulate, ExecutionPlan, FrameworkError, LaneEvent,
    OpScheduler, OverlapOutcome, PartitionPolicy, Simulation,
};
use gpuflow_graph::Graph;
use gpuflow_trace::{kv, Tracer};

use crate::cluster::Cluster;
use crate::schedule::{schedule_multi_transfers, MultiXferOptions};
use crate::shard::{shard_graph, ShardedGraph};

/// A template compiled for a cluster.
#[derive(Debug, Clone)]
pub struct MultiCompiled {
    /// The cluster the plan targets.
    pub cluster: Cluster,
    /// The sharded (split + device-assigned) graph.
    pub sharded: ShardedGraph,
    /// The execution plan, with every step and unit placed on a device.
    pub plan: ExecutionPlan,
}

impl MultiCompiled {
    /// Simulate the plan on the cluster: per-device compute lanes racing
    /// the shared, backfilling bus ([`gpuflow_core::overlap`]).
    pub fn simulate(&self) -> Simulation {
        simulate(
            &self.sharded.split.graph,
            &self.plan,
            &self.cluster.machine(),
        )
    }

    /// The simulated outcome alone.
    pub fn outcome(&self) -> OverlapOutcome {
        self.simulate().outcome
    }

    /// The outcome and the lane events.
    // Survives as an adapter: perf/src/layers.rs reads `.trace().0.makespan`.
    pub fn trace(&self) -> (OverlapOutcome, Vec<LaneEvent>) {
        let sim = self.simulate();
        (sim.outcome, sim.events)
    }

    /// Run the static analyzer against the devices' full capacities.
    // Survives as an adapter: the CLI, serve and perf/src/layers.rs ask the
    // compiled cluster, which is what knows the capacities.
    pub fn analyze(&self) -> gpuflow_verify::PlanAnalysis {
        let capacities = self.cluster.capacities();
        self.plan
            .analyze_devices(&self.sharded.split.graph, &capacities, false)
    }

    /// Run the concurrency certifier over the plan: per-device compute
    /// lanes racing the shared bus channels (see
    /// [`ExecutionPlan::certify`]).
    pub fn certify(&self) -> gpuflow_verify::ConcurrencyReport {
        self.plan.certify(&self.sharded.split.graph)
    }
}

/// Compile `g` for `cluster` with the planner memory margin `margin`:
/// shard across the devices, partition into per-operator offload units,
/// order them with the paper's depth-first heuristic (one *global* order —
/// cross-device dependencies stay acyclic by construction), and schedule
/// transfers with per-device Belady eviction and staged inter-device
/// copies.
pub fn compile_multi(
    g: &Graph,
    cluster: &Cluster,
    margin: f64,
) -> Result<MultiCompiled, FrameworkError> {
    compile_multi_traced(g, cluster, margin, &mut Tracer::disabled())
}

/// Like [`compile_multi`], recording one span per compilation pass (plus
/// per-pass counters) on `tracer`'s compile track.
pub fn compile_multi_traced(
    g: &Graph,
    cluster: &Cluster,
    margin: f64,
    tracer: &mut Tracer,
) -> Result<MultiCompiled, FrameworkError> {
    let tok = tracer.begin("compile", "shard");
    let sharded = shard_graph(g, cluster, margin)?;
    tracer.end_with(
        tok,
        vec![
            kv("devices", cluster.len()),
            kv("parts", sharded.split.parts),
            kv("ops", sharded.split.graph.num_ops()),
        ],
    );
    let sg = &sharded.split.graph;

    let tok = tracer.begin("compile", "partition");
    let units = partition_offload_units(sg, PartitionPolicy::PerOperator, u64::MAX);
    // Per-operator units: a unit's device is its single op's device.
    let unit_device: Vec<usize> = units.iter().map(|u| sharded.device_of(u.ops[0])).collect();
    tracer.end_with(tok, vec![kv("units", units.len())]);

    let tok = tracer.begin("compile", "op-schedule");
    let order = schedule_units(sg, &units, OpScheduler::DepthFirst);
    tracer.end(tok);

    let tok = tracer.begin("compile", "xfer-schedule");
    let plan = schedule_multi_transfers(
        sg,
        &units,
        &unit_device,
        &order,
        &MultiXferOptions {
            budgets: cluster.plannable_budgets(margin),
            eager_free: true,
            pinned_host: vec![],
        },
    )?;
    tracer.end_with(
        tok,
        vec![
            kv("steps", plan.steps.len()),
            kv("bus_bytes", plan.bus_bytes(sg)),
        ],
    );
    if tracer.is_enabled() {
        let m = tracer.metrics();
        m.set("cluster.devices", cluster.len() as u64);
        m.set("cluster.units", units.len() as u64);
        m.set("cluster.bus_bytes", plan.bus_bytes(sg));
    }
    Ok(MultiCompiled {
        cluster: cluster.clone(),
        sharded,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_graph::{DataKind, OpKind, RemapKind};
    use gpuflow_sim::device::{geforce_8800_gtx, tesla_c870};

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
    fn compiled_plans_verify_clean_on_every_cluster_size() {
        let g = edge_like(2000, 9);
        for n in [1, 2, 3, 4, 8] {
            let cluster = Cluster::homogeneous(tesla_c870(), n);
            let c = compile_multi(&g, &cluster, 0.05).unwrap();
            let a = c.analyze();
            assert!(
                !a.has_errors(),
                "n={n}: {}",
                a.first_error().map(|d| d.render()).unwrap_or_default()
            );
        }
    }

    #[test]
    fn heterogeneous_clusters_compile_and_verify() {
        let g = edge_like(2000, 9);
        let cluster = Cluster::new(vec![tesla_c870(), geforce_8800_gtx()]);
        let c = compile_multi(&g, &cluster, 0.05).unwrap();
        let a = c.analyze();
        assert!(!a.has_errors());
        // Both devices do work.
        assert!(c.sharded.ops_per_device(2).iter().all(|&k| k > 0));
    }

    #[test]
    fn cnn_templates_compile_across_devices() {
        let t = gpuflow_templates::cnn::small_cnn(1000, 1000);
        let cluster = Cluster::homogeneous(tesla_c870(), 4);
        let c = compile_multi(&t.graph, &cluster, 0.05).unwrap();
        let a = c.analyze();
        assert!(
            !a.has_errors(),
            "{}",
            a.first_error().map(|d| d.render()).unwrap_or_default()
        );
        let out = c.outcome();
        assert!(out.makespan > 0.0 && out.makespan <= out.serial_time + 1e-9);
    }
}
