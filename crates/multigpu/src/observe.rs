//! The cluster simulation's aggregate numbers as `cluster.*` metrics.
//!
//! The lanes themselves — the shared-bus channels and one compute thread
//! per device on the [`gpuflow_trace::PID_CLUSTER`] track — are projected
//! by [`gpuflow_core::trace_lanes`], the same emitter a single device
//! uses; what is particular to a cluster is only this summary.

use gpuflow_core::OverlapOutcome;
use gpuflow_trace::Tracer;

/// Record a cluster simulation's aggregates as `cluster.*` metrics.
pub fn record_cluster_metrics(tracer: &mut Tracer, outcome: &OverlapOutcome) {
    if !tracer.is_enabled() {
        return;
    }
    let m = tracer.metrics();
    m.set("cluster.bus_bytes_moved", outcome.bus_bytes);
    m.gauge("cluster.makespan_s", outcome.makespan);
    m.gauge("cluster.serial_time_s", outcome.serial_time);
    m.gauge("cluster.speedup", outcome.speedup());
    m.gauge("cluster.bus_h2d_busy_s", outcome.h2d_busy);
    m.gauge("cluster.bus_d2h_busy_s", outcome.d2h_busy);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::compile_multi_traced;
    use crate::Cluster;
    use gpuflow_core::trace_lanes;
    use gpuflow_graph::{DataKind, Graph, OpKind};
    use gpuflow_sim::device::tesla_c870;
    use gpuflow_trace::{sum_event_arg, validate_chrome_trace, PID_CLUSTER};

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        let a = g.add("A", 600, 600, DataKind::Input);
        let b = g.add("B", 600, 600, DataKind::Output);
        g.add_op("sq", OpKind::EwMul, vec![a, a], b).unwrap();
        g
    }

    #[test]
    fn bus_bytes_in_trace_reconcile_with_outcome() {
        let g = tiny_graph();
        let cluster = Cluster::homogeneous(tesla_c870(), 2);
        let mut tracer = Tracer::new();
        let c = compile_multi_traced(&g, &cluster, 0.05, &mut tracer)
            .unwrap()
            .template;
        let sim = c.simulate();
        let out = &sim.outcome;
        trace_lanes(&mut tracer, &c.split.graph, &sim.lanes, &sim.events);
        record_cluster_metrics(&mut tracer, out);
        let doc = tracer.chrome_trace();
        validate_chrome_trace(&doc).unwrap();
        let h2d = sum_event_arg(&doc, "h2d", "bytes", Some(PID_CLUSTER));
        let d2h = sum_event_arg(&doc, "d2h", "bytes", Some(PID_CLUSTER));
        assert_eq!(h2d + d2h, out.bus_bytes);
        assert_eq!(
            tracer.metrics_ref().counter("cluster.bus_bytes_moved"),
            out.bus_bytes
        );
        // The compile track recorded the planner's own bus accounting,
        // which must agree with the simulation's.
        assert_eq!(
            tracer.metrics_ref().counter("cluster.bus_bytes"),
            c.plan.bus_bytes(&c.split.graph)
        );
    }
}
