//! Extension — observability: per-pass compile cost and traced simulated
//! execution for representative paper workloads.
//!
//! For each template the full pipeline runs under an enabled
//! [`gpuflow_trace::Tracer`]: every compile pass becomes a wall-clock
//! span, the serial executor's timeline lands on a virtual-time track,
//! and the canonical plan statistics land in the metrics registry. The
//! table below is read *entirely* from that registry — the same numbers
//! `gpuflow run --json` embeds — and a Chrome-trace JSON per template is
//! written under `target/traces/` for Perfetto (see
//! `docs/observability.md`).

use gpuflow_bench::TableWriter;
use gpuflow_core::{
    eliminate_dead_ops_traced, hoist_prefetches_traced, simulate, trace_lanes,
    trace_serial_timeline, Framework, Machine,
};
use gpuflow_sim::device::tesla_c870;
use gpuflow_templates::edge::{find_edges, CombineOp};
use gpuflow_templates::stencil::heat_diffusion;
use gpuflow_trace::Tracer;

fn main() {
    let dev = tesla_c870();
    println!(
        "Extension — traced compile + simulated execution on {}\n",
        dev.name
    );

    let workloads: Vec<(&str, gpuflow_graph::Graph)> = vec![
        ("fig3", gpuflow_core::examples::fig3_graph()),
        (
            "edge-2000x2000",
            find_edges(2000, 2000, 16, 4, CombineOp::Max).graph,
        ),
        ("heat-192x24", heat_diffusion(192, 24).graph),
    ];

    let out_dir = std::path::Path::new("target/traces");
    std::fs::create_dir_all(out_dir).expect("create target/traces");

    let mut table = TableWriter::new(&[
        "template",
        "units",
        "plan bytes in/out",
        "sim h2d/d2h bytes",
        "launches",
        "sim total (s)",
        "trace events",
    ]);
    for (name, g) in &workloads {
        let mut tracer = Tracer::new();
        tracer.name_process(gpuflow_trace::PID_COMPILE, "gpuflow compile (wall clock)");
        tracer.name_thread(gpuflow_trace::PID_COMPILE, 0, "pipeline passes");

        let pruned = eliminate_dead_ops_traced(g, &mut tracer).expect("valid graph");
        let fw = Framework::new(dev.clone());
        let compiled = fw
            .compile_adaptive_traced(&pruned.graph, &mut tracer)
            .expect("workload compiles");
        let result = compiled.run_analytic().expect("workload runs");
        trace_serial_timeline(&mut tracer, &result.timeline);

        // The async-copy extension: hoist uploads, then put the dual-DMA +
        // compute engine intervals on their own tracks.
        let (hoisted, _moves) = hoist_prefetches_traced(
            &compiled.split.graph,
            &compiled.plan,
            dev.memory_bytes,
            32,
            &mut tracer,
        );
        let sim = simulate(&compiled.split.graph, &hoisted, &Machine::single(&dev));
        trace_lanes(&mut tracer, &sim.lanes, &sim.events);

        // Everything below is read back from the tracer's registry: the
        // reconciliation guarantee means these equal the plan/sim truth.
        let m = tracer.metrics_ref();
        table.row(&[
            name.to_string(),
            m.counter("compile.units").to_string(),
            format!(
                "{}/{}",
                m.counter("plan.bytes_in"),
                m.counter("plan.bytes_out")
            ),
            format!(
                "{}/{}",
                m.counter("sim.bytes_h2d"),
                m.counter("sim.bytes_d2h")
            ),
            m.counter("plan.launches").to_string(),
            format!("{:.4}", result.timeline.counters().total_time()),
            tracer.events().len().to_string(),
        ]);

        let path = out_dir.join(format!("{name}.json"));
        std::fs::write(&path, tracer.chrome_trace().to_string_pretty() + "\n")
            .expect("write trace");
        println!("== {name} ==\n{}", tracer.summary());
        println!(
            "wrote {} (load in Perfetto or chrome://tracing)\n",
            path.display()
        );
    }
    println!("{}", table.render());
    println!(
        "Every number above is read from the trace metrics registry, not\n\
         recomputed: `gpuflow trace` proves the registry equals the plan's\n\
         canonical statistics, so the exported traces tell the same story."
    );
}
