//! **Extension — multi-GPU scalability** (fig8-style sweep): makespan vs
//! device count, 1→8 simulated Tesla C870s behind one shared PCIe fabric,
//! for the edge-detection and small-CNN templates.
//!
//! Expected shape: compute capacity grows with the device count while bus
//! capacity does not, so speedup climbs steeply while the templates are
//! compute-bound, then flattens at the bus-contention knee — the device
//! count where per-device compute time first drops below the (fixed)
//! shared-bus busy time. `docs/multigpu.md` walks through the model.

use gpuflow_bench::run::secs;
use gpuflow_bench::TableWriter;
use gpuflow_multi::{compile_multi, Cluster};
use gpuflow_sim::device::tesla_c870;
use gpuflow_templates::cnn::small_cnn;
use gpuflow_templates::edge::{find_edges, CombineOp};

fn sweep(name: &str, g: &gpuflow_graph::Graph) {
    println!("{name}");
    let mut table = TableWriter::new(&[
        "devices",
        "makespan (s)",
        "speedup",
        "bus busy H>D (s)",
        "bus busy D>H (s)",
        "max compute (s)",
        "bound",
    ]);
    let mut one = None;
    for n in [1usize, 2, 4, 8] {
        let cluster = Cluster::homogeneous(tesla_c870(), n);
        let c = compile_multi(g, &cluster, 0.05).expect("template compiles");
        let a = c.analyze();
        assert!(
            !a.has_errors(),
            "plan must verify clean: {}",
            a.first_error().map(|d| d.render()).unwrap_or_default()
        );
        let o = c.simulate().outcome;
        let base = *one.get_or_insert(o.makespan);
        let max_compute = o.compute_busy.iter().cloned().fold(0.0f64, f64::max);
        let bus_bound = o.h2d_busy.max(o.d2h_busy) >= max_compute;
        table.row(&[
            n.to_string(),
            secs(o.makespan),
            format!("{:.2}x", base / o.makespan),
            secs(o.h2d_busy),
            secs(o.d2h_busy),
            secs(max_compute),
            (if bus_bound { "bus" } else { "compute" }).to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn main() {
    println!("Extension — multi-GPU scalability on simulated Tesla C870 clusters\n");
    let edge = find_edges(6000, 6000, 16, 4, CombineOp::Max);
    sweep(
        "edge detection, 6000x6000 image, 16x16 kernel, 4 orientations",
        &edge.graph,
    );
    let cnn = small_cnn(4000, 4000);
    sweep("small CNN, 4000x4000 input", &cnn.graph);
    // A small kernel shrinks compute ~7x while the transferred volume is
    // unchanged, so the shared bus saturates within the sweep.
    let thin = find_edges(6000, 6000, 6, 4, CombineOp::Max);
    sweep(
        "edge detection, 6000x6000 image, 6x6 kernel (transfer-heavy)",
        &thin.graph,
    );
    println!(
        "Speedup grows while the work is compute-bound and flattens once a\n\
         shared bus channel is busier than any single device's compute\n\
         engine (the 'bound' column flips from compute to bus)."
    );
}
