//! Multi-GPU: shard a template across a simulated cluster, verify the
//! cross-device plan, and simulate the overlapped execution against the
//! shared PCIe bus.
//!
//! ```sh
//! cargo run --release --example multi_gpu
//! ```

use gpuflow::core::render_gantt;
use gpuflow::multi::{compile_multi, parse_cluster};
use gpuflow::templates::edge::{find_edges, CombineOp};

fn main() {
    // 1. A compute-heavy template: edge detection on a 4000x4000 image
    //    with a 16x16 oriented filter at 4 orientations.
    let template = find_edges(4000, 4000, 16, 4, CombineOp::Max);

    // 2. A cluster of four GeForce 8800 GTX cards behind one PCIe fabric
    //    (the same spec string the CLI takes via `--devices`).
    let cluster = parse_cluster("gtx8800x4").expect("valid cluster spec");
    println!("cluster: {}", cluster.describe());

    // 3. Shard + plan: row-bands every splittable operator across the
    //    devices, then schedules per-device transfers with staged
    //    device->host->device copies for anything that crosses devices.
    let compiled = compile_multi(&template.graph, &cluster, 0.05).expect("template shards");
    println!(
        "sharded: split into {} bands; ops per device {:?}",
        compiled.split.parts,
        compiled.plan.ops_per_device(cluster.len())
    );

    // 4. Every multi-device plan is checked by the static analyzer: shards
    //    launch on the device that holds their inputs, inter-device copies
    //    are staged through the host, and no device exceeds its memory.
    let analysis = compiled.analyze();
    assert!(!analysis.has_errors(), "plan verifies clean");
    println!(
        "verified: 0 errors; per-device peak residency (MiB): {:?}",
        analysis
            .peak_per_device
            .iter()
            .map(|b| b >> 20)
            .collect::<Vec<_>>()
    );

    // 5. Simulate with per-device compute engines racing the shared bus.
    let sim = compiled.simulate();
    let outcome = &sim.outcome;
    println!(
        "simulated: serial {:.4} s -> makespan {:.4} s ({:.2}x on {} devices)",
        outcome.serial_time,
        outcome.makespan,
        outcome.speedup(),
        cluster.len()
    );
    println!(
        "shared bus: {:.4} s H->D busy, {:.4} s D->H busy, {} MiB moved\n",
        outcome.h2d_busy,
        outcome.d2h_busy,
        outcome.bus_bytes >> 20
    );
    print!(
        "{}",
        render_gantt(&sim.lanes, &sim.events, outcome.makespan, 72)
    );
}
