//! CNN inference — the paper's face/pose-detection scenario (§4.1.2).
//!
//! Builds the 11-layer "small CNN" on a 160x120 frame, runs it through the
//! framework on both of the paper's GPUs, verifies the activations against
//! the reference evaluator, and compares the optimized plan with the
//! baseline execution pattern.
//!
//! ```sh
//! cargo run --release --example cnn_inference
//! ```

use gpuflow::core::{baseline_plan, Framework, Machine, ResilientExecutor};
use gpuflow::ops::reference_eval;
use gpuflow::sim::device::{geforce_8800_gtx, tesla_c870};
use gpuflow::templates::cnn::small_cnn;
use gpuflow::templates::data::default_bindings;

fn main() {
    let cnn = small_cnn(120, 160);
    println!(
        "small CNN: {} layers, {} operators, {} data structures, {} weight tensors",
        cnn.num_layers,
        cnn.graph.num_ops(),
        cnn.graph.num_data(),
        cnn.weights.len()
    );

    let bindings = default_bindings(&cnn.graph);
    let reference = reference_eval(&cnn.graph, &bindings).expect("reference evaluates");

    for device in [tesla_c870(), geforce_8800_gtx()] {
        // Constrain memory so planning is non-trivial even for this small
        // frame: 2 MiB.
        let dev = device.with_memory(2 << 20);
        let compiled = Framework::new(dev.clone()).compile(&cnn.graph).unwrap();
        let outcome = compiled.run_functional(&bindings).expect("plan executes");

        // Check every output plane bit-for-bit.
        for &out in &cnn.outputs {
            assert_eq!(
                outcome.outputs[&out],
                reference[&out],
                "plane {} must match",
                cnn.graph.data(out).name
            );
        }

        let baseline = baseline_plan(&cnn.graph, dev.memory_bytes).expect("baseline fits");
        let base_out = ResilientExecutor::quiet(&cnn.graph, &baseline, &Machine::single(&dev))
            .run_analytic()
            .expect("baseline executes")
            .exec;

        let c = outcome.timeline.counters();
        println!("\n{} (2 MiB):", dev.name);
        println!(
            "  optimized: {:>12} floats moved, {:.1} ms simulated ({:.0}% transfer)",
            c.total_transfer_floats(),
            c.total_time() * 1e3,
            c.transfer_share() * 100.0
        );
        let bc = base_out.timeline.counters();
        println!(
            "  baseline : {:>12} floats moved, {:.1} ms simulated ({:.0}% transfer)",
            bc.total_transfer_floats(),
            bc.total_time() * 1e3,
            bc.transfer_share() * 100.0
        );
        println!(
            "  speedup  : {:.1}x, transfer reduction {:.1}x  (outputs verified ✓)",
            bc.total_time() / c.total_time(),
            bc.total_transfer_floats() as f64 / c.total_transfer_floats() as f64
        );
    }

    // Peek at the output activations.
    let first = &reference[&cnn.outputs[0]];
    println!(
        "\noutput plane 0 is {}x{}; activation range [{:.3}, {:.3}]",
        first.rows(),
        first.cols(),
        first.as_slice().iter().copied().fold(f32::MAX, f32::min),
        first.as_slice().iter().copied().fold(f32::MIN, f32::max)
    );
}
