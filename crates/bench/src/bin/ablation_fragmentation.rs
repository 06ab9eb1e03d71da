//! Ablation — the fragmentation margin (§3.3.2: "the `Total_GPU_Memory`
//! parameter in the formulation is set to a value less than the actual
//! amount of GPU memory present in the system to account for
//! fragmentation").
//!
//! Plans are made against a de-rated capacity and then executed on the
//! real first-fit allocator; too small a margin fails, too large a margin
//! wastes memory and inflates transfers.

use gpuflow_bench::run::commas;
use gpuflow_bench::TableWriter;
use gpuflow_core::{CompileOptions, Framework, Machine, ResilientExecutor};
use gpuflow_sim::device::tesla_c870;
use gpuflow_templates::edge::{find_edges, CombineOp};

fn main() {
    println!("Ablation — planning margin vs real-allocator fragmentation\n");
    for (name, g, dev) in [
        (
            "edge 4000x4000 on a 160 MiB device",
            find_edges(4000, 4000, 16, 4, CombineOp::Max).graph,
            tesla_c870().with_memory(160 << 20),
        ),
        (
            "edge 120x120 on a 120 KiB device (worst relative fragmentation)",
            find_edges(120, 120, 9, 4, CombineOp::Max).graph,
            tesla_c870().with_memory(120 << 10),
        ),
        (
            "heat diffusion 192x192 x24 sweeps on 96 KiB (mixed band sizes)",
            gpuflow_templates::stencil::heat_diffusion(192, 24).graph,
            tesla_c870().with_memory(96 << 10),
        ),
    ] {
        run_sweep(name, &g, &dev);
    }
    println!(
        "Small margins can plan transfers that the real first-fit allocator\n\
         cannot satisfy contiguously (the stencil chain's mixed band sizes\n\
         are the worst case); best-fit placement or a larger margin buys\n\
         robustness for a little extra transfer volume."
    );
}

fn run_sweep(name: &str, g: &gpuflow_graph::Graph, dev: &gpuflow_sim::DeviceSpec) {
    println!("{name}:\n");
    let mut t = TableWriter::new(&[
        "margin",
        "plan",
        "first-fit run / frag",
        "best-fit run / frag",
        "floats moved",
        "split P",
    ]);
    for margin in [0.0, 0.01, 0.05, 0.1, 0.2, 0.4] {
        let fw = Framework::new(dev.clone()).with_options(CompileOptions {
            memory_margin: margin,
            ..CompileOptions::default()
        });
        match fw.compile(g) {
            Err(e) => {
                t.row(&[
                    format!("{margin:.2}"),
                    format!("fail: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
            Ok(c) => {
                let describe = |policy: gpuflow_sim::FitPolicy| {
                    let run =
                        ResilientExecutor::quiet(&c.split.graph, &c.plan, &Machine::single(dev))
                            .with_alloc_policy(policy)
                            .run_analytic();
                    match run {
                        Ok(out) => format!("ok / {:.3}", out.exec.peak_fragmentation),
                        Err(e) if e.to_string().contains("fragmented") => {
                            "FAILS: fragmentation".into()
                        }
                        Err(_) => "FAILS: allocation".into(),
                    }
                };
                t.row(&[
                    format!("{margin:.2}"),
                    "ok".into(),
                    describe(gpuflow_sim::FitPolicy::FirstFit),
                    describe(gpuflow_sim::FitPolicy::BestFit),
                    commas(c.stats().total_floats()),
                    c.split.parts.to_string(),
                ]);
            }
        }
    }
    println!("{}", t.render());
}
