//! Human-readable compilation reports.
//!
//! A [`CompiledTemplate`] can explain itself: what was split and why, what
//! the plan transfers relative to the baseline and the I/O lower bound, and
//! where the simulated time goes. The CLI's `plan` command and downstream
//! tooling print this instead of re-deriving the numbers.

use std::fmt::Write as _;

use gpuflow_graph::{DataKind, OpKind};

use crate::baseline::baseline_plan;
use crate::best::best_possible_estimate;
use crate::framework::CompiledTemplate;
use crate::split::DataOrigin;

/// Render a multi-section report for `compiled`, relative to the original
/// `template` graph it was compiled from.
pub fn compilation_report(compiled: &CompiledTemplate, template: &gpuflow_graph::Graph) -> String {
    let mut s = String::new();
    let g = &compiled.split.graph;
    let stats = compiled.stats();

    let _ = writeln!(s, "== template ==");
    let _ = writeln!(
        s,
        "  {} operators, {} data structures, {} floats total",
        template.num_ops(),
        template.num_data(),
        template.total_data_floats()
    );
    let _ = writeln!(
        s,
        "  I/O lower bound: {} floats",
        template.io_lower_bound_floats()
    );

    let _ = writeln!(s, "== splitting ==");
    let _ = writeln!(
        s,
        "  device: {} ({} MiB)",
        compiled.devices[0].name,
        compiled.devices[0].memory_bytes >> 20
    );
    let _ = writeln!(s, "  global split factor: {}", compiled.split.parts);
    let gathers = g
        .op_ids()
        .filter(|&o| matches!(g.op(o).kind, OpKind::GatherRows { .. }))
        .count();
    let _ = writeln!(
        s,
        "  split graph: {} operators ({} halo gathers), {} data structures",
        g.num_ops(),
        gathers,
        g.num_data()
    );
    // Host-view pieces (overlapping input regions) are where halo traffic
    // comes from.
    let views = g
        .data_ids()
        .filter(|&d| {
            g.producer(d).is_none()
                && g.data(d).kind == DataKind::Input
                && matches!(
                    compiled.split.origin_of(d),
                    DataOrigin::Region { row_off, .. } if row_off > 0
                )
        })
        .count();
    let _ = writeln!(s, "  host input views beyond the first band: {views}");

    let _ = writeln!(s, "== plan ==");
    let _ = writeln!(
        s,
        "  {} offload units, {} steps",
        compiled.plan.units.len(),
        compiled.plan.steps.len()
    );
    let _ = writeln!(
        s,
        "  transfers: {} floats in / {} floats out ({} + {} copies)",
        stats.floats_in, stats.floats_out, stats.copies_in, stats.copies_out
    );
    let lb = template.io_lower_bound_floats();
    if lb > 0 {
        let _ = writeln!(
            s,
            "  transfer ratio vs I/O lower bound: {:.3}x",
            stats.total_floats() as f64 / lb as f64
        );
    }
    let _ = writeln!(
        s,
        "  peak device residency: {} of {} MiB",
        stats.peak_bytes >> 20,
        compiled.devices[0].memory_bytes >> 20
    );
    if compiled.exact_optimal {
        let _ = writeln!(s, "  schedule: PROVEN OPTIMAL (pseudo-Boolean)");
    }
    if let Some(st) = &compiled.exact_stats {
        let _ = writeln!(
            s,
            "  exact solver: {} conflicts, {} decisions, {} propagations, {} restarts",
            st.conflicts, st.decisions, st.propagations, st.restarts
        );
        let _ = writeln!(
            s,
            "  exact formula: {} vars / {} clauses pruned (full: {} / {}){}{}",
            st.vars_pruned,
            st.clauses_pruned,
            st.vars_full,
            st.clauses_full,
            if st.warm_started {
                ", warm-started"
            } else {
                ""
            },
            if st.pruned { "" } else { ", pruning off" }
        );
    }

    let _ = writeln!(s, "== reference points ==");
    match baseline_plan(template, compiled.devices[0].memory_bytes) {
        Ok(base) => {
            let b = base.stats(template);
            let _ = writeln!(
                s,
                "  baseline (per-op in/out): {} floats ({:.1}x this plan)",
                b.total_floats(),
                b.total_floats() as f64 / stats.total_floats().max(1) as f64
            );
        }
        Err(e) => {
            let _ = writeln!(s, "  baseline (per-op in/out): N/A — {e}");
        }
    }
    let best = best_possible_estimate(template, &compiled.devices[0]);
    let _ = writeln!(
        s,
        "  best possible (infinite memory, one kernel): {} floats, {:.4} s simulated",
        best.transfer_floats,
        best.total_time()
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Framework;
    use gpuflow_graph::{DataKind, Graph};
    use gpuflow_sim::device::tesla_c870;

    fn conv_chain() -> Graph {
        let mut g = Graph::new();
        let a = g.add("A", 256, 256, DataKind::Input);
        let k = g.add("K", 5, 5, DataKind::Constant);
        let t = g.add("T", 252, 252, DataKind::Temporary);
        let b = g.add("B", 248, 248, DataKind::Output);
        g.add_op("c1", OpKind::Conv2d, vec![a, k], t).unwrap();
        g.add_op("c2", OpKind::Conv2d, vec![t, k], b).unwrap();
        g
    }

    #[test]
    fn report_covers_all_sections() {
        let g = conv_chain();
        let dev = tesla_c870().with_memory(256 << 10);
        let compiled = Framework::new(dev).compile_adaptive(&g).unwrap();
        let report = compilation_report(&compiled, &g);
        for section in [
            "== template ==",
            "== splitting ==",
            "== plan ==",
            "== reference points ==",
        ] {
            assert!(report.contains(section), "missing {section}\n{report}");
        }
        assert!(report.contains("global split factor"), "{report}");
        assert!(report.contains("halo gathers"), "{report}");
        assert!(report.contains("transfer ratio"), "{report}");
        assert!(report.contains("baseline (per-op in/out):"), "{report}");
    }

    #[test]
    fn report_marks_infeasible_baseline() {
        let g = conv_chain();
        // Device smaller than one conv's working set: baseline N/A.
        let dev = tesla_c870().with_memory(256 << 10);
        let compiled = Framework::new(dev).compile_adaptive(&g).unwrap();
        let report = compilation_report(&compiled, &g);
        assert!(report.contains("N/A"), "{report}");
    }

    #[test]
    fn report_marks_proven_optimal_plans() {
        use crate::framework::CompileOptions;
        use crate::pbexact::PbExactOptions;
        let mut g = Graph::new();
        let a = g.add("a", 8, 8, DataKind::Input);
        let b = g.add("b", 8, 8, DataKind::Output);
        g.add_op("t", OpKind::Tanh, vec![a], b).unwrap();
        let dev = tesla_c870();
        let compiled = Framework::new(dev)
            .with_options(CompileOptions {
                exact: Some(PbExactOptions::default()),
                ..CompileOptions::default()
            })
            .compile(&g)
            .unwrap();
        let report = compilation_report(&compiled, &g);
        assert!(report.contains("PROVEN OPTIMAL"), "{report}");
    }
}
