//! Mutation-based property tests for the happens-before concurrency
//! certifier (`gpuflow_verify::hazard`, the `GF005x` family — see
//! `docs/concurrency.md`).
//!
//! Two guarantees are checked:
//!
//! 1. **Every planner certifies clean.** The three scheduling heuristics,
//!    the exact PB scheduler, and the §4 baseline all produce plans that
//!    earn the `GF0056` concurrency certificate on the bundled templates
//!    (fig3, edge detection, small CNN), at both comfortable and
//!    paper-tight memory budgets.
//! 2. **Every injected hazard is caught.** Seeded mutations that break a
//!    synchronizing step — front a `Launch` past the `CopyIn` it reads,
//!    free a buffer a later launch still needs, drop a `CopyIn` outright —
//!    are always diagnosed with a `GF005x` error. The mutations are
//!    constructed so the hazard is guaranteed (the mutated read provably
//!    has no happens-before-ordered write), so a silent pass is a
//!    certifier bug, never an unlucky draw.

use std::sync::Arc;

use gpuflow_core::examples::{fig3_graph, fig3_memory_bytes};
use gpuflow_core::{
    baseline_plan, CompileOptions, ExecutionPlan, Framework, OpScheduler, PbExactOptions, Step,
};
use gpuflow_graph::{DataKind, Graph};
use gpuflow_sim::device::tesla_c870;
use gpuflow_sim::DeviceSpec;
use gpuflow_templates::{cnn, edge};
use proptest::prelude::*;
use proptest::TestRng;

/// The template/device matrix every planner must certify on.
fn bundled_cases() -> Vec<(&'static str, Graph, DeviceSpec)> {
    vec![
        ("fig3", fig3_graph(), tesla_c870()),
        (
            "fig3-tight",
            fig3_graph(),
            tesla_c870().with_memory(fig3_memory_bytes() * 2),
        ),
        (
            "edge",
            edge::find_edges(256, 256, 5, 2, edge::CombineOp::Max).graph,
            tesla_c870(),
        ),
        (
            "edge-tight",
            edge::find_edges(256, 256, 5, 2, edge::CombineOp::Max).graph,
            tesla_c870().with_memory(2 << 20),
        ),
        ("cnn-small", cnn::small_cnn(128, 128).graph, tesla_c870()),
    ]
}

#[test]
fn all_planners_certify_hazard_free_on_bundled_templates() {
    for (name, g, dev) in bundled_cases() {
        for sched in [
            OpScheduler::DepthFirst,
            OpScheduler::BreadthFirst,
            OpScheduler::InsertionOrder,
        ] {
            let compiled = Framework::new(dev.clone())
                .with_options(CompileOptions {
                    scheduler: sched,
                    ..CompileOptions::default()
                })
                .compile(&g)
                .unwrap_or_else(|e| panic!("{name}/{sched:?}: {e}"));
            let r = compiled.plan.certify(&compiled.split.graph);
            assert!(
                r.certified(),
                "{name}/{sched:?} failed to certify: {:?}",
                r.first_error()
            );
        }
        let base = baseline_plan(&g, dev.memory_bytes).unwrap();
        let r = base.certify(&g);
        assert!(
            r.certified(),
            "{name}/baseline failed to certify: {:?}",
            r.first_error()
        );
    }
    // The exact PB scheduler stays feasible on the small fig3 template.
    let g = fig3_graph();
    let compiled = Framework::new(tesla_c870().with_memory(fig3_memory_bytes() * 2))
        .with_options(CompileOptions {
            exact: Some(PbExactOptions::default()),
            ..CompileOptions::default()
        })
        .compile(&g)
        .unwrap();
    let r = compiled.plan.certify(&compiled.split.graph);
    assert!(
        r.certified(),
        "fig3/exact failed to certify: {:?}",
        r.first_error()
    );
}

/// `(copy_in_index, reader_launch_index)` pairs where the `CopyIn` is the
/// *first* device write of a pure graph input. Before that step the data
/// provably has no device copy, so any read hoisted above it (or left
/// behind after the `CopyIn` is deleted) is a guaranteed RAW hazard.
fn input_copyin_sites(g: &Graph, plan: &ExecutionPlan) -> Vec<(usize, usize)> {
    let mut seen = std::collections::HashSet::new();
    let mut sites = Vec::new();
    for (i, s) in plan.steps.iter().enumerate() {
        let Step::CopyIn { data: d, .. } = *s else {
            continue;
        };
        if g.data(d).kind != DataKind::Input || !seen.insert(d) {
            continue;
        }
        let reader = plan
            .steps
            .iter()
            .enumerate()
            .skip(i + 1)
            .find_map(|(j, s)| {
                matches!(s, Step::Launch(u) if plan.units[*u].external_inputs(g).any(|x| x == d))
                    .then_some(j)
            });
        if let Some(j) = reader {
            sites.push((i, j));
        }
    }
    sites
}

/// `(launch_index, data)` pairs where the launch reads `data` as an
/// external input — inserting a `Free(data)` just before the launch is a
/// guaranteed use-after-free.
fn launch_input_sites(g: &Graph, plan: &ExecutionPlan) -> Vec<(usize, gpuflow_graph::DataId)> {
    let mut sites = Vec::new();
    for (j, s) in plan.steps.iter().enumerate() {
        let Step::Launch(u) = *s else { continue };
        for d in plan.units[u].external_inputs(g) {
            sites.push((j, d));
        }
    }
    sites
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every seeded hazard injection on a certified plan is diagnosed
    /// with a `GF005x` error; the unmutated plan certifies clean.
    #[test]
    fn injected_hazards_are_always_diagnosed(
        tmpl in 0usize..3,
        kind in 0usize..3,
        seed in 1u64..100_000,
    ) {
        let mut rng = TestRng::for_case(seed, (tmpl * 3 + kind) as u64);
        let (g, dev) = match tmpl {
            0 => (fig3_graph(), tesla_c870().with_memory(fig3_memory_bytes() * 2)),
            1 => (
                edge::find_edges(192, 192, 5, 2, edge::CombineOp::Max).graph,
                tesla_c870().with_memory(1 << 20),
            ),
            _ => (cnn::small_cnn(96, 96).graph, tesla_c870()),
        };
        let mut compiled = Framework::new(dev).compile(&g).unwrap();
        let clean = compiled.plan.certify(&compiled.split.graph);
        prop_assert!(clean.certified(), "{:?}", clean.first_error());

        let plan = Arc::make_mut(&mut compiled.plan);
        let g = &compiled.split.graph;
        let pick = |rng: &mut TestRng, n: usize| (rng.next_u64() as usize) % n;
        match kind {
            0 => {
                // Front a launch past the first CopyIn of an input it
                // reads: the read now precedes every write of that data.
                let sites = input_copyin_sites(g, plan);
                prop_assume!(!sites.is_empty());
                let (i, j) = sites[pick(&mut rng, sites.len())];
                let launch = plan.steps.remove(j);
                plan.steps.insert(i, launch);
            }
            1 => {
                // Drop the CopyIn outright: its readers are left with no
                // device copy at all.
                let sites = input_copyin_sites(g, plan);
                prop_assume!(!sites.is_empty());
                let (i, _) = sites[pick(&mut rng, sites.len())];
                plan.steps.remove(i);
            }
            _ => {
                // Free a buffer immediately before a launch that reads it.
                let sites = launch_input_sites(g, plan);
                prop_assume!(!sites.is_empty());
                let (j, d) = sites[pick(&mut rng, sites.len())];
                plan.steps.insert(j, Step::Free { device: 0, data: d });
            }
        }
        let report = plan.certify(g);
        prop_assert!(report.has_errors(), "mutant (kind {kind}) certified clean");
        let first = report.first_error().unwrap();
        prop_assert!(
            first.code.starts_with("GF005"),
            "mutant diagnosed outside GF005x: {} ({})",
            first.code,
            first.message
        );
    }
}
