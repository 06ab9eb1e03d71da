//! Property-based tests across the workspace: random templates, random
//! memory budgets, random constraint systems — invariants must always
//! hold.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use gpuflow::core::{
    partition_offload_units, pb_exact_plan, serial_step_times, split_graph, validate_plan,
    DataOrigin, Framework, PartitionPolicy, PbExactOptions, Step,
};
use gpuflow::graph::{DataKind, Graph, OpKind, RemapKind, SubsampleKind};
use gpuflow::ops::{reference_eval, Tensor};
use gpuflow::pbsat::{Cmp, PbFormula, SolveResult, Var};
use gpuflow::sim::device::tesla_c870;

/// A random layered template: each layer applies a random splittable
/// operator per plane, with occasional element-wise merges.
fn random_template(
    seed: u64,
    layers: usize,
    rows: usize,
    cols: usize,
) -> (Graph, HashMap<gpuflow::graph::DataId, Tensor>) {
    let mut g = Graph::new();
    let mut state = seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let input = g.add("in", rows, cols, DataKind::Input);
    let kernel = g.add("k", 3, 3, DataKind::Constant);
    let mut frontier = vec![input];
    let mut shape = (rows, cols);
    for l in 0..layers {
        let last = l + 1 == layers;
        let mut next = Vec::new();
        let choice = rnd() % 5;
        match choice {
            // Convolution on each plane.
            0 if shape.0 >= 4 && shape.1 >= 4 => {
                let (nr, nc) = (shape.0 - 2, shape.1 - 2);
                for (i, &p) in frontier.clone().iter().enumerate() {
                    let kind = if last {
                        DataKind::Output
                    } else {
                        DataKind::Temporary
                    };
                    let d = g.add(format!("c{l}.{i}"), nr, nc, kind);
                    g.add_op(format!("conv{l}.{i}"), OpKind::Conv2d, vec![p, kernel], d)
                        .unwrap();
                    next.push(d);
                }
                shape = (nr, nc);
            }
            // Pooling.
            1 if shape.0 >= 4 && shape.1 >= 4 => {
                let (nr, nc) = (shape.0 / 2, shape.1 / 2);
                for (i, &p) in frontier.clone().iter().enumerate() {
                    let kind = if last {
                        DataKind::Output
                    } else {
                        DataKind::Temporary
                    };
                    let d = g.add(format!("p{l}.{i}"), nr, nc, kind);
                    g.add_op(
                        format!("pool{l}.{i}"),
                        OpKind::Subsample {
                            factor: 2,
                            kind: SubsampleKind::Max,
                        },
                        vec![p],
                        d,
                    )
                    .unwrap();
                    next.push(d);
                }
                shape = (nr, nc);
            }
            // Merge all planes element-wise, then fan back out via remaps.
            2 if frontier.len() >= 2 => {
                let kind = if last {
                    DataKind::Output
                } else {
                    DataKind::Temporary
                };
                let d = g.add(format!("m{l}"), shape.0, shape.1, kind);
                g.add_op(
                    format!("merge{l}"),
                    OpKind::EwMax {
                        arity: frontier.len() as u8,
                    },
                    frontier.clone(),
                    d,
                )
                .unwrap();
                next.push(d);
            }
            // Mirror remap per plane (non-row-local split rule).
            3 => {
                for (i, &p) in frontier.clone().iter().enumerate() {
                    let kind = if last {
                        DataKind::Output
                    } else {
                        DataKind::Temporary
                    };
                    let d = g.add(format!("f{l}.{i}"), shape.0, shape.1, kind);
                    g.add_op(
                        format!("flip{l}.{i}"),
                        OpKind::Remap(RemapKind::FlipV),
                        vec![p],
                        d,
                    )
                    .unwrap();
                    next.push(d);
                }
            }
            // Tanh per plane, sometimes duplicating a plane.
            _ => {
                for (i, &p) in frontier.clone().iter().enumerate() {
                    let kind = if last {
                        DataKind::Output
                    } else {
                        DataKind::Temporary
                    };
                    let d = g.add(format!("t{l}.{i}"), shape.0, shape.1, kind);
                    g.add_op(format!("tanh{l}.{i}"), OpKind::Tanh, vec![p], d)
                        .unwrap();
                    next.push(d);
                }
                if !last && next.len() < 3 && rnd() % 2 == 0 {
                    let extra = g.add(format!("x{l}"), shape.0, shape.1, DataKind::Temporary);
                    g.add_op(format!("dup{l}"), OpKind::scale(0.5), vec![next[0]], extra)
                        .unwrap();
                    next.push(extra);
                }
            }
        }
        if next.is_empty() {
            // Degenerate choice for the current shape: fall back to tanh.
            for (i, &p) in frontier.clone().iter().enumerate() {
                let kind = if last {
                    DataKind::Output
                } else {
                    DataKind::Temporary
                };
                let d = g.add(format!("t{l}.{i}b"), shape.0, shape.1, kind);
                g.add_op(format!("tanh{l}.{i}b"), OpKind::Tanh, vec![p], d)
                    .unwrap();
                next.push(d);
            }
        }
        frontier = next;
    }
    let mut bindings = HashMap::new();
    bindings.insert(
        input,
        Tensor::from_fn(rows, cols, |r, c| {
            ((r * 37 + c * 11 + seed as usize) % 23) as f32 - 11.0
        }),
    );
    bindings.insert(
        kernel,
        Tensor::from_fn(3, 3, |r, c| ((r * 3 + c + seed as usize) % 5) as f32 - 2.0),
    );
    (g, bindings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the template and however tight the memory, the framework's
    /// functional output equals the unconstrained reference.
    #[test]
    fn compiled_execution_always_matches_reference(
        seed in 1u64..10_000,
        layers in 1usize..6,
        rows in 12usize..40,
        cols in 12usize..40,
        mem_divisor in 1u64..12,
    ) {
        let (g, bindings) = random_template(seed, layers, rows, cols);
        prop_assert!(g.validate().is_ok());
        let total = g.total_data_floats() * 4;
        let mem = (total / mem_divisor).max(8 * 1024);
        let dev = tesla_c870().with_memory(mem);
        // Some (template, memory) pairs are genuinely infeasible (an
        // unsplittable working set larger than memory after banding
        // limits); those must fail loudly, not corrupt data.
        let compiled = match Framework::new(dev).compile_adaptive(&g) {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };
        let out = compiled.run_functional(&bindings).expect("validated plan executes");
        let reference = reference_eval(&g, &bindings).expect("reference");
        for (d, t) in &out.outputs {
            prop_assert_eq!(t, &reference[d]);
        }
        prop_assert!(out.peak_device_bytes <= mem);
        // Analytic and plan-level accounting agree.
        prop_assert_eq!(out.transfer_floats(), compiled.stats().total_floats());
        // The serial shadow clock is an independent oracle for the walk:
        // same end time, one interval per step, and one timeline event
        // per transfer or free and per operator of each launch.
        let (pg, plan) = (&compiled.split.graph, &*compiled.plan);
        let times = serial_step_times(pg, plan, &compiled.devices[0]);
        prop_assert_eq!(times.len(), plan.steps.len());
        let end = times.last().map_or(0.0, |t| t.1);
        prop_assert!((end - out.total_time()).abs() <= 1e-12 * end, "{} vs {}", end, out.total_time());
        let events: usize = plan
            .steps
            .iter()
            .map(|s| match *s {
                Step::Launch(u) => plan.units[u].ops.len(),
                _ => 1,
            })
            .sum();
        prop_assert_eq!(out.timeline.events().len(), events);
    }

    /// Random mutations of a valid plan are either rejected by the static
    /// validator or — if the mutation happens to preserve validity —
    /// still produce reference-identical outputs. The validator is the
    /// safety net between the planner and the device.
    #[test]
    fn plan_mutations_cannot_corrupt_results(
        seed in 1u64..10_000,
        mutation in 0u8..5,
        pick in 0usize..1000,
    ) {
        let (g, bindings) = random_template(seed, 3, 20, 20);
        let dev = tesla_c870();
        let mut compiled = match Framework::new(dev.clone()).compile_adaptive(&g) {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };
        let plan = Arc::make_mut(&mut compiled.plan);
        if plan.steps.is_empty() {
            return Ok(());
        }
        let i = pick % plan.steps.len();
        match mutation {
            0 => {
                // Drop a step.
                plan.steps.remove(i);
            }
            1 => {
                // Duplicate a step.
                let s = plan.steps[i];
                plan.steps.insert(i, s);
            }
            2 => {
                // Swap two adjacent steps.
                if i + 1 < plan.steps.len() {
                    plan.steps.swap(i, i + 1);
                }
            }
            3 => {
                // Retarget a copy/free to a different data id.
                let nd = compiled.split.graph.num_data();
                let d = gpuflow::graph::DataId(((pick * 7) % nd) as u32);
                plan.steps[i] = match plan.steps[i] {
                    Step::CopyIn { device, .. } => Step::CopyIn { device, data: d },
                    Step::CopyOut { device, .. } => Step::CopyOut { device, data: d },
                    Step::Free { device, .. } => Step::Free { device, data: d },
                    other => other,
                };
            }
            _ => {
                // Move the last step to the front.
                let s = plan.steps.pop().expect("non-empty");
                plan.steps.insert(0, s);
            }
        }
        let budget = dev.memory_bytes;
        match validate_plan(&compiled.split.graph, plan, budget) {
            Err(_) => {} // rejected statically: good
            Ok(()) => {
                // Still valid ⇒ execution must still be bit-correct.
                let out = compiled
                    .run_functional(&bindings)
                    .expect("validated plan executes");
                let reference = reference_eval(&g, &bindings).expect("reference");
                for (d, t) in &out.outputs {
                    prop_assert_eq!(t, &reference[d]);
                }
            }
        }
    }

    /// Split graphs cover each original output exactly, and every op in
    /// the split graph fits the budget.
    #[test]
    fn split_output_coverage(
        seed in 1u64..10_000,
        layers in 1usize..5,
        divisor in 2u64..10,
    ) {
        let (g, _) = random_template(seed, layers, 24, 24);
        let budget = (g.total_data_floats() * 4 / divisor).max(4096);
        let res = match split_graph(&g, budget) {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        prop_assert!(res.graph.validate().is_ok());
        for o in res.graph.op_ids() {
            prop_assert!(res.graph.op_footprint_bytes(o) <= budget);
        }
        // Per original output: pieces tile its rows exactly.
        for orig in g.outputs() {
            let mut spans: Vec<(usize, usize)> = res
                .graph
                .data_ids()
                .filter(|&d| res.graph.data(d).kind == DataKind::Output)
                .filter_map(|d| match res.origin_of(d) {
                    DataOrigin::Region { parent, row_off } if parent == orig => {
                        Some((row_off, row_off + res.graph.data(d).rows))
                    }
                    _ => None,
                })
                .collect();
            spans.sort_unstable();
            let mut covered = 0usize;
            for (lo, hi) in spans {
                prop_assert_eq!(lo, covered);
                covered = hi;
            }
            prop_assert_eq!(covered, g.data(orig).rows);
        }
    }

    /// Tensor view/paste round-trips arbitrary sub-rectangles.
    #[test]
    fn tensor_view_paste_roundtrip(
        rows in 1usize..24,
        cols in 1usize..24,
        ro in 0usize..24,
        co in 0usize..24,
        vr in 1usize..24,
        vc in 1usize..24,
    ) {
        prop_assume!(ro + vr <= rows && co + vc <= cols);
        let t = Tensor::from_fn(rows, cols, |r, c| (r * 100 + c) as f32);
        let v = t.view(ro, co, vr, vc);
        let mut u = t.clone();
        u.paste(&v, ro, co);
        prop_assert_eq!(u, t);
    }

    /// The PB solver agrees with brute force on random mixed formulas.
    #[test]
    fn pb_solver_agrees_with_brute_force(
        seed in 1u64..50_000,
        nclauses in 0usize..6,
        nlinear in 0usize..3,
    ) {
        let nvars = 5u32;
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut f = PbFormula::new();
        for _ in 0..nvars {
            f.new_var();
        }
        let mut clauses = Vec::new();
        for _ in 0..nclauses {
            let c: Vec<_> = (0..3)
                .map(|_| {
                    let v = Var((rnd() % nvars as u64) as u32);
                    if rnd() % 2 == 0 { v.pos() } else { v.neg() }
                })
                .collect();
            f.add_clause(&c);
            clauses.push(c);
        }
        let mut linears = Vec::new();
        for _ in 0..nlinear {
            let terms: Vec<_> = (0..nvars)
                .map(|i| {
                    let coef = (rnd() % 5) as i64 - 2;
                    let v = Var(i);
                    (coef, if rnd() % 2 == 0 { v.pos() } else { v.neg() })
                })
                .collect();
            let rhs = (rnd() % 7) as i64 - 1;
            let cmp = match rnd() % 3 {
                0 => Cmp::Ge,
                1 => Cmp::Le,
                _ => Cmp::Eq,
            };
            f.add_linear(&terms, cmp, rhs);
            linears.push((terms, cmp, rhs));
        }

        // Brute force.
        let mut sat = false;
        'models: for bits in 0u32..(1 << nvars) {
            let m: Vec<bool> = (0..nvars).map(|i| bits >> i & 1 == 1).collect();
            for c in &clauses {
                if !c.iter().any(|l| l.eval(m[l.var().index()])) {
                    continue 'models;
                }
            }
            for (terms, cmp, rhs) in &linears {
                let lhs: i64 = terms
                    .iter()
                    .filter(|(_, l)| l.eval(m[l.var().index()]))
                    .map(|(c, _)| c)
                    .sum();
                let ok = match cmp {
                    Cmp::Ge => lhs >= *rhs,
                    Cmp::Le => lhs <= *rhs,
                    Cmp::Eq => lhs == *rhs,
                };
                if !ok {
                    continue 'models;
                }
            }
            sat = true;
            break;
        }

        let result = f.instantiate().solve(None);
        match (sat, result) {
            (true, SolveResult::Sat(_)) | (false, SolveResult::Unsat) => {}
            (expected, got) => {
                prop_assert!(false, "brute force sat={expected}, solver {got:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Static-analyzer properties: planner outputs are diagnostic-clean, and
// targeted corruptions are always caught with the expected GF code.
// ---------------------------------------------------------------------------

use gpuflow::verify::engine::codes;
use gpuflow::verify::Severity;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The heuristic planning pipeline (split → partition → schedule →
    /// transfer placement → prefetch hoisting) never emits a plan the
    /// analyzer flags with an Error, under the same budget it planned for.
    #[test]
    fn heuristic_plans_are_error_free(
        seed in 1u64..10_000,
        layers in 1usize..5,
        mem_divisor in 1u64..10,
    ) {
        let (g, _) = random_template(seed, layers, 24, 24);
        let total = g.total_data_floats() * 4;
        let mem = (total / mem_divisor).max(8 * 1024);
        let dev = tesla_c870().with_memory(mem);
        let compiled = match Framework::new(dev).compile_adaptive(&g) {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };
        let analysis = compiled.plan.analyze(&compiled.split.graph, mem, true);
        let errors: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        prop_assert!(errors.is_empty(), "heuristic plan has errors: {errors:?}");
        // Analyzer verdict matches the legacy validator's.
        prop_assert!(validate_plan(&compiled.split.graph, &compiled.plan, mem).is_ok());
    }

    /// The PB-exact planner is held to the same standard.
    #[test]
    fn pb_exact_plans_are_error_free(
        seed in 1u64..10_000,
        mem_divisor in 1u64..6,
    ) {
        let (g, _) = random_template(seed, 2, 16, 16);
        let budget = (g.total_data_floats() * 4 / mem_divisor).max(8 * 1024);
        let split = match split_graph(&g, budget) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let units = partition_offload_units(&split.graph, PartitionPolicy::PerOperator, budget);
        let out =
            match pb_exact_plan(&split.graph, &units, budget, PbExactOptions::default(), None) {
                Ok(o) => o,
                Err(_) => return Ok(()),
            };
        let analysis = out.plan.analyze(&split.graph, budget, true);
        prop_assert!(
            !analysis.has_errors(),
            "pb-exact plan has errors: {:?}",
            analysis.diagnostics
        );
    }

    /// Dropping the first CopyIn from a valid plan always surfaces as a
    /// residency error: a use-after-free-style read (GF0017), a Free of a
    /// buffer that never arrived (GF0015), or an undelivered output
    /// (GF0022).
    #[test]
    fn dropped_copyin_is_diagnosed(seed in 1u64..10_000, layers in 1usize..5) {
        let (g, _) = random_template(seed, layers, 20, 20);
        let dev = tesla_c870();
        let mut compiled = match Framework::new(dev.clone()).compile_adaptive(&g) {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };
        let plan = Arc::make_mut(&mut compiled.plan);
        let Some(i) = plan.steps.iter().position(|s| matches!(s, Step::CopyIn { .. })) else {
            return Ok(());
        };
        plan.steps.remove(i);
        let analysis = plan.analyze(&compiled.split.graph, dev.memory_bytes, false);
        let expected =
            [codes::INPUT_NOT_RESIDENT, codes::FREE_NOT_RESIDENT, codes::OUTPUT_NOT_DELIVERED];
        prop_assert!(
            analysis.diagnostics.iter().any(|d| expected.contains(&d.code)),
            "dropped CopyIn not caught: {:?}",
            analysis.diagnostics
        );
    }

    /// Hoisting a later Launch to the front of the plan reorders it before
    /// the transfers and producers it depends on — the analyzer must flag
    /// a non-resident (GF0017) or not-yet-produced (GF0018) input.
    #[test]
    fn fronted_launch_is_diagnosed(seed in 1u64..10_000, layers in 1usize..5) {
        let (g, _) = random_template(seed, layers, 20, 20);
        let dev = tesla_c870();
        let mut compiled = match Framework::new(dev.clone()).compile_adaptive(&g) {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };
        let plan = Arc::make_mut(&mut compiled.plan);
        let Some(i) = plan.steps.iter().rposition(|s| matches!(s, Step::Launch(_))) else {
            return Ok(());
        };
        if i == 0 {
            return Ok(());
        }
        let s = plan.steps.remove(i);
        plan.steps.insert(0, s);
        let analysis = plan.analyze(&compiled.split.graph, dev.memory_bytes, false);
        let expected = [codes::INPUT_NOT_RESIDENT, codes::INPUT_NOT_PRODUCED];
        prop_assert!(
            analysis.diagnostics.iter().any(|d| expected.contains(&d.code)),
            "fronted Launch not caught: {:?}",
            analysis.diagnostics
        );
    }

    /// Shrinking device memory below the plan's high-water mark is proven
    /// impossible by the capacity pass (GF0020).
    #[test]
    fn sub_peak_memory_is_diagnosed(seed in 1u64..10_000, layers in 1usize..5) {
        let (g, _) = random_template(seed, layers, 20, 20);
        let compiled = match Framework::new(tesla_c870()).compile_adaptive(&g) {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };
        let peak = compiled.stats().peak_bytes;
        prop_assume!(peak > 0);
        let analysis = compiled.plan.analyze(&compiled.split.graph, peak - 1, false);
        prop_assert!(
            analysis.diagnostics.iter().any(|d| d.code == codes::OVER_CAPACITY),
            "peak {peak} not flagged at budget {}",
            peak - 1
        );
    }
}

// ---------------------------------------------------------------------------
// Makespan properties: every simulated schedule — single device or cluster —
// is pinned between the serialized timeline (above) and per-engine occupancy
// (below). A simulation outside that band is simulating the wrong machine.
// ---------------------------------------------------------------------------

use gpuflow::core::overlapped_makespan;
use gpuflow::multi::{compile_multi, Cluster};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single device: overlapping the copy and compute engines never loses
    /// to the serialized timeline, and never beats the busiest engine.
    #[test]
    fn single_device_overlap_is_bounded(
        seed in 1u64..10_000,
        layers in 1usize..5,
        rows in 12usize..40,
        cols in 12usize..40,
        mem_divisor in 1u64..8,
    ) {
        let (g, _) = random_template(seed, layers, rows, cols);
        let total = g.total_data_floats() * 4;
        let mem = (total / mem_divisor).max(8 * 1024);
        let dev = tesla_c870().with_memory(mem);
        let compiled = match Framework::new(dev.clone()).compile_adaptive(&g) {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };
        let o = overlapped_makespan(&compiled.split.graph, &compiled.plan, &dev);
        prop_assert!(
            o.makespan <= o.serial_time + 1e-9,
            "overlap {} beats serial {}",
            o.makespan,
            o.serial_time
        );
        prop_assert!(
            o.makespan >= o.busy_lower_bound() - 1e-9,
            "overlap {} under occupancy bound {}",
            o.makespan,
            o.busy_lower_bound()
        );
    }

    /// Cluster: the shared-bus multi-device makespan obeys the same band —
    /// at most the fully serialized timeline, at least the busier shared
    /// bus channel and at least the busiest device's compute engine — and
    /// the plan it came from verifies clean.
    #[test]
    fn multi_device_makespan_is_bounded(
        seed in 1u64..10_000,
        layers in 1usize..5,
        rows in 16usize..48,
        cols in 16usize..48,
        devices in 1usize..5,
    ) {
        let (g, _) = random_template(seed, layers, rows, cols);
        let cluster = Cluster::homogeneous(tesla_c870(), devices);
        let compiled = match compile_multi(&g, &cluster, 0.05) {
            Ok(c) => c,
            Err(_) => return Ok(()), // template too small to band this wide
        };
        let analysis = compiled.analyze();
        prop_assert!(
            !analysis.has_errors(),
            "multi plan has errors: {}",
            analysis.first_error().map(|d| d.render()).unwrap_or_default()
        );
        let o = compiled.simulate().outcome;
        prop_assert!(
            o.makespan <= o.serial_time + 1e-9,
            "makespan {} beats serial {}",
            o.makespan,
            o.serial_time
        );
        prop_assert!(
            o.makespan >= o.busy_lower_bound() - 1e-9,
            "makespan {} under occupancy bound {}",
            o.makespan,
            o.busy_lower_bound()
        );
    }
}
