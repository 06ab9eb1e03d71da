//! Prefetch hoisting — a plan-level optimization pass for the async-copy
//! extension of [`crate::overlap`].
//!
//! A serial plan stages each upload immediately before the launch that
//! needs it, so on an overlapping device the compute engine still stalls
//! on every synchronous upload. This pass hoists `CopyIn` steps earlier in
//! the plan (bounded by `lookahead` positions) whenever doing so:
//!
//! * keeps the plan semantically valid — an upload never moves above the
//!   `Free` of the same buffer (a re-upload after eviction), above the
//!   `CopyOut` that created its host copy, or above anything else touching
//!   the same data; and
//! * keeps the device occupancy bound intact — hoisting extends the
//!   buffer's residency interval, so the occupancy at every newly covered
//!   position must stay within the budget.
//!
//! The pass never changes *what* is transferred — only *when* — so serial
//! time is unchanged while the overlapped makespan can only improve.

use gpuflow_graph::{DataId, Graph};

use crate::plan::{ExecutionPlan, Step};

/// Hoist `CopyIn` steps up to `lookahead` positions earlier, subject to
/// the `memory_bytes` occupancy bound. Returns the transformed plan and
/// the number of single-position hoists performed.
pub fn hoist_prefetches(
    g: &Graph,
    plan: &ExecutionPlan,
    memory_bytes: u64,
    lookahead: usize,
) -> (ExecutionPlan, usize) {
    hoist_prefetches_traced(
        g,
        plan,
        memory_bytes,
        lookahead,
        &mut gpuflow_trace::Tracer::disabled(),
    )
}

/// [`hoist_prefetches`], emitting a wall-clock `prefetch-hoist` span with
/// the lookahead and the number of hoists onto `tracer`.
pub fn hoist_prefetches_traced(
    g: &Graph,
    plan: &ExecutionPlan,
    memory_bytes: u64,
    lookahead: usize,
    tracer: &mut gpuflow_trace::Tracer,
) -> (ExecutionPlan, usize) {
    let tok = tracer.begin("compile", "prefetch-hoist");
    let out = hoist_prefetches_inner(g, plan, memory_bytes, lookahead);
    tracer.end_with(
        tok,
        vec![
            gpuflow_trace::kv("lookahead", lookahead),
            gpuflow_trace::kv("moves", out.1),
        ],
    );
    out
}

fn hoist_prefetches_inner(
    g: &Graph,
    plan: &ExecutionPlan,
    memory_bytes: u64,
    lookahead: usize,
) -> (ExecutionPlan, usize) {
    let mut steps = plan.steps.clone();
    // Occupancy *before* each step, in bytes.
    let mut occ = occupancy_before(g, plan, &steps);
    let mut moves = 0usize;

    // Single left-to-right sweep; each CopyIn bubbles up to `lookahead`
    // positions. Scanning forward after hoisting keeps indices simple.
    let mut i = 0;
    while i < steps.len() {
        if let Step::CopyIn { data: d, .. } = steps[i] {
            let bytes = g.data(d).bytes();
            let mut pos = i;
            while pos > 0 && i - pos < lookahead {
                let prev = &steps[pos - 1];
                if blocks_hoist(g, prev, d, plan) {
                    break;
                }
                // After the swap the buffer is resident during `prev`:
                // occupancy before `prev`'s new position (which is the old
                // occ[pos - 1]) grows by `bytes`.
                if occ[pos - 1] + bytes > memory_bytes {
                    break;
                }
                steps.swap(pos - 1, pos);
                // occ[pos] (before the step now at `pos`, i.e. `prev`)
                // gains the hoisted buffer.
                occ[pos] = occ[pos - 1] + bytes;
                pos -= 1;
                moves += 1;
            }
        }
        i += 1;
    }
    let mut hoisted = ExecutionPlan {
        steps,
        ..plan.clone()
    };
    // Hoisting renumbers steps, so a stream annotation's event edges must
    // be re-derived against the new step order (the stream assignment
    // itself is untouched — only transfer timing moved).
    if let Some(ann) = &mut hoisted.streams {
        ann.events =
            crate::streams::derive_events_for(g, &hoisted.units, &hoisted.steps, &ann.unit_stream);
    }
    #[cfg(debug_assertions)]
    crate::plan::debug_check_plan(g, &hoisted, &[memory_bytes], "hoist_prefetches");
    (hoisted, moves)
}

/// May `CopyIn(d)` move above `prev`?
fn blocks_hoist(g: &Graph, prev: &Step, d: DataId, plan: &ExecutionPlan) -> bool {
    match *prev {
        // Anything touching the same buffer is a hard barrier.
        Step::CopyIn { data: p, .. }
        | Step::CopyOut { data: p, .. }
        | Step::Free { data: p, .. } => p == d,
        // A launch is a barrier if it produces or consumes d (consuming
        // would mean d was resident then — the plan has a bug anyway; be
        // conservative).
        Step::Launch(u) => plan.units[u].ops.iter().any(|&o| {
            let node = g.op(o);
            node.outputs.contains(&d) || node.inputs.contains(&d)
        }),
    }
}

/// Device occupancy in bytes immediately before each step.
fn occupancy_before(g: &Graph, plan: &ExecutionPlan, steps: &[Step]) -> Vec<u64> {
    let mut occ = Vec::with_capacity(steps.len() + 1);
    let mut cur = 0u64;
    for step in steps {
        occ.push(cur);
        match *step {
            Step::CopyIn { data: d, .. } => cur += g.data(d).bytes(),
            Step::Free { data: d, .. } => cur -= g.data(d).bytes(),
            Step::Launch(u) => {
                for d in plan.units[u].outputs(g) {
                    cur += g.data(d).bytes();
                }
            }
            Step::CopyOut { .. } => {}
        }
    }
    occ.push(cur);
    occ
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_plan;
    use crate::examples::{fig3_graph, fig3_memory_bytes, fig3_schedule_b, fig3_units};
    use crate::overlap::overlapped_makespan;
    use crate::plan::validate_plan;
    use crate::xfer::{schedule_transfers, EvictionPolicy, XferOptions};
    use gpuflow_sim::device::tesla_c870;

    fn fig3_plan() -> (Graph, ExecutionPlan) {
        let g = fig3_graph();
        let units = fig3_units(&g);
        let order = fig3_schedule_b(&g, &units);
        let plan = schedule_transfers(
            &g,
            &units,
            &order,
            XferOptions {
                memory_bytes: fig3_memory_bytes(),
                policy: EvictionPolicy::Belady,
                eager_free: true,
            },
        )
        .unwrap();
        (g, plan)
    }

    #[test]
    fn hoisted_plan_stays_valid_and_equivalent() {
        let (g, plan) = fig3_plan();
        let (hoisted, moves) = hoist_prefetches(&g, &plan, fig3_memory_bytes(), 16);
        validate_plan(&g, &hoisted, fig3_memory_bytes()).unwrap();
        // Same transfers, same peak bound.
        assert_eq!(
            hoisted.stats(&g).total_floats(),
            plan.stats(&g).total_floats()
        );
        assert!(moves > 0, "the fig3 plan has hoistable uploads");
    }

    #[test]
    fn traced_hoist_emits_a_span_with_the_move_count() {
        let (g, plan) = fig3_plan();
        let mut tracer = gpuflow_trace::Tracer::new();
        let (_, moves) = hoist_prefetches_traced(&g, &plan, fig3_memory_bytes(), 16, &mut tracer);
        let span = tracer
            .events()
            .iter()
            .find(|e| e.name == "prefetch-hoist")
            .expect("span recorded");
        assert_eq!(span.cat, "compile");
        let recorded = span
            .args
            .iter()
            .find(|(k, _)| k == "moves")
            .and_then(|(_, v)| v.as_u64());
        assert_eq!(recorded, Some(moves as u64));
    }

    #[test]
    fn baseline_chain_has_nothing_to_hoist() {
        // In the baseline pattern every re-upload immediately follows the
        // Free of its own buffer — a hard barrier — so the pass must leave
        // the plan untouched rather than corrupt it.
        let mut g = Graph::new();
        let mut prev = g.add("in", 256, 256, gpuflow_graph::DataKind::Input);
        for i in 0..6 {
            let kind = if i == 5 {
                gpuflow_graph::DataKind::Output
            } else {
                gpuflow_graph::DataKind::Temporary
            };
            let next = g.add(format!("d{i}"), 256, 256, kind);
            g.add_op(
                format!("t{i}"),
                gpuflow_graph::OpKind::Tanh,
                vec![prev],
                next,
            )
            .unwrap();
            prev = next;
        }
        let dev = tesla_c870();
        let plan = baseline_plan(&g, dev.memory_bytes).unwrap();
        let (hoisted, moves) = hoist_prefetches(&g, &plan, dev.memory_bytes, 8);
        validate_plan(&g, &hoisted, dev.memory_bytes).unwrap();
        assert_eq!(moves, 0);
        let before = overlapped_makespan(&g, &plan, &dev);
        let after = overlapped_makespan(&g, &hoisted, &dev);
        assert!((after.makespan - before.makespan).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_blocks_hoisting() {
        let (g, plan) = fig3_plan();
        // With memory exactly at the plan's peak, hoists that extend
        // residency at full positions must be rejected; the result must
        // still validate at that bound.
        let peak = plan.stats(&g).peak_bytes;
        let (hoisted, _) = hoist_prefetches(&g, &plan, peak, 16);
        validate_plan(&g, &hoisted, peak).unwrap();
    }

    #[test]
    fn reupload_never_crosses_its_free() {
        let (g, plan) = fig3_plan();
        let (hoisted, _) = hoist_prefetches(&g, &plan, u64::MAX, 1 << 20);
        // For every data structure, the step order Free -> CopyIn must be
        // preserved (an upload can never precede the eviction that made it
        // necessary).
        for d in g.data_ids() {
            let mut resident = false;
            for step in &hoisted.steps {
                match *step {
                    Step::CopyIn { data: x, .. } if x == d => {
                        assert!(!resident, "double residency for {}", g.data(d).name);
                        resident = true;
                    }
                    Step::Launch(u) if plan.units[u].outputs(&g).any(|o| o == d) => {
                        resident = true;
                    }
                    Step::Free { data: x, .. } if x == d => {
                        assert!(resident, "free of non-resident {}", g.data(d).name);
                        resident = false;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn zero_lookahead_is_identity() {
        let (g, plan) = fig3_plan();
        let (hoisted, moves) = hoist_prefetches(&g, &plan, fig3_memory_bytes(), 0);
        assert_eq!(moves, 0);
        assert_eq!(hoisted.steps, plan.steps);
    }
}
