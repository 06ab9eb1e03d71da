//! Dynamic happens-before sanitizer for the simulated executors.
//!
//! The static certifier ([`ExecutionPlan::certify`], backed by
//! `gpuflow_verify::hazard`) proves a plan race-free at **step
//! granularity**: its happens-before DAG mirrors the synchronizations the
//! concurrent executors enforce. This module closes the loop dynamically:
//! it replays each executor's own sync discipline as a step-granular
//! clock (one `(start, end)` interval per plan step) and asserts — in
//! debug builds, on every simulated execution — that those times honour
//! every happens-before edge
//! ([`gpuflow_verify::ConcurrencyReport::dynamic_violations`]).
//!
//! The two implementations are independent: the certifier builds edges by
//! walking the plan in `gpuflow-verify`, the shadow clock re-derives
//! timing from the executor's recurrence here. If either drifts from the
//! discipline the other encodes, the sanitizer fires. Conversely, a
//! schedule the static pass certifies can never trip the dynamic check —
//! the suite enforces exactly that over every bundled template.
//!
//! Why a *shadow* clock rather than the simulator's real event times: the
//! overlap simulator is op-granular inside a `Launch` (an output becomes
//! `device_ready` when its producing kernel finishes, possibly before the
//! unit's later kernels do), while the happens-before DAG — like the
//! paper's offload model — treats a unit as one atomic step. The shadow
//! clock runs the same recurrence at step granularity so the comparison
//! is apples-to-apples; the real makespan math is untouched.

use gpuflow_graph::Graph;
use gpuflow_ops::op_cost;
use gpuflow_sim::{kernel_time, timing::Work, transfer_time, DeviceSpec};

use crate::plan::{ExecutionPlan, Step};

/// Step-granular `(start, end)` times under the multi-engine overlap
/// discipline of [`crate::overlap`]: program order per engine (one DMA
/// lane each way plus one compute clock per stream), transfer
/// completion for readers, and the committed-free horizon for allocators
/// — with each `Launch` treated as one atomic interval and each `Free`
/// as an instant at its buffer's last touch.
pub fn overlap_step_times(g: &Graph, plan: &ExecutionPlan, dev: &DeviceSpec) -> Vec<(f64, f64)> {
    let nd = g.num_data();
    let mut device_ready = vec![0.0f64; nd];
    let mut host_ready = vec![0.0f64; nd];
    let mut last_touch = vec![0.0f64; nd];
    let mut free_horizon = 0.0f64;
    let mut h2d_free = 0.0f64;
    let mut d2h_free = 0.0f64;
    // One compute clock per stream — mirrors crate::overlap exactly so the
    // shadow and the real simulator can never disagree on lane discipline.
    let k = plan.streams.as_ref().map_or(1, |s| s.num_streams.max(1));
    let stream_of = |u: usize| -> usize {
        plan.streams
            .as_ref()
            .and_then(|s| s.unit_stream.get(u).copied())
            .unwrap_or(0)
            .min(k - 1)
    };
    let mut stream_free = vec![0.0f64; k];
    let mut times = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        match *step {
            Step::CopyIn { data: d, .. } => {
                let dur = transfer_time(dev, g.data(d).bytes());
                let start = h2d_free.max(host_ready[d.index()]).max(free_horizon);
                h2d_free = start + dur;
                device_ready[d.index()] = h2d_free;
                last_touch[d.index()] = h2d_free;
                times.push((start, h2d_free));
            }
            Step::CopyOut { data: d, .. } => {
                let dur = transfer_time(dev, g.data(d).bytes());
                let start = d2h_free.max(device_ready[d.index()]);
                d2h_free = start + dur;
                host_ready[d.index()] = d2h_free;
                last_touch[d.index()] = last_touch[d.index()].max(d2h_free);
                times.push((start, d2h_free));
            }
            Step::Free { data: d, .. } => {
                let h = last_touch[d.index()];
                free_horizon = free_horizon.max(h);
                times.push((h, h));
            }
            Step::Launch(u) => {
                let unit = &plan.units[u];
                let s = stream_of(u);
                let mut start = stream_free[s].max(free_horizon);
                for d in unit.external_inputs(g) {
                    start = start.max(device_ready[d.index()]);
                }
                let mut dur = 0.0f64;
                for &o in &unit.ops {
                    let node = g.op(o);
                    let ins: Vec<_> = node.inputs.iter().map(|&i| g.shape(i)).collect();
                    let c = op_cost(node.kind, &ins, g.shape(node.outputs[0]));
                    dur += kernel_time(
                        dev,
                        Work {
                            flops: c.flops,
                            bytes: c.bytes,
                        },
                    );
                }
                let end = start + dur;
                stream_free[s] = end;
                for d in unit.outputs(g) {
                    device_ready[d.index()] = end;
                }
                for &o in &unit.ops {
                    let node = g.op(o);
                    for &i in &node.inputs {
                        last_touch[i.index()] = last_touch[i.index()].max(end);
                    }
                    let out = node.outputs[0].index();
                    last_touch[out] = last_touch[out].max(end);
                }
                times.push((start, end));
            }
        }
    }
    times
}

/// Step-granular `(start, end)` times under the serial executor's
/// discipline ([`crate::executor`]): one monotone clock, every step fully
/// retires before the next issues. Trivially happens-before consistent —
/// which is exactly what the sanitizer pins down.
pub fn serial_step_times(g: &Graph, plan: &ExecutionPlan, dev: &DeviceSpec) -> Vec<(f64, f64)> {
    let mut t = 0.0f64;
    plan.steps
        .iter()
        .map(|step| {
            let dur = match *step {
                Step::CopyIn { data: d, .. } | Step::CopyOut { data: d, .. } => {
                    transfer_time(dev, g.data(d).bytes())
                }
                Step::Free { .. } => 0.0,
                Step::Launch(u) => plan.units[u]
                    .ops
                    .iter()
                    .map(|&o| {
                        let node = g.op(o);
                        let ins: Vec<_> = node.inputs.iter().map(|&i| g.shape(i)).collect();
                        let c = op_cost(node.kind, &ins, g.shape(node.outputs[0]));
                        kernel_time(
                            dev,
                            Work {
                                flops: c.flops,
                                bytes: c.bytes,
                            },
                        )
                    })
                    .sum(),
            };
            let start = t;
            t += dur;
            (start, t)
        })
        .collect()
}

/// The dynamic sanitizer: when `plan` statically certifies race-free,
/// assert that `times` (a simulated execution's step intervals) honour
/// every happens-before edge. Plans the static pass rejects are skipped —
/// reporting those is the certifier's job, and the executors refuse them
/// through `debug_check_plan` anyway.
pub fn assert_hb_consistent(g: &Graph, plan: &ExecutionPlan, times: &[(f64, f64)], context: &str) {
    let cert = plan.certify(g);
    if cert.has_errors() {
        return;
    }
    let violations = cert.dynamic_violations(times);
    assert!(
        violations.is_empty(),
        "{context}: statically certified schedule tripped the dynamic sanitizer: \
         step pairs {violations:?} ran out of happens-before order \
         (certifier and executor sync discipline have drifted)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Framework;
    use gpuflow_sim::device::tesla_c870;

    #[test]
    fn shadow_clocks_honour_the_certificate() {
        let g = crate::examples::fig3_graph();
        let dev = tesla_c870();
        let compiled = Framework::new(dev.clone()).compile(&g).unwrap();
        let plan = &compiled.plan;
        let pg = &compiled.split.graph;
        let cert = plan.certify(pg);
        assert!(cert.certified(), "{:?}", cert.diagnostics);
        for times in [
            overlap_step_times(pg, plan, &dev),
            serial_step_times(pg, plan, &dev),
        ] {
            assert_eq!(times.len(), plan.steps.len());
            assert!(cert.dynamic_violations(&times).is_empty());
        }
    }

    #[test]
    fn serial_times_are_monotone() {
        let g = crate::examples::fig3_graph();
        let dev = tesla_c870();
        let compiled = Framework::new(dev.clone()).compile(&g).unwrap();
        let times = serial_step_times(&compiled.split.graph, &compiled.plan, &dev);
        for w in times.windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-12);
        }
    }
}
