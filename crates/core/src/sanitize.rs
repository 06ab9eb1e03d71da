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
use gpuflow_sim::{transfer_time, DeviceSpec};

use crate::overlap::Machine;
use crate::plan::{ExecutionPlan, Step};
use crate::streams::unit_compute_time;

/// Step-granular `(start, end)` times of `plan` under the concurrent lane
/// discipline of [`crate::overlap`] — the one concurrent shadow clock,
/// for a single device and for a cluster alike: each transfer channel is
/// an issue-ordered FIFO, each `(device, stream)` compute lane runs its
/// launches atomically in issue order, readers wait for the completion
/// that made their datum available on their device, and allocators wait
/// for the device's committed-free horizon. A `Free` is an instant at its
/// buffer's last touch. These are the exact orderings the happens-before
/// DAG of [`ExecutionPlan::certify`] encodes, so on a certified schedule
/// `ConcurrencyReport::dynamic_violations` over these times is empty —
/// asserted in debug builds on every [`crate::overlap::simulate`] call.
///
/// The recurrence is deliberately its own code: it shares the machine
/// description with the simulator and nothing else — in particular not
/// the arbiter. The certificate orders each channel by issue, so the
/// clock that checks it keeps both channels issue-ordered on every
/// machine, whatever the simulated fabric does with its idle slots.
pub fn step_times(g: &Graph, plan: &ExecutionPlan, machine: &Machine) -> Vec<(f64, f64)> {
    let nd = g.num_data();
    let ndev = machine.devices.len();
    let mut device_ready = vec![0.0f64; ndev * nd];
    let mut last_touch = vec![0.0f64; ndev * nd];
    let mut free_horizon = vec![0.0f64; ndev];
    let mut host_ready = vec![0.0f64; nd];
    let mut h2d_free = 0.0f64;
    let mut d2h_free = 0.0f64;
    // One compute clock per (device, stream).
    let (unit_stream, k) = match &plan.streams {
        Some(s) => (s.unit_stream.as_slice(), s.num_streams.max(1)),
        None => (&[][..], 1),
    };
    let mut lane_free = vec![0.0f64; ndev * k];
    let mut times = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        match *step {
            Step::CopyIn { device, data } => {
                let at = device * nd + data.index();
                let dur = machine.bus.transfer_time(g.data(data).bytes());
                let start = h2d_free
                    .max(host_ready[data.index()])
                    .max(free_horizon[device]);
                h2d_free = start + dur;
                device_ready[at] = h2d_free;
                last_touch[at] = h2d_free;
                times.push((start, h2d_free));
            }
            Step::CopyOut { device, data } => {
                let at = device * nd + data.index();
                let dur = machine.bus.transfer_time(g.data(data).bytes());
                let start = d2h_free.max(device_ready[at]);
                d2h_free = start + dur;
                host_ready[data.index()] = host_ready[data.index()].max(d2h_free);
                last_touch[at] = last_touch[at].max(d2h_free);
                times.push((start, d2h_free));
            }
            Step::Free { device, data } => {
                let h = last_touch[device * nd + data.index()];
                free_horizon[device] = free_horizon[device].max(h);
                times.push((h, h));
            }
            Step::Launch(u) => {
                let unit = &plan.units[u];
                let dev = plan.unit_device[u];
                let lane = dev * k + unit_stream.get(u).copied().unwrap_or(0).min(k - 1);
                let mut start = lane_free[lane].max(free_horizon[dev]);
                for d in unit.external_inputs(g) {
                    start = start.max(device_ready[dev * nd + d.index()]);
                }
                let end = start + unit_compute_time(g, unit, &machine.devices[dev]);
                lane_free[lane] = end;
                for d in unit.outputs(g) {
                    device_ready[dev * nd + d.index()] = end;
                }
                for &o in &unit.ops {
                    let node = g.op(o);
                    for &i in &node.inputs {
                        let at = dev * nd + i.index();
                        last_touch[at] = last_touch[at].max(end);
                    }
                    let out = dev * nd + node.outputs[0].index();
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
                Step::Launch(u) => unit_compute_time(g, &plan.units[u], dev),
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
            step_times(pg, plan, &Machine::single(&dev)),
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
