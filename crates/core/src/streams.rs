//! Stream-level operator parallelism: a dependency-resolved, stream-aware
//! list scheduler (`gpuflow-streams`).
//!
//! The paper's schedule is a serial chain of offload units; even the
//! two-DMA-engine overlap model of [`crate::overlap`] issues kernels on a
//! single compute lane in plan order. Modern GPUs expose `k` concurrent
//! compute streams: independent operators can execute simultaneously, with
//! cross-stream ordering expressed as *events* (record on the producer's
//! stream, wait on the consumer's) instead of program order.
//!
//! This module chooses both the **issue order** and the **stream
//! assignment** from the analytic cost model:
//!
//! 1. Build the unit DAG (shared with [`crate::opschedule`]).
//! 2. Compute each unit's kernel time on the target device and its
//!    **bottom level** — the length of the longest cost-weighted path from
//!    the unit to a sink. This is the classic critical-path priority.
//! 3. List-schedule: repeatedly pick the *ready* unit with the largest
//!    bottom level, breaking ties toward the **smaller device footprint**
//!    (memory pressure: preferring lighter units keeps the Belady
//!    residency budget slack) and then the lower unit index (determinism).
//!    The picked unit goes to the compute stream that can start it
//!    earliest.
//! 4. The resulting issue order — a valid topological order — is handed
//!    unchanged to the Belady transfer scheduler
//!    ([`crate::xfer::schedule_transfers`]), so eviction decisions and
//!    residency budgets are exactly as disciplined as in the serial
//!    planner.
//! 5. **Free deferral.** Every allocating step waits on the committed-free
//!    horizon (the lifetime discipline of the simulator and the GF005x
//!    certifier), so an eagerly placed `Free` between two independent
//!    launches serializes their streams even when memory is plentiful.
//!    The deferral pass sinks each `Free` to the latest point the memory
//!    budget allows — a free commits only when an allocation would not
//!    otherwise fit, or at plan end. Transfers and launches (the Belady
//!    decisions) stay exactly where the transfer scheduler put them. The
//!    plan is then annotated with a [`StreamSchedule`].
//!
//! **Event semantics.** The annotation's [`StreamEvent`]s are the explicit
//! cross-lane synchronization edges: for every datum read on a lane other
//! than the lane that produced its current copy, the producer records an
//! event at its step and the consumer waits on it. These are exactly the
//! Transfer edges of the GF005x happens-before certificate
//! (`gpuflow_verify::hazard`), which every emitted stream plan must pass —
//! `streams=1` plans bypass this module entirely and stay byte-identical
//! to the serial planner's output. Lifetime ordering (frees vs. later
//! allocations) is *not* an event: it is enforced by the monotone
//! committed-free horizon that every allocating step waits on, in the
//! simulator and the certifier alike. See `docs/streams.md`.

use gpuflow_graph::Graph;
use gpuflow_ops::op_cost;
use gpuflow_sim::{kernel_time, timing::Work, DeviceSpec};

use crate::error::FrameworkError;
use crate::opschedule::unit_dag;
use crate::partition::OffloadUnit;
use crate::plan::{ExecutionPlan, Step};
use crate::xfer::{schedule_transfers, XferOptions};

/// Stream/event annotation attached to an [`ExecutionPlan`] by the stream
/// scheduler. `None` on a plan means the classic serial discipline: one
/// compute stream, ordering implied by plan order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSchedule {
    /// Number of concurrent compute streams the plan was scheduled for.
    pub num_streams: usize,
    /// Stream assignment per offload unit (indexed like `plan.units`).
    pub unit_stream: Vec<usize>,
    /// Explicit cross-lane event-wait edges (deduplicated, in wait-step
    /// order). Program order within a lane and the committed-free horizon
    /// cover everything else.
    pub events: Vec<StreamEvent>,
}

/// One event edge: the step at `record_step` signals completion; the step
/// at `wait_step` (on a different lane) waits for it before starting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StreamEvent {
    /// Step index that records the event (the producer).
    pub record_step: usize,
    /// Step index that waits on the event (the consumer).
    pub wait_step: usize,
}

/// Kernel time of one offload unit on `dev` under the analytic cost model
/// — the same per-op accounting the overlap simulator charges.
pub fn unit_compute_time(g: &Graph, unit: &OffloadUnit, dev: &DeviceSpec) -> f64 {
    unit.ops
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
        .sum()
}

/// Device footprint of one unit: bytes of its external inputs plus its
/// outputs — what must be simultaneously resident to launch it.
fn unit_footprint_bytes(g: &Graph, unit: &OffloadUnit) -> u64 {
    let ins: u64 = unit
        .external_inputs(g)
        .iter()
        .map(|&d| g.data(d).bytes())
        .sum();
    let outs: u64 = unit.outputs(g).iter().map(|&d| g.data(d).bytes()).sum();
    ins + outs
}

/// Critical-path list scheduling of `units` onto `num_streams` concurrent
/// compute streams. Returns `(order, unit_stream)`: the issue order (a
/// valid topological order of the unit DAG, suitable for
/// [`schedule_transfers`]) and the stream assigned to each unit.
///
/// Priorities are cost-model driven: ready units are picked by largest
/// bottom level (critical path first), ties broken toward the smaller
/// memory footprint, then the lower unit index. The picked unit goes to
/// the stream with the earliest available slot (its own clock vs. the
/// unit's latest-finishing predecessor).
pub fn stream_order(
    g: &Graph,
    units: &[OffloadUnit],
    dev: &DeviceSpec,
    num_streams: usize,
) -> (Vec<usize>, Vec<usize>) {
    let n = units.len();
    let k = num_streams.max(1);
    let dag = unit_dag(g, units);
    let time: Vec<f64> = units.iter().map(|u| unit_compute_time(g, u, dev)).collect();
    let footprint: Vec<u64> = units.iter().map(|u| unit_footprint_bytes(g, u)).collect();

    // Bottom levels over the DAG, computed in reverse topological order
    // (units are created in topological order, so reverse index order is
    // safe: successors always have larger indices than their producers'
    // units would... not guaranteed — walk by Kahn order instead).
    let mut bl = vec![0.0f64; n];
    let topo = kahn_order(&dag.preds, &dag.succs);
    for &u in topo.iter().rev() {
        let succ_max = dag.succs[u].iter().fold(0.0f64, |m, &s| m.max(bl[s]));
        bl[u] = time[u] + succ_max;
    }
    // Output units tend to be sinks already; nothing special needed.
    let _ = &dag.output_units;

    let mut npreds: Vec<usize> = dag.preds.iter().map(|p| p.len()).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&u| npreds[u] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut unit_stream = vec![0usize; n];
    let mut finish = vec![0.0f64; n];
    let mut stream_free = vec![0.0f64; k];

    while let Some(pos) = pick_ready(&ready, &bl, &footprint) {
        let u = ready.swap_remove(pos);
        // Earliest-start stream: the unit cannot begin before its latest
        // predecessor finishes (the event it waits on), nor before the
        // stream's previous kernel retires.
        let est = dag.preds[u].iter().fold(0.0f64, |m, &p| m.max(finish[p]));
        let (s, start) = (0..k)
            .map(|s| (s, stream_free[s].max(est)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .expect("at least one stream");
        unit_stream[u] = s;
        finish[u] = start + time[u];
        stream_free[s] = finish[u];
        order.push(u);
        for &succ in &dag.succs[u] {
            npreds[succ] -= 1;
            if npreds[succ] == 0 {
                ready.push(succ);
            }
        }
    }
    assert_eq!(order.len(), n, "unit DAG must be acyclic");
    (order, unit_stream)
}

/// Index into `ready` of the unit to issue next: max bottom level, then
/// min footprint, then min unit index. `None` when `ready` is empty.
fn pick_ready(ready: &[usize], bl: &[f64], footprint: &[u64]) -> Option<usize> {
    ready
        .iter()
        .enumerate()
        .max_by(|(_, &a), (_, &b)| {
            bl[a]
                .total_cmp(&bl[b])
                .then(footprint[b].cmp(&footprint[a]))
                .then(b.cmp(&a))
        })
        .map(|(i, _)| i)
}

/// Plain Kahn topological order over the unit DAG.
fn kahn_order(preds: &[Vec<usize>], succs: &[Vec<usize>]) -> Vec<usize> {
    let n = preds.len();
    let mut npreds: Vec<usize> = preds.iter().map(|p| p.len()).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&u| npreds[u] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        order.push(u);
        for &s in &succs[u] {
            npreds[s] -= 1;
            if npreds[s] == 0 {
                queue.push(s);
            }
        }
    }
    order
}

/// Which lane a plan step issues on, for event derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepLane {
    H2d,
    D2h,
    Stream(usize),
}

/// Derive the explicit cross-lane event edges of an annotated plan: for
/// every datum read on a lane other than the one holding its current
/// copy's producer, `(producer step) → (reader step)`. Deduplicated and
/// sorted by `(wait_step, record_step)`.
pub fn derive_events(g: &Graph, plan: &ExecutionPlan, unit_stream: &[usize]) -> Vec<StreamEvent> {
    derive_events_for(g, &plan.units, &plan.steps, unit_stream)
}

/// [`derive_events`] over loose parts, for passes that rewrite the step
/// sequence while holding a borrow of the plan's annotation.
pub fn derive_events_for(
    g: &Graph,
    units: &[OffloadUnit],
    steps: &[Step],
    unit_stream: &[usize],
) -> Vec<StreamEvent> {
    let lane_of = |step: &Step| -> StepLane {
        match *step {
            Step::CopyIn { .. } => StepLane::H2d,
            Step::CopyOut { .. } => StepLane::D2h,
            Step::Launch(u) => StepLane::Stream(unit_stream.get(u).copied().unwrap_or(0)),
            Step::Free { .. } => StepLane::Stream(0), // unused: frees emit no events
        }
    };
    // Step index + lane of the op that produced each datum's current
    // device copy / host copy.
    let mut dev_setter: Vec<Option<(usize, StepLane)>> = vec![None; g.num_data()];
    let mut host_setter: Vec<Option<(usize, StepLane)>> = vec![None; g.num_data()];
    let mut events = Vec::new();
    let mut push = |record: Option<(usize, StepLane)>, wait: usize, wait_lane: StepLane| {
        if let Some((r, rl)) = record {
            if rl != wait_lane {
                events.push(StreamEvent {
                    record_step: r,
                    wait_step: wait,
                });
            }
        }
    };
    for (i, step) in steps.iter().enumerate() {
        let lane = lane_of(step);
        match *step {
            Step::CopyIn { data: d, .. } => {
                // Reads the host copy (a prior download re-uploaded).
                push(host_setter[d.index()], i, lane);
                dev_setter[d.index()] = Some((i, lane));
            }
            Step::CopyOut { data: d, .. } => {
                push(dev_setter[d.index()], i, lane);
                host_setter[d.index()] = Some((i, lane));
            }
            Step::Launch(u) => {
                for d in units[u].external_inputs(g) {
                    push(dev_setter[d.index()], i, lane);
                }
                for d in units[u].outputs(g) {
                    dev_setter[d.index()] = Some((i, lane));
                }
            }
            Step::Free { .. } => {
                // Lifetime ordering is the committed-free horizon, not an
                // event (see module docs).
            }
        }
    }
    events.sort_unstable_by_key(|e| (e.wait_step, e.record_step));
    events.dedup();
    events
}

/// Sink `Free` steps as late as the memory budget allows (lazy commit).
///
/// The committed-free horizon orders every allocating step after all
/// earlier frees — in the overlap simulator and the GF005x certifier
/// alike — so an eagerly placed `Free` between two independent launches
/// serializes their streams (and the DMA lanes) even when memory is
/// plentiful. This pass rewrites the step sequence so each `Free` commits
/// only when an allocation would otherwise exceed `memory_bytes`, or at
/// plan end. Transfers and launches keep their relative order, so
/// transfer volume and eviction choices are untouched; occupancy stays
/// within the budget by construction because pending frees still count as
/// occupied until emitted.
fn defer_frees(g: &Graph, units: &[OffloadUnit], steps: Vec<Step>, memory_bytes: u64) -> Vec<Step> {
    use std::collections::VecDeque;
    let mut pending: VecDeque<gpuflow_graph::DataId> = VecDeque::new();
    let mut used = 0u64;
    let mut out = Vec::with_capacity(steps.len());
    fn flush_front(
        g: &Graph,
        out: &mut Vec<Step>,
        pending: &mut VecDeque<gpuflow_graph::DataId>,
        used: &mut u64,
    ) {
        let d = pending.pop_front().expect("caller checked non-empty");
        out.push(Step::Free { device: 0, data: d });
        *used -= g.data(d).bytes();
    }
    for step in steps {
        // Bytes this step allocates, in the plan validator's accounting:
        // a CopyIn allocates its datum, a Launch its (single-assignment,
        // hence never-yet-resident) outputs.
        let need = match step {
            Step::CopyIn { data: d, .. } => g.data(d).bytes(),
            Step::Launch(u) => units[u].outputs(g).iter().map(|&d| g.data(d).bytes()).sum(),
            Step::CopyOut { .. } => 0,
            Step::Free { data: d, .. } => {
                // A valid plan never double-frees, and a re-upload of an
                // evicted datum flushes through its pending free below, so
                // `pending` holds distinct data.
                pending.push_back(d);
                continue;
            }
        };
        if let Step::CopyIn { data: d, .. } = step {
            // Re-uploading an evicted datum: its deferred free (and, to
            // keep free order stable, everything queued before it) must
            // commit first — the device cannot hold two copies.
            while pending.contains(&d) {
                flush_front(g, &mut out, &mut pending, &mut used);
            }
        }
        while used.saturating_add(need) > memory_bytes && !pending.is_empty() {
            flush_front(g, &mut out, &mut pending, &mut used);
        }
        used += need;
        out.push(step);
    }
    while !pending.is_empty() {
        flush_front(g, &mut out, &mut pending, &mut used);
    }
    out
}

/// Full stream-aware planning: list-schedule `units` onto `num_streams`
/// compute streams, run the Belady transfer scheduler over the resulting
/// issue order, defer the frees (`defer_frees`), and annotate the plan
/// with its [`StreamSchedule`].
///
/// The returned plan is certified by `ExecutionPlan::certify` against the
/// multi-stream lane model; `validate_plan` does this on every compile.
pub fn schedule_streamed(
    g: &Graph,
    units: &[OffloadUnit],
    dev: &DeviceSpec,
    num_streams: usize,
    xfer: XferOptions,
) -> Result<ExecutionPlan, FrameworkError> {
    schedule_streamed_with(g, units, dev, num_streams, xfer, true)
}

/// [`schedule_streamed`] with the free-deferral pass made optional.
///
/// `defer: false` keeps the transfer scheduler's eagerly placed `Free`
/// steps — the pre-deferral discipline, kept as an ablation knob
/// (`gpuflow profile --no-defer-frees`) so the profiler can attribute the
/// free-horizon stalls the deferral pass removes. The plan is otherwise
/// identical: transfer volume, eviction choices, and stream assignment do
/// not depend on free placement.
pub fn schedule_streamed_with(
    g: &Graph,
    units: &[OffloadUnit],
    dev: &DeviceSpec,
    num_streams: usize,
    xfer: XferOptions,
    defer: bool,
) -> Result<ExecutionPlan, FrameworkError> {
    let (order, unit_stream) = stream_order(g, units, dev, num_streams);
    let mut plan = schedule_transfers(g, units, &order, xfer)?;
    if defer {
        plan.steps = defer_frees(g, units, std::mem::take(&mut plan.steps), xfer.memory_bytes);
    }
    let events = derive_events(g, &plan, &unit_stream);
    plan.streams = Some(StreamSchedule {
        num_streams: num_streams.max(1),
        unit_stream,
        events,
    });
    #[cfg(debug_assertions)]
    crate::plan::debug_check_plan(g, &plan, &[xfer.memory_bytes], "schedule_streamed");
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{CompileOptions, Framework};
    use crate::overlap::overlapped_makespan;
    use crate::partition::{partition_offload_units, PartitionPolicy};
    use crate::plan::validate_plan;
    use crate::xfer::EvictionPolicy;
    use gpuflow_graph::{DataKind, OpKind, RemapKind};
    use gpuflow_sim::device::tesla_c870;

    /// Two independent conv chains joined at the output — genuinely
    /// parallel work for two streams.
    fn forked(n: usize) -> Graph {
        let mut g = Graph::new();
        let img = g.add("Img", n, n, DataKind::Input);
        let k1 = g.add("K1", 9, 9, DataKind::Constant);
        let e = n - 8;
        let a = g.add("A", e, e, DataKind::Temporary);
        let b = g.add("B", e, e, DataKind::Temporary);
        let fa = g.add("FA", e, e, DataKind::Temporary);
        let fb = g.add("FB", e, e, DataKind::Temporary);
        let out = g.add("Out", e, e, DataKind::Output);
        g.add_op("Ca", OpKind::Conv2d, vec![img, k1], a).unwrap();
        g.add_op("Cb", OpKind::Conv2d, vec![img, k1], b).unwrap();
        g.add_op("Ra", OpKind::Remap(RemapKind::FlipH), vec![a], fa)
            .unwrap();
        g.add_op("Rb", OpKind::Remap(RemapKind::FlipV), vec![b], fb)
            .unwrap();
        g.add_op("join", OpKind::EwMax { arity: 2 }, vec![fa, fb], out)
            .unwrap();
        g
    }

    #[test]
    fn stream_order_is_topological_and_covers_every_unit() {
        let g = forked(600);
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        for k in [1, 2, 4] {
            let (order, unit_stream) = stream_order(&g, &units, &tesla_c870(), k);
            assert_eq!(unit_stream.len(), units.len());
            assert!(unit_stream.iter().all(|&s| s < k));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..units.len()).collect::<Vec<_>>());
            // Topological: every unit's producers precede it.
            let pos: Vec<usize> = {
                let mut p = vec![0; units.len()];
                for (i, &u) in order.iter().enumerate() {
                    p[u] = i;
                }
                p
            };
            let dag = unit_dag(&g, &units);
            for u in 0..units.len() {
                for &p in &dag.preds[u] {
                    assert!(pos[p] < pos[u], "k={k}: {p} !< {u} in {order:?}");
                }
            }
        }
    }

    #[test]
    fn two_streams_run_independent_chains_concurrently() {
        let g = forked(600);
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let (_, unit_stream) = stream_order(&g, &units, &tesla_c870(), 2);
        // The two conv chains must land on different streams.
        assert_ne!(unit_stream[0], unit_stream[1], "{unit_stream:?}");
    }

    #[test]
    fn streamed_plan_validates_certifies_and_speeds_up() {
        let g = forked(600);
        let dev = tesla_c870();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let xfer = XferOptions {
            memory_bytes: dev.memory_bytes,
            policy: EvictionPolicy::Belady,
            eager_free: true,
        };
        let serial = schedule_streamed(&g, &units, &dev, 1, xfer).unwrap();
        let streamed = schedule_streamed(&g, &units, &dev, 2, xfer).unwrap();
        validate_plan(&g, &streamed, dev.memory_bytes).unwrap();
        let cert = streamed.certify(&g);
        assert!(cert.certified(), "{:?}", cert.diagnostics);
        let so = overlapped_makespan(&g, &serial, &dev);
        let to = overlapped_makespan(&g, &streamed, &dev);
        assert!(
            to.makespan <= so.makespan + 1e-12,
            "2 streams must not lose: {:.6} vs {:.6}",
            to.makespan,
            so.makespan
        );
        assert_eq!(to.compute_busy.len(), 2);
    }

    #[test]
    fn events_cover_every_cross_lane_read() {
        let g = forked(600);
        let dev = tesla_c870();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let xfer = XferOptions {
            memory_bytes: dev.memory_bytes,
            policy: EvictionPolicy::Belady,
            eager_free: true,
        };
        let plan = schedule_streamed(&g, &units, &dev, 2, xfer).unwrap();
        let ann = plan.streams.as_ref().unwrap();
        assert!(!ann.events.is_empty());
        for e in &ann.events {
            assert!(e.record_step < e.wait_step, "{e:?}");
        }
        // Every launch reading an uploaded datum waits on an event: the
        // first launch of each stream must have at least one.
        let first_launch = plan
            .steps
            .iter()
            .position(|s| matches!(s, Step::Launch(_)))
            .unwrap();
        assert!(ann.events.iter().any(|e| e.wait_step == first_launch));
    }

    #[test]
    fn two_streams_strictly_beat_one_on_forked_work() {
        // With frees deferred, the two independent conv chains genuinely
        // run concurrently: the 2-stream makespan must land strictly
        // below the 1-stream one (not merely tie).
        let g = forked(600);
        let dev = tesla_c870();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let xfer = XferOptions {
            memory_bytes: dev.memory_bytes,
            policy: EvictionPolicy::Belady,
            eager_free: true,
        };
        let serial = schedule_streamed(&g, &units, &dev, 1, xfer).unwrap();
        let streamed = schedule_streamed(&g, &units, &dev, 2, xfer).unwrap();
        let so = overlapped_makespan(&g, &serial, &dev);
        let to = overlapped_makespan(&g, &streamed, &dev);
        assert!(
            to.makespan < so.makespan - 1e-12,
            "2 streams must strictly beat 1: {:.6} !< {:.6}",
            to.makespan,
            so.makespan
        );
        assert!(
            to.compute_busy.iter().all(|&b| b > 0.0),
            "{:?}",
            to.compute_busy
        );
    }

    #[test]
    fn deferred_frees_sink_to_plan_end_under_ample_memory() {
        // With the whole device free, no allocation ever needs a flush:
        // every Free lands after the last allocating step.
        let g = forked(600);
        let dev = tesla_c870();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let xfer = XferOptions {
            memory_bytes: dev.memory_bytes,
            policy: EvictionPolicy::Belady,
            eager_free: true,
        };
        let plan = schedule_streamed(&g, &units, &dev, 2, xfer).unwrap();
        validate_plan(&g, &plan, dev.memory_bytes).unwrap();
        let last_alloc = plan
            .steps
            .iter()
            .rposition(|s| matches!(s, Step::CopyIn { .. } | Step::Launch(_)))
            .unwrap();
        assert!(plan
            .steps
            .iter()
            .enumerate()
            .all(|(i, s)| !matches!(s, Step::Free { .. }) || i > last_alloc));
    }

    #[test]
    fn deferred_frees_respect_a_tight_budget() {
        // A budget just above the working set forces flushes; the plan
        // must still validate (occupancy proof) and certify, and every
        // datum freed-then-reuploaded must keep that order.
        let g = forked(600);
        let dev = tesla_c870();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        // Find the tightest feasible budget by probing downward.
        let full = schedule_streamed(
            &g,
            &units,
            &dev,
            2,
            XferOptions {
                memory_bytes: dev.memory_bytes,
                policy: EvictionPolicy::Belady,
                eager_free: true,
            },
        )
        .unwrap();
        let peak = full.stats(&g).peak_bytes;
        let tight = peak / 2;
        let plan = schedule_streamed(
            &g,
            &units,
            &dev,
            2,
            XferOptions {
                memory_bytes: tight,
                policy: EvictionPolicy::Belady,
                eager_free: true,
            },
        );
        if let Ok(plan) = plan {
            validate_plan(&g, &plan, tight).unwrap();
            let cert = plan.certify(&g);
            assert!(cert.certified(), "{:?}", cert.first_error());
            assert!(plan.stats(&g).peak_bytes <= tight);
        }
    }

    #[test]
    fn streams_1_is_byte_identical_to_the_default_planner() {
        // The framework bypasses this module at streams=1; but even the
        // explicit entry point must only differ by the annotation when the
        // DFS order and the critical-path order coincide on a chain.
        let mut g = Graph::new();
        let a = g.add("in", 64, 64, DataKind::Input);
        let m = g.add("mid", 64, 64, DataKind::Temporary);
        let o = g.add("out", 64, 64, DataKind::Output);
        g.add_op("t0", OpKind::Tanh, vec![a], m).unwrap();
        g.add_op("t1", OpKind::Tanh, vec![m], o).unwrap();
        let dev = tesla_c870();
        let opts = CompileOptions::default();
        let c1 = Framework::new(dev.clone())
            .with_options(CompileOptions { streams: 1, ..opts })
            .compile(&g)
            .unwrap();
        let c0 = Framework::new(dev).with_options(opts).compile(&g).unwrap();
        assert_eq!(c1.plan.steps, c0.plan.steps);
        assert_eq!(c1.plan.streams, c0.plan.streams);
        assert!(c1.plan.streams.is_none());
    }
}
