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

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use gpuflow_graph::{DataId, Graph};
use gpuflow_sim::DeviceSpec;

use crate::error::FrameworkError;
use crate::opschedule::{kahn_order, unit_dag, UnitDag};
use crate::overlap::op_kernel_time;
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
    unit.ops.iter().map(|&o| op_kernel_time(g, o, dev).0).sum()
}

/// What the list scheduler ranks units by: the unit DAG, each unit's
/// kernel time on the device, its bottom level and its device footprint.
struct Priorities {
    dag: UnitDag,
    time: Vec<f64>,
    bl: Vec<f64>,
    footprint: Vec<u64>,
}

impl Priorities {
    fn new(g: &Graph, units: &[OffloadUnit], dev: &DeviceSpec) -> Self {
        let dag = unit_dag(g, units);
        let time: Vec<f64> = units.iter().map(|u| unit_compute_time(g, u, dev)).collect();
        // External inputs plus outputs: what must be resident to launch.
        let footprint: Vec<u64> = units.iter().map(|u| u.footprint_bytes(g)).collect();
        // A unit's bottom level needs its successors' first. Unit indices
        // are not guaranteed to be topological, so walk a Kahn order
        // backwards.
        let mut bl = vec![0.0f64; units.len()];
        for &u in kahn_order(&dag).iter().rev() {
            let succ_max = dag.succs[u].iter().fold(0.0f64, |m, &s| m.max(bl[s]));
            bl[u] = time[u] + succ_max;
        }
        Priorities {
            dag,
            time,
            bl,
            footprint,
        }
    }

    fn ready(&self, unit: usize) -> Ready {
        Ready {
            bl: self.bl[unit],
            footprint: self.footprint[unit],
            unit,
        }
    }
}

/// A ready unit under the list scheduler's pick order: larger bottom
/// level first, then smaller footprint, then lower unit index. The order
/// is total (unit indices are distinct), so a max-heap pops exactly the
/// unit a scan of the whole ready list for its maximum would pick.
#[derive(Debug, Clone, Copy)]
struct Ready {
    bl: f64,
    footprint: u64,
    unit: usize,
}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bl
            .total_cmp(&other.bl)
            .then(other.footprint.cmp(&self.footprint))
            .then(other.unit.cmp(&self.unit))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ready {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ready {}

/// Critical-path list scheduling of `units` onto `num_streams` concurrent
/// compute streams. Returns `(order, unit_stream)`: the issue order (a
/// valid topological order of the unit DAG, suitable for
/// [`schedule_transfers`]) and the stream assigned to each unit.
///
/// Priorities are cost-model driven: ready units are picked by largest
/// bottom level (critical path first), ties broken toward the smaller
/// memory footprint, then the lower unit index. The picked unit goes to
/// the stream with the earliest available slot (its own clock vs. the
/// unit's latest-finishing predecessor). The ready units sit in a binary
/// heap, so the whole schedule costs O(units · log units + edges +
/// units · streams).
pub fn stream_order(
    g: &Graph,
    units: &[OffloadUnit],
    dev: &DeviceSpec,
    num_streams: usize,
) -> (Vec<usize>, Vec<usize>) {
    let n = units.len();
    let k = num_streams.max(1);
    let p = Priorities::new(g, units, dev);
    let mut npreds: Vec<usize> = p.dag.preds.iter().map(Vec::len).collect();
    let mut ready: BinaryHeap<Ready> = (0..n)
        .filter(|&u| npreds[u] == 0)
        .map(|u| p.ready(u))
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut unit_stream = vec![0usize; n];
    let mut finish = vec![0.0f64; n];
    let mut stream_free = vec![0.0f64; k];
    while let Some(Ready { unit: u, .. }) = ready.pop() {
        // Earliest-start stream: the unit cannot begin before its latest
        // predecessor finishes (the event it waits on), nor before the
        // stream's previous kernel retires.
        let est = p.dag.preds[u].iter().fold(0.0f64, |m, &q| m.max(finish[q]));
        let (s, start) = (0..k)
            .map(|s| (s, stream_free[s].max(est)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .expect("at least one stream");
        unit_stream[u] = s;
        finish[u] = start + p.time[u];
        stream_free[s] = finish[u];
        order.push(u);
        for &succ in &p.dag.succs[u] {
            npreds[succ] -= 1;
            if npreds[succ] == 0 {
                ready.push(p.ready(succ));
            }
        }
    }
    assert_eq!(order.len(), n, "unit DAG must be acyclic");
    (order, unit_stream)
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
/// occupied until emitted. One pass, O(steps): whether a re-uploaded
/// datum's free is still pending is a per-datum count, not a search of
/// the queue.
fn defer_frees(g: &Graph, units: &[OffloadUnit], steps: Vec<Step>, memory_bytes: u64) -> Vec<Step> {
    let mut pending: VecDeque<DataId> = VecDeque::new();
    // How many times each datum is in `pending`. A valid plan never
    // double-frees, so this is 0 or 1, but counting keeps "is `d` still
    // pending?" exact whatever the input.
    let mut queued = vec![0u32; g.num_data()];
    let mut used = 0u64;
    let mut out = Vec::with_capacity(steps.len());
    for step in steps {
        // Bytes this step allocates, in the plan validator's accounting:
        // a CopyIn allocates its datum, a Launch its (single-assignment,
        // hence never-yet-resident) outputs.
        let need = match step {
            Step::CopyIn { data: d, .. } => g.data(d).bytes(),
            Step::Launch(u) => units[u].outputs(g).map(|d| g.data(d).bytes()).sum(),
            Step::CopyOut { .. } => 0,
            Step::Free { data: d, .. } => {
                pending.push_back(d);
                queued[d.index()] += 1;
                continue;
            }
        };
        // Commit deferred frees, oldest first, while the step would exceed
        // the budget, or while it re-uploads an evicted datum whose free is
        // still queued (the device cannot hold two copies; what was queued
        // before it commits too, to keep free order stable).
        while let Some(&d) = pending.front() {
            let reupload = matches!(step, Step::CopyIn { data, .. } if queued[data.index()] > 0);
            if !reupload && used.saturating_add(need) <= memory_bytes {
                break;
            }
            pending.pop_front();
            queued[d.index()] -= 1;
            out.push(Step::Free { device: 0, data: d });
            used -= g.data(d).bytes();
        }
        used += need;
        out.push(step);
    }
    out.extend(
        pending
            .into_iter()
            .map(|d| Step::Free { device: 0, data: d }),
    );
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
    schedule_stream_order(g, units, &order, &unit_stream, num_streams, xfer, defer)
}

/// The part of [`schedule_streamed_with`] that depends on the memory
/// budget: the transfer schedule of a [`stream_order`] result, the free
/// deferral and the annotation. The list scheduler's order depends only on
/// the units and the device, so the margin ladder computes it once and
/// calls this on every rung.
pub(crate) fn schedule_stream_order(
    g: &Graph,
    units: &[OffloadUnit],
    order: &[usize],
    unit_stream: &[usize],
    num_streams: usize,
    xfer: XferOptions,
    defer: bool,
) -> Result<ExecutionPlan, FrameworkError> {
    let mut plan = schedule_transfers(g, units, order, xfer)?;
    if defer {
        plan.steps = defer_frees(g, units, std::mem::take(&mut plan.steps), xfer.memory_bytes);
    }
    let events = derive_events(g, &plan, unit_stream);
    plan.streams = Some(StreamSchedule {
        num_streams: num_streams.max(1),
        unit_stream: unit_stream.to_vec(),
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

    /// The list scheduler as a scan of the whole ready list for every
    /// pick, the way it was written before the heap: the oracle
    /// [`stream_order`] must agree with.
    fn stream_order_linear(
        g: &Graph,
        units: &[OffloadUnit],
        dev: &DeviceSpec,
        num_streams: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let n = units.len();
        let k = num_streams.max(1);
        let p = Priorities::new(g, units, dev);
        let mut npreds: Vec<usize> = p.dag.preds.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&u| npreds[u] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut unit_stream = vec![0usize; n];
        let mut finish = vec![0.0f64; n];
        let mut stream_free = vec![0.0f64; k];
        while let Some(pos) = pick_ready(&ready, &p.bl, &p.footprint) {
            let u = ready.swap_remove(pos);
            let est = p.dag.preds[u].iter().fold(0.0f64, |m, &q| m.max(finish[q]));
            let (s, start) = (0..k)
                .map(|s| (s, stream_free[s].max(est)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .unwrap();
            unit_stream[u] = s;
            finish[u] = start + p.time[u];
            stream_free[s] = finish[u];
            order.push(u);
            for &succ in &p.dag.succs[u] {
                npreds[succ] -= 1;
                if npreds[succ] == 0 {
                    ready.push(succ);
                }
            }
        }
        assert_eq!(order.len(), n);
        (order, unit_stream)
    }

    /// Index into `ready` of the unit to issue next: max bottom level,
    /// then min footprint, then min unit index.
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

    /// `defer_frees` with a search of the pending queue on every `CopyIn`,
    /// the way it was written before the per-datum count: the oracle the
    /// O(steps) pass must agree with. Also returns how many `CopyIn`s
    /// found their datum's free still pending (the re-upload flush).
    fn defer_frees_linear(
        g: &Graph,
        units: &[OffloadUnit],
        steps: Vec<Step>,
        memory_bytes: u64,
    ) -> (Vec<Step>, usize) {
        let mut pending: VecDeque<DataId> = VecDeque::new();
        let mut used = 0u64;
        let mut reuploads = 0;
        let mut out = Vec::with_capacity(steps.len());
        let flush_front = |out: &mut Vec<Step>, pending: &mut VecDeque<DataId>, used: &mut u64| {
            let d = pending.pop_front().unwrap();
            out.push(Step::Free { device: 0, data: d });
            *used -= g.data(d).bytes();
        };
        for step in steps {
            let need = match step {
                Step::CopyIn { data: d, .. } => g.data(d).bytes(),
                Step::Launch(u) => units[u].outputs(g).map(|d| g.data(d).bytes()).sum(),
                Step::CopyOut { .. } => 0,
                Step::Free { data: d, .. } => {
                    pending.push_back(d);
                    continue;
                }
            };
            if let Step::CopyIn { data: d, .. } = step {
                reuploads += usize::from(pending.contains(&d));
                while pending.contains(&d) {
                    flush_front(&mut out, &mut pending, &mut used);
                }
            }
            while used.saturating_add(need) > memory_bytes && !pending.is_empty() {
                flush_front(&mut out, &mut pending, &mut used);
            }
            used += need;
            out.push(step);
        }
        while !pending.is_empty() {
            flush_front(&mut out, &mut pending, &mut used);
        }
        (out, reuploads)
    }

    /// The heap scheduler and the O(steps) deferral against their linear
    /// oracles, from two independent chains up to the large CNN, at
    /// k = 2, 3, 4, under ample memory and under a budget tight enough to
    /// evict and re-upload.
    #[test]
    fn heap_scheduler_and_deferral_match_their_linear_oracles() {
        use gpuflow_templates::{cnn, edge};
        let dev = tesla_c870();
        // Two sinks that move the same bytes and do the same flops, so
        // only the footprint tie-break orders them: one reads its input
        // twice, and a unit's footprint counts a datum once.
        let mut ties = Graph::new();
        let a = ties.add("A", 64, 64, DataKind::Input);
        let b = ties.add("B", 64, 64, DataKind::Input);
        let wide = ties.add("Wide", 64, 64, DataKind::Output);
        let narrow = ties.add("Narrow", 64, 64, DataKind::Output);
        ties.add_op("wide", OpKind::EwAdd { arity: 2 }, vec![a, b], wide)
            .unwrap();
        ties.add_op("narrow", OpKind::EwAdd { arity: 2 }, vec![a, a], narrow)
            .unwrap();
        let cases = [
            ("ties", ties),
            ("forked", forked(600)),
            ("cnn-small:512x512", cnn::small_cnn(512, 512).graph),
            (
                "edge:512x512,k=9,o=8",
                edge::find_edges(512, 512, 9, 8, edge::CombineOp::Max).graph,
            ),
            ("cnn-large:400x400", cnn::large_cnn(400, 400).graph),
        ];
        let mut reuploads = 0;
        for (name, g) in &cases {
            let units = partition_offload_units(g, PartitionPolicy::PerOperator, u64::MAX);
            for k in [2, 3, 4] {
                let (order, unit_stream) = stream_order(g, &units, &dev, k);
                assert_eq!(
                    (order.clone(), unit_stream),
                    stream_order_linear(g, &units, &dev, k),
                    "{name} k={k}: the heap picked differently"
                );
                let xfer = |memory_bytes| XferOptions {
                    memory_bytes,
                    policy: EvictionPolicy::Belady,
                    eager_free: true,
                };
                let ample = dev.memory_bytes;
                let peak = schedule_transfers(g, &units, &order, xfer(ample))
                    .unwrap()
                    .stats(g)
                    .peak_bytes;
                for budget in [ample, peak / 2] {
                    // Units too large for the tight budget: ample only.
                    let Ok(plan) = schedule_transfers(g, &units, &order, xfer(budget)) else {
                        continue;
                    };
                    // Deferring a tight plan against the whole device as
                    // well keeps each eviction pending until its re-upload.
                    for defer_budget in [budget, ample] {
                        let (want, flushed) =
                            defer_frees_linear(g, &units, plan.steps.clone(), defer_budget);
                        assert_eq!(
                            defer_frees(g, &units, plan.steps.clone(), defer_budget),
                            want,
                            "{name} k={k} budget={budget}/{defer_budget}: deferred steps differ"
                        );
                        reuploads += flushed;
                    }
                }
            }
        }
        assert!(
            reuploads > 0,
            "no case re-uploaded a datum whose free was pending"
        );
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
