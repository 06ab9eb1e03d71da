//! Asynchronous transfer/compute overlap — the extension the paper
//! describes but could not evaluate: "Current GPUs have the ability to
//! perform asynchronous data transfer and computation at the same time (as
//! long as they are independent). … We did not overlap computation and
//! communication in our experiments since the GPUs that we used did not
//! support this capability." (§3.3.2)
//!
//! This module computes the **overlapped makespan** of an execution plan on
//! a device with one compute engine and two DMA engines (host→device and
//! device→host — the dual-copy-engine arrangement of post-2009 GPUs):
//!
//! * steps are issued in plan order, each on its engine;
//! * a kernel launch additionally waits for its external inputs' uploads
//!   (and intra-plan productions) to complete;
//! * a device→host copy additionally waits for the kernel that produced
//!   the data;
//! * an upload of previously downloaded data waits for that download.
//!
//! Memory is respected exactly: a step that *allocates* (an upload, or a
//! launch producing outputs) additionally waits until every `Free` that
//! precedes it in plan order has **committed** — i.e. the last operation
//! touching the freed buffer has completed — so the device never holds
//! more than the plan's validated occupancy. Consequently, moving an
//! upload earlier in the plan (past `Free`s whose space it does not need —
//! see [`crate::prefetch`]) is what legally unlocks prefetching.
//!
//! Plans annotated by the stream scheduler ([`crate::streams`]) carry a
//! [`crate::streams::StreamSchedule`]: the compute engine generalizes to
//! `k` concurrent kernel streams, each launch runs on its assigned
//! stream's clock, and cross-stream dependencies synchronize through the
//! per-datum ready times — the simulation analogue of recording an event
//! at the producer and waiting on it at the consumer. Unannotated plans
//! behave exactly as before (one compute stream).

use gpuflow_graph::Graph;
use gpuflow_ops::op_cost;
use gpuflow_sim::{kernel_time, timing::Work, transfer_time, DeviceSpec};

use crate::plan::{ExecutionPlan, Step};

/// Result of the two-engine simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapOutcome {
    /// Makespan with a single serialized engine (the paper's evaluation
    /// model; equals the serial executor's total time).
    pub serial_time: f64,
    /// Makespan with concurrent copy and compute engines.
    pub overlapped_time: f64,
    /// Busy time of the host→device DMA engine.
    pub h2d_busy: f64,
    /// Busy time of the device→host DMA engine.
    pub d2h_busy: f64,
    /// Total busy time across all compute streams (equals the single
    /// engine's busy time on unannotated plans).
    pub compute_busy: f64,
    /// Busy time of each compute stream; `[compute_busy]` when the plan
    /// carries no stream annotation.
    pub stream_busy: Vec<f64>,
}

impl OverlapOutcome {
    /// Speedup of overlapping over serial execution (≥ 1). A plan with no
    /// timed work at all (`overlapped_time == 0`, e.g. an empty graph)
    /// reports a neutral 1.0 rather than dividing by zero.
    pub fn speedup(&self) -> f64 {
        if self.overlapped_time <= 0.0 {
            1.0
        } else {
            self.serial_time / self.overlapped_time
        }
    }

    /// Total DMA busy time across both engines.
    pub fn copy_busy(&self) -> f64 {
        self.h2d_busy + self.d2h_busy
    }

    /// A makespan lower bound from engine occupancy alone: no schedule can
    /// finish before its busiest engine has done all its work, so
    /// `overlapped_time ≥ max(h2d, d2h, busiest stream)` always holds.
    /// Property tests pin the simulation between this bound and
    /// `serial_time`. With one stream the busiest stream *is* the compute
    /// engine, so this is exactly the old three-engine bound.
    pub fn busy_lower_bound(&self) -> f64 {
        self.stream_busy
            .iter()
            .fold(self.h2d_busy.max(self.d2h_busy), |m, &b| m.max(b))
    }

    /// Busy fraction of each engine over the overlapped makespan, in
    /// rendering order: h2d, each compute stream, d2h. Zero-makespan plans
    /// report zero utilization everywhere.
    pub fn utilization(&self) -> Vec<(String, f64)> {
        let frac = |busy: f64| {
            if self.overlapped_time <= 0.0 {
                0.0
            } else {
                busy / self.overlapped_time
            }
        };
        let mut rows = vec![("h2d".to_string(), frac(self.h2d_busy))];
        for (s, &b) in self.stream_busy.iter().enumerate() {
            let name = if self.stream_busy.len() == 1 {
                "compute".to_string()
            } else {
                format!("compute s{s}")
            };
            rows.push((name, frac(b)));
        }
        rows.push(("d2h".to_string(), frac(self.d2h_busy)));
        rows
    }
}

/// Which engine an event ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Host→device DMA engine.
    H2d,
    /// Compute stream `s` (stream 0 is the only stream of unannotated
    /// plans — the classic single compute engine).
    Compute(usize),
    /// Device→host DMA engine.
    D2h,
}

/// One scheduled interval in the overlapped execution.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneEvent {
    /// Engine.
    pub lane: Lane,
    /// What ran (data or operator name).
    pub label: String,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Bytes moved: PCIe bytes for the DMA lanes, device-memory traffic
    /// for compute. Sourced from the same [`Graph`] sizes the plan
    /// validator and [`crate::plan::PlanStats`] use, so traces reconcile
    /// exactly with plan statistics.
    pub bytes: u64,
}

/// Why an engine sat idle before its next scheduled event — the closed
/// bottleneck taxonomy of `gpuflow profile` (docs/profiling.md). Each
/// step's start time is a `max` over competing constraints; the cause
/// records which constraint was binding for the idle gap it opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GapCause {
    /// Waiting for a host→device upload to finish (exposed upload).
    WaitUpload,
    /// Waiting for a device→host download to finish (exposed download).
    WaitDownload,
    /// Waiting for a kernel to produce a datum this engine needs.
    WaitCompute,
    /// Waiting for a kernel on *another* compute stream — the
    /// cross-stream dependency component of stream imbalance.
    WaitStream,
    /// Waiting for earlier `Free`s to commit their space — the
    /// free-horizon / memory-budget stall.
    FreeHorizon,
    /// Waiting for a grant on the shared PCIe fabric (multi-GPU bus
    /// contention; never emitted by the single-device simulator).
    BusWait,
    /// No work issued to this engine for the interval — leading/trailing
    /// idle, the load-imbalance remainder.
    Idle,
}

impl GapCause {
    /// Stable taxonomy label used in tables, JSON, and trace exports.
    pub fn label(&self) -> &'static str {
        match self {
            GapCause::WaitUpload => "exposed-upload",
            GapCause::WaitDownload => "exposed-download",
            GapCause::WaitCompute => "exposed-compute",
            GapCause::WaitStream => "stream-imbalance",
            GapCause::FreeHorizon => "free-horizon",
            GapCause::BusWait => "bus-wait",
            GapCause::Idle => "idle",
        }
    }

    /// Every cause, in rendering order.
    pub fn all() -> [GapCause; 7] {
        [
            GapCause::WaitUpload,
            GapCause::WaitDownload,
            GapCause::WaitCompute,
            GapCause::WaitStream,
            GapCause::FreeHorizon,
            GapCause::BusWait,
            GapCause::Idle,
        ]
    }
}

/// One attributed idle interval on an engine. Together with the busy
/// [`LaneEvent`]s of the same lane, the gaps tile `[0, makespan]` with
/// no overlap and no hole — endpoints are shared f64 values, so summing
/// `end - start` per lane reconciles against the makespan exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct GapEvent {
    /// Engine that sat idle.
    pub lane: Lane,
    /// Gap start, seconds.
    pub start: f64,
    /// Gap end (the next event's start, or the makespan), seconds.
    pub end: f64,
    /// The binding constraint that opened the gap.
    pub cause: GapCause,
    /// The datum or operator waited on (empty for [`GapCause::Idle`]).
    pub waited_on: String,
}

/// What produced the current device/host copy of a datum — used to
/// attribute a dependency wait to upload, download, or (cross-stream)
/// compute.
#[derive(Debug, Clone, Copy)]
enum Producer {
    /// Initial host data; never the binding term of a positive gap.
    None,
    /// A host→device copy. (The host-side producer is always a download,
    /// so `host_ready` waits need no producer tracking.)
    Upload,
    /// A kernel on the given compute stream.
    Kernel(usize),
}

/// Simulate `plan` on `dev` with concurrent copy and compute engines.
pub fn overlapped_makespan(g: &Graph, plan: &ExecutionPlan, dev: &DeviceSpec) -> OverlapOutcome {
    overlapped_trace(g, plan, dev).0
}

/// Like [`overlapped_makespan`], also returning the per-engine event
/// intervals for rendering.
pub fn overlapped_trace(
    g: &Graph,
    plan: &ExecutionPlan,
    dev: &DeviceSpec,
) -> (OverlapOutcome, Vec<LaneEvent>) {
    let (o, events, _) = overlapped_trace_profiled(g, plan, dev);
    (o, events)
}

/// Like [`overlapped_trace`], additionally attributing every idle
/// interval of every engine to a [`GapCause`]. The busy events and gaps
/// of each lane tile `[0, overlapped_time]` exactly — the foundation of
/// `gpuflow profile`'s reconciled bottleneck breakdown.
pub fn overlapped_trace_profiled(
    g: &Graph,
    plan: &ExecutionPlan,
    dev: &DeviceSpec,
) -> (OverlapOutcome, Vec<LaneEvent>, Vec<GapEvent>) {
    #[cfg(debug_assertions)]
    {
        crate::plan::debug_check_plan(g, plan, &[dev.memory_bytes], "overlapped_trace");
        // Dynamic sanitizer: the overlap discipline's own step times must
        // honour every happens-before edge of the certificate.
        let times = crate::sanitize::overlap_step_times(g, plan, dev);
        crate::sanitize::assert_hb_consistent(g, plan, &times, "overlapped_trace");
    }
    let nd = g.num_data();
    // Stream annotation: k concurrent kernel streams, each launch pinned
    // to one. Unannotated plans run everything on stream 0.
    let k = plan.streams.as_ref().map_or(1, |s| s.num_streams.max(1));
    let stream_of = |u: usize| -> usize {
        plan.streams
            .as_ref()
            .and_then(|s| s.unit_stream.get(u).copied())
            .unwrap_or(0)
            .min(k - 1)
    };
    // Completion time of the event that makes data available on each side.
    let mut device_ready = vec![0.0f64; nd];
    let mut host_ready = vec![0.0f64; nd];
    // What produced each side's current copy — attributes a dependency
    // wait to upload, download, or cross-stream compute.
    let mut dev_producer = vec![Producer::None; nd];
    // Completion time of the latest operation touching each buffer, and
    // the running commit horizon of all Frees seen so far in plan order.
    let mut last_touch = vec![0.0f64; nd];
    let mut free_horizon = 0.0f64;
    let mut h2d_free = 0.0f64;
    let mut d2h_free = 0.0f64;
    let mut stream_free = vec![0.0f64; k];
    let mut h2d_busy = 0.0f64;
    let mut d2h_busy = 0.0f64;
    let mut stream_busy = vec![0.0f64; k];
    let mut serial = 0.0f64;

    let mut end = 0.0f64;
    let mut events: Vec<LaneEvent> = Vec::new();
    let mut gaps: Vec<GapEvent> = Vec::new();
    for step in &plan.steps {
        match *step {
            Step::CopyIn { data: d, .. } => {
                let bytes = g.data(d).bytes();
                let dur = transfer_time(dev, bytes);
                // Allocating: wait for host validity and for all earlier
                // Frees to have actually released their space.
                let ready_host = host_ready[d.index()];
                let start = h2d_free.max(ready_host).max(free_horizon);
                if start > h2d_free {
                    // The larger of the two non-engine terms was binding.
                    let (cause, waited_on) = if free_horizon >= ready_host {
                        (GapCause::FreeHorizon, String::new())
                    } else {
                        (GapCause::WaitDownload, g.data(d).name.clone())
                    };
                    gaps.push(GapEvent {
                        lane: Lane::H2d,
                        start: h2d_free,
                        end: start,
                        cause,
                        waited_on,
                    });
                }
                h2d_free = start + dur;
                h2d_busy += dur;
                serial += dur;
                device_ready[d.index()] = h2d_free;
                dev_producer[d.index()] = Producer::Upload;
                last_touch[d.index()] = h2d_free;
                end = end.max(h2d_free);
                events.push(LaneEvent {
                    lane: Lane::H2d,
                    label: g.data(d).name.clone(),
                    start,
                    end: h2d_free,
                    bytes,
                });
            }
            Step::CopyOut { data: d, .. } => {
                let bytes = g.data(d).bytes();
                let dur = transfer_time(dev, bytes);
                let ready = device_ready[d.index()];
                let start = d2h_free.max(ready);
                if start > d2h_free {
                    let cause = match dev_producer[d.index()] {
                        Producer::Upload => GapCause::WaitUpload,
                        _ => GapCause::WaitCompute,
                    };
                    gaps.push(GapEvent {
                        lane: Lane::D2h,
                        start: d2h_free,
                        end: start,
                        cause,
                        waited_on: g.data(d).name.clone(),
                    });
                }
                d2h_free = start + dur;
                d2h_busy += dur;
                serial += dur;
                host_ready[d.index()] = d2h_free;
                last_touch[d.index()] = last_touch[d.index()].max(d2h_free);
                end = end.max(d2h_free);
                events.push(LaneEvent {
                    lane: Lane::D2h,
                    label: g.data(d).name.clone(),
                    start,
                    end: d2h_free,
                    bytes,
                });
            }
            Step::Free { data: d, .. } => {
                free_horizon = free_horizon.max(last_touch[d.index()]);
            }
            Step::Launch(u) => {
                let unit = &plan.units[u];
                let s = stream_of(u);
                let cursor = stream_free[s];
                // Allocates its outputs: also gated by the free horizon.
                // Waiting on each input's `device_ready` is the event
                // semantics: the producer (upload or another stream's
                // kernel) recorded its completion there. Track which term
                // ends up binding — it owns any gap this launch opens.
                let mut start = cursor.max(free_horizon);
                let mut blame = (GapCause::FreeHorizon, String::new());
                for d in unit.external_inputs(g) {
                    let r = device_ready[d.index()];
                    if r > start {
                        start = r;
                        let cause = match dev_producer[d.index()] {
                            Producer::Upload => GapCause::WaitUpload,
                            Producer::Kernel(s2) if s2 != s => GapCause::WaitStream,
                            _ => GapCause::WaitCompute,
                        };
                        blame = (cause, g.data(d).name.clone());
                    }
                }
                if start > cursor {
                    gaps.push(GapEvent {
                        lane: Lane::Compute(s),
                        start: cursor,
                        end: start,
                        cause: blame.0,
                        waited_on: blame.1,
                    });
                }
                let mut t = start;
                for &o in &unit.ops {
                    let node = g.op(o);
                    let ins: Vec<_> = node.inputs.iter().map(|&i| g.shape(i)).collect();
                    let c = op_cost(node.kind, &ins, g.shape(node.outputs[0]));
                    let dur = kernel_time(
                        dev,
                        Work {
                            flops: c.flops,
                            bytes: c.bytes,
                        },
                    );
                    events.push(LaneEvent {
                        lane: Lane::Compute(s),
                        label: node.name.clone(),
                        start: t,
                        end: t + dur,
                        bytes: c.bytes,
                    });
                    t += dur;
                    stream_busy[s] += dur;
                    serial += dur;
                    device_ready[node.outputs[0].index()] = t;
                    dev_producer[node.outputs[0].index()] = Producer::Kernel(s);
                    for &i in &node.inputs {
                        last_touch[i.index()] = last_touch[i.index()].max(t);
                    }
                    last_touch[node.outputs[0].index()] = t;
                }
                stream_free[s] = t;
                end = end.max(t);
            }
        }
    }

    // Trailing idle: every engine that finished before the makespan sat
    // unoccupied until the end — the load-imbalance remainder that makes
    // each lane's busy + attributed-idle sum to the makespan exactly.
    if d2h_free < end {
        gaps.push(GapEvent {
            lane: Lane::D2h,
            start: d2h_free,
            end,
            cause: GapCause::Idle,
            waited_on: String::new(),
        });
    }
    if h2d_free < end {
        gaps.push(GapEvent {
            lane: Lane::H2d,
            start: h2d_free,
            end,
            cause: GapCause::Idle,
            waited_on: String::new(),
        });
    }
    for (s, &free) in stream_free.iter().enumerate() {
        if free < end {
            gaps.push(GapEvent {
                lane: Lane::Compute(s),
                start: free,
                end,
                cause: GapCause::Idle,
                waited_on: String::new(),
            });
        }
    }

    (
        OverlapOutcome {
            serial_time: serial,
            overlapped_time: end,
            h2d_busy,
            d2h_busy,
            compute_busy: stream_busy.iter().sum(),
            stream_busy,
        },
        events,
        gaps,
    )
}

/// Render the engine lanes as an ASCII Gantt chart of `width` character
/// columns: the upload DMA lane, one row per compute stream that appears
/// in `events`, then the download DMA lane.
pub fn render_gantt(events: &[LaneEvent], makespan: f64, width: usize) -> String {
    use std::fmt::Write as _;
    let width = width.max(10);
    let mut s = String::new();
    let scale = |t: f64| ((t / makespan.max(1e-12)) * width as f64).round() as usize;
    let k = events
        .iter()
        .filter_map(|e| match e.lane {
            Lane::Compute(s) => Some(s + 1),
            _ => None,
        })
        .max()
        .unwrap_or(1);
    let mut lanes: Vec<(Lane, String, char)> = vec![(Lane::H2d, "H->D   ".to_string(), '>')];
    for stream in 0..k {
        // Stream 0 keeps the classic single-engine label so serial plans
        // render byte-identically.
        let name = if k == 1 {
            "COMPUTE".to_string()
        } else {
            format!("COMP s{stream}")
        };
        lanes.push((Lane::Compute(stream), name, '#'));
    }
    lanes.push((Lane::D2h, "D->H   ".to_string(), '<'));
    for (lane, name, fill) in lanes {
        let mut row = vec![' '; width + 1];
        for e in events.iter().filter(|e| e.lane == lane) {
            let (a, b) = (scale(e.start), scale(e.end).max(scale(e.start) + 1));
            for c in row.iter_mut().take(b.min(width + 1)).skip(a) {
                *c = fill;
            }
        }
        let _ = writeln!(s, "{name} |{}|", row.into_iter().collect::<String>());
    }
    let _ = writeln!(s, "        0{:>w$.4}s", makespan, w = width - 1);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_plan;
    use crate::examples::{fig3_graph, fig3_memory_bytes};
    use crate::executor::Executor;
    use crate::framework::Framework;
    use gpuflow_sim::device::tesla_c870;

    /// Explicit tolerance for speedup comparisons: a plan whose overlap
    /// buys nothing lands at exactly 1.0 only up to float rounding.
    const SPEEDUP_EPS: f64 = 1e-9;

    fn edge_graph() -> Graph {
        gpuflow_templates_stub::edge_like(600)
    }

    /// Local stand-in to avoid a cyclic dev-dependency on the templates
    /// crate: conv-like structure with real sizes.
    mod gpuflow_templates_stub {
        use gpuflow_graph::{DataKind, Graph, OpKind, RemapKind};

        pub fn edge_like(n: usize) -> Graph {
            let mut g = Graph::new();
            let img = g.add("Img", n, n, DataKind::Input);
            let k1 = g.add("K1", 9, 9, DataKind::Constant);
            let e = n - 8;
            let e1 = g.add("E1", e, e, DataKind::Temporary);
            let e5 = g.add("E5", e, e, DataKind::Temporary);
            let edg = g.add("Edg", e, e, DataKind::Output);
            g.add_op("C1", OpKind::Conv2d, vec![img, k1], e1).unwrap();
            g.add_op("R1", OpKind::Remap(RemapKind::FlipH), vec![e1], e5)
                .unwrap();
            g.add_op("max", OpKind::EwMax { arity: 2 }, vec![e1, e5], edg)
                .unwrap();
            g
        }
    }

    #[test]
    fn overlap_never_slower_and_serial_matches_executor() {
        let g = edge_graph();
        let dev = tesla_c870();
        let compiled = Framework::new(dev.clone()).compile(&g).unwrap();
        let out = overlapped_makespan(&compiled.split.graph, &compiled.plan, &dev);
        assert!(out.overlapped_time <= out.serial_time + 1e-12);
        assert!(out.speedup() >= 1.0 - SPEEDUP_EPS);
        // Serial accounting equals the serial executor's simulated time.
        let exec = Executor::new(&compiled.split.graph, &compiled.plan, &dev)
            .run_analytic()
            .unwrap();
        assert!((out.serial_time - exec.total_time()).abs() < 1e-9);
        // Engine busy times partition the serial time.
        assert!((out.copy_busy() + out.compute_busy - out.serial_time).abs() < 1e-9);
    }

    #[test]
    fn memory_gating_serializes_unhoisted_baseline() {
        // In the baseline every upload immediately follows a Free of the
        // same (or earlier) buffers, so the free horizon serializes almost
        // everything: without prefetch hoisting, overlap buys little.
        let g = edge_graph();
        let dev = tesla_c870();
        let plan = baseline_plan(&g, dev.memory_bytes).unwrap();
        let out = overlapped_makespan(&g, &plan, &dev);
        assert!(out.speedup() >= 1.0 - SPEEDUP_EPS);
        assert!(
            out.speedup() < 1.15,
            "memory gating should limit unhoisted gains, got {:.3}x",
            out.speedup()
        );
        // The makespan can never beat any single engine's busy time.
        assert!(
            out.overlapped_time >= out.h2d_busy.max(out.d2h_busy).max(out.compute_busy) - 1e-12
        );
    }

    #[test]
    fn hoisting_unlocks_overlap_on_split_plans() {
        // A split edge template uploads one image band per round; hoisting
        // the next band's upload above the previous band's frees lets the
        // copy engine run ahead of the kernels.
        let t = gpuflow_templates_stub::edge_like(2048);
        let dev = tesla_c870().with_memory(24 << 20);
        let compiled = Framework::new(dev.clone()).compile_adaptive(&t).unwrap();
        assert!(compiled.split.parts >= 2);
        let before = overlapped_makespan(&compiled.split.graph, &compiled.plan, &dev);
        let (hoisted, moves) = crate::prefetch::hoist_prefetches(
            &compiled.split.graph,
            &compiled.plan,
            dev.memory_bytes,
            32,
        );
        crate::plan::validate_plan(&compiled.split.graph, &hoisted, dev.memory_bytes).unwrap();
        let after = overlapped_makespan(&compiled.split.graph, &hoisted, &dev);
        assert!(moves > 0, "split plans must have hoistable uploads");
        assert!(
            after.overlapped_time < before.overlapped_time - 1e-12,
            "hoisting must help: {:.4} !< {:.4}",
            after.overlapped_time,
            before.overlapped_time
        );
        assert!((after.serial_time - before.serial_time).abs() < 1e-9);
    }

    #[test]
    fn trace_and_gantt_render() {
        let g = edge_graph();
        let dev = tesla_c870();
        let compiled = Framework::new(dev.clone()).compile(&g).unwrap();
        let (out, events) = overlapped_trace(&compiled.split.graph, &compiled.plan, &dev);
        assert!(!events.is_empty());
        // Every event lies within the makespan and has positive duration.
        for e in &events {
            assert!(e.end > e.start, "{e:?}");
            assert!(e.end <= out.overlapped_time + 1e-9, "{e:?}");
        }
        // All three lanes appear for this plan.
        for lane in [Lane::H2d, Lane::Compute(0), Lane::D2h] {
            assert!(events.iter().any(|e| e.lane == lane), "{lane:?} missing");
        }
        let chart = render_gantt(&events, out.overlapped_time, 60);
        assert_eq!(chart.lines().count(), 4);
        assert!(chart.contains("COMPUTE"));
        assert!(chart.contains('#'));
        assert!(chart.contains('>'));
    }

    #[test]
    fn zero_makespan_speedup_is_neutral() {
        // A plan with no timed work must not divide by zero (satellite of
        // the stream-scheduler PR): an empty outcome reports exactly 1.0.
        let out = OverlapOutcome {
            serial_time: 0.0,
            overlapped_time: 0.0,
            h2d_busy: 0.0,
            d2h_busy: 0.0,
            compute_busy: 0.0,
            stream_busy: vec![0.0],
        };
        assert_eq!(out.speedup(), 1.0);
        assert!(out.speedup() >= 1.0 - SPEEDUP_EPS);
        assert!(out.utilization().iter().all(|(_, u)| *u == 0.0));
    }

    #[test]
    fn lane_event_durations_sum_to_busy_times() {
        // The per-lane event intervals are the same accounting the busy
        // fields accumulate, in the same order — so trace exports built
        // from the events reconcile exactly against the outcome.
        let g = edge_graph();
        let dev = tesla_c870();
        let compiled = Framework::new(dev.clone()).compile(&g).unwrap();
        let (out, events) = overlapped_trace(&compiled.split.graph, &compiled.plan, &dev);
        let lane_sum = |lane: Lane| -> f64 {
            events
                .iter()
                .filter(|e| e.lane == lane)
                .map(|e| e.end - e.start)
                .sum()
        };
        assert!((lane_sum(Lane::H2d) - out.h2d_busy).abs() < 1e-12);
        assert!((lane_sum(Lane::D2h) - out.d2h_busy).abs() < 1e-12);
        assert!((lane_sum(Lane::Compute(0)) - out.compute_busy).abs() < 1e-12);
        assert_eq!(out.stream_busy.len(), 1);
        assert!((out.stream_busy[0] - out.compute_busy).abs() < 1e-12);
    }

    #[test]
    fn gaps_and_events_tile_every_lane_exactly() {
        // Busy events plus attributed gaps must cover [0, makespan] on
        // every engine with shared endpoints — no hole, no overlap, no
        // unattributed time. This is the invariant `gpuflow profile`
        // reconciles, so it is pinned at the simulator level too.
        let g = edge_graph();
        let dev = tesla_c870();
        for k in 1..=3usize {
            let compiled = Framework::new(dev.clone())
                .with_options(crate::framework::CompileOptions {
                    streams: k,
                    ..Default::default()
                })
                .compile_adaptive(&g)
                .unwrap();
            let (out, events, gaps) =
                overlapped_trace_profiled(&compiled.split.graph, &compiled.plan, &dev);
            let streams = out.stream_busy.len();
            let mut lanes = vec![Lane::H2d, Lane::D2h];
            lanes.extend((0..streams).map(Lane::Compute));
            for lane in lanes {
                let mut iv: Vec<(f64, f64)> = events
                    .iter()
                    .filter(|e| e.lane == lane)
                    .map(|e| (e.start, e.end))
                    .chain(
                        gaps.iter()
                            .filter(|e| e.lane == lane)
                            .map(|e| (e.start, e.end)),
                    )
                    .collect();
                iv.sort_by(|a, b| a.0.total_cmp(&b.0));
                assert!(!iv.is_empty(), "{lane:?} has no coverage");
                assert_eq!(iv[0].0, 0.0, "{lane:?} does not start at 0");
                for w in iv.windows(2) {
                    assert_eq!(
                        w[0].1, w[1].0,
                        "{lane:?} has a hole or overlap at {}",
                        w[0].1
                    );
                }
                assert_eq!(
                    iv.last().unwrap().1,
                    out.overlapped_time,
                    "{lane:?} does not end at the makespan"
                );
            }
            // Gap causes stay within the single-device taxonomy.
            assert!(gaps.iter().all(|e| e.cause != GapCause::BusWait));
        }
    }

    #[test]
    fn dependencies_are_respected() {
        // With a single chain there is nothing to overlap at the start:
        // the first kernel cannot begin before its upload finishes.
        let g = fig3_graph();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let compiled = Framework::new(dev.clone())
            .with_options(crate::framework::CompileOptions {
                memory_margin: 0.0,
                ..Default::default()
            })
            .compile(&g)
            .unwrap();
        let out = overlapped_makespan(&compiled.split.graph, &compiled.plan, &dev);
        let first_upload = transfer_time(&dev, 2 * 256 * 4);
        assert!(out.overlapped_time >= first_upload);
    }
}
