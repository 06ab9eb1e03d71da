//! Overlapped multi-device makespan: per-device compute engines racing one
//! shared PCIe bus.
//!
//! Extends the single-GPU overlap model of [`gpuflow_core::overlap`] to a
//! cluster: each device contributes an independent compute lane, while
//! *every* transfer of every device — uploads, downloads, and both legs of
//! each staged inter-device copy — arbitrates FCFS for the shared
//! full-duplex bus ([`gpuflow_sim::SharedBus`]): one host→device channel
//! and one device→host channel, each serving the whole cluster. This is
//! the contention that bends the scalability curve: compute capacity grows
//! with the device count, bus capacity does not.
//!
//! Memory is respected exactly as in the single-GPU model, per device: a
//! step that allocates on a device waits until every earlier `Free` on
//! that device has committed.

use gpuflow_core::overlap::GapCause;
use gpuflow_core::{ExecutionPlan, Step};
use gpuflow_graph::Graph;
use gpuflow_ops::op_cost;
use gpuflow_sim::{kernel_time, timing::Work, BusDir, SharedBus};

use crate::cluster::Cluster;

/// Result of the shared-bus multi-device simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiOutcome {
    /// Makespan with every engine serialized on one timeline (the
    /// single-resource reference point).
    pub serial_time: f64,
    /// Makespan with per-device compute lanes and the shared bus.
    pub makespan: f64,
    /// Busy time of the shared host→device bus channel.
    pub bus_h2d_busy: f64,
    /// Busy time of the shared device→host bus channel.
    pub bus_d2h_busy: f64,
    /// Busy time of each device's compute engine.
    pub compute_busy: Vec<f64>,
    /// Bytes that crossed the bus (both directions).
    pub bus_bytes: u64,
}

impl MultiOutcome {
    /// Speedup of the overlapped cluster execution over the fully
    /// serialized timeline (≥ 1).
    pub fn speedup(&self) -> f64 {
        self.serial_time / self.makespan
    }

    /// Total busy time across both bus channels.
    pub fn bus_busy(&self) -> f64 {
        self.bus_h2d_busy + self.bus_d2h_busy
    }

    /// A makespan lower bound from engine occupancy alone: no schedule
    /// finishes before either shared bus channel has moved all its bytes,
    /// nor before the busiest device has run all its kernels. Property
    /// tests pin the simulation between this bound and `serial_time`.
    pub fn busy_lower_bound(&self) -> f64 {
        self.compute_busy
            .iter()
            .fold(self.bus_h2d_busy.max(self.bus_d2h_busy), |m, &c| m.max(c))
    }
}

/// One scheduled interval of the cluster execution.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLaneEvent {
    /// Engine the interval ran on.
    pub lane: MultiLane,
    /// What ran (data or operator name).
    pub label: String,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Bytes moved: bus bytes for the shared channels, device-memory
    /// traffic for compute. Bus-lane bytes sum to
    /// [`MultiOutcome::bus_bytes`], so traces reconcile exactly.
    pub bytes: u64,
}

/// Which engine of the cluster an event ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiLane {
    /// The shared host→device bus channel.
    BusH2d,
    /// The shared device→host bus channel.
    BusD2h,
    /// Device `0`'s compute engine.
    Compute(usize),
}

/// One attributed idle interval on a cluster engine. Together with the
/// busy [`MultiLaneEvent`]s of the same lane, the gaps tile
/// `[0, makespan]` with shared endpoints — the cluster analogue of
/// [`gpuflow_core::overlap::GapEvent`], reusing the same closed
/// [`GapCause`] taxonomy (docs/profiling.md).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiGapEvent {
    /// Engine that sat idle.
    pub lane: MultiLane,
    /// Gap start, seconds.
    pub start: f64,
    /// Gap end, seconds.
    pub end: f64,
    /// The binding constraint that opened the gap.
    pub cause: GapCause,
    /// The datum or operator waited on (empty for [`GapCause::Idle`]).
    pub waited_on: String,
}

/// What produced a device's current copy of a datum, and whether the
/// producing transfer was delayed by bus contention (the cross-device
/// bus-wait signal).
#[derive(Debug, Clone, Copy)]
enum DevProducer {
    None,
    Upload { contended: bool },
    Kernel,
}

/// Simulate `plan` on `cluster` and return the outcome.
pub fn multi_overlapped_makespan(
    g: &Graph,
    plan: &ExecutionPlan,
    cluster: &Cluster,
) -> MultiOutcome {
    multi_overlapped_trace(g, plan, cluster).0
}

/// Like [`multi_overlapped_makespan`], also returning the per-engine event
/// intervals for rendering.
pub fn multi_overlapped_trace(
    g: &Graph,
    plan: &ExecutionPlan,
    cluster: &Cluster,
) -> (MultiOutcome, Vec<MultiLaneEvent>) {
    let (o, events, _) = multi_overlapped_trace_profiled(g, plan, cluster);
    (o, events)
}

/// Like [`multi_overlapped_trace`], additionally attributing every idle
/// interval of every engine — both bus channels and each device's
/// compute lane — to a [`GapCause`]. Compute-lane gaps are attributed
/// online from the binding `max` term; bus-channel gaps are recovered
/// after the walk from the arbiter's final grant sets (the backfilling
/// arbiter can slip later transfers into earlier holes, so a hole is
/// only final once every grant is placed) and attributed to the request
/// whose grant begins where the hole ends — by construction that
/// request's `ready` time *is* the hole's end.
pub fn multi_overlapped_trace_profiled(
    g: &Graph,
    plan: &ExecutionPlan,
    cluster: &Cluster,
) -> (MultiOutcome, Vec<MultiLaneEvent>, Vec<MultiGapEvent>) {
    // Dynamic sanitizer: on a statically certified schedule, the cluster
    // discipline's own step-granular times must honour every
    // happens-before edge of the certificate.
    #[cfg(debug_assertions)]
    gpuflow_core::assert_hb_consistent(
        g,
        plan,
        &multi_step_times(g, plan, cluster),
        "multi_overlapped_trace",
    );
    let nd = g.num_data();
    let ndev = cluster.len();
    let mut bus = SharedBus::new(cluster.bus.clone());
    // Per device: when each data structure becomes available there, when
    // each buffer was last touched, the commit horizon of its frees, and
    // when its compute engine frees up.
    let mut device_ready = vec![vec![0.0f64; nd]; ndev];
    let mut dev_producer = vec![vec![DevProducer::None; nd]; ndev];
    let mut last_touch = vec![vec![0.0f64; nd]; ndev];
    let mut free_horizon = vec![0.0f64; ndev];
    let mut compute_free = vec![0.0f64; ndev];
    let mut compute_busy = vec![0.0f64; ndev];
    let mut host_ready = vec![0.0f64; nd];
    let mut serial = 0.0f64;
    let mut end = 0.0f64;
    let mut events: Vec<MultiLaneEvent> = Vec::new();
    let mut gaps: Vec<MultiGapEvent> = Vec::new();
    // Every bus grant this walk requested: `(grant_start, cause, label)`
    // per channel, for the post-hoc attribution of final bus holes.
    let mut grants: [Vec<(f64, f64, GapCause, String)>; 2] = [Vec::new(), Vec::new()];

    for step in &plan.steps {
        match *step {
            Step::CopyIn { device, data } => {
                let bytes = g.data(data).bytes();
                // Allocating: wait for host validity and this device's
                // committed frees, then win the bus.
                let rh = host_ready[data.index()];
                let ready = rh.max(free_horizon[device]);
                let (start, fin) = bus.acquire(BusDir::H2d, ready, bytes);
                let cause = if free_horizon[device] >= rh {
                    GapCause::FreeHorizon
                } else {
                    GapCause::WaitDownload
                };
                grants[BusDir::H2d as usize].push((start, fin, cause, g.data(data).name.clone()));
                serial += cluster.bus.transfer_time(bytes);
                device_ready[device][data.index()] = fin;
                dev_producer[device][data.index()] = DevProducer::Upload {
                    contended: start > ready,
                };
                last_touch[device][data.index()] = fin;
                end = end.max(fin);
                events.push(MultiLaneEvent {
                    lane: MultiLane::BusH2d,
                    label: format!("{}>d{device}", g.data(data).name),
                    start,
                    end: fin,
                    bytes,
                });
            }
            Step::CopyOut { device, data } => {
                let bytes = g.data(data).bytes();
                let ready = device_ready[device][data.index()];
                let (start, fin) = bus.acquire(BusDir::D2h, ready, bytes);
                let cause = match dev_producer[device][data.index()] {
                    DevProducer::Upload { .. } => GapCause::WaitUpload,
                    _ => GapCause::WaitCompute,
                };
                grants[BusDir::D2h as usize].push((start, fin, cause, g.data(data).name.clone()));
                serial += cluster.bus.transfer_time(bytes);
                host_ready[data.index()] = host_ready[data.index()].max(fin);
                last_touch[device][data.index()] = last_touch[device][data.index()].max(fin);
                end = end.max(fin);
                events.push(MultiLaneEvent {
                    lane: MultiLane::BusD2h,
                    label: format!("d{device}>{}", g.data(data).name),
                    start,
                    end: fin,
                    bytes,
                });
            }
            Step::Free { device, data } => {
                free_horizon[device] = free_horizon[device].max(last_touch[device][data.index()]);
            }
            Step::Launch(u) => {
                let unit = &plan.units[u];
                let dev = plan.unit_device[u];
                let spec = &cluster.devices[dev];
                let cursor = compute_free[dev];
                // Allocates its outputs: gated by this device's free
                // horizon and its inputs' arrival on this device. Track
                // the binding term — it owns any gap this launch opens; a
                // wait on an upload whose bus grant was delayed past its
                // ready time is cross-device bus contention.
                let mut start = cursor.max(free_horizon[dev]);
                let mut blame = (GapCause::FreeHorizon, String::new());
                for d in unit.external_inputs(g) {
                    let r = device_ready[dev][d.index()];
                    if r > start {
                        start = r;
                        let cause = match dev_producer[dev][d.index()] {
                            DevProducer::Upload { contended: true } => GapCause::BusWait,
                            DevProducer::Upload { contended: false } => GapCause::WaitUpload,
                            _ => GapCause::WaitCompute,
                        };
                        blame = (cause, g.data(d).name.clone());
                    }
                }
                if start > cursor {
                    gaps.push(MultiGapEvent {
                        lane: MultiLane::Compute(dev),
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
                        spec,
                        Work {
                            flops: c.flops,
                            bytes: c.bytes,
                        },
                    );
                    events.push(MultiLaneEvent {
                        lane: MultiLane::Compute(dev),
                        label: node.name.clone(),
                        start: t,
                        end: t + dur,
                        bytes: c.bytes,
                    });
                    t += dur;
                    compute_busy[dev] += dur;
                    serial += dur;
                    device_ready[dev][node.outputs[0].index()] = t;
                    dev_producer[dev][node.outputs[0].index()] = DevProducer::Kernel;
                    for &i in &node.inputs {
                        last_touch[dev][i.index()] = last_touch[dev][i.index()].max(t);
                    }
                    last_touch[dev][node.outputs[0].index()] = t;
                }
                compute_free[dev] = t;
                end = end.max(t);
            }
        }
    }

    // Bus holes: the complement of each channel's final grant set in
    // [0, makespan]. A hole is followed by the grant that begins where it
    // ends (the arbiter starts a delayed grant exactly at its ready
    // time), so that request's wait reason owns the hole; a hole with no
    // following grant is the channel's trailing idle.
    for (ch, lane) in [
        (BusDir::H2d, MultiLane::BusH2d),
        (BusDir::D2h, MultiLane::BusD2h),
    ] {
        let set = &mut grants[ch as usize];
        set.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cursor = 0.0f64;
        for &(s, e, cause, ref label) in set.iter() {
            if s > cursor {
                gaps.push(MultiGapEvent {
                    lane,
                    start: cursor,
                    end: s,
                    cause,
                    waited_on: label.clone(),
                });
            }
            cursor = cursor.max(e);
        }
        if cursor < end {
            gaps.push(MultiGapEvent {
                lane,
                start: cursor,
                end,
                cause: GapCause::Idle,
                waited_on: String::new(),
            });
        }
    }
    // Trailing idle on every device that finished before the makespan.
    for (dev, &free) in compute_free.iter().enumerate() {
        if free < end {
            gaps.push(MultiGapEvent {
                lane: MultiLane::Compute(dev),
                start: free,
                end,
                cause: GapCause::Idle,
                waited_on: String::new(),
            });
        }
    }

    (
        MultiOutcome {
            serial_time: serial,
            makespan: end,
            bus_h2d_busy: bus.busy_time(BusDir::H2d),
            bus_d2h_busy: bus.busy_time(BusDir::D2h),
            compute_busy,
            bus_bytes: bus.bytes_moved(),
        },
        events,
        gaps,
    )
}

/// Step-granular `(start, end)` times of `plan` under the cluster's
/// synchronization discipline, for the dynamic happens-before sanitizer
/// (the cluster analogue of `gpuflow_core::sanitize::overlap_step_times`):
/// each bus channel is an issue-ordered FIFO, each device's compute
/// engine runs its launches atomically in issue order, readers wait for
/// the completion that made their datum available, and allocators wait
/// for the device's committed-free horizon. A `Free` is an instant at its
/// buffer's last touch. These are the exact orderings the happens-before
/// DAG of [`ExecutionPlan::certify`] encodes, so on a certified schedule
/// `ConcurrencyReport::dynamic_violations` over these times is empty —
/// asserted in debug builds on every [`multi_overlapped_trace`] call.
pub fn multi_step_times(g: &Graph, plan: &ExecutionPlan, cluster: &Cluster) -> Vec<(f64, f64)> {
    let nd = g.num_data();
    let ndev = cluster.len();
    let mut device_ready = vec![vec![0.0f64; nd]; ndev];
    let mut last_touch = vec![vec![0.0f64; nd]; ndev];
    let mut free_horizon = vec![0.0f64; ndev];
    let mut compute_free = vec![0.0f64; ndev];
    let mut host_ready = vec![0.0f64; nd];
    let mut h2d_free = 0.0f64;
    let mut d2h_free = 0.0f64;
    let mut times = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        match *step {
            Step::CopyIn { device, data } => {
                let dur = cluster.bus.transfer_time(g.data(data).bytes());
                let start = h2d_free
                    .max(host_ready[data.index()])
                    .max(free_horizon[device]);
                h2d_free = start + dur;
                device_ready[device][data.index()] = h2d_free;
                last_touch[device][data.index()] = h2d_free;
                times.push((start, h2d_free));
            }
            Step::CopyOut { device, data } => {
                let dur = cluster.bus.transfer_time(g.data(data).bytes());
                let start = d2h_free.max(device_ready[device][data.index()]);
                d2h_free = start + dur;
                host_ready[data.index()] = host_ready[data.index()].max(d2h_free);
                last_touch[device][data.index()] = last_touch[device][data.index()].max(d2h_free);
                times.push((start, d2h_free));
            }
            Step::Free { device, data } => {
                let h = last_touch[device][data.index()];
                free_horizon[device] = free_horizon[device].max(h);
                times.push((h, h));
            }
            Step::Launch(u) => {
                let unit = &plan.units[u];
                let dev = plan.unit_device[u];
                let spec = &cluster.devices[dev];
                let mut start = compute_free[dev].max(free_horizon[dev]);
                for d in unit.external_inputs(g) {
                    start = start.max(device_ready[dev][d.index()]);
                }
                let mut dur = 0.0f64;
                for &o in &unit.ops {
                    let node = g.op(o);
                    let ins: Vec<_> = node.inputs.iter().map(|&i| g.shape(i)).collect();
                    let c = op_cost(node.kind, &ins, g.shape(node.outputs[0]));
                    dur += kernel_time(
                        spec,
                        Work {
                            flops: c.flops,
                            bytes: c.bytes,
                        },
                    );
                }
                let end = start + dur;
                compute_free[dev] = end;
                for d in unit.outputs(g) {
                    device_ready[dev][d.index()] = end;
                }
                for &o in &unit.ops {
                    let node = g.op(o);
                    for &i in &node.inputs {
                        last_touch[dev][i.index()] = last_touch[dev][i.index()].max(end);
                    }
                    let out = node.outputs[0].index();
                    last_touch[dev][out] = last_touch[dev][out].max(end);
                }
                times.push((start, end));
            }
        }
    }
    times
}

/// Render the bus lane plus one compute lane per device as an ASCII Gantt
/// chart of `width` character columns.
pub fn render_multi_gantt(
    events: &[MultiLaneEvent],
    makespan: f64,
    ndev: usize,
    width: usize,
) -> String {
    use std::fmt::Write as _;
    let width = width.max(10);
    let mut s = String::new();
    let scale = |t: f64| ((t / makespan.max(1e-12)) * width as f64).round() as usize;
    let mut lanes: Vec<(MultiLane, String, char)> = vec![
        (MultiLane::BusH2d, "BUS>   ".to_string(), '>'),
        (MultiLane::BusD2h, "BUS<   ".to_string(), '<'),
    ];
    for d in 0..ndev {
        lanes.push((MultiLane::Compute(d), format!("GPU{d}   "), '#'));
    }
    for (lane, name, fill) in lanes {
        let mut row = vec![' '; width + 1];
        for e in events.iter().filter(|e| e.lane == lane) {
            let (a, b) = (scale(e.start), scale(e.end).max(scale(e.start) + 1));
            for c in row.iter_mut().take(b.min(width + 1)).skip(a) {
                *c = fill;
            }
        }
        let _ = writeln!(s, "{name}|{}|", row.into_iter().collect::<String>());
    }
    let _ = writeln!(s, "        0{:>w$.4}s", makespan, w = width - 1);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::compile_multi;
    use crate::Cluster;
    use gpuflow_graph::{DataKind, Graph, OpKind, RemapKind};
    use gpuflow_sim::device::tesla_c870;

    fn edge_like(n: usize, k: usize) -> Graph {
        let mut g = Graph::new();
        let img = g.add("Img", n, n, DataKind::Input);
        let ker = g.add("K1", k, k, DataKind::Constant);
        let e = n - (k - 1);
        let e1 = g.add("E1", e, e, DataKind::Temporary);
        let e5 = g.add("E5", e, e, DataKind::Temporary);
        let edg = g.add("Edg", e, e, DataKind::Output);
        g.add_op("C1", OpKind::Conv2d, vec![img, ker], e1).unwrap();
        g.add_op("R1", OpKind::Remap(RemapKind::FlipH), vec![e1], e5)
            .unwrap();
        g.add_op("max", OpKind::EwMax { arity: 2 }, vec![e1, e5], edg)
            .unwrap();
        g
    }

    #[test]
    fn makespan_is_bounded_by_serial_and_busy_times() {
        let g = edge_like(2000, 9);
        for n in [1, 2, 4] {
            let cluster = Cluster::homogeneous(tesla_c870(), n);
            let c = compile_multi(&g, &cluster, 0.05).unwrap();
            let out = multi_overlapped_makespan(&c.sharded.split.graph, &c.plan, &cluster);
            assert!(out.makespan <= out.serial_time + 1e-9, "n={n}: {out:?}");
            assert!(
                out.makespan >= out.busy_lower_bound() - 1e-9,
                "n={n}: {out:?}"
            );
            assert!(out.speedup() >= 1.0);
        }
    }

    #[test]
    fn more_devices_shrink_the_makespan_on_compute_bound_work() {
        let g = edge_like(3000, 16);
        let one = {
            let cluster = Cluster::homogeneous(tesla_c870(), 1);
            let c = compile_multi(&g, &cluster, 0.05).unwrap();
            multi_overlapped_makespan(&c.sharded.split.graph, &c.plan, &cluster).makespan
        };
        let four = {
            let cluster = Cluster::homogeneous(tesla_c870(), 4);
            let c = compile_multi(&g, &cluster, 0.05).unwrap();
            multi_overlapped_makespan(&c.sharded.split.graph, &c.plan, &cluster).makespan
        };
        assert!(
            four < one / 1.6,
            "4 GPUs must beat 1 by well over 1.6x: {one:.4}s vs {four:.4}s"
        );
    }

    #[test]
    fn bus_accounting_matches_the_plan() {
        let g = edge_like(2000, 9);
        let cluster = Cluster::homogeneous(tesla_c870(), 2);
        let c = compile_multi(&g, &cluster, 0.05).unwrap();
        let out = multi_overlapped_makespan(&c.sharded.split.graph, &c.plan, &cluster);
        assert_eq!(out.bus_bytes, c.plan.bus_bytes(&c.sharded.split.graph));
        assert!(out.bus_h2d_busy > 0.0 && out.bus_d2h_busy > 0.0);
        assert_eq!(out.compute_busy.len(), 2);
        assert!(out.compute_busy.iter().all(|&b| b > 0.0));
    }

    #[test]
    fn gaps_and_events_tile_every_cluster_lane_exactly() {
        // Cluster analogue of the single-GPU tiling invariant: busy
        // events plus attributed gaps cover [0, makespan] on both bus
        // channels and every device lane, with shared endpoints.
        let g = edge_like(2000, 9);
        for n in [1usize, 2, 4] {
            let cluster = Cluster::homogeneous(tesla_c870(), n);
            let c = compile_multi(&g, &cluster, 0.05).unwrap();
            let (out, events, gaps) =
                multi_overlapped_trace_profiled(&c.sharded.split.graph, &c.plan, &cluster);
            let mut lanes = vec![MultiLane::BusH2d, MultiLane::BusD2h];
            lanes.extend((0..n).map(MultiLane::Compute));
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
                assert!(!iv.is_empty(), "n={n} {lane:?} has no coverage");
                assert_eq!(iv[0].0, 0.0, "n={n} {lane:?} does not start at 0");
                for w in iv.windows(2) {
                    assert_eq!(
                        w[0].1, w[1].0,
                        "n={n} {lane:?} hole or overlap at {}",
                        w[0].1
                    );
                }
                assert_eq!(
                    iv.last().unwrap().1,
                    out.makespan,
                    "n={n} {lane:?} does not end at the makespan"
                );
            }
        }
    }

    #[test]
    fn gantt_renders_one_lane_per_device() {
        let g = edge_like(1000, 9);
        let cluster = Cluster::homogeneous(tesla_c870(), 2);
        let c = compile_multi(&g, &cluster, 0.05).unwrap();
        let (out, events) = multi_overlapped_trace(&c.sharded.split.graph, &c.plan, &cluster);
        for e in &events {
            assert!(e.end > e.start, "{e:?}");
            assert!(e.end <= out.makespan + 1e-9, "{e:?}");
        }
        let chart = render_multi_gantt(&events, out.makespan, 2, 60);
        // Two bus channels + one lane per device + the time axis.
        assert_eq!(chart.lines().count(), 5);
        assert!(chart.contains("BUS>") && chart.contains("BUS<"));
        assert!(chart.contains("GPU1"));
    }
}
