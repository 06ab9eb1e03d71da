//! Asynchronous transfer/compute overlap — the extension the paper
//! describes but could not evaluate: "Current GPUs have the ability to
//! perform asynchronous data transfer and computation at the same time (as
//! long as they are independent). … We did not overlap computation and
//! communication in our experiments since the GPUs that we used did not
//! support this capability." (§3.3.2)
//!
//! This module is the one simulator of that model. [`simulate`] computes
//! the **overlapped makespan** of an execution plan on a [`Machine`]: one
//! compute lane per `(device, stream)` pair, plus a host→device and a
//! device→host transfer channel granted by one arbiter
//! ([`gpuflow_sim::BusArbiter`]):
//!
//! * steps are issued in plan order, each on its lane;
//! * a kernel launch additionally waits for its external inputs' uploads
//!   (and intra-plan productions) to complete on its device;
//! * a device→host copy additionally waits for the kernel that produced
//!   the data;
//! * an upload of previously downloaded data waits for that download.
//!
//! Memory is respected exactly, per device: a step that *allocates* (an
//! upload, or a launch producing outputs) additionally waits until every
//! `Free` on its device that precedes it in plan order has **committed** —
//! i.e. the last operation touching the freed buffer has completed — so a
//! device never holds more than the plan's validated occupancy.
//! Consequently, moving an upload earlier in the plan (past `Free`s whose
//! space it does not need — see [`crate::prefetch`]) is what legally
//! unlocks prefetching.
//!
//! Two machines exist, and they differ in exactly one thing — how the
//! transfer channels order their grants:
//!
//! * [`Machine::single`]: one device whose two DMA engines are private,
//!   **issue-ordered** FIFOs (the dual-copy-engine arrangement of
//!   post-2009 GPUs). Plans annotated by the stream scheduler
//!   ([`crate::streams`]) run each launch on its assigned stream's clock;
//!   cross-stream dependencies synchronize through the per-datum ready
//!   times — the simulation analogue of recording an event at the
//!   producer and waiting on it at the consumer.
//! * [`Machine::cluster`]: N devices racing one shared full-duplex fabric
//!   that **backfills** — a transfer whose data is ready takes the
//!   earliest idle slot even if it was requested later. This is the
//!   contention that bends the scalability curve: compute capacity grows
//!   with the device count, bus capacity does not.
//!
//! A one-device cluster is therefore *not* the single machine: when a
//! re-upload waits on its download, a later upload overtakes it on the
//! shared fabric and queues behind it on the private engine.
//!
//! The walk allocates nothing per step: [`LaneEvent`]s name what ran by
//! id, launches iterate their inputs, and [`op_kernel_time`] costs each
//! kernel from the graph's shapes in place.

use std::borrow::Cow;

use gpuflow_graph::{DataId, Graph, OpId};
use gpuflow_ops::{op_cost, OpCost};
use gpuflow_sim::{kernel_time, timing::Work, BusArbiter, BusDir, BusSpec, DeviceSpec};
use gpuflow_trace::{PID_CLUSTER, PID_OVERLAP};
pub use gpuflow_verify::Lane;

use crate::plan::{ExecutionPlan, Step};

/// The machine a plan is simulated on: its devices, the link their
/// transfers cross, and — fixed by the constructor, never by a caller —
/// whether that link is one device's private DMA engines or a fabric the
/// whole cluster shares.
#[derive(Debug, Clone)]
pub struct Machine<'a> {
    /// The devices, indexed by the plan's device ids.
    pub devices: &'a [DeviceSpec],
    /// The host↔device link every transfer is timed against.
    pub bus: BusSpec,
    shared_bus: bool,
}

impl<'a> Machine<'a> {
    /// One device with its own issue-ordered DMA engines.
    pub fn single(dev: &'a DeviceSpec) -> Machine<'a> {
        Machine {
            devices: std::slice::from_ref(dev),
            bus: BusSpec::from_device(dev),
            shared_bus: false,
        }
    }

    /// `devices` behind one shared, backfilling fabric `bus`.
    pub fn cluster(devices: &'a [DeviceSpec], bus: &BusSpec) -> Machine<'a> {
        Machine {
            devices,
            bus: bus.clone(),
            shared_bus: true,
        }
    }

    /// Whether transfers arbitrate for a fabric shared by the cluster
    /// (backfilling) rather than a private issue-ordered engine. On a
    /// shared fabric same-channel program order is not enforced, so only
    /// the dependency critical path lower-bounds the makespan.
    pub fn shared_bus(&self) -> bool {
        self.shared_bus
    }

    fn arbiter(&self) -> BusArbiter {
        if self.shared_bus {
            BusArbiter::shared(self.bus.clone())
        } else {
            BusArbiter::private(self.bus.clone())
        }
    }

    /// The machine's lanes when each device runs `streams` compute streams.
    pub fn lanes(&self, streams: usize) -> LaneTable {
        LaneTable::new(self.shared_bus, self.devices.len(), streams)
    }
}

/// One engine of a [`LaneTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneInfo {
    /// The engine, in the certifier's lane vocabulary.
    pub lane: Lane,
    /// Profile/JSON label (`h2d`, `bus-h2d`, `gpu0`, `gpu0s1`, …).
    pub label: String,
    /// Display position: the Gantt row and the Chrome-trace thread id.
    pub row: usize,
    /// Gantt row prefix, separator included.
    pub(crate) gantt: String,
    /// Chrome-trace thread name.
    pub(crate) thread: String,
}

/// The engines of a simulated machine, indexed `h2d = 0`, `d2h = 1`, then
/// compute lane `(device, stream)` at `2 + device · streams + stream`.
/// Every consumer of a simulation — profile attribution, the Gantt chart,
/// the trace export — reads its lane names and order from here.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneTable {
    pub(crate) shared_bus: bool,
    streams: usize,
    /// The lanes, in index order.
    pub lanes: Vec<LaneInfo>,
}

impl LaneTable {
    fn new(shared_bus: bool, devices: usize, streams: usize) -> LaneTable {
        let streams = streams.max(1);
        let compute = devices * streams;
        let info = |lane, label: &str, row, gantt: &str, thread: &str| LaneInfo {
            lane,
            label: label.to_string(),
            row,
            gantt: gantt.to_string(),
            thread: thread.to_string(),
        };
        // A private device shows its engines in dataflow order (upload,
        // compute, download); a cluster shows the shared fabric first.
        let mut lanes = if shared_bus {
            vec![
                info(Lane::H2d, "bus-h2d", 0, "BUS>   |", "bus H2D"),
                info(Lane::D2h, "bus-d2h", 1, "BUS<   |", "bus D2H"),
            ]
        } else {
            vec![
                info(Lane::H2d, "h2d", 0, "H->D    |", "H2D DMA"),
                info(Lane::D2h, "d2h", 1 + compute, "D->H    |", "D2H DMA"),
            ]
        };
        for c in 0..compute {
            let (d, s) = (c / streams, c % streams);
            // One stream per device keeps the classic names, so
            // unannotated plans render byte-identically.
            let (sfx, stream) = if streams == 1 {
                (String::new(), String::new())
            } else {
                (format!("s{s}"), format!(" s{s}"))
            };
            let (row, gantt, thread) = match (shared_bus, streams) {
                (true, _) => (
                    2 + c,
                    format!("GPU{d}{sfx}"),
                    format!("GPU{d} compute{stream}"),
                ),
                (false, 1) => (1 + c, "COMPUTE ".to_string(), "compute".to_string()),
                (false, _) => (1 + c, format!("COMP{stream} "), format!("compute{stream}")),
            };
            lanes.push(LaneInfo {
                lane: Lane::compute(d, s),
                label: format!("gpu{d}{sfx}"),
                row,
                gantt: format!("{gantt:<7}|"),
                thread,
            });
        }
        LaneTable {
            shared_bus,
            streams,
            lanes,
        }
    }

    /// Index of `lane` in [`LaneTable::lanes`]. Panics on [`Lane::Host`],
    /// which no simulated event runs on.
    pub fn index(&self, lane: Lane) -> usize {
        match lane {
            Lane::H2d => 0,
            Lane::D2h => 1,
            other => {
                let (d, s) = other
                    .device_stream()
                    .expect("simulated events run on an engine, never on the host lane");
                2 + d * self.streams + s
            }
        }
    }

    /// Chrome-trace process id and name of the track the lanes render on.
    pub(crate) fn process(&self) -> (u32, &'static str) {
        if self.shared_bus {
            (PID_CLUSTER, "cluster (simulated, shared bus)")
        } else {
            (PID_OVERLAP, "overlapped engines (simulated)")
        }
    }

    /// The lanes in display order (Gantt rows top to bottom, trace threads
    /// by id).
    pub(crate) fn by_row(&self) -> Vec<&LaneInfo> {
        let mut rows: Vec<_> = self.lanes.iter().collect();
        rows.sort_by_key(|l| l.row);
        rows
    }

    /// The table to *draw* `events` on: trailing compute streams no event
    /// ran on get no row (a `--streams 8` plan that uses four shows four),
    /// so the chart and the trace export size themselves from what ran.
    pub(crate) fn shown(&self, events: &[LaneEvent]) -> LaneTable {
        let seen = events
            .iter()
            .filter_map(|e| e.lane.device_stream())
            .map(|(_, s)| s + 1)
            .max()
            .unwrap_or(1);
        let devices = (self.lanes.len() - 2) / self.streams;
        LaneTable::new(self.shared_bus, devices, seen)
    }
}

/// Result of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapOutcome {
    /// Makespan with every engine serialized on one timeline (the paper's
    /// evaluation model; equals the serial executor's total time).
    pub serial_time: f64,
    /// Makespan with concurrent transfer channels and compute lanes.
    pub makespan: f64,
    /// Busy time of the host→device channel.
    pub h2d_busy: f64,
    /// Busy time of the device→host channel.
    pub d2h_busy: f64,
    /// Busy time of each compute lane, in `(device, stream)` order: one
    /// entry per stream on a single device, one per device on a cluster.
    pub compute_busy: Vec<f64>,
    /// Bytes that crossed the link (both directions).
    pub bus_bytes: u64,
}

impl OverlapOutcome {
    /// Speedup of overlapping over serial execution (≥ 1). A plan with no
    /// timed work at all (`makespan == 0`, e.g. an empty graph or a
    /// step-less plan) reports a neutral 1.0 rather than dividing by zero.
    pub fn speedup(&self) -> f64 {
        if self.makespan <= 0.0 {
            1.0
        } else {
            self.serial_time / self.makespan
        }
    }

    /// Total transfer busy time across both channels.
    pub fn copy_busy(&self) -> f64 {
        self.h2d_busy + self.d2h_busy
    }

    /// Total busy time across all compute lanes.
    pub fn compute_total(&self) -> f64 {
        self.compute_busy.iter().sum()
    }

    /// A makespan lower bound from engine occupancy alone: no schedule can
    /// finish before its busiest engine has done all its work, so
    /// `makespan ≥ max(h2d, d2h, busiest compute lane)` always holds.
    /// Property tests pin the simulation between this bound and
    /// `serial_time`.
    pub fn busy_lower_bound(&self) -> f64 {
        self.compute_busy
            .iter()
            .fold(self.h2d_busy.max(self.d2h_busy), |m, &b| m.max(b))
    }

    /// Busy fraction of each engine of a single device over the makespan,
    /// in rendering order: h2d, each compute stream, d2h. Zero-makespan
    /// plans report zero utilization everywhere.
    pub fn utilization(&self) -> Vec<(String, f64)> {
        let frac = |busy: f64| {
            if self.makespan <= 0.0 {
                0.0
            } else {
                busy / self.makespan
            }
        };
        let mut rows = vec![("h2d".to_string(), frac(self.h2d_busy))];
        for (s, &b) in self.compute_busy.iter().enumerate() {
            let name = if self.compute_busy.len() == 1 {
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

/// What a [`LaneEvent`] ran, by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneWork {
    /// An operator's kernel.
    Op(OpId),
    /// A transfer of `data` to or from `device`; the event's lane says
    /// which way.
    Copy {
        /// The datum moved.
        data: DataId,
        /// The device it moved to or from.
        device: usize,
    },
}

/// One scheduled interval in the overlapped execution. It names what ran
/// by id; [`LaneEvent::label`] renders the text for a consumer that shows it.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneEvent {
    /// Engine.
    pub lane: Lane,
    /// What ran.
    pub what: LaneWork,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Bytes moved: PCIe bytes for the transfer channels, device-memory
    /// traffic for compute. Sourced from the same [`Graph`] sizes the plan
    /// validator and [`crate::plan::PlanStats`] use, so traces reconcile
    /// exactly with plan statistics; transfer bytes sum to
    /// [`OverlapOutcome::bus_bytes`].
    pub bytes: u64,
}

impl LaneEvent {
    /// What ran, as text: the operator name, or the data name of a
    /// transfer — `Img>d1` / `d1>Img` on a shared fabric (`shared_bus`),
    /// which serves every device.
    pub fn label<'g>(&self, g: &'g Graph, shared_bus: bool) -> Cow<'g, str> {
        let (name, device) = match self.what {
            LaneWork::Op(o) => return Cow::Borrowed(&g.op(o).name),
            LaneWork::Copy { data, device } => (&g.data(data).name, device),
        };
        match (shared_bus, self.lane) {
            (false, _) => Cow::Borrowed(name),
            (true, Lane::D2h) => Cow::Owned(format!("d{device}>{name}")),
            (true, _) => Cow::Owned(format!("{name}>d{device}")),
        }
    }
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
    /// Waiting for an upload that an earlier grant on the shared fabric
    /// held past its ready time ([`gpuflow_sim::Grant::contended`]). The
    /// earlier grant may be the same device's own copy, so a one-device
    /// cluster reports it too; never emitted on a private link, whose
    /// queued uploads count as [`GapCause::WaitUpload`].
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
}

/// Everything one [`simulate`] call produces.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulation {
    /// Makespans and per-engine busy times.
    pub outcome: OverlapOutcome,
    /// The machine's engines; `events` and `gaps` index it by lane.
    pub lanes: LaneTable,
    /// Busy intervals, in issue order.
    pub events: Vec<LaneEvent>,
    /// Attributed idle intervals. With `events` they tile `[0, makespan]`
    /// on every lane exactly — the foundation of `gpuflow profile`'s
    /// reconciled bottleneck breakdown.
    pub gaps: Vec<GapEvent>,
}

/// What produced a device's current copy of a datum — used to attribute a
/// dependency wait to upload, bus contention, or (cross-stream) compute.
#[derive(Debug, Clone, Copy)]
enum Producer {
    /// Initial host data; never the binding term of a positive gap.
    None,
    /// A host→device copy, and whether the arbiter reported its grant as
    /// held back by an earlier grant on a shared fabric. (The host-side
    /// producer is always a download, so `host_ready` waits need no
    /// producer tracking.)
    Upload { contended: bool },
    /// A kernel on the given compute lane.
    Kernel(usize),
}

/// Simulate `plan` on `machine` with concurrent transfer channels and
/// compute lanes, attributing every idle interval of every engine to a
/// [`GapCause`]. Compute-lane gaps are attributed online from the binding
/// `max` term; channel gaps are recovered after the walk from the final
/// grant sets (a backfilling arbiter can slip later transfers into earlier
/// holes, so a hole is only final once every grant is placed) and owned by
/// the request whose grant begins where the hole ends — by construction
/// that request's ready time *is* the hole's end.
pub fn simulate(g: &Graph, plan: &ExecutionPlan, machine: &Machine) -> Simulation {
    #[cfg(debug_assertions)]
    {
        let capacities: Vec<u64> = machine.devices.iter().map(|d| d.memory_bytes).collect();
        crate::plan::debug_check_plan(g, plan, &capacities, "simulate");
        // Dynamic sanitizer: the lane discipline's own step times must
        // honour every happens-before edge of the certificate.
        let times = crate::sanitize::step_times(g, plan, machine);
        crate::sanitize::assert_hb_consistent(g, plan, &times, "simulate");
    }
    let nd = g.num_data();
    let ndev = machine.devices.len();
    // Stream annotation: k concurrent kernel streams per device, each
    // launch pinned to one. Unannotated plans run everything on stream 0.
    let (unit_stream, k) = match &plan.streams {
        Some(s) => (s.unit_stream.as_slice(), s.num_streams.max(1)),
        None => (&[][..], 1),
    };
    let lanes = machine.lanes(k);
    let mut bus = machine.arbiter();
    // Flat `device · nd + data` state: when each datum becomes available
    // on each device and what produced that copy, and when each buffer was
    // last touched. Per device, the running commit horizon of all Frees
    // seen so far in plan order; per compute lane, its clock.
    let slot = |device: usize, d: usize| device * nd + d;
    let mut device_ready = vec![0.0f64; ndev * nd];
    let mut dev_producer = vec![Producer::None; ndev * nd];
    let mut last_touch = vec![0.0f64; ndev * nd];
    let mut free_horizon = vec![0.0f64; ndev];
    let mut host_ready = vec![0.0f64; nd];
    let mut lane_free = vec![0.0f64; ndev * k];
    let mut compute_busy = vec![0.0f64; ndev * k];
    let mut serial = 0.0f64;
    let mut end = 0.0f64;
    let mut events: Vec<LaneEvent> = Vec::with_capacity(plan.steps.len());
    let mut gaps: Vec<GapEvent> = Vec::new();
    // Every grant this walk requested — `(start, end, wait reason)` per
    // channel — for the attribution of final channel holes.
    let mut grants: [Vec<(f64, f64, GapCause)>; 2] = [Vec::new(), Vec::new()];

    for step in &plan.steps {
        match *step {
            Step::CopyIn { device, data } => {
                let bytes = g.data(data).bytes();
                // Allocating: wait for host validity and for this device's
                // earlier Frees to have released their space, then win the
                // channel.
                let ready_host = host_ready[data.index()];
                let ready = ready_host.max(free_horizon[device]);
                let grant = bus.acquire(BusDir::H2d, ready, bytes);
                // The larger of the two non-channel terms owns the wait.
                let cause = if free_horizon[device] >= ready_host {
                    GapCause::FreeHorizon
                } else {
                    GapCause::WaitDownload
                };
                grants[BusDir::H2d as usize].push((grant.start, grant.end, cause));
                serial += machine.bus.transfer_time(bytes);
                let at = slot(device, data.index());
                device_ready[at] = grant.end;
                dev_producer[at] = Producer::Upload {
                    contended: grant.contended,
                };
                last_touch[at] = grant.end;
                end = end.max(grant.end);
                events.push(LaneEvent {
                    lane: Lane::H2d,
                    what: LaneWork::Copy { data, device },
                    start: grant.start,
                    end: grant.end,
                    bytes,
                });
            }
            Step::CopyOut { device, data } => {
                let bytes = g.data(data).bytes();
                let at = slot(device, data.index());
                let grant = bus.acquire(BusDir::D2h, device_ready[at], bytes);
                let cause = match dev_producer[at] {
                    Producer::Upload { .. } => GapCause::WaitUpload,
                    _ => GapCause::WaitCompute,
                };
                grants[BusDir::D2h as usize].push((grant.start, grant.end, cause));
                serial += machine.bus.transfer_time(bytes);
                host_ready[data.index()] = host_ready[data.index()].max(grant.end);
                last_touch[at] = last_touch[at].max(grant.end);
                end = end.max(grant.end);
                events.push(LaneEvent {
                    lane: Lane::D2h,
                    what: LaneWork::Copy { data, device },
                    start: grant.start,
                    end: grant.end,
                    bytes,
                });
            }
            Step::Free { device, data } => {
                free_horizon[device] =
                    free_horizon[device].max(last_touch[slot(device, data.index())]);
            }
            Step::Launch(u) => {
                let unit = &plan.units[u];
                let dev = plan.unit_device[u];
                let spec = &machine.devices[dev];
                let s = unit_stream.get(u).copied().unwrap_or(0).min(k - 1);
                let c = dev * k + s;
                let lane = Lane::compute(dev, s);
                let cursor = lane_free[c];
                // Allocates its outputs: also gated by the device's free
                // horizon. Waiting on each input's `device_ready` is the
                // event semantics: the producer (upload or another
                // stream's kernel) recorded its completion there. Track
                // which term ends up binding — it owns any gap this launch
                // opens.
                let mut start = cursor.max(free_horizon[dev]);
                let mut blame = GapCause::FreeHorizon;
                for d in unit.external_inputs(g) {
                    let at = slot(dev, d.index());
                    if device_ready[at] > start {
                        start = device_ready[at];
                        blame = match dev_producer[at] {
                            Producer::Upload { contended: true } => GapCause::BusWait,
                            Producer::Upload { contended: false } => GapCause::WaitUpload,
                            Producer::Kernel(c2) if c2 != c => GapCause::WaitStream,
                            _ => GapCause::WaitCompute,
                        };
                    }
                }
                if start > cursor {
                    gaps.push(GapEvent {
                        lane,
                        start: cursor,
                        end: start,
                        cause: blame,
                    });
                }
                let mut t = start;
                for &o in &unit.ops {
                    let node = g.op(o);
                    let (dur, work) = op_kernel_time(g, o, spec);
                    events.push(LaneEvent {
                        lane,
                        what: LaneWork::Op(o),
                        start: t,
                        end: t + dur,
                        bytes: work.bytes,
                    });
                    t += dur;
                    compute_busy[c] += dur;
                    serial += dur;
                    let out = slot(dev, node.outputs[0].index());
                    device_ready[out] = t;
                    dev_producer[out] = Producer::Kernel(c);
                    for &i in &node.inputs {
                        let at = slot(dev, i.index());
                        last_touch[at] = last_touch[at].max(t);
                    }
                    last_touch[out] = t;
                }
                lane_free[c] = t;
                end = end.max(t);
            }
        }
    }

    // Channel holes: the complement of each channel's final grant set in
    // [0, makespan]. A hole is followed by the grant that begins where it
    // ends (a delayed grant starts exactly at its ready time), so that
    // request's wait reason owns the hole; a hole with no following grant
    // is the channel's trailing idle. On an issue-ordered channel the
    // grants are already sorted and this is the online attribution.
    for (ch, lane) in [(BusDir::H2d, Lane::H2d), (BusDir::D2h, Lane::D2h)] {
        let set = &mut grants[ch as usize];
        set.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cursor = 0.0f64;
        for &(start, fin, cause) in set.iter() {
            if start > cursor {
                gaps.push(GapEvent {
                    lane,
                    start: cursor,
                    end: start,
                    cause,
                });
            }
            cursor = cursor.max(fin);
        }
        if cursor < end {
            gaps.push(GapEvent {
                lane,
                start: cursor,
                end,
                cause: GapCause::Idle,
            });
        }
    }
    // Trailing idle: every compute lane that finished before the makespan
    // sat unoccupied until the end — the load-imbalance remainder that
    // makes each lane's busy + attributed-idle sum to the makespan exactly.
    for (c, &free) in lane_free.iter().enumerate() {
        if free < end {
            gaps.push(GapEvent {
                lane: Lane::compute(c / k, c % k),
                start: free,
                end,
                cause: GapCause::Idle,
            });
        }
    }

    Simulation {
        outcome: OverlapOutcome {
            serial_time: serial,
            makespan: end,
            h2d_busy: bus.busy_time(BusDir::H2d),
            d2h_busy: bus.busy_time(BusDir::D2h),
            compute_busy,
            bus_bytes: bus.bytes_moved(),
        },
        lanes,
        events,
        gaps,
    }
}

/// Kernel time of operator `op` on `dev` and the work it is charged for:
/// the one per-op accounting of every plan walk, allocation-free.
pub fn op_kernel_time(g: &Graph, op: OpId, dev: &DeviceSpec) -> (f64, Work) {
    let node = g.op(op);
    let shapes = node.inputs.iter().map(|&d| g.shape(d));
    let OpCost { flops, bytes } = op_cost(node.kind, shapes, g.shape(node.outputs[0]));
    let work = Work { flops, bytes };
    (kernel_time(dev, work), work)
}

/// [`simulate`] on a single device, keeping only the outcome.
pub fn overlapped_makespan(g: &Graph, plan: &ExecutionPlan, dev: &DeviceSpec) -> OverlapOutcome {
    simulate(g, plan, &Machine::single(dev)).outcome
}

/// The one field of a single-device simulation `perf/src/layers.rs` reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlappedTime {
    /// [`OverlapOutcome::makespan`].
    pub overlapped_time: f64,
}

/// Frozen adapter (DESIGN.md "Frozen adapter names"): the benchmark
/// harness calls `overlapped_trace(g, plan, dev).0.overlapped_time` and
/// never reads the id-carrying events. Everything else calls [`simulate`].
pub fn overlapped_trace(
    g: &Graph,
    plan: &ExecutionPlan,
    dev: &DeviceSpec,
) -> (OverlappedTime, Vec<LaneEvent>) {
    let sim = simulate(g, plan, &Machine::single(dev));
    let overlapped_time = sim.outcome.makespan;
    (OverlappedTime { overlapped_time }, sim.events)
}

/// Render the engine lanes of `lanes` as an ASCII Gantt chart of `width`
/// character columns, one row per lane in display order (compute streams
/// no event ran on get no row).
pub fn render_gantt(
    lanes: &LaneTable,
    events: &[LaneEvent],
    makespan: f64,
    width: usize,
) -> String {
    use std::fmt::Write as _;
    let width = width.max(10);
    let mut s = String::new();
    let scale = |t: f64| ((t / makespan.max(1e-12)) * width as f64).round() as usize;
    let shown = lanes.shown(events);
    for info in shown.by_row() {
        let fill = match info.lane {
            Lane::H2d => '>',
            Lane::D2h => '<',
            _ => '#',
        };
        let mut row = vec![' '; width + 1];
        for e in events.iter().filter(|e| e.lane == info.lane) {
            let (a, b) = (scale(e.start), scale(e.end).max(scale(e.start) + 1));
            for c in row.iter_mut().take(b.min(width + 1)).skip(a) {
                *c = fill;
            }
        }
        let _ = writeln!(s, "{}{}|", info.gantt, row.into_iter().collect::<String>());
    }
    let _ = writeln!(s, "        0{:>w$.4}s", makespan, w = width - 1);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_plan;
    use crate::examples::{fig3_graph, fig3_memory_bytes};
    use crate::framework::Framework;
    use crate::sanitize::serial_step_times;
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
    fn overlap_never_slower_and_serial_matches_the_serial_clock() {
        let g = edge_graph();
        let dev = tesla_c870();
        let compiled = Framework::new(dev.clone()).compile(&g).unwrap();
        let out = overlapped_makespan(&compiled.split.graph, &compiled.plan, &dev);
        assert!(out.makespan <= out.serial_time + 1e-12);
        assert!(out.speedup() >= 1.0 - SPEEDUP_EPS);
        // Serial accounting equals the serial shadow clock's end time.
        let times = serial_step_times(&compiled.split.graph, &compiled.plan, &dev);
        assert!((out.serial_time - times.last().unwrap().1).abs() < 1e-9);
        // Engine busy times partition the serial time.
        assert!((out.copy_busy() + out.compute_total() - out.serial_time).abs() < 1e-9);
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
        assert!(out.makespan >= out.h2d_busy.max(out.d2h_busy).max(out.compute_total()) - 1e-12);
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
            after.makespan < before.makespan - 1e-12,
            "hoisting must help: {:.4} !< {:.4}",
            after.makespan,
            before.makespan
        );
        assert!((after.serial_time - before.serial_time).abs() < 1e-9);
    }

    #[test]
    fn trace_and_gantt_render() {
        let g = edge_graph();
        let dev = tesla_c870();
        let compiled = Framework::new(dev.clone()).compile(&g).unwrap();
        let sim = compiled.simulate();
        let (out, events) = (&sim.outcome, &sim.events);
        assert!(!events.is_empty());
        // Every event lies within the makespan and has positive duration.
        for e in events {
            assert!(e.end > e.start, "{e:?}");
            assert!(e.end <= out.makespan + 1e-9, "{e:?}");
        }
        // All three lanes appear for this plan.
        for lane in [Lane::H2d, Lane::Compute(0), Lane::D2h] {
            assert!(events.iter().any(|e| e.lane == lane), "{lane:?} missing");
        }
        let chart = render_gantt(&sim.lanes, events, out.makespan, 60);
        assert_eq!(chart.lines().count(), 4);
        assert!(chart.contains("COMPUTE"));
        assert!(chart.contains('#'));
        assert!(chart.contains('>'));
    }

    #[test]
    fn lane_event_labels_render_the_names() {
        use gpuflow_graph::{DataKind, OpKind};
        let mut g = Graph::new();
        let img = g.add("Img", 4, 4, DataKind::Input);
        let e1 = g.add("E1", 4, 4, DataKind::Output);
        let c1 = g.add_op("C1", OpKind::Tanh, vec![img], e1).unwrap();
        let event = |lane, what| LaneEvent {
            lane,
            what,
            start: 0.0,
            end: 1.0,
            bytes: 0,
        };
        let copy = LaneWork::Copy {
            data: img,
            device: 1,
        };
        let (up, down) = (event(Lane::H2d, copy), event(Lane::D2h, copy));
        let kernel = event(Lane::Compute(1), LaneWork::Op(c1));
        // One device: the bare names, borrowed from the graph.
        for (e, want) in [(&up, "Img"), (&down, "Img"), (&kernel, "C1")] {
            assert!(matches!(e.label(&g, false), Cow::Borrowed(s) if s == want));
        }
        // A shared fabric says which device a transfer serves.
        assert_eq!(up.label(&g, true), "Img>d1");
        assert_eq!(down.label(&g, true), "d1>Img");
        assert_eq!(kernel.label(&g, true), "C1");
    }

    #[test]
    fn zero_makespan_speedup_is_neutral() {
        // A plan with no timed work must not divide by zero (satellite of
        // the stream-scheduler PR): an empty outcome reports exactly 1.0.
        let out = OverlapOutcome {
            serial_time: 0.0,
            makespan: 0.0,
            h2d_busy: 0.0,
            d2h_busy: 0.0,
            compute_busy: vec![0.0],
            bus_bytes: 0,
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
        let sim = compiled.simulate();
        let (out, events) = (&sim.outcome, &sim.events);
        let lane_sum = |lane: Lane| -> f64 {
            events
                .iter()
                .filter(|e| e.lane == lane)
                .map(|e| e.end - e.start)
                .sum()
        };
        assert!((lane_sum(Lane::H2d) - out.h2d_busy).abs() < 1e-12);
        assert!((lane_sum(Lane::D2h) - out.d2h_busy).abs() < 1e-12);
        assert_eq!(out.compute_busy.len(), 1);
        assert!((lane_sum(Lane::Compute(0)) - out.compute_busy[0]).abs() < 1e-12);
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
            let sim = compiled.simulate();
            let (out, events, gaps) = (&sim.outcome, &sim.events, &sim.gaps);
            assert_eq!(sim.lanes.lanes.len(), 2 + out.compute_busy.len());
            for lane in sim.lanes.lanes.iter().map(|l| l.lane) {
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
                    out.makespan,
                    "{lane:?} does not end at the makespan"
                );
            }
            // Gap causes stay within the single-device taxonomy.
            assert!(gaps.iter().all(|e| e.cause != GapCause::BusWait));
        }
    }

    #[test]
    fn bus_wait_counts_a_devices_own_earlier_copies() {
        // The kernel's second input queues behind the first upload on the
        // same device. On a one-device cluster that queueing is a bus wait
        // — no other device exists — and on the private engine it is an
        // exposed upload; the channel does the same work either way.
        let g = edge_graph();
        let dev = tesla_c870();
        let plan = Framework::new(dev.clone()).compile(&g).unwrap().plan;
        let bus_wait = |sim: &Simulation| -> f64 {
            sim.gaps
                .iter()
                .filter(|e| e.cause == GapCause::BusWait)
                .map(|e| e.end - e.start)
                .sum()
        };
        let devices = [dev.clone()];
        let cluster = simulate(
            &g,
            &plan,
            &Machine::cluster(&devices, &BusSpec::from_device(&dev)),
        );
        let single = simulate(&g, &plan, &Machine::single(&dev));
        assert!(bus_wait(&cluster) > 0.0, "{:?}", cluster.gaps);
        assert_eq!(bus_wait(&single), 0.0);
        assert_eq!(cluster.outcome.h2d_busy, single.outcome.h2d_busy);
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
        let first_upload = gpuflow_sim::transfer_time(&dev, 2 * 256 * 4);
        assert!(out.makespan >= first_upload);
    }
}
