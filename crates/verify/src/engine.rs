//! The residency-dataflow engine: one forward walk over a plan's step
//! sequence that simultaneously
//!
//! * checks every residency, precedence and capacity invariant the
//!   framework guarantees — per device, plus host validity, so a plan for
//!   one GPU and a plan for a cluster are the same walk,
//! * computes transfer/occupancy statistics ([`PlanStats`]), and
//! * optionally runs efficiency lints (redundant transfers, free/reload
//!   thrash, dead copy-outs, Belady-suboptimal evictions).
//!
//! This module also owns the plan IR: [`Step`] is the only step type in
//! the workspace (`gpuflow_core::Step` re-exports it), and [`PlanView`]
//! is the neutral form every analysis in this crate consumes. The crate
//! sits below the schedulers in the crate graph, so the planners, the
//! code generators and the CLI all share the one definition.
//!
//! Inter-device communication is *staged*: a `CopyOut` on the producer's
//! device makes the bytes host-valid and a later `CopyIn` on the
//! consumer's device materializes them there. A single GPU is a cluster
//! of one — it simply never stages.
//!
//! Diagnostic codes are a user-facing contract, so the vocabulary follows
//! the cluster size (`capacities.len()`): a one-device plan is reported
//! with the `GF0012`–`GF0023` codes, a plan over several devices with the
//! `GF003x` codes that name the device involved.

use gpuflow_graph::{Csr, DataId, DataKind, Graph};

use crate::diag::{Diagnostic, Location};

/// Diagnostic codes emitted by the plan engine.
pub mod codes {
    /// A step references a data id outside the graph.
    pub const UNKNOWN_DATA: &str = "GF0010";
    /// A launch references a unit index outside the plan.
    pub const UNKNOWN_UNIT: &str = "GF0011";
    /// `CopyIn` of data that is not currently valid on the host.
    pub const COPYIN_NOT_ON_HOST: &str = "GF0012";
    /// `CopyIn` of data already resident on the device.
    pub const COPYIN_RESIDENT: &str = "GF0013";
    /// `CopyOut` of data not resident on the device.
    pub const COPYOUT_NOT_RESIDENT: &str = "GF0014";
    /// `Free` of data not resident on the device (double free).
    pub const FREE_NOT_RESIDENT: &str = "GF0015";
    /// A unit is launched more than once.
    pub const DOUBLE_LAUNCH: &str = "GF0016";
    /// A launch reads data that is not resident (use after free).
    pub const INPUT_NOT_RESIDENT: &str = "GF0017";
    /// A launch reads produced data before its producer has run.
    pub const INPUT_NOT_PRODUCED: &str = "GF0018";
    /// A launch writes data that is already resident.
    pub const OUTPUT_RESIDENT: &str = "GF0019";
    /// Device occupancy exceeds the memory budget.
    pub const OVER_CAPACITY: &str = "GF0020";
    /// A unit is never launched.
    pub const NEVER_LAUNCHED: &str = "GF0021";
    /// A template output is not on the host when the plan ends.
    pub const OUTPUT_NOT_DELIVERED: &str = "GF0022";
    /// Internal occupancy accounting underflowed (engine self-check).
    pub const ACCOUNTING_UNDERFLOW: &str = "GF0023";

    /// A launch reads data resident on a different device than the one it
    /// runs on — a shard assigned to the wrong device, or a missing
    /// device→host→device staged copy.
    pub const INPUT_ON_OTHER_DEVICE: &str = "GF0030";
    /// A `CopyIn` of produced data whose bytes were never made host-valid:
    /// the staging `CopyOut` on the producer's device is missing or comes
    /// later (a transfer race on the shared bus).
    pub const TRANSFER_NOT_STAGED: &str = "GF0031";
    /// A device's occupancy exceeds that device's memory capacity.
    pub const DEVICE_OVER_CAPACITY: &str = "GF0032";
    /// `CopyOut`/`Free` names a device where the data is not resident.
    pub const NOT_RESIDENT_ON_DEVICE: &str = "GF0033";
    /// A launch reads data that is resident on no device at all.
    pub const INPUT_ON_NO_DEVICE: &str = "GF0034";
    /// A step (or a unit's placement) names a device outside the cluster.
    pub const UNKNOWN_DEVICE: &str = "GF0035";

    /// Lint: repeated `CopyIn` of the same data.
    pub const LINT_REDUNDANT_COPYIN: &str = "GF0101";
    /// Lint: `Free` immediately undone by `CopyIn` with no launch between.
    pub const LINT_FREE_THRASH: &str = "GF0102";
    /// Lint: `CopyOut` whose bytes are never needed on the host.
    pub const LINT_DEAD_COPYOUT: &str = "GF0103";
    /// Lint: eviction choice contradicts Belady's rule.
    pub const LINT_NON_BELADY_EVICTION: &str = "GF0104";
}

/// One step of an execution plan. Transfers and frees name the device
/// whose memory they touch; a launch runs on its unit's assigned device
/// ([`PlanView::unit_device`]). Single-GPU plans use device `0`
/// throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Copy a data structure from host to device memory.
    CopyIn {
        /// Target device.
        device: usize,
        /// The data moved.
        data: DataId,
    },
    /// Copy a data structure from device to host memory.
    CopyOut {
        /// Source device.
        device: usize,
        /// The data moved.
        data: DataId,
    },
    /// Release a data structure's device buffer.
    Free {
        /// Device holding the buffer.
        device: usize,
        /// The data freed.
        data: DataId,
    },
    /// Launch offload unit `usize` (index into the plan's unit list).
    /// Device buffers for the unit's outputs are allocated as part of the
    /// launch.
    Launch(usize),
}

/// A plan as the analyses of this crate see it: the plan's own steps,
/// placement and pinned data, borrowed, beside the dataflow boundary of
/// each offload unit — its external inputs (data produced outside the
/// unit, deduplicated, in first-use order) and every data structure it
/// produces. The boundaries of all units share one flat array, so a view
/// allocates a fixed number of times however many units the plan has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanView<'a> {
    /// Device each unit launches on (indexed by [`Step::Launch`]).
    pub unit_device: &'a [usize],
    /// The global step sequence (interleaved across devices).
    pub steps: &'a [Step],
    /// Data valid on the host *before* the plan starts, beyond what
    /// `DataKind::starts_on_cpu` implies. Failover replanning pins the
    /// completed prefix's results here: the suffix plan may `CopyIn` them
    /// without a staging `CopyOut`, and pinned template outputs count as
    /// already delivered. Empty for ordinary plans.
    pub pinned_host: &'a [DataId],
    /// Every unit's inputs, then its outputs, unit after unit.
    io: Vec<DataId>,
    /// Boundaries in `io`: unit `u` reads `io[bounds[2u]..bounds[2u + 1]]`
    /// and writes `io[bounds[2u + 1]..bounds[2u + 2]]`.
    bounds: Vec<u32>,
}

impl<'a> PlanView<'a> {
    /// A view of `steps` over `unit_device.len()` units placed by
    /// `unit_device`, with room for that many unit boundaries holding
    /// `io` data ids in all; add each unit with [`PlanView::push_unit`].
    pub fn new(
        unit_device: &'a [usize],
        steps: &'a [Step],
        pinned_host: &'a [DataId],
        io: usize,
    ) -> PlanView<'a> {
        let mut bounds = Vec::with_capacity(2 * unit_device.len() + 1);
        bounds.push(0);
        PlanView {
            unit_device,
            steps,
            pinned_host,
            io: Vec::with_capacity(io),
            bounds,
        }
    }

    /// Append the next unit's boundary.
    pub fn push_unit(
        &mut self,
        inputs: impl IntoIterator<Item = DataId>,
        outputs: impl IntoIterator<Item = DataId>,
    ) {
        self.io.extend(inputs);
        self.bounds.push(self.end());
        self.io.extend(outputs);
        self.bounds.push(self.end());
    }

    fn end(&self) -> u32 {
        u32::try_from(self.io.len()).expect("unit boundaries overflow u32 offsets")
    }

    /// Number of units whose boundary the view holds.
    pub fn num_units(&self) -> usize {
        self.bounds.len() / 2
    }

    /// Data unit `u` reads from outside itself.
    pub fn inputs(&self, u: usize) -> &[DataId] {
        &self.io[self.bounds[2 * u] as usize..self.bounds[2 * u + 1] as usize]
    }

    /// Data unit `u` produces.
    pub fn outputs(&self, u: usize) -> &[DataId] {
        &self.io[self.bounds[2 * u + 1] as usize..self.bounds[2 * u + 2] as usize]
    }
}

/// Static transfer/occupancy statistics of a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Floats copied host→device.
    pub floats_in: u64,
    /// Floats copied device→host.
    pub floats_out: u64,
    /// Number of host→device copies.
    pub copies_in: u64,
    /// Number of device→host copies.
    pub copies_out: u64,
    /// Number of kernel/unit launches.
    pub launches: u64,
    /// Peak bytes resident on any one device.
    pub peak_bytes: u64,
}

impl PlanStats {
    /// Total floats moved in either direction — the paper's Table 1 metric.
    pub fn total_floats(&self) -> u64 {
        self.floats_in + self.floats_out
    }
}

/// Everything one engine run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAnalysis {
    /// Transfer/occupancy statistics (all devices pooled; a staged
    /// inter-device copy counts on both legs, matching what crosses the
    /// shared bus).
    pub stats: PlanStats,
    /// Peak bytes resident per device.
    pub peak_per_device: Vec<u64>,
    /// All findings, in step order; end-of-plan findings last.
    pub diagnostics: Vec<Diagnostic>,
}

impl PlanAnalysis {
    /// True when any finding is an error (the plan must not execute).
    pub fn has_errors(&self) -> bool {
        crate::diag::has_errors(&self.diagnostics)
    }

    /// The first error in emission order, if any — the one a fail-fast
    /// validator would have reported.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == crate::diag::Severity::Error)
    }
}

/// First element of `sorted` strictly greater than `i`.
fn next_after(sorted: &[usize], i: usize) -> Option<usize> {
    sorted.get(sorted.partition_point(|&x| x <= i)).copied()
}

/// Run the engine: validate `plan` against `g` and the per-device
/// `capacities` (bytes, indexed by device; one entry for a single GPU),
/// computing statistics along the way. With `lints` set, efficiency
/// findings (codes `GF01xx`, all warnings) are also emitted.
///
/// Invariants checked (all errors):
///
/// * every step references existing data / units / devices;
/// * `CopyIn` moves only host-valid data (on a cluster: *staged* data —
///   the producer device's `CopyOut` came first) that is not already
///   resident on the target device;
/// * launches read only already-produced data resident on *their own*
///   device and write only non-resident data; each unit launches exactly
///   once;
/// * `CopyOut`/`Free` touch only data resident on the named device;
/// * no device's occupancy exceeds its capacity (reported once per
///   device, at the first violation — the running maxima are
///   `peak_per_device`);
/// * every template output is host-valid when the plan ends.
pub fn analyze_plan(g: &Graph, plan: &PlanView, capacities: &[u64], lints: bool) -> PlanAnalysis {
    let nd = g.num_data();
    let nu = plan.num_units();
    let ndev = capacities.len();
    // The reporting vocabulary: GF001x/GF002x on one device, the
    // device-naming GF003x codes on a cluster.
    let cluster = ndev > 1;
    // All per-(device, data) state is one flat vector; on a single device
    // a slot is just the data index.
    let slot = |device: usize, d: DataId| device * nd + d.index();
    let mut diags: Vec<Diagnostic> = Vec::new();

    let unknown_data = |diags: &mut Vec<Diagnostic>, at, d: DataId| {
        diags.push(Diagnostic::error(
            codes::UNKNOWN_DATA,
            at,
            format!("unknown data {d}"),
        ));
    };
    let unknown_device = |diags: &mut Vec<Diagnostic>, at, dev: usize| {
        diags.push(Diagnostic::error(
            codes::UNKNOWN_DEVICE,
            at,
            format!("unknown device {dev} (cluster has {ndev})"),
        ));
    };

    // A transfer or free that names data outside the graph, or a device
    // outside the cluster, is reported and skipped.
    let known = |diags: &mut Vec<Diagnostic>, at, device: usize, data: DataId| {
        if data.index() >= nd {
            unknown_data(diags, at, data);
        } else if device >= ndev {
            unknown_device(diags, at, device);
        }
        data.index() < nd && device < ndev
    };

    // Lint precomputation: for every (device, data) slot, the (sorted)
    // step indices of the launches that read it and of its CopyIns.
    let lint_slots = if lints { ndev * nd } else { 0 };
    let reads = || {
        let launches = plan
            .steps
            .iter()
            .enumerate()
            .filter_map(|(i, step)| match *step {
                Step::Launch(u) if lints && u < nu => plan
                    .unit_device
                    .get(u)
                    .filter(|&&dev| dev < ndev)
                    .map(|&dev| (i, dev, u)),
                _ => None,
            });
        launches.flat_map(|(i, dev, u)| {
            plan.inputs(u)
                .iter()
                .filter(|d| d.index() < nd)
                .map(move |&d| (slot(dev, d), i))
        })
    };
    let uploads = || {
        plan.steps
            .iter()
            .enumerate()
            .filter_map(|(i, step)| match *step {
                Step::CopyIn { device, data } if lints && device < ndev && data.index() < nd => {
                    Some((slot(device, data), i))
                }
                _ => None,
            })
    };
    let uses = Csr::build(lint_slots, reads);
    let copyins = Csr::build(lint_slots, uploads);

    // Residency state for invariant checking; host validity is global.
    let mut on_gpu = vec![false; ndev * nd];
    let mut used = vec![0u64; ndev];
    let mut capacity_reported = vec![false; ndev];
    let mut on_cpu: Vec<bool> = g
        .data_ids()
        .map(|d| g.data(d).kind.starts_on_cpu())
        .collect();
    let mut produced = vec![false; nd];
    for &d in plan.pinned_host {
        if d.index() < nd {
            // Pinned data was produced and delivered before this plan
            // began (a recovered prefix run).
            on_cpu[d.index()] = true;
            produced[d.index()] = true;
        }
    }
    let mut launched = vec![false; nu];

    // Statistics state. Kept separate from the boolean residency so the
    // numbers reproduce the historical `ExecutionPlan::stats` semantics
    // bit-for-bit, even on invalid plans.
    let mut stats = PlanStats::default();
    let mut counted = vec![false; ndev * nd];
    let mut cur = vec![0u64; ndev];
    let mut peak = vec![0u64; ndev];

    // Lint state.
    let mut last_free: Vec<Option<usize>> = vec![None; lint_slots];
    let mut launches_at_free = vec![0u64; lint_slots];
    let mut launch_counter = vec![0u64; if lints { ndev } else { 0 }];

    for (i, step) in plan.steps.iter().enumerate() {
        let at = Some(Location::Step(i));
        // Each arm yields the device whose occupancy it may have raised.
        let touched = match *step {
            Step::CopyIn { device, data } => {
                if !known(&mut diags, at, device, data) {
                    continue;
                }
                let desc = g.data(data);
                let b = desc.bytes();
                let s = slot(device, data);
                stats.floats_in += desc.len();
                stats.copies_in += 1;
                counted[s] = true;
                cur[device] += b;
                peak[device] = peak[device].max(cur[device]);

                if !on_cpu[data.index()] {
                    diags.push(if cluster {
                        Diagnostic::error(
                            codes::TRANSFER_NOT_STAGED,
                            at,
                            format!(
                                "CopyIn of {} to device {device} before its bytes are host-valid",
                                desc.name
                            ),
                        )
                        .with_help(
                            "inter-device movement is staged: the producer device's CopyOut must complete first",
                        )
                    } else {
                        Diagnostic::error(
                            codes::COPYIN_NOT_ON_HOST,
                            at,
                            format!("CopyIn of {} which is not valid on the host", desc.name),
                        )
                        .with_help(
                            "only inputs, constants, and data previously copied out are host-valid",
                        )
                    });
                }
                if on_gpu[s] {
                    diags.push(Diagnostic::error(
                        codes::COPYIN_RESIDENT,
                        at,
                        if cluster {
                            format!("{} already on device {device}", desc.name)
                        } else {
                            format!("{} already on device", desc.name)
                        },
                    ));
                }
                if lints {
                    let first = copyins.row(s)[0];
                    if first < i {
                        diags.push(
                            Diagnostic::warning(
                                codes::LINT_REDUNDANT_COPYIN,
                                at,
                                format!(
                                    "repeated CopyIn of {}: the same bytes were already transferred at step {first}",
                                    desc.name
                                ),
                            )
                            .with_help("host data never changes during a plan; retaining residency would save the transfer (re-fetching can still be the right call under memory pressure)"),
                        );
                    }
                    if let Some(j) = last_free[s] {
                        if launches_at_free[s] == launch_counter[device] {
                            diags.push(
                                Diagnostic::warning(
                                    codes::LINT_FREE_THRASH,
                                    at,
                                    format!(
                                        "{} was freed at step {j} and copied back in with no launch in between",
                                        desc.name
                                    ),
                                )
                                .with_help("the free released memory nothing needed; drop both steps and keep the buffer resident"),
                            );
                        }
                    }
                }
                if !on_gpu[s] {
                    on_gpu[s] = true;
                    used[device] += b;
                }
                device
            }
            Step::CopyOut { device, data } => {
                if !known(&mut diags, at, device, data) {
                    continue;
                }
                let desc = g.data(data);
                stats.floats_out += desc.len();
                stats.copies_out += 1;
                if !on_gpu[slot(device, data)] {
                    diags.push(if cluster {
                        Diagnostic::error(
                            codes::NOT_RESIDENT_ON_DEVICE,
                            at,
                            format!(
                                "CopyOut of {} from device {device} where it is not resident",
                                desc.name
                            ),
                        )
                    } else {
                        Diagnostic::error(
                            codes::COPYOUT_NOT_RESIDENT,
                            at,
                            format!("CopyOut of non-resident {}", desc.name),
                        )
                    });
                }
                if lints
                    && desc.kind != DataKind::Output
                    && (0..ndev).all(|e| next_after(copyins.row(slot(e, data)), i).is_none())
                {
                    diags.push(
                        Diagnostic::warning(
                            codes::LINT_DEAD_COPYOUT,
                            at,
                            format!(
                                "CopyOut of {} is dead: it is not a template output and is never copied back in",
                                desc.name
                            ),
                        )
                        .with_help("the transferred bytes are never consumed on the host; drop the CopyOut"),
                    );
                }
                on_cpu[data.index()] = true;
                device
            }
            Step::Free { device, data } => {
                if !known(&mut diags, at, device, data) {
                    continue;
                }
                let desc = g.data(data);
                let s = slot(device, data);
                if counted[s] {
                    counted[s] = false;
                    cur[device] -= desc.bytes();
                }
                if !on_gpu[s] {
                    diags.push(if cluster {
                        Diagnostic::error(
                            codes::NOT_RESIDENT_ON_DEVICE,
                            at,
                            format!(
                                "Free of {} on device {device} where it is not resident",
                                desc.name
                            ),
                        )
                        .with_help("double free, or free on the wrong device of the cluster")
                    } else {
                        Diagnostic::error(
                            codes::FREE_NOT_RESIDENT,
                            at,
                            format!("Free of non-resident {}", desc.name),
                        )
                        .with_help("double free, or free before the data ever reached the device")
                    });
                    continue;
                }
                if lints {
                    lint_eviction_choice(
                        g,
                        |e| uses.row(slot(device, DataId(e as u32))),
                        &on_gpu[device * nd..(device + 1) * nd],
                        data,
                        i,
                        &mut diags,
                    );
                    last_free[s] = Some(i);
                    launches_at_free[s] = launch_counter[device];
                }
                on_gpu[s] = false;
                match used[device].checked_sub(desc.bytes()) {
                    Some(rest) => used[device] = rest,
                    None => {
                        diags.push(Diagnostic::error(
                            codes::ACCOUNTING_UNDERFLOW,
                            at,
                            format!(
                                "occupancy accounting underflowed freeing {} ({} B tracked, {} B freed)",
                                desc.name,
                                used[device],
                                desc.bytes()
                            ),
                        ));
                        used[device] = 0;
                    }
                }
                device
            }
            Step::Launch(u) => {
                if u >= nu {
                    diags.push(Diagnostic::error(
                        codes::UNKNOWN_UNIT,
                        at,
                        format!("unknown unit {u}"),
                    ));
                    continue;
                }
                // A unit with no placement is as misplaced as one placed
                // outside the cluster.
                let dev = plan.unit_device.get(u).copied().unwrap_or(usize::MAX);
                if dev >= ndev {
                    unknown_device(&mut diags, at, dev);
                    continue;
                }
                stats.launches += 1;
                for &d in plan.outputs(u) {
                    if d.index() < nd && !counted[slot(dev, d)] {
                        counted[slot(dev, d)] = true;
                        cur[dev] += g.data(d).bytes();
                    }
                }
                peak[dev] = peak[dev].max(cur[dev]);
                if lints {
                    launch_counter[dev] += 1;
                }

                if launched[u] {
                    diags.push(Diagnostic::error(
                        codes::DOUBLE_LAUNCH,
                        at,
                        format!("unit {u} launched twice"),
                    ));
                    continue;
                }
                launched[u] = true;
                for &d in plan.inputs(u) {
                    if d.index() >= nd {
                        unknown_data(&mut diags, at, d);
                        continue;
                    }
                    let name = &g.data(d).name;
                    if !on_gpu[slot(dev, d)] {
                        let freed = "the buffer was freed (or never transferred) before this launch read it";
                        diags.push(if !cluster {
                            Diagnostic::error(
                                codes::INPUT_NOT_RESIDENT,
                                at,
                                format!("unit {u} input {name} not resident"),
                            )
                            .with_help(freed)
                        } else if let Some(e) = (0..ndev).find(|&e| on_gpu[slot(e, d)]) {
                            Diagnostic::error(
                                codes::INPUT_ON_OTHER_DEVICE,
                                at,
                                format!(
                                    "unit {u} on device {dev} reads {name} which is resident on device {e}"
                                ),
                            )
                            .with_help(
                                "the shard is on the wrong device, or the device→host→device staged copy is missing",
                            )
                        } else {
                            Diagnostic::error(
                                codes::INPUT_ON_NO_DEVICE,
                                at,
                                format!(
                                    "unit {u} on device {dev} reads {name} which is resident on no device"
                                ),
                            )
                            .with_help(freed)
                        });
                    } else if g.producer(d).is_some() && !produced[d.index()] {
                        diags.push(Diagnostic::error(
                            codes::INPUT_NOT_PRODUCED,
                            at,
                            format!("unit {u} input {name} not yet produced"),
                        ));
                    }
                }
                for &d in plan.outputs(u) {
                    if d.index() >= nd {
                        unknown_data(&mut diags, at, d);
                        continue;
                    }
                    let name = &g.data(d).name;
                    if on_gpu[slot(dev, d)] {
                        diags.push(Diagnostic::error(
                            codes::OUTPUT_RESIDENT,
                            at,
                            if cluster {
                                format!("output {name} already resident on device {dev}")
                            } else {
                                format!("output {name} already resident")
                            },
                        ));
                    } else {
                        on_gpu[slot(dev, d)] = true;
                        used[dev] += g.data(d).bytes();
                    }
                    produced[d.index()] = true;
                }
                dev
            }
        };
        if used[touched] > capacities[touched] && !capacity_reported[touched] {
            let (used, capacity) = (used[touched], capacities[touched]);
            diags.push(if cluster {
                Diagnostic::error(
                    codes::DEVICE_OVER_CAPACITY,
                    at,
                    format!(
                        "device {touched} occupancy {used} B exceeds its capacity {capacity} B"
                    ),
                )
                .with_help(
                    "shard finer, free earlier on that device, or give the cluster larger devices",
                )
            } else {
                Diagnostic::error(
                    codes::OVER_CAPACITY,
                    at,
                    format!("device occupancy {used} B exceeds {capacity} B"),
                )
                .with_help(
                    "insert frees earlier, split operators further, or plan for a larger device",
                )
            });
            capacity_reported[touched] = true;
        }
    }

    for (u, &l) in launched.iter().enumerate() {
        if !l {
            diags.push(Diagnostic::error(
                codes::NEVER_LAUNCHED,
                Some(Location::Unit(u)),
                format!("unit {u} never launched"),
            ));
        }
    }
    for d in g.data_ids() {
        if g.data(d).kind == DataKind::Output && !on_cpu[d.index()] {
            diags.push(
                Diagnostic::error(
                    codes::OUTPUT_NOT_DELIVERED,
                    Some(Location::Data(d)),
                    format!("output {} not on the host at plan end", g.data(d).name),
                )
                .with_help("every template output must be copied out before the plan ends"),
            );
        }
    }

    stats.peak_bytes = peak.iter().copied().max().unwrap_or(0);
    PlanAnalysis {
        stats,
        peak_per_device: peak,
        diagnostics: diags,
    }
}

/// Belady lint: freeing `d` at step `i` is suboptimal when `d` is needed
/// again while some other structure resident on the same device has its
/// next use farther away (or never) — evicting that one instead would
/// have saved a reload. `uses(e)` are the steps that read data `e` on
/// the device, and `on_gpu` is the device's residency slice.
fn lint_eviction_choice<'a>(
    g: &Graph,
    uses: impl Fn(usize) -> &'a [usize],
    on_gpu: &[bool],
    d: DataId,
    i: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(t1) = next_after(uses(d.index()), i) else {
        return;
    };
    for (e, &resident) in on_gpu.iter().enumerate() {
        if e == d.index() || !resident {
            continue;
        }
        let t2 = next_after(uses(e), i);
        if t2.is_none_or(|t2| t2 > t1) {
            let when = match t2 {
                Some(t2) => format!("not needed until step {t2}"),
                None => "never needed again".to_string(),
            };
            diags.push(
                Diagnostic::warning(
                    codes::LINT_NON_BELADY_EVICTION,
                    Some(Location::Step(i)),
                    format!(
                        "freeing {} is suboptimal: it is needed again at step {t1}, while resident {} is {when}",
                        g.data(d).name,
                        g.data(DataId(e as u32)).name
                    ),
                )
                .with_help("Belady's rule evicts the resident structure whose next use is farthest in the future"),
            );
            return;
        }
    }
}

/// Plans over a two-operator chain, shared by this crate's test modules.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use gpuflow_graph::OpKind;

    /// in -> t0 -> mid -> t1 -> out, all 8x8 (256 B each).
    pub(crate) fn chain2() -> Graph {
        let mut g = Graph::new();
        let a = g.add("in", 8, 8, DataKind::Input);
        let m = g.add("mid", 8, 8, DataKind::Temporary);
        let o = g.add("out", 8, 8, DataKind::Output);
        g.add_op("t0", OpKind::Tanh, vec![a], m).unwrap();
        g.add_op("t1", OpKind::Tanh, vec![m], o).unwrap();
        g
    }

    /// One unit's boundary, spelled out.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct UnitView {
        pub(crate) inputs: Vec<DataId>,
        pub(crate) outputs: Vec<DataId>,
    }

    /// A plan the tests own and mutate; [`OwnedPlan::view`] lends it to
    /// the analyses.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct OwnedPlan {
        pub(crate) units: Vec<UnitView>,
        pub(crate) unit_device: Vec<usize>,
        pub(crate) steps: Vec<Step>,
        pub(crate) pinned_host: Vec<DataId>,
    }

    impl OwnedPlan {
        pub(crate) fn view(&self) -> PlanView<'_> {
            let io = self
                .units
                .iter()
                .map(|u| u.inputs.len() + u.outputs.len())
                .sum();
            let mut view = PlanView::new(&self.unit_device, &self.steps, &self.pinned_host, io);
            for u in &self.units {
                view.push_unit(u.inputs.iter().copied(), u.outputs.iter().copied());
            }
            view
        }
    }

    pub(crate) fn units2() -> Vec<UnitView> {
        vec![
            UnitView {
                inputs: vec![DataId(0)],
                outputs: vec![DataId(1)],
            },
            UnitView {
                inputs: vec![DataId(1)],
                outputs: vec![DataId(2)],
            },
        ]
    }

    pub(crate) fn cin(device: usize, data: DataId) -> Step {
        Step::CopyIn { device, data }
    }

    pub(crate) fn cout(device: usize, data: DataId) -> Step {
        Step::CopyOut { device, data }
    }

    pub(crate) fn free(device: usize, data: DataId) -> Step {
        Step::Free { device, data }
    }

    /// A plan whose every unit runs on device 0.
    pub(crate) fn single(units: Vec<UnitView>, steps: Vec<Step>) -> OwnedPlan {
        OwnedPlan {
            unit_device: vec![0; units.len()],
            units,
            steps,
            pinned_host: vec![],
        }
    }

    pub(crate) fn good_plan() -> OwnedPlan {
        single(
            units2(),
            vec![
                cin(0, DataId(0)),
                Step::Launch(0),
                free(0, DataId(0)),
                Step::Launch(1),
                free(0, DataId(1)),
                cout(0, DataId(2)),
                free(0, DataId(2)),
            ],
        )
    }

    /// t0 on device 0, t1 on device 1, with a staged `mid` transfer between
    /// them.
    pub(crate) fn staged_plan() -> OwnedPlan {
        let d = DataId;
        OwnedPlan {
            units: units2(),
            unit_device: vec![0, 1],
            pinned_host: vec![],
            steps: vec![
                cin(0, d(0)),
                Step::Launch(0),
                free(0, d(0)),
                // Staged inter-device transfer of mid: dev0 -> host -> dev1.
                cout(0, d(1)),
                free(0, d(1)),
                cin(1, d(1)),
                Step::Launch(1),
                free(1, d(1)),
                cout(1, d(2)),
                free(1, d(2)),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use crate::diag::Severity;
    use gpuflow_graph::OpKind;

    #[test]
    fn clean_plan_no_diagnostics_stats_add_up() {
        let g = chain2();
        let a = analyze_plan(&g, &good_plan().view(), &[3 * 256], true);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.stats.floats_in, 64);
        assert_eq!(a.stats.floats_out, 64);
        assert_eq!(a.stats.copies_in, 1);
        assert_eq!(a.stats.copies_out, 1);
        assert_eq!(a.stats.launches, 2);
        assert_eq!(a.stats.peak_bytes, 2 * 256);
        assert_eq!(a.stats.total_floats(), 128);
    }

    #[test]
    fn use_after_free_is_gf0017() {
        let g = chain2();
        let mut p = good_plan();
        // Free `mid` before the launch that reads it.
        p.steps.swap(3, 4);
        let a = analyze_plan(&g, &p.view(), &[u64::MAX], false);
        let first = a.first_error().unwrap();
        assert_eq!(first.code, codes::INPUT_NOT_RESIDENT);
        assert!(first.message.contains("not resident"));
    }

    #[test]
    fn capacity_reported_once_at_first_violation() {
        let g = chain2();
        let a = analyze_plan(&g, &good_plan().view(), &[256], false);
        let caps: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::OVER_CAPACITY)
            .collect();
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].location, Some(Location::Step(1)));
        assert!(caps[0].message.contains("occupancy"));
        // peak is still proven over the whole plan.
        assert_eq!(a.stats.peak_bytes, 512);
    }

    #[test]
    fn double_free_and_unknown_ids() {
        let g = chain2();
        let p = single(
            units2(),
            vec![
                cin(0, DataId(0)),
                free(0, DataId(0)),
                free(0, DataId(0)),
                cout(0, DataId(9)),
                free(0, DataId(9)),
                Step::Launch(7),
            ],
        );
        let a = analyze_plan(&g, &p.view(), &[u64::MAX], false);
        let codes_seen: Vec<&str> = a.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes_seen.contains(&codes::FREE_NOT_RESIDENT));
        assert_eq!(
            codes_seen
                .iter()
                .filter(|&&c| c == codes::UNKNOWN_DATA)
                .count(),
            2
        );
        assert!(codes_seen.contains(&codes::UNKNOWN_UNIT));
    }

    #[test]
    fn precedence_and_ordering_errors() {
        let g = chain2();
        // Launch unit 1 before unit 0 produced `mid`.
        let p = single(units2(), vec![cin(0, DataId(0)), Step::Launch(1)]);
        let a = analyze_plan(&g, &p.view(), &[u64::MAX], false);
        assert_eq!(a.first_error().unwrap().code, codes::INPUT_NOT_RESIDENT);

        // Resident but not yet produced: copy the temporary in by force.
        let p2 = single(
            units2(),
            vec![
                cin(0, DataId(0)),
                Step::Launch(0),
                Step::Launch(1),
                Step::Launch(1),
            ],
        );
        let a2 = analyze_plan(&g, &p2.view(), &[u64::MAX], false);
        assert!(a2
            .diagnostics
            .iter()
            .any(|d| d.code == codes::DOUBLE_LAUNCH));
    }

    #[test]
    fn end_state_errors() {
        let g = chain2();
        let p = single(units2(), vec![cin(0, DataId(0)), Step::Launch(0)]);
        let a = analyze_plan(&g, &p.view(), &[u64::MAX], false);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == codes::NEVER_LAUNCHED && d.location == Some(Location::Unit(1))));
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == codes::OUTPUT_NOT_DELIVERED && d.message.contains("out")));
    }

    #[test]
    fn copyin_of_unproduced_temporary() {
        let g = chain2();
        let p = single(units2(), vec![cin(0, DataId(1))]);
        let a = analyze_plan(&g, &p.view(), &[u64::MAX], false);
        assert_eq!(a.first_error().unwrap().code, codes::COPYIN_NOT_ON_HOST);
        assert!(a
            .first_error()
            .unwrap()
            .message
            .contains("not valid on the host"));
    }

    #[test]
    fn thrash_and_redundant_copyin_lints() {
        let g = chain2();
        let p = single(
            units2(),
            vec![
                cin(0, DataId(0)),
                free(0, DataId(0)),
                cin(0, DataId(0)), // thrash: no launch in between
                Step::Launch(0),
                free(0, DataId(0)),
                Step::Launch(1),
                free(0, DataId(1)),
                cout(0, DataId(2)),
                free(0, DataId(2)),
            ],
        );
        let a = analyze_plan(&g, &p.view(), &[u64::MAX], true);
        assert!(!a.has_errors(), "{:?}", a.diagnostics);
        let codes_seen: Vec<&str> = a.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes_seen.contains(&codes::LINT_FREE_THRASH));
        assert!(codes_seen.contains(&codes::LINT_REDUNDANT_COPYIN));
        // Lints stay silent when disabled.
        let quiet = analyze_plan(&g, &p.view(), &[u64::MAX], false);
        assert!(quiet.diagnostics.is_empty(), "{:?}", quiet.diagnostics);
    }

    #[test]
    fn dead_copyout_lint() {
        let g = chain2();
        let mut p = good_plan();
        // Copy the temporary out even though nothing ever needs it again.
        p.steps.insert(2, cout(0, DataId(1)));
        let a = analyze_plan(&g, &p.view(), &[u64::MAX], true);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == codes::LINT_DEAD_COPYOUT && d.message.contains("mid")));
        // A spill (copy-out followed by a later copy-in) is not dead.
        let spill = single(
            units2(),
            vec![
                cin(0, DataId(0)),
                Step::Launch(0),
                cout(0, DataId(1)),
                free(0, DataId(1)),
                Step::Launch(1), // reads freed mid -> error, but lint-wise:
                cin(0, DataId(1)),
                cout(0, DataId(2)),
            ],
        );
        let a2 = analyze_plan(&g, &spill.view(), &[u64::MAX], true);
        assert!(!a2
            .diagnostics
            .iter()
            .any(|d| d.code == codes::LINT_DEAD_COPYOUT));
    }

    #[test]
    fn belady_lint_flags_evicting_sooner_needed_data() {
        // Two inputs feeding one op each; free the one needed sooner while
        // the one needed later stays resident.
        let mut g = Graph::new();
        let a = g.add("a", 8, 8, DataKind::Input);
        let b = g.add("b", 8, 8, DataKind::Input);
        let oa = g.add("oa", 8, 8, DataKind::Output);
        let ob = g.add("ob", 8, 8, DataKind::Output);
        g.add_op("ta", OpKind::Tanh, vec![a], oa).unwrap();
        g.add_op("tb", OpKind::Tanh, vec![b], ob).unwrap();
        let units = vec![
            UnitView {
                inputs: vec![a],
                outputs: vec![oa],
            },
            UnitView {
                inputs: vec![b],
                outputs: vec![ob],
            },
        ];
        let p = single(
            units,
            vec![
                cin(0, a),
                cin(0, b),
                free(0, a), // a is needed at step 4, b only at step 6
                cin(0, a),
                Step::Launch(0),
                cout(0, oa),
                Step::Launch(1),
                cout(0, ob),
            ],
        );
        let an = analyze_plan(&g, &p.view(), &[u64::MAX], true);
        let belady: Vec<_> = an
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::LINT_NON_BELADY_EVICTION)
            .collect();
        assert_eq!(belady.len(), 1);
        assert!(
            belady[0].message.contains("freeing a"),
            "{}",
            belady[0].message
        );
        assert!(belady[0].message.contains('b'), "{}", belady[0].message);
    }

    #[test]
    fn stats_match_legacy_quirks_on_weird_plans() {
        // Historical stats counted a repeated CopyIn's bytes twice in the
        // running occupancy (insert + unconditional add); the engine must
        // reproduce that number exactly for behavioural parity.
        let g = chain2();
        let p = single(
            units2(),
            vec![cin(0, DataId(0)), cin(0, DataId(0)), free(0, DataId(0))],
        );
        let a = analyze_plan(&g, &p.view(), &[u64::MAX], false);
        assert_eq!(a.stats.copies_in, 2);
        assert_eq!(a.stats.peak_bytes, 512); // 2 * 256, the historical double count
        assert!(a.has_errors()); // the plan is of course invalid
    }

    #[test]
    fn severity_partition() {
        let g = chain2();
        let a = analyze_plan(&g, &good_plan().view(), &[3 * 256], true);
        assert!(a.first_error().is_none());
        assert!(!a.has_errors());
        let bad = analyze_plan(&g, &good_plan().view(), &[1], false);
        assert!(bad.has_errors());
        assert_eq!(bad.first_error().unwrap().severity, Severity::Error);
    }

    #[test]
    fn clean_cross_device_plan_passes() {
        let g = chain2();
        let a = analyze_plan(&g, &staged_plan().view(), &[2 * 256, 2 * 256], false);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.stats.launches, 2);
        // in + staged mid + nothing else inbound; mid + out outbound.
        assert_eq!(a.stats.copies_in, 2);
        assert_eq!(a.stats.copies_out, 2);
        assert_eq!(a.peak_per_device, vec![2 * 256, 2 * 256]);
    }

    #[test]
    fn wrong_device_shard_is_gf0030() {
        let g = chain2();
        let mut p = staged_plan();
        // Mutation: unit 1 assigned to device 0, but its input was staged
        // to device 1.
        p.unit_device[1] = 0;
        let a = analyze_plan(&g, &p.view(), &[u64::MAX, u64::MAX], false);
        let first = a.first_error().unwrap();
        assert_eq!(first.code, codes::INPUT_ON_OTHER_DEVICE);
        assert!(first.message.contains("resident on device 1"), "{first:?}");
    }

    #[test]
    fn missing_staged_copyout_is_gf0031() {
        let g = chain2();
        let mut p = staged_plan();
        // Mutation: drop the CopyOut of mid on device 0 — the CopyIn on
        // device 1 now races ahead of unstaged bytes.
        p.steps.remove(3);
        let a = analyze_plan(&g, &p.view(), &[u64::MAX, u64::MAX], false);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == codes::TRANSFER_NOT_STAGED));
    }

    #[test]
    fn missing_inter_device_copyin_is_gf0034() {
        let g = chain2();
        let mut p = staged_plan();
        // Mutation: drop the CopyIn of mid on device 1 entirely (and its
        // matching Free) — unit 1 reads data resident nowhere.
        p.steps.remove(7); // Free mid on dev 1
        p.steps.remove(5); // CopyIn mid on dev 1
        let a = analyze_plan(&g, &p.view(), &[u64::MAX, u64::MAX], false);
        assert_eq!(a.first_error().unwrap().code, codes::INPUT_ON_NO_DEVICE);
    }

    #[test]
    fn per_device_over_capacity_is_gf0032() {
        let g = chain2();
        // Device 0 can only hold one 256 B structure: staging in + out
        // (512 B) trips its capacity; device 1 is fine.
        let a = analyze_plan(&g, &staged_plan().view(), &[256, 2 * 256], false);
        let caps: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::DEVICE_OVER_CAPACITY)
            .collect();
        assert_eq!(caps.len(), 1);
        assert!(caps[0].message.contains("device 0"), "{:?}", caps[0]);
    }

    #[test]
    fn wrong_device_free_and_copyout_are_gf0033() {
        let g = chain2();
        let p = OwnedPlan {
            units: units2(),
            unit_device: vec![0, 1],
            pinned_host: vec![],
            steps: vec![cin(0, DataId(0)), free(1, DataId(0)), cout(1, DataId(0))],
        };
        let a = analyze_plan(&g, &p.view(), &[u64::MAX, u64::MAX], false);
        let n = a
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::NOT_RESIDENT_ON_DEVICE)
            .count();
        assert_eq!(n, 2);
    }

    #[test]
    fn end_state_checks_still_apply() {
        let g = chain2();
        let p = OwnedPlan {
            units: units2(),
            unit_device: vec![0, 1],
            pinned_host: vec![],
            steps: vec![cin(0, DataId(0)), Step::Launch(0)],
        };
        let a = analyze_plan(&g, &p.view(), &[u64::MAX, u64::MAX], false);
        let codes_seen: Vec<&str> = a.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes_seen.contains(&codes::NEVER_LAUNCHED));
        assert!(codes_seen.contains(&codes::OUTPUT_NOT_DELIVERED));
    }

    #[test]
    fn pinned_host_data_satisfies_staging_and_delivery() {
        // A replanned suffix: unit 0 already ran in a previous (recovered)
        // plan, so `mid` is pinned host-side and unit 1 reads it via a
        // plain CopyIn with no staging CopyOut. The suffix plan covers
        // only unit 1.
        let g = chain2();
        let p = OwnedPlan {
            units: vec![UnitView {
                inputs: vec![DataId(1)],
                outputs: vec![DataId(2)],
            }],
            unit_device: vec![1],
            pinned_host: vec![DataId(1)],
            steps: vec![
                cin(1, DataId(1)),
                Step::Launch(0),
                free(1, DataId(1)),
                cout(1, DataId(2)),
                free(1, DataId(2)),
            ],
        };
        let a = analyze_plan(&g, &p.view(), &[u64::MAX, u64::MAX], false);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        // Without the pin the same plan races (GF0031) and the input
        // reads unproduced data.
        let mut unpinned = p.clone();
        unpinned.pinned_host.clear();
        let a = analyze_plan(&g, &unpinned.view(), &[u64::MAX, u64::MAX], false);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == codes::TRANSFER_NOT_STAGED));
    }

    #[test]
    fn vocabulary_follows_the_number_of_devices() {
        // One step sequence, checked against one device and against a
        // two-device cluster whose second device it never uses: same
        // findings and numbers, device-naming codes on the cluster.
        let g = chain2();
        let mut p = good_plan();
        p.steps.swap(3, 4); // free `mid` before the launch that reads it
        let one = analyze_plan(&g, &p.view(), &[256], false);
        let two = analyze_plan(&g, &p.view(), &[256, 256], false);
        let codes_of = |a: &PlanAnalysis| a.diagnostics.iter().map(|d| d.code).collect::<Vec<_>>();
        assert_eq!(
            codes_of(&one),
            vec![codes::OVER_CAPACITY, codes::INPUT_NOT_RESIDENT]
        );
        assert_eq!(
            codes_of(&two),
            vec![codes::DEVICE_OVER_CAPACITY, codes::INPUT_ON_NO_DEVICE]
        );
        assert_eq!(one.stats, two.stats);
        assert_eq!(one.peak_per_device, vec![512]);
        assert_eq!(two.peak_per_device, vec![512, 0]);
    }

    #[test]
    fn device_outside_the_cluster_is_gf0035() {
        let g = chain2();
        // The staged upload of `mid` names device 3 of a 2-device cluster.
        let mut p = staged_plan();
        p.steps[5] = cin(3, DataId(1));
        let a = analyze_plan(&g, &p.view(), &[u64::MAX, u64::MAX], false);
        let first = a.first_error().unwrap();
        assert_eq!(first.code, codes::UNKNOWN_DEVICE);
        assert_eq!(first.message, "unknown device 3 (cluster has 2)");
        assert_eq!(first.location, Some(Location::Step(5)));
        assert!(a.diagnostics.iter().all(|d| d.code != codes::UNKNOWN_DATA));
        // A unit placed outside the cluster is the same finding, on one
        // device as on several.
        let mut q = good_plan();
        q.unit_device[1] = 1;
        let a = analyze_plan(&g, &q.view(), &[u64::MAX], false);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == codes::UNKNOWN_DEVICE && d.location == Some(Location::Step(3))));
    }
}
