//! Fault-tolerant multi-device execution: failover replanning.
//!
//! [`ResilientMultiExecutor`] walks a cluster [`ExecutionPlan`](gpuflow_core::ExecutionPlan) step
//! by step under an
//! injected fault schedule ([`gpuflow_chaos::FaultSpec`]) and recovers
//! through the same ladder as the single-device executor, with one rung
//! swapped in: on a **hard device loss** mid-run, the not-yet-executed
//! suffix of the plan is *replanned* onto the surviving devices —
//!
//! 1. every survivor's resident data is evacuated to the host and all
//!    device state is dropped;
//! 2. intermediates that lived only on the dead device are recomputed on
//!    the host CPU from host-valid ancestors;
//! 3. the remaining units are reassigned (lost-device units round-robin
//!    over survivors) and [`schedule_multi_transfers`] is re-entered with
//!    the completed prefix's results pinned host-side
//!    ([`MultiXferOptions::pinned_host`]);
//! 4. if replanning is impossible (no survivors, or the suffix no longer
//!    fits), the remainder degrades to the host CPU.
//!
//! Transient kernel/transfer/allocation faults retry with bounded
//! exponential backoff exactly as in `gpuflow_core::resilient`; bus
//! brown-outs stretch the bandwidth term of every transfer in the window.
//!
//! **Time model.** The resilient walk runs on the *serialized* clock (one
//! [`Timeline`], like the single-GPU executor), not the overlapped
//! shared-bus model of [`gpuflow_core::overlap`] — retries, stalls, and replans
//! interleave with ordinary steps on one deterministic timeline. Host CPU
//! fallback is modelled as the producing operator's device kernel time ×
//! [`RecoveryOptions::cpu_slowdown`]. Makespans from this walk are
//! comparable to each other (that is what the recovery-overhead metric
//! needs), not to the overlapped simulation.

use std::collections::{HashMap, HashSet};

use gpuflow_chaos::{FaultInjector, FaultSpec, RecoveryEventKind, RecoveryOptions, RecoveryStats};
use gpuflow_core::executor::{assemble_outputs, host_source};
use gpuflow_core::{FrameworkError, OffloadUnit, Step};
use gpuflow_graph::{DataId, Graph};
use gpuflow_ops::{execute, op_cost, Tensor};
use gpuflow_sim::{kernel_time, timing::Work, Allocation, DeviceAllocator, FitPolicy, Timeline};

use crate::cluster::Cluster;
use crate::planner::MultiCompiled;
use crate::schedule::{schedule_multi_transfers, MultiXferOptions};

/// Result of one resilient multi-device run.
#[derive(Debug, Clone)]
pub struct MultiResilientOutcome {
    /// The serialized event timeline of the faulted run.
    pub timeline: Timeline,
    /// Functional mode: assembled output tensors keyed by the *original*
    /// graph's output ids. Empty in analytic mode or when unrecovered.
    pub outputs: HashMap<DataId, Tensor>,
    /// The recovery ledger: counters, events, overhead.
    pub stats: RecoveryStats,
    /// The bound injector, holding the injected-fault log (for tracing).
    pub injector: FaultInjector,
}

/// Executes a compiled multi-device plan under an injected fault schedule.
pub struct ResilientMultiExecutor<'a> {
    compiled: &'a MultiCompiled,
    spec: &'a FaultSpec,
    options: RecoveryOptions,
}

/// Mutable state of one resilient multi walk.
struct Walk<'b> {
    timeline: Timeline,
    allocs: Vec<DeviceAllocator>,
    /// Per-device resident data (allocation + functional tensor).
    resident: Vec<HashMap<DataId, (Allocation, Option<Tensor>)>>,
    /// Host copies of produced data (functional mode tensors).
    host: HashMap<DataId, Tensor>,
    /// Produced data currently valid on the host (both modes).
    host_valid: HashSet<DataId>,
    bindings: Option<&'b HashMap<DataId, Tensor>>,
    injector: FaultInjector,
    stats: RecoveryStats,
    /// Devices observed dead so far.
    lost: Vec<bool>,
    /// All devices unusable (no survivors, or the shared bus gave out):
    /// everything remaining runs on the host CPU.
    cpu_mode: bool,
    /// Serial site counters — the walk order is deterministic, so serial
    /// numbering keeps injection decisions replayable.
    kernel_serial: u64,
    xfer_serial: u64,
    alloc_serial: u64,
}

impl<'a> ResilientMultiExecutor<'a> {
    /// Resilient executor over `compiled` under the fault model `spec`.
    pub fn new(compiled: &'a MultiCompiled, spec: &'a FaultSpec) -> Self {
        ResilientMultiExecutor {
            compiled,
            spec,
            options: RecoveryOptions::default(),
        }
    }

    /// Override the recovery options.
    pub fn with_options(mut self, options: RecoveryOptions) -> Self {
        self.options = options;
        self
    }

    /// Run without materializing data.
    pub fn run_analytic(&self) -> Result<MultiResilientOutcome, FrameworkError> {
        self.run(None)
    }

    /// Run functionally. `bindings` supplies tensors for the template's
    /// inputs and constants, keyed by the *original* (pre-shard) graph's
    /// ids; outputs come back keyed the same way.
    pub fn run_functional(
        &self,
        bindings: &HashMap<DataId, Tensor>,
    ) -> Result<MultiResilientOutcome, FrameworkError> {
        self.run(Some(bindings))
    }

    fn graph(&self) -> &Graph {
        &self.compiled.sharded.split.graph
    }

    fn cluster(&self) -> &Cluster {
        &self.compiled.cluster
    }

    fn run(
        &self,
        bindings: Option<&HashMap<DataId, Tensor>>,
    ) -> Result<MultiResilientOutcome, FrameworkError> {
        // Fault-free baseline on the same serialized clock: resolves
        // `loss=DEV@P%` and is the overhead denominator. Always analytic.
        let quiet = FaultSpec::quiet(self.spec.seed);
        let base = self.walk(FaultInjector::new(&quiet, 0.0), None)?;
        let faultfree = base.timeline.now();

        let injector = FaultInjector::new(self.spec, faultfree);
        let mut st = self.walk(injector, bindings)?;
        st.stats.faultfree_makespan_s = faultfree;
        st.stats.makespan_s = st.timeline.now();

        let outputs = if bindings.is_some() && st.stats.recovered {
            assemble_outputs(self.graph(), Some(&self.compiled.sharded.split), &st.host)?
        } else {
            HashMap::new()
        };
        Ok(MultiResilientOutcome {
            timeline: st.timeline,
            outputs,
            stats: st.stats,
            injector: st.injector,
        })
    }

    /// One full plan walk under `injector`. Returns the final state; the
    /// caller extracts timeline/stats/outputs.
    fn walk<'b>(
        &self,
        injector: FaultInjector,
        bindings: Option<&'b HashMap<DataId, Tensor>>,
    ) -> Result<Walk<'b>, FrameworkError> {
        let g = self.graph();
        let ndev = self.cluster().len();
        let mut st = Walk {
            timeline: Timeline::new(),
            allocs: self
                .cluster()
                .devices
                .iter()
                .map(|d| DeviceAllocator::with_policy(d.memory_bytes, FitPolicy::FirstFit))
                .collect(),
            resident: (0..ndev).map(|_| HashMap::new()).collect(),
            host: HashMap::new(),
            host_valid: HashSet::new(),
            bindings,
            injector,
            stats: RecoveryStats::default(),
            lost: vec![false; ndev],
            cpu_mode: false,
            kernel_serial: 0,
            xfer_serial: 0,
            alloc_serial: 0,
        };

        let mut units: Vec<OffloadUnit> = self.compiled.plan.units.clone();
        let mut unit_device: Vec<usize> = self.compiled.plan.unit_device.clone();
        let mut steps: Vec<Step> = self.compiled.plan.steps.clone();
        let mut launched = vec![false; units.len()];

        let mut i = 0usize;
        while i < steps.len() {
            // Observe device loss at step boundaries.
            if !st.cpu_mode {
                if let Some(ld) = st.injector.lost_device() {
                    if ld < ndev && !st.lost[ld] && st.injector.device_lost(ld, st.timeline.now()) {
                        self.handle_device_loss(
                            &mut st,
                            ld,
                            &mut units,
                            &mut unit_device,
                            &mut steps,
                            &mut launched,
                            &mut i,
                        )?;
                        continue;
                    }
                }
            }
            match steps[i] {
                Step::CopyIn { device, data } => self.step_copy_in(&mut st, device, data)?,
                Step::CopyOut { device, data } => self.step_copy_out(&mut st, device, data)?,
                Step::Free { device, data } => self.step_free(&mut st, device, data)?,
                Step::Launch(u) => {
                    launched[u] = true;
                    self.step_launch(&mut st, &units, unit_device[u], u)?;
                }
            }
            i += 1;
        }

        // Deliver any output the faulted walk left undelivered.
        let mut recovered = true;
        let mut outs: Vec<DataId> = g.outputs();
        outs.sort();
        for d in outs {
            if st.host_valid.contains(&d) {
                continue;
            }
            let holder = (0..ndev).find(|&e| !st.lost[e] && st.resident[e].contains_key(&d));
            if let (false, Some(h)) = (st.cpu_mode, holder) {
                if !self.copy_out(&mut st, h, d)? && self.options.cpu_fallback {
                    self.cpu_eval(&mut st, d)?;
                }
            } else if self.options.cpu_fallback {
                self.cpu_eval(&mut st, d)?;
            }
            if !st.host_valid.contains(&d) {
                recovered = false;
            }
        }
        st.stats.recovered = recovered;
        Ok(st)
    }

    fn name(&self, d: DataId) -> &str {
        &self.graph().data(d).name
    }

    /// Bus transfer duration at the current instant, honouring brown-outs:
    /// only the bandwidth term stretches.
    fn bus_time(&self, st: &Walk, bytes: u64) -> f64 {
        let bus = &self.cluster().bus;
        let factor = st.injector.bandwidth_factor(st.timeline.now());
        bus.latency_s + bytes as f64 / (bus.bandwidth * factor)
    }

    /// All devices (or the shared bus) are unusable: drop every device's
    /// state and finish on the host CPU.
    fn degrade_to_cpu(&self, st: &mut Walk, why: &str) {
        st.stats.record(
            st.timeline.now(),
            RecoveryEventKind::DeviceLost,
            format!("{why}; degrading remaining work to host CPU"),
        );
        for dev in 0..st.resident.len() {
            st.resident[dev].clear();
            st.allocs[dev] = DeviceAllocator::with_policy(
                self.cluster().devices[dev].memory_bytes,
                FitPolicy::FirstFit,
            );
        }
        st.cpu_mode = true;
    }

    /// Bounded-retry bus transfer. Returns `false` when retries were
    /// exhausted — the caller escalates.
    fn transfer(&self, st: &mut Walk, d: DataId, device: usize, to_gpu: bool) -> bool {
        let bytes = self.graph().data(d).bytes();
        let site = st.xfer_serial;
        st.xfer_serial += 1;
        let policy = self.options.retry;
        for attempt in 0..policy.max_attempts {
            let t = st.timeline.now();
            let dur = self.bus_time(st, bytes);
            let label = format!("{}@d{device}", self.name(d));
            if to_gpu {
                st.timeline.push_copy_to_gpu(label, bytes, dur);
            } else {
                st.timeline.push_copy_to_cpu(label, bytes, dur);
            }
            if !st.injector.transfer_faults(t, site, attempt) {
                return true;
            }
            st.stats.record(
                st.timeline.now(),
                RecoveryEventKind::Fault,
                format!(
                    "transfer of {} (device {device}) corrupted (attempt {attempt})",
                    self.name(d)
                ),
            );
            if attempt + 1 >= policy.max_attempts {
                return false;
            }
            st.timeline
                .push_stall("transfer retry backoff", policy.backoff(attempt + 1));
            st.stats.record(
                st.timeline.now(),
                RecoveryEventKind::Retry,
                format!("retransmitting {}", self.name(d)),
            );
        }
        false
    }

    /// Bounded-retry device allocation with transient injected failures.
    /// `Ok(None)` means escalate (transient retries or memory exhausted).
    fn allocate(
        &self,
        st: &mut Walk,
        dev: usize,
        d: DataId,
    ) -> Result<Option<Allocation>, FrameworkError> {
        let site = st.alloc_serial;
        st.alloc_serial += 1;
        let policy = self.options.retry;
        for attempt in 0..policy.max_attempts {
            let t = st.timeline.now();
            if st.injector.alloc_faults(t, site, attempt) {
                st.stats.record(
                    t,
                    RecoveryEventKind::Fault,
                    format!(
                        "transient allocation failure for {} on device {dev}",
                        self.name(d)
                    ),
                );
                if attempt + 1 >= policy.max_attempts {
                    return Ok(None);
                }
                st.timeline
                    .push_stall("alloc retry backoff", policy.backoff(attempt + 1));
                st.stats.record(
                    st.timeline.now(),
                    RecoveryEventKind::Retry,
                    format!("retrying allocation of {}", self.name(d)),
                );
                continue;
            }
            // A real allocation failure on a (possibly crowded) failover
            // target is a runtime condition, not a framework bug: escalate.
            return Ok(st.allocs[dev].alloc(self.graph().data(d).bytes()).ok());
        }
        Ok(None)
    }

    /// Device→host copy of `d` resident on `dev`, with retries; marks it
    /// host-valid. Returns `false` when the bus gave out (state degraded).
    fn copy_out(&self, st: &mut Walk, dev: usize, d: DataId) -> Result<bool, FrameworkError> {
        let tensor = match st.resident[dev].get(&d) {
            Some((_, t)) => t.clone(),
            None => {
                return Err(FrameworkError::DataUnavailable {
                    data: d,
                    context: format!("CopyOut of data not resident on device {dev}"),
                })
            }
        };
        if !self.transfer(st, d, dev, false) {
            self.degrade_to_cpu(
                st,
                &format!("transfer retries exhausted for {}", self.name(d)),
            );
            return Ok(false);
        }
        if let Some(t) = tensor {
            st.host.insert(d, t);
        }
        st.host_valid.insert(d);
        Ok(true)
    }

    /// Host→device staging of `d` onto `dev` (allocation + upload).
    /// Returns `false` on escalation (state already degraded).
    fn stage_in(&self, st: &mut Walk, dev: usize, d: DataId) -> Result<bool, FrameworkError> {
        if st.resident[dev].contains_key(&d) {
            return Ok(true);
        }
        let tensor = match st.bindings {
            Some(b) => Some(host_source(
                self.graph(),
                Some(&self.compiled.sharded.split),
                d,
                &st.host,
                b,
            )?),
            None => None,
        };
        let Some(a) = self.allocate(st, dev, d)? else {
            self.degrade_to_cpu(
                st,
                &format!("allocation of {} on device {dev} failed", self.name(d)),
            );
            return Ok(false);
        };
        if !self.transfer(st, d, dev, true) {
            st.allocs[dev]
                .try_free(a)
                .map_err(|e| FrameworkError::InvalidPlan(format!("allocator corrupted: {e}")))?;
            self.degrade_to_cpu(
                st,
                &format!("transfer retries exhausted for {}", self.name(d)),
            );
            return Ok(false);
        }
        st.resident[dev].insert(d, (a, tensor));
        Ok(true)
    }

    fn step_copy_in(&self, st: &mut Walk, dev: usize, d: DataId) -> Result<(), FrameworkError> {
        if st.cpu_mode || st.lost[dev] {
            return Ok(());
        }
        self.stage_in(st, dev, d)?;
        Ok(())
    }

    fn step_copy_out(&self, st: &mut Walk, dev: usize, d: DataId) -> Result<(), FrameworkError> {
        if st.host_valid.contains(&d) {
            return Ok(()); // data is immutable; an earlier copy stands
        }
        if !st.cpu_mode && !st.lost[dev] && st.resident[dev].contains_key(&d) {
            self.copy_out(st, dev, d)?;
            return Ok(());
        }
        // Device gone or the bytes with it: recompute on the host.
        if self.options.cpu_fallback {
            self.cpu_eval(st, d)?;
        }
        Ok(())
    }

    fn step_free(&self, st: &mut Walk, dev: usize, d: DataId) -> Result<(), FrameworkError> {
        // After recovery the datum may simply not be resident any more.
        if st.cpu_mode || st.lost[dev] {
            return Ok(());
        }
        if let Some((a, _)) = st.resident[dev].remove(&d) {
            st.allocs[dev]
                .try_free(a)
                .map_err(|e| FrameworkError::InvalidPlan(format!("allocator corrupted: {e}")))?;
            st.timeline
                .push_free(self.name(d).to_string(), self.graph().data(d).bytes());
        }
        Ok(())
    }

    /// Execute one offload unit on its device, escalating through kernel
    /// retries to per-unit CPU fallback.
    fn step_launch(
        &self,
        st: &mut Walk,
        units: &[OffloadUnit],
        dev: usize,
        u: usize,
    ) -> Result<(), FrameworkError> {
        let g = self.graph();
        if st.cpu_mode || st.lost[dev] {
            return self.unit_on_cpu(st, &units[u]);
        }
        let ops = units[u].ops.clone();
        for &o in &ops {
            let node = g.op(o);
            // Re-stage inputs lost to recovery.
            for &inp in &node.inputs {
                if st.resident[dev].contains_key(&inp) {
                    continue;
                }
                if g.producer(inp).is_some() && !st.host_valid.contains(&inp) {
                    // Prefer a surviving device copy; else recompute.
                    let holder = (0..st.resident.len())
                        .find(|&e| !st.lost[e] && st.resident[e].contains_key(&inp));
                    match holder {
                        Some(e) => {
                            self.copy_out(st, e, inp)?;
                        }
                        None => {
                            if !self.options.cpu_fallback {
                                return Ok(()); // outputs stay missing; sweep reports it
                            }
                            self.cpu_eval(st, inp)?;
                        }
                    }
                    if st.cpu_mode {
                        return self.unit_on_cpu(st, &units[u]);
                    }
                }
                if !self.stage_in(st, dev, inp)? {
                    return self.unit_on_cpu(st, &units[u]);
                }
            }

            let in_shapes: Vec<_> = node.inputs.iter().map(|&i| g.shape(i)).collect();
            let out = node.outputs[0];
            let cost = op_cost(node.kind, &in_shapes, g.shape(out));
            let dur = kernel_time(
                &self.cluster().devices[dev],
                Work {
                    flops: cost.flops,
                    bytes: cost.bytes,
                },
            );
            let site = st.kernel_serial;
            st.kernel_serial += 1;
            let policy = self.options.retry;
            let mut ok = false;
            for attempt in 0..policy.max_attempts {
                let t = st.timeline.now();
                st.timeline.push_kernel(node.name.clone(), dur);
                if !st.injector.kernel_faults(t, site, attempt) {
                    ok = true;
                    break;
                }
                st.stats.record(
                    st.timeline.now(),
                    RecoveryEventKind::Fault,
                    format!("kernel {} faulted (attempt {attempt})", node.name),
                );
                if attempt + 1 >= policy.max_attempts {
                    break;
                }
                st.timeline
                    .push_stall("kernel retry backoff", policy.backoff(attempt + 1));
                st.stats.record(
                    st.timeline.now(),
                    RecoveryEventKind::Retry,
                    format!("relaunching kernel {}", node.name),
                );
            }
            if !ok {
                // Kernel retries exhausted: the rest of the unit finishes
                // on the host (already-computed device outputs stay valid).
                if !self.options.cpu_fallback {
                    return Ok(());
                }
                return self.unit_on_cpu(st, &units[u]);
            }
            let out_tensor = if st.bindings.is_some() {
                let ins: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|i| {
                        st.resident[dev]
                            .get(i)
                            .and_then(|(_, t)| t.as_ref())
                            .ok_or_else(|| FrameworkError::DataUnavailable {
                                data: *i,
                                context: format!("input of {} not on device {dev}", node.name),
                            })
                    })
                    .collect::<Result<_, _>>()?;
                Some(execute(node.kind, &ins))
            } else {
                None
            };
            let Some(a) = self.allocate(st, dev, out)? else {
                self.degrade_to_cpu(
                    st,
                    &format!("allocation of {} on device {dev} failed", self.name(out)),
                );
                return self.unit_on_cpu(st, &units[u]);
            };
            st.resident[dev].insert(out, (a, out_tensor));
        }
        Ok(())
    }

    /// Finish one unit's operators on the host CPU (rung 4, per unit).
    fn unit_on_cpu(&self, st: &mut Walk, unit: &OffloadUnit) -> Result<(), FrameworkError> {
        if !self.options.cpu_fallback {
            return Ok(());
        }
        for &o in &unit.ops {
            let out = self.graph().op(o).outputs[0];
            self.cpu_eval(st, out)?;
        }
        Ok(())
    }

    /// Produce `d` on the host CPU, recursively recomputing missing
    /// intermediates. Device copies are preferred when one survives.
    fn cpu_eval(&self, st: &mut Walk, d: DataId) -> Result<(), FrameworkError> {
        if st.host_valid.contains(&d) {
            return Ok(());
        }
        let g = self.graph();
        let Some(producer) = g.producer(d) else {
            return Ok(()); // bindings are always host-resident
        };
        let node = g.op(producer);
        for &inp in &node.inputs {
            if g.producer(inp).is_some() && !st.host_valid.contains(&inp) {
                let holder = (0..st.resident.len())
                    .find(|&e| !st.cpu_mode && !st.lost[e] && st.resident[e].contains_key(&inp));
                if let Some(e) = holder {
                    self.copy_out(st, e, inp)?;
                }
                if !st.host_valid.contains(&inp) {
                    self.cpu_eval(st, inp)?;
                }
            }
        }
        let in_shapes: Vec<_> = node.inputs.iter().map(|&i| g.shape(i)).collect();
        let cost = op_cost(node.kind, &in_shapes, g.shape(d));
        // Time model: the assigned device's kernel time, slowed down.
        let dev = self.compiled.sharded.device_of(producer);
        let dur = kernel_time(
            &self.cluster().devices[dev],
            Work {
                flops: cost.flops,
                bytes: cost.bytes,
            },
        ) * self.options.cpu_slowdown;
        st.timeline.push_kernel(format!("{} (cpu)", node.name), dur);
        st.stats.record(
            st.timeline.now(),
            RecoveryEventKind::CpuFallback,
            format!("executed {} on host CPU", node.name),
        );
        if let Some(b) = st.bindings {
            let ins: Vec<Tensor> = node
                .inputs
                .iter()
                .map(|&i| host_source(g, Some(&self.compiled.sharded.split), i, &st.host, b))
                .collect::<Result<_, _>>()?;
            let refs: Vec<&Tensor> = ins.iter().collect();
            st.host.insert(d, execute(node.kind, &refs));
        }
        st.host_valid.insert(d);
        Ok(())
    }

    /// Rung 3: a device died. Evacuate survivors, recompute what died with
    /// the device, and replan the remaining suffix onto the survivors.
    #[allow(clippy::too_many_arguments)]
    fn handle_device_loss(
        &self,
        st: &mut Walk,
        ld: usize,
        units: &mut Vec<OffloadUnit>,
        unit_device: &mut Vec<usize>,
        steps: &mut Vec<Step>,
        launched: &mut Vec<bool>,
        i: &mut usize,
    ) -> Result<(), FrameworkError> {
        let g = self.graph();
        let t = st.timeline.now();
        st.lost[ld] = true;
        st.injector.log_device_loss(t, ld);
        st.stats.record(
            t,
            RecoveryEventKind::Fault,
            format!("hard loss of device {ld}"),
        );
        st.stats.record(
            t,
            RecoveryEventKind::DeviceLost,
            format!("device {ld} lost at t={t:.6}s"),
        );
        // The dead device's memory is gone.
        st.resident[ld].clear();
        st.allocs[ld] = DeviceAllocator::with_policy(
            self.cluster().devices[ld].memory_bytes,
            FitPolicy::FirstFit,
        );

        let ndev = self.cluster().len();
        let survivors: Vec<usize> = (0..ndev).filter(|&e| !st.lost[e]).collect();
        if survivors.is_empty() {
            self.degrade_to_cpu(st, "no surviving devices");
            return Ok(());
        }

        // Evacuate every survivor: the replanned suffix starts from a
        // host-only state. Sorted order keeps the walk deterministic.
        for &dev in &survivors {
            let mut held: Vec<DataId> = st.resident[dev].keys().copied().collect();
            held.sort();
            for d in held {
                if !st.host_valid.contains(&d) && !self.copy_out(st, dev, d)? {
                    return Ok(()); // bus gave out mid-evacuation: now on CPU
                }
            }
            st.resident[dev].clear();
            st.allocs[dev] = DeviceAllocator::with_policy(
                self.cluster().devices[dev].memory_bytes,
                FitPolicy::FirstFit,
            );
        }

        // The remaining suffix, in execution order.
        let rem: Vec<usize> = steps[*i..]
            .iter()
            .filter_map(|s| match *s {
                Step::Launch(u) if !launched[u] => Some(u),
                _ => None,
            })
            .collect();
        if rem.is_empty() {
            // Nothing left to launch; remaining steps are transfers/frees
            // the step handlers already treat resiliently.
            *i += 0;
            return Ok(());
        }

        // Inputs the suffix needs that died with the device: recompute on
        // the host so the replanner can pin them.
        let mut needed: Vec<DataId> = rem
            .iter()
            .flat_map(|&u| units[u].external_inputs(g))
            .filter(|&d| g.producer(d).is_some() && !st.host_valid.contains(&d))
            .collect();
        needed.sort();
        needed.dedup();
        for d in needed {
            if !self.options.cpu_fallback {
                self.degrade_to_cpu(st, "lost intermediates and CPU fallback disabled");
                return Ok(());
            }
            self.cpu_eval(st, d)?;
        }

        // Reassign the dead device's units round-robin over survivors and
        // replan the suffix with the completed prefix pinned host-side.
        let mut rr = 0usize;
        let new_units: Vec<OffloadUnit> = rem.iter().map(|&u| units[u].clone()).collect();
        let new_ud: Vec<usize> = rem
            .iter()
            .map(|&u| {
                if st.lost[unit_device[u]] {
                    let dev = survivors[rr % survivors.len()];
                    rr += 1;
                    dev
                } else {
                    unit_device[u]
                }
            })
            .collect();
        let order: Vec<usize> = (0..new_units.len()).collect();
        let mut budgets = self.cluster().capacities();
        for (e, b) in budgets.iter_mut().enumerate() {
            if st.lost[e] {
                *b = 0;
            }
        }
        let mut pinned: Vec<DataId> = st.host_valid.iter().copied().collect();
        pinned.sort();
        let moved = rr;
        match schedule_multi_transfers(
            g,
            &new_units,
            &new_ud,
            &order,
            &MultiXferOptions {
                budgets,
                eager_free: true,
                pinned_host: pinned,
            },
        ) {
            Ok(plan) => {
                st.stats.record(
                    st.timeline.now(),
                    RecoveryEventKind::Replan,
                    format!(
                        "replanned {} remaining unit(s) ({} moved off device {ld}) onto {} survivor(s)",
                        new_units.len(),
                        moved,
                        survivors.len()
                    ),
                );
                *units = plan.units;
                *unit_device = plan.unit_device;
                *steps = plan.steps;
                *launched = vec![false; units.len()];
                *i = 0;
            }
            Err(e) => {
                self.degrade_to_cpu(st, &format!("failover replanning failed ({e})"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::compile_multi;
    use crate::Cluster;
    use gpuflow_graph::{DataKind, OpKind, RemapKind};
    use gpuflow_ops::reference_eval;
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

    fn bindings(g: &Graph) -> HashMap<DataId, Tensor> {
        let mut b = HashMap::new();
        for d in g.data_ids() {
            if g.data(d).kind.starts_on_cpu() {
                let desc = g.data(d);
                b.insert(
                    d,
                    Tensor::from_fn(desc.rows, desc.cols, |r, c| {
                        ((r * 31 + c * 7) % 13) as f32 * 0.25 - 1.0
                    }),
                );
            }
        }
        b
    }

    #[test]
    fn quiet_functional_multi_run_matches_reference() {
        let g = edge_like(64, 5);
        let cluster = Cluster::homogeneous(tesla_c870(), 2);
        let c = compile_multi(&g, &cluster, 0.05).unwrap();
        let bind = bindings(&g);
        let spec = FaultSpec::quiet(1);
        let out = ResilientMultiExecutor::new(&c, &spec)
            .run_functional(&bind)
            .unwrap();
        assert!(out.stats.recovered);
        assert_eq!(out.stats.faults_injected, 0);
        let reference = reference_eval(&g, &bind).unwrap();
        assert_eq!(out.outputs.len(), 1);
        for (d, t) in &out.outputs {
            assert_eq!(t, &reference[d], "output {} differs", g.data(*d).name);
        }
    }

    #[test]
    fn device_loss_at_midpoint_fails_over_and_matches_reference() {
        let g = edge_like(64, 5);
        let cluster = Cluster::homogeneous(tesla_c870(), 2);
        let c = compile_multi(&g, &cluster, 0.05).unwrap();
        let bind = bindings(&g);
        for dev in [0usize, 1] {
            let spec = FaultSpec::parse(&format!("seed=5,loss={dev}@50%")).unwrap();
            let out = ResilientMultiExecutor::new(&c, &spec)
                .run_functional(&bind)
                .unwrap();
            assert!(out.stats.recovered, "dev {dev}: {}", out.stats.summary());
            assert!(
                out.stats.replans > 0 || out.stats.cpu_fallback_ops > 0,
                "dev {dev} recovered without replanning: {}",
                out.stats.summary()
            );
            let reference = reference_eval(&g, &bind).unwrap();
            for (d, t) in &out.outputs {
                assert_eq!(t, &reference[d], "dev {dev}: output differs");
            }
            assert!(out.stats.makespan_s > 0.0);
        }
    }

    #[test]
    fn transient_faults_on_two_devices_recover_exactly() {
        let g = edge_like(48, 5);
        let cluster = Cluster::homogeneous(tesla_c870(), 2);
        let c = compile_multi(&g, &cluster, 0.05).unwrap();
        let bind = bindings(&g);
        let spec = FaultSpec::parse("seed=9,kernel=0.25,transfer=0.15,alloc=0.1").unwrap();
        let out = ResilientMultiExecutor::new(&c, &spec)
            .run_functional(&bind)
            .unwrap();
        assert!(out.stats.recovered, "{}", out.stats.summary());
        assert!(out.stats.faults_injected > 0);
        let reference = reference_eval(&g, &bind).unwrap();
        for (d, t) in &out.outputs {
            assert_eq!(t, &reference[d]);
        }
    }

    #[test]
    fn same_seed_gives_bit_identical_multi_timelines() {
        let g = edge_like(48, 5);
        let cluster = Cluster::homogeneous(tesla_c870(), 2);
        let c = compile_multi(&g, &cluster, 0.05).unwrap();
        let spec =
            FaultSpec::parse("seed=31,kernel=0.2,transfer=0.2,alloc=0.1,loss=1@60%").unwrap();
        let run = || {
            ResilientMultiExecutor::new(&c, &spec)
                .run_analytic()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.timeline.events(), b.timeline.events());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.injector.events(), b.injector.events());
    }
}
