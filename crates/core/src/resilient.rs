//! Fault-tolerant plan execution: the single-device recovery ladder.
//!
//! [`ResilientExecutor`] wraps the same plan walk as [`crate::Executor`]
//! but consults a [`FaultInjector`] at every kernel launch, transfer, and
//! allocation, and recovers through an escalation ladder:
//!
//! 1. **Retry** — transient faults are retried with exponential backoff in
//!    *simulated* time ([`gpuflow_chaos::RetryPolicy`]), bounded per site;
//! 2. **Checkpoint/restart** — after each offload unit, freshly produced
//!    data that the recoverability analysis (`gpuflow_verify::recover`)
//!    says a later restart needs is copied to the host; a unit whose
//!    retries are exhausted is restarted from those host copies, bounded
//!    by [`RecoveryOptions::max_unit_restarts`];
//! 3. **CPU degradation** — a unit that cannot complete on the device (or
//!    the whole remaining plan, after a hard device loss) finishes on the
//!    host CPU at [`RecoveryOptions::cpu_slowdown`]× the device kernel
//!    time. Missing intermediates are recomputed from their producers.
//!
//! (Rung 3 of the full ladder — failover replanning onto surviving
//! devices — needs more than one device and lives in
//! `gpuflow_multi::resilient`.)
//!
//! Determinism: injection decisions are pure functions of
//! `(seed, class, site, attempt)`, sites are derived from stable step/op
//! indices and data ids, and every collection iterated during the walk is
//! ordered — so one `FaultSpec` yields one bit-identical timeline, event
//! log, and (functional mode) output set, run after run.

use std::collections::HashMap;

use gpuflow_chaos::{FaultInjector, FaultSpec, RecoveryEventKind, RecoveryOptions, RecoveryStats};
use gpuflow_graph::{DataId, Graph, OpId};
use gpuflow_ops::{execute, op_cost, Tensor};
use gpuflow_sim::{
    kernel_time, timing::Work, Allocation, DeviceAllocator, DeviceSpec, FitPolicy, Timeline,
};
use gpuflow_verify::RecoveryCheckOptions;

use crate::error::FrameworkError;
use crate::executor::{assemble_outputs, host_source, ExecOutcome, Executor};
use crate::plan::{ExecutionPlan, Step};
use crate::split::SplitResult;

/// Site-id namespaces: decisions must be stable across replays, so sites
/// are derived from plan positions and data ids, never from "how many
/// queries happened so far".
const SITE_KERNEL: u64 = 1 << 60;
const SITE_PLAN_XFER: u64 = 2 << 60;
const SITE_DYN_XFER: u64 = 3 << 60;
const SITE_ALLOC: u64 = 4 << 60;

/// Result of one resilient run.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The ordinary execution outcome (timeline, peaks, outputs).
    pub exec: ExecOutcome,
    /// The recovery ledger: counters, events, overhead.
    pub stats: RecoveryStats,
    /// The bound injector, holding the injected-fault log (for tracing).
    pub injector: FaultInjector,
}

/// Executes one plan on one device under an injected fault schedule.
pub struct ResilientExecutor<'a> {
    graph: &'a Graph,
    plan: &'a ExecutionPlan,
    device: &'a DeviceSpec,
    spec: &'a FaultSpec,
    options: RecoveryOptions,
    origin: Option<&'a SplitResult>,
    alloc_policy: FitPolicy,
}

/// Mutable state of one resilient walk.
struct RunState<'b> {
    timeline: Timeline,
    alloc: DeviceAllocator,
    /// Device-resident data (allocation + functional tensor).
    device: HashMap<DataId, (Allocation, Option<Tensor>)>,
    /// Host copies of produced data (functional mode tensors).
    host: HashMap<DataId, Tensor>,
    /// Produced data currently valid on the host (tracked in both modes).
    host_valid: std::collections::HashSet<DataId>,
    bindings: Option<&'b HashMap<DataId, Tensor>>,
    injector: FaultInjector,
    stats: RecoveryStats,
    /// Per-(class-salted) site attempt counters; persist across unit
    /// restarts so escalation always makes progress.
    attempts: HashMap<u64, u32>,
    /// After a hard device loss: no device exists, everything runs on CPU.
    cpu_mode: bool,
    peak_frag: f64,
    peak_bytes: u64,
}

impl<'a> ResilientExecutor<'a> {
    /// Resilient executor over `plan` for `graph` on `device` under the
    /// fault model `spec`.
    pub fn new(
        graph: &'a Graph,
        plan: &'a ExecutionPlan,
        device: &'a DeviceSpec,
        spec: &'a FaultSpec,
    ) -> Self {
        ResilientExecutor {
            graph,
            plan,
            device,
            spec,
            options: RecoveryOptions::default(),
            origin: None,
            alloc_policy: FitPolicy::FirstFit,
        }
    }

    /// Override the recovery options.
    pub fn with_options(mut self, options: RecoveryOptions) -> Self {
        self.options = options;
        self
    }

    /// Supply split provenance (see [`Executor::with_origin`]).
    pub fn with_origin(mut self, split: &'a SplitResult) -> Self {
        self.origin = Some(split);
        self
    }

    /// Override the device allocator's fit policy.
    pub fn with_alloc_policy(mut self, policy: FitPolicy) -> Self {
        self.alloc_policy = policy;
        self
    }

    /// Run without materializing data.
    pub fn run_analytic(&self) -> Result<ResilientOutcome, FrameworkError> {
        self.run(None)
    }

    /// Run functionally (see [`Executor::run_functional`]).
    pub fn run_functional(
        &self,
        bindings: &HashMap<DataId, Tensor>,
    ) -> Result<ResilientOutcome, FrameworkError> {
        self.run(Some(bindings))
    }

    fn run(
        &self,
        bindings: Option<&HashMap<DataId, Tensor>>,
    ) -> Result<ResilientOutcome, FrameworkError> {
        // The fault-free baseline: resolves `loss=DEV@P%` times and is the
        // overhead denominator. Always analytic — same simulated clock.
        let mut baseline_exec =
            Executor::new(self.graph, self.plan, self.device).with_alloc_policy(self.alloc_policy);
        if let Some(split) = self.origin {
            baseline_exec = baseline_exec.with_origin(split);
        }
        let faultfree = baseline_exec.run_analytic()?.total_time();

        let injector = FaultInjector::new(self.spec, faultfree);
        let mut st = RunState {
            timeline: Timeline::new(),
            alloc: DeviceAllocator::with_policy(self.device.memory_bytes, self.alloc_policy),
            device: HashMap::new(),
            host: HashMap::new(),
            host_valid: std::collections::HashSet::new(),
            bindings,
            injector,
            stats: RecoveryStats {
                faultfree_makespan_s: faultfree,
                ..RecoveryStats::default()
            },
            attempts: HashMap::new(),
            cpu_mode: false,
            peak_frag: 0.0,
            peak_bytes: 0,
        };

        // What each launch's successor needs host-resident: the exit
        // checkpoint set for launch k is the restart set of launch k+1.
        let report = self
            .plan
            .recovery_report(self.graph, RecoveryCheckOptions::default());
        let restart_sets: Vec<Vec<DataId>> = report
            .per_launch
            .iter()
            .map(|l| l.restart_set.clone())
            .collect();

        let mut launch_ordinal = 0usize;
        for (i, step) in self.plan.steps.iter().enumerate() {
            self.check_device_loss(&mut st)?;
            match *step {
                Step::CopyIn { data: d, .. } => self.step_copy_in(&mut st, i, d)?,
                Step::CopyOut { data: d, .. } => self.step_copy_out(&mut st, i, d)?,
                Step::Free { data: d, .. } => self.step_free(&mut st, d)?,
                Step::Launch(u) => {
                    self.step_launch(&mut st, i, u)?;
                    // Exit checkpoint: what the *next* launch needs on the
                    // host that is not there yet.
                    if self.options.checkpoints && !st.cpu_mode {
                        if let Some(next) = restart_sets.get(launch_ordinal + 1) {
                            for &d in next {
                                if !st.host_valid.contains(&d) && st.device.contains_key(&d) {
                                    self.copy_out(&mut st, SITE_DYN_XFER | d.index() as u64, d)?;
                                    let t = st.timeline.now();
                                    st.stats.record(
                                        t,
                                        RecoveryEventKind::Checkpoint,
                                        format!("checkpointed {} at unit exit", self.name(d)),
                                    );
                                }
                            }
                        }
                    }
                    launch_ordinal += 1;
                }
            }
        }

        // Deliver outputs that the faulted walk left undelivered.
        let mut recovered = true;
        for d in self.graph.outputs() {
            if st.host_valid.contains(&d) {
                continue;
            }
            if !st.cpu_mode && st.device.contains_key(&d) {
                self.copy_out(&mut st, SITE_DYN_XFER | d.index() as u64, d)?;
            } else if self.options.cpu_fallback {
                self.cpu_eval(&mut st, d)?;
            } else {
                recovered = false;
            }
        }

        st.stats.recovered = recovered;
        st.stats.makespan_s = st.timeline.now();

        let outputs = if bindings.is_some() && recovered {
            assemble_outputs(self.graph, self.origin, &st.host)?
        } else {
            HashMap::new()
        };
        let peak_bytes = st.peak_bytes.max(st.alloc.high_water());
        Ok(ResilientOutcome {
            exec: ExecOutcome {
                timeline: st.timeline,
                peak_device_bytes: peak_bytes,
                peak_fragmentation: st.peak_frag,
                outputs,
            },
            stats: st.stats,
            injector: st.injector,
        })
    }

    fn name(&self, d: DataId) -> &str {
        &self.graph.data(d).name
    }

    /// Observe a hard device loss at the current simulated time: the
    /// device's memory is gone, no further work runs on it. Remaining
    /// steps degrade to the host CPU (rung 4).
    fn check_device_loss(&self, st: &mut RunState) -> Result<(), FrameworkError> {
        let t = st.timeline.now();
        if st.cpu_mode || !st.injector.device_lost(0, t) {
            return Ok(());
        }
        st.injector.log_device_loss(t, 0);
        st.stats
            .record(t, RecoveryEventKind::Fault, "hard device loss".to_string());
        st.stats.record(
            t,
            RecoveryEventKind::DeviceLost,
            "device 0 lost; degrading remaining work to host CPU".to_string(),
        );
        // Memory contents are gone with the device.
        st.peak_bytes = st.peak_bytes.max(st.alloc.high_water());
        st.alloc = DeviceAllocator::with_policy(self.device.memory_bytes, self.alloc_policy);
        st.device.clear();
        st.cpu_mode = true;
        if !self.options.cpu_fallback {
            // Nothing left to run on; outputs not already host-valid are
            // forfeit. The end-of-run sweep reports `recovered = false`.
        }
        Ok(())
    }

    /// Bounded-retry transfer in direction `to_gpu`, honouring brown-outs.
    /// Returns `false` if retries were exhausted (escalation needed).
    fn transfer(&self, st: &mut RunState, site: u64, d: DataId, to_gpu: bool) -> bool {
        let bytes = self.graph.data(d).bytes();
        let key = site;
        let policy = self.options.retry;
        loop {
            let attempt = *st.attempts.get(&key).unwrap_or(&0);
            if attempt >= policy.max_attempts {
                return false;
            }
            st.attempts.insert(key, attempt + 1);
            let t = st.timeline.now();
            // Brown-out: bandwidth scaled by the window's factor at the
            // transfer's start instant.
            let factor = st.injector.bandwidth_factor(t);
            let dur =
                self.device.transfer_latency_s + bytes as f64 / (self.device.pcie_bw * factor);
            let name = self.name(d).to_string();
            if to_gpu {
                st.timeline.push_copy_to_gpu(name, bytes, dur);
            } else {
                st.timeline.push_copy_to_cpu(name, bytes, dur);
            }
            if !st.injector.transfer_faults(t, key, attempt) {
                return true;
            }
            // Corrupted: the bytes moved (and were paid for), but must be
            // retransmitted after backoff.
            let now = st.timeline.now();
            st.stats.record(
                now,
                RecoveryEventKind::Fault,
                format!("transfer of {} corrupted (attempt {attempt})", self.name(d)),
            );
            if attempt + 1 >= policy.max_attempts {
                return false;
            }
            let backoff = policy.backoff(attempt + 1);
            st.timeline.push_stall("transfer retry backoff", backoff);
            st.stats.record(
                st.timeline.now(),
                RecoveryEventKind::Retry,
                format!("retransmitting {}", self.name(d)),
            );
        }
    }

    /// Bounded-retry device allocation with transient injected failures.
    fn allocate(&self, st: &mut RunState, d: DataId) -> Result<Option<Allocation>, FrameworkError> {
        let key = SITE_ALLOC | d.index() as u64;
        let policy = self.options.retry;
        loop {
            let attempt = *st.attempts.get(&key).unwrap_or(&0);
            if attempt >= policy.max_attempts {
                return Ok(None);
            }
            st.attempts.insert(key, attempt + 1);
            let t = st.timeline.now();
            if st.injector.alloc_faults(t, key, attempt) {
                st.stats.record(
                    t,
                    RecoveryEventKind::Fault,
                    format!("transient allocation failure for {}", self.name(d)),
                );
                if attempt + 1 >= policy.max_attempts {
                    return Ok(None);
                }
                let backoff = policy.backoff(attempt + 1);
                st.timeline.push_stall("alloc retry backoff", backoff);
                st.stats.record(
                    st.timeline.now(),
                    RecoveryEventKind::Retry,
                    format!("retrying allocation of {}", self.name(d)),
                );
                continue;
            }
            let a = st.alloc.alloc(self.graph.data(d).bytes()).map_err(|e| {
                FrameworkError::InvalidPlan(format!(
                    "device allocation failed for {}: {e}",
                    self.name(d)
                ))
            })?;
            st.peak_frag = st.peak_frag.max(st.alloc.fragmentation());
            return Ok(Some(a));
        }
    }

    /// Device→host copy of resident `d` with retries; marks it host-valid.
    fn copy_out(&self, st: &mut RunState, site: u64, d: DataId) -> Result<(), FrameworkError> {
        let tensor = match st.device.get(&d) {
            Some((_, t)) => t.clone(),
            None => {
                return Err(FrameworkError::DataUnavailable {
                    data: d,
                    context: "CopyOut of non-resident data".into(),
                })
            }
        };
        if !self.transfer(st, site, d, false) {
            // Retries exhausted on the way out: degrade to CPU for the
            // rest of the run — the device is effectively unreachable.
            return self.escalate_bus_failure(st, d);
        }
        if let Some(t) = tensor {
            st.host.insert(d, t);
        }
        st.host_valid.insert(d);
        Ok(())
    }

    /// Transfer retries exhausted: treat the bus as unusable and finish on
    /// the CPU (rung 4 without the device loss).
    fn escalate_bus_failure(&self, st: &mut RunState, d: DataId) -> Result<(), FrameworkError> {
        let t = st.timeline.now();
        st.stats.record(
            t,
            RecoveryEventKind::DeviceLost,
            format!(
                "transfer retries exhausted for {}; degrading to host CPU",
                self.name(d)
            ),
        );
        st.peak_bytes = st.peak_bytes.max(st.alloc.high_water());
        st.alloc = DeviceAllocator::with_policy(self.device.memory_bytes, self.alloc_policy);
        st.device.clear();
        st.cpu_mode = true;
        Ok(())
    }

    fn step_copy_in(&self, st: &mut RunState, i: usize, d: DataId) -> Result<(), FrameworkError> {
        if st.cpu_mode {
            return Ok(()); // no device to copy to; CPU path reads the host
        }
        if st.device.contains_key(&d) {
            return Ok(()); // already staged by recovery
        }
        let tensor = match st.bindings {
            Some(b) => Some(host_source(self.graph, self.origin, d, &st.host, b)?),
            None => None,
        };
        let Some(a) = self.allocate(st, d)? else {
            return self.escalate_bus_failure(st, d);
        };
        if !self.transfer(st, SITE_PLAN_XFER | i as u64, d, true) {
            st.alloc
                .try_free(a)
                .map_err(|e| FrameworkError::InvalidPlan(format!("allocator corrupted: {e}")))?;
            return self.escalate_bus_failure(st, d);
        }
        st.device.insert(d, (a, tensor));
        Ok(())
    }

    fn step_copy_out(&self, st: &mut RunState, i: usize, d: DataId) -> Result<(), FrameworkError> {
        if st.host_valid.contains(&d) {
            return Ok(()); // checkpoint already delivered it (data is immutable)
        }
        if st.cpu_mode {
            // Device gone: recompute on the host if allowed.
            if self.options.cpu_fallback {
                return self.cpu_eval(st, d);
            }
            return Ok(()); // end-of-run sweep will mark unrecovered
        }
        self.copy_out(st, SITE_PLAN_XFER | i as u64, d)
    }

    fn step_free(&self, st: &mut RunState, d: DataId) -> Result<(), FrameworkError> {
        // After a wipe/restart the datum may simply not be resident.
        if let Some((a, _)) = st.device.remove(&d) {
            st.alloc
                .try_free(a)
                .map_err(|e| FrameworkError::InvalidPlan(format!("allocator corrupted: {e}")))?;
            st.timeline
                .push_free(self.name(d).to_string(), self.graph.data(d).bytes());
        }
        Ok(())
    }

    /// Execute one offload unit on the device, escalating through retries,
    /// unit restarts, and CPU fallback.
    fn step_launch(&self, st: &mut RunState, i: usize, u: usize) -> Result<(), FrameworkError> {
        if st.cpu_mode {
            return self.launch_on_cpu(st, u);
        }
        let mut restarts = 0u32;
        'unit: loop {
            // Produced so far in this attempt, for rollback on restart.
            let mut produced: Vec<DataId> = Vec::new();
            let ops: Vec<OpId> = self.plan.units[u].ops.clone();
            for (k, &o) in ops.iter().enumerate() {
                match self.launch_op(st, i, k, o)? {
                    OpResult::Done(out) => produced.push(out),
                    OpResult::RetriesExhausted => {
                        // Rung 2: restart the unit from host-resident
                        // inputs, dropping partial outputs.
                        for &d in produced.iter().rev() {
                            if let Some((a, _)) = st.device.remove(&d) {
                                st.alloc.try_free(a).map_err(|e| {
                                    FrameworkError::InvalidPlan(format!("allocator corrupted: {e}"))
                                })?;
                            }
                        }
                        if restarts < self.options.max_unit_restarts {
                            restarts += 1;
                            st.stats.record(
                                st.timeline.now(),
                                RecoveryEventKind::UnitRestart,
                                format!("restarting unit {u} (restart {restarts})"),
                            );
                            continue 'unit;
                        }
                        // Rung 4: the unit finishes on the CPU.
                        if !self.options.cpu_fallback {
                            return Ok(()); // outputs stay missing; sweep reports it
                        }
                        return self.launch_on_cpu(st, u);
                    }
                    OpResult::Degraded => return self.launch_on_cpu(st, u),
                }
            }
            return Ok(());
        }
    }

    /// One op of a device launch. Stages missing inputs, allocates the
    /// output, and runs the kernel under the retry policy.
    fn launch_op(
        &self,
        st: &mut RunState,
        step: usize,
        op_ordinal: usize,
        o: OpId,
    ) -> Result<OpResult, FrameworkError> {
        let node = self.graph.op(o);
        // Re-stage inputs lost to recovery (restart, eviction rollback).
        for &inp in &node.inputs {
            if st.device.contains_key(&inp) {
                continue;
            }
            let produced = self.graph.producer(inp).is_some();
            if produced && !st.host_valid.contains(&inp) {
                // Lost intermediate with no checkpoint: recompute on host,
                // then stage it.
                if !self.options.cpu_fallback {
                    return Ok(OpResult::RetriesExhausted);
                }
                self.cpu_eval(st, inp)?;
                if st.cpu_mode {
                    // Recomputation escalated past the device entirely.
                    return Ok(OpResult::Degraded);
                }
            }
            let tensor = match st.bindings {
                Some(b) => Some(host_source(self.graph, self.origin, inp, &st.host, b)?),
                None => None,
            };
            let Some(a) = self.allocate(st, inp)? else {
                return Ok(OpResult::Degraded);
            };
            if !self.transfer(st, SITE_DYN_XFER | inp.index() as u64, inp, true) {
                st.alloc.try_free(a).map_err(|e| {
                    FrameworkError::InvalidPlan(format!("allocator corrupted: {e}"))
                })?;
                return Ok(OpResult::Degraded);
            }
            st.device.insert(inp, (a, tensor));
        }

        let in_shapes: Vec<_> = node.inputs.iter().map(|&i| self.graph.shape(i)).collect();
        let out = node.outputs[0];
        let cost = op_cost(node.kind, &in_shapes, self.graph.shape(out));
        let dur = kernel_time(
            self.device,
            Work {
                flops: cost.flops,
                bytes: cost.bytes,
            },
        );
        let site = SITE_KERNEL | ((step as u64) << 16) | op_ordinal as u64;
        let policy = self.options.retry;
        loop {
            let attempt = *st.attempts.get(&site).unwrap_or(&0);
            if attempt >= policy.max_attempts {
                return Ok(OpResult::RetriesExhausted);
            }
            st.attempts.insert(site, attempt + 1);
            let t = st.timeline.now();
            st.timeline.push_kernel(node.name.clone(), dur);
            if !st.injector.kernel_faults(t, site, attempt) {
                break;
            }
            st.stats.record(
                st.timeline.now(),
                RecoveryEventKind::Fault,
                format!("kernel {} faulted (attempt {attempt})", node.name),
            );
            if attempt + 1 >= policy.max_attempts {
                return Ok(OpResult::RetriesExhausted);
            }
            let backoff = policy.backoff(attempt + 1);
            st.timeline.push_stall("kernel retry backoff", backoff);
            st.stats.record(
                st.timeline.now(),
                RecoveryEventKind::Retry,
                format!("relaunching kernel {}", node.name),
            );
        }
        // Kernel succeeded: materialize the output.
        let out_tensor = if st.bindings.is_some() {
            let ins: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|i| {
                    st.device
                        .get(i)
                        .and_then(|(_, t)| t.as_ref())
                        .ok_or_else(|| FrameworkError::DataUnavailable {
                            data: *i,
                            context: format!("input of {} not on device", node.name),
                        })
                })
                .collect::<Result<_, _>>()?;
            Some(execute(node.kind, &ins))
        } else {
            None
        };
        let Some(a) = self.allocate(st, out)? else {
            return Ok(OpResult::Degraded);
        };
        st.device.insert(out, (a, out_tensor));
        Ok(OpResult::Done(out))
    }

    /// Run one offload unit's operators on the host CPU (rung 4).
    fn launch_on_cpu(&self, st: &mut RunState, u: usize) -> Result<(), FrameworkError> {
        let ops: Vec<OpId> = self.plan.units[u].ops.clone();
        for o in ops {
            let out = self.graph.op(o).outputs[0];
            if !st.host_valid.contains(&out) {
                self.cpu_eval(st, out)?;
            }
        }
        Ok(())
    }

    /// Produce `d` on the host CPU, recursively recomputing missing
    /// intermediates from their producers. Bindings are read directly.
    /// Deterministic: recursion follows graph structure only.
    fn cpu_eval(&self, st: &mut RunState, d: DataId) -> Result<(), FrameworkError> {
        if st.host_valid.contains(&d) {
            return Ok(());
        }
        let Some(producer) = self.graph.producer(d) else {
            return Ok(()); // bindings are always host-resident
        };
        let node = self.graph.op(producer);
        for &inp in &node.inputs {
            if self.graph.producer(inp).is_some() && !st.host_valid.contains(&inp) {
                // Prefer a device copy if one survives; else (or if the
                // copy-out itself escalated) recompute recursively.
                if !st.cpu_mode && st.device.contains_key(&inp) {
                    self.copy_out(st, SITE_DYN_XFER | inp.index() as u64, inp)?;
                }
                if !st.host_valid.contains(&inp) {
                    self.cpu_eval(st, inp)?;
                }
            }
        }
        let in_shapes: Vec<_> = node.inputs.iter().map(|&i| self.graph.shape(i)).collect();
        let cost = op_cost(node.kind, &in_shapes, self.graph.shape(d));
        let dur = kernel_time(
            self.device,
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
                .map(|&i| host_source(self.graph, self.origin, i, &st.host, b))
                .collect::<Result<_, _>>()?;
            let refs: Vec<&Tensor> = ins.iter().collect();
            st.host.insert(d, execute(node.kind, &refs));
        }
        st.host_valid.insert(d);
        Ok(())
    }
}

/// How one device-op attempt ended.
enum OpResult {
    /// The op completed; its output data id.
    Done(DataId),
    /// Kernel retries exhausted — restart or degrade the unit.
    RetriesExhausted,
    /// Allocation/transfer machinery gave out — degrade the run to CPU.
    Degraded,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{fig3_graph, fig3_memory_bytes};
    use crate::opschedule::{schedule_units, OpScheduler};
    use crate::partition::{partition_offload_units, PartitionPolicy};
    use crate::xfer::{schedule_transfers, EvictionPolicy, XferOptions};
    use gpuflow_ops::reference_eval;
    use gpuflow_sim::device::tesla_c870;

    fn fig3_plan() -> (Graph, ExecutionPlan) {
        let g = fig3_graph();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let order = schedule_units(&g, &units, OpScheduler::DepthFirst);
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

    fn bindings(g: &Graph) -> HashMap<DataId, Tensor> {
        let mut bind = HashMap::new();
        bind.insert(
            g.inputs()[0],
            Tensor::from_fn(2, crate::examples::FIG3_UNIT_FLOATS, |r, c| {
                (r * 1000 + c) as f32
            }),
        );
        bind
    }

    #[test]
    fn quiet_spec_matches_the_plain_executor() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let spec = FaultSpec::quiet(7);
        let res = ResilientExecutor::new(&g, &plan, &dev, &spec)
            .run_analytic()
            .unwrap();
        let plain = Executor::new(&g, &plan, &dev).run_analytic().unwrap();
        assert!(res.stats.recovered);
        assert_eq!(res.stats.faults_injected, 0);
        assert_eq!(res.stats.retries, 0);
        // Checkpoints may add copies; with checkpointing off the timelines
        // agree exactly.
        let no_ckpt = ResilientExecutor::new(&g, &plan, &dev, &spec)
            .with_options(RecoveryOptions {
                checkpoints: false,
                ..RecoveryOptions::default()
            })
            .run_analytic()
            .unwrap();
        assert_eq!(no_ckpt.exec.timeline.counters(), plain.timeline.counters());
        assert!((res.stats.faultfree_makespan_s - plain.total_time()).abs() < 1e-12);
    }

    #[test]
    fn transient_kernel_faults_are_retried_and_outputs_match_reference() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let spec = FaultSpec::parse("seed=11,kernel=0.3,transfer=0.1,alloc=0.1").unwrap();
        let bind = bindings(&g);
        let res = ResilientExecutor::new(&g, &plan, &dev, &spec)
            .run_functional(&bind)
            .unwrap();
        assert!(res.stats.recovered);
        assert!(res.stats.faults_injected > 0, "{:?}", res.stats);
        assert!(res.stats.retries > 0);
        assert!(res.stats.overhead() > 0.0);
        let reference = reference_eval(&g, &bind).unwrap();
        for (d, t) in &res.exec.outputs {
            assert_eq!(t, &reference[d], "output {} differs", g.data(*d).name);
        }
    }

    #[test]
    fn device_loss_mid_run_degrades_to_cpu_and_still_matches_reference() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let spec = FaultSpec::parse("seed=3,loss=0@50%").unwrap();
        let bind = bindings(&g);
        let res = ResilientExecutor::new(&g, &plan, &dev, &spec)
            .run_functional(&bind)
            .unwrap();
        assert!(res.stats.recovered, "{}", res.stats.summary());
        assert!(res.stats.cpu_fallback_ops > 0, "{}", res.stats.summary());
        let reference = reference_eval(&g, &bind).unwrap();
        assert_eq!(res.exec.outputs.len(), 2);
        for (d, t) in &res.exec.outputs {
            assert_eq!(t, &reference[d]);
        }
        // Recovery costs time.
        assert!(res.stats.makespan_s > res.stats.faultfree_makespan_s);
    }

    #[test]
    fn same_seed_gives_bit_identical_timelines() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let spec = FaultSpec::parse("seed=21,kernel=0.25,transfer=0.2,alloc=0.15,brownout=0:1:0.5")
            .unwrap();
        let run = || {
            ResilientExecutor::new(&g, &plan, &dev, &spec)
                .run_analytic()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.exec.timeline.events(), b.exec.timeline.events());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.injector.events(), b.injector.events());
        // A different seed really changes the run.
        let other = FaultSpec {
            seed: 22,
            ..spec.clone()
        };
        let c = ResilientExecutor::new(&g, &plan, &dev, &other)
            .run_analytic()
            .unwrap();
        assert_ne!(a.injector.events(), c.injector.events());
    }

    #[test]
    fn brownout_slows_transfers() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let quiet = FaultSpec::quiet(0);
        let slow = FaultSpec::parse("brownout=0:1000:0.1").unwrap();
        let opts = RecoveryOptions {
            checkpoints: false,
            ..RecoveryOptions::default()
        };
        let base = ResilientExecutor::new(&g, &plan, &dev, &quiet)
            .with_options(opts.clone())
            .run_analytic()
            .unwrap();
        let browned = ResilientExecutor::new(&g, &plan, &dev, &slow)
            .with_options(opts)
            .run_analytic()
            .unwrap();
        let b0 = base.exec.timeline.counters();
        let b1 = browned.exec.timeline.counters();
        // Fig. 3 transfers are latency-dominated, so only the bandwidth
        // term stretches: strictly slower, same work.
        assert!(b1.transfer_time > b0.transfer_time);
        assert_eq!(b1.bytes_to_gpu, b0.bytes_to_gpu);
        assert_eq!(b1.kernel_time, b0.kernel_time);
    }
}
