//! Plan execution against the simulated GPU platform: the one plan walk.
//!
//! [`ResilientExecutor`] walks a device-indexed [`ExecutionPlan`] on a
//! [`Machine`] — one device ([`Machine::single`]) or a cluster sharing a
//! bus. In **analytic** mode no tensors are materialized: the walk drives
//! each device's allocator (so fragmentation is real) and accumulates
//! simulated time and transfer counters, which scales to the paper's
//! 17 GB-footprint experiments. In **functional** mode every kernel really
//! runs (on the host CPU, via `gpuflow-ops`); split pieces are sliced from
//! and reassembled into the original template data, so the outputs compare
//! bit for bit with `gpuflow_ops::reference_eval`.
//!
//! **A quiet run is one walk.** Under a spec that injects nothing and with
//! checkpoints off ([`ResilientExecutor::quiet`]) the plan is walked once,
//! with no recovery ladder: an allocation the device cannot satisfy, or a
//! datum that is not resident where a step needs it, is an error. That
//! walk is the compile ladder's dry run, [`crate::CompiledTemplate`]'s
//! `run_analytic` and `run_functional`, and every baseline measurement.
//!
//! **Under faults** the walk consults a [`FaultInjector`] at every kernel
//! launch, transfer, and allocation, and recovers through one escalation
//! ladder:
//!
//! 1. **Retry** — transient faults are retried with exponential backoff in
//!    *simulated* time ([`gpuflow_chaos::RetryPolicy`]), bounded per site
//!    (per allocation for an allocation site);
//! 2. **Checkpoint/restart** — after each offload unit, freshly produced
//!    data that the recoverability analysis (`gpuflow_verify::recover`)
//!    says a later restart needs is copied to the host; a unit whose
//!    retries are exhausted is restarted from those host copies, bounded
//!    by [`RecoveryOptions::max_unit_restarts`];
//! 3. **Failover replanning** — when a device is lost and another one
//!    survives, what the rest of the run reads is fetched to the host and
//!    the unlaunched units are replanned onto the survivors by the one
//!    transfer scheduler ([`schedule_device_transfers`]) with those results
//!    pinned host-side ([`MultiXferOptions::pinned_host`]). A one-device
//!    machine has no survivor: a loss takes it straight to rung 4;
//! 4. **CPU degradation** — a unit that cannot complete on its device (or
//!    the whole remaining plan, once no device is usable) finishes on the
//!    host CPU at [`RecoveryOptions::cpu_slowdown`]× the kernel time of
//!    the device the operator was first assigned to. Missing
//!    intermediates are recomputed from their producers. This rung is
//!    unconditional, so every run delivers its outputs.
//!
//! **Time model.** The walk runs on one *serialized* clock (a
//! [`Timeline`]), not the overlapped lane simulation of [`crate::overlap`]:
//! every step retires before the next issues, and retries, stalls and
//! replans interleave with ordinary steps. A transfer takes
//! `bus.latency_s + bytes / (bus.bandwidth · factor)` on the machine's
//! bus, `factor` being the brown-out multiplier at its start. The
//! fault-free baseline — the overhead denominator, and what `loss=DEV@P%`
//! resolves against — is the quiet walk of the same plan. On one device
//! its step intervals are [`crate::sanitize::serial_step_times`], the
//! independent shadow clock debug builds check it against.
//!
//! **Determinism.** Injection decisions are pure functions of
//! `(seed, class, site, attempt)`, every collection the walk iterates is
//! ordered, and sites are *positional*, never "how many queries happened
//! so far":
//!
//! ```text
//! site = class | epoch << 52 | device << 44 | local
//! ```
//!
//! `class` is one of the `SITE_*` namespaces; `local` is
//! `step << 16 | op ordinal` for a kernel, the step index for a plan
//! transfer, and the data id for a recovery transfer or an allocation;
//! `device` is where the kernel runs, the data moves or the buffer lands;
//! `epoch` counts failover replans, each of which numbers its steps from
//! zero again. Device-0, epoch-0 sites are the bare positions, and a
//! replanned suffix never shares a pre-loss site's attempt counter. One
//! `FaultSpec` therefore yields one bit-identical timeline, event log and
//! (functional mode) output set, run after run.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;

use gpuflow_chaos::{FaultInjector, FaultSpec, RecoveryEventKind, RecoveryOptions, RecoveryStats};
use gpuflow_graph::{DataId, Graph, OpId};
use gpuflow_ops::{execute, Tensor};
use gpuflow_sim::{Allocation, DeviceAllocator, FitPolicy, Timeline};
use gpuflow_verify::RecoveryCheckOptions;

use crate::error::FrameworkError;
use crate::overlap::{op_kernel_time, Machine};
use crate::partition::OffloadUnit;
use crate::plan::{ExecutionPlan, Step};
use crate::split::{DataOrigin, SplitResult};
use crate::xfer::{schedule_device_transfers, EvictionPolicy, MultiXferOptions};

/// Site namespace of a kernel launch.
pub const SITE_KERNEL: u64 = 1 << 60;
/// Site namespace of a transfer the plan issues.
pub const SITE_PLAN_XFER: u64 = 2 << 60;
/// Site namespace of a transfer recovery issues: a checkpoint, a re-stage,
/// a fetch before failover, a late output delivery.
pub const SITE_DYN_XFER: u64 = 3 << 60;
/// Site namespace of a device allocation.
pub const SITE_ALLOC: u64 = 4 << 60;
/// Bit offset of the replan epoch in a site id.
pub const SITE_EPOCH_SHIFT: u32 = 52;
/// Bit offset of the device index in a site id.
pub const SITE_DEVICE_SHIFT: u32 = 44;

/// Result of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The simulated event timeline (durations, counters).
    pub timeline: Timeline,
    /// Peak bytes allocated on any one device.
    pub peak_device_bytes: u64,
    /// Worst external fragmentation observed at any allocation.
    pub peak_fragmentation: f64,
    /// Functional mode: assembled output tensors. Keyed by the *original*
    /// graph's output ids when the walk was given split provenance,
    /// otherwise by the plan graph's output ids. Empty in analytic mode.
    pub outputs: HashMap<DataId, Tensor>,
}

impl ExecOutcome {
    /// Total simulated time in seconds.
    pub fn total_time(&self) -> f64 {
        self.timeline.counters().total_time()
    }

    /// Floats moved across PCIe in either direction.
    pub fn transfer_floats(&self) -> u64 {
        self.timeline.counters().total_transfer_floats()
    }
}

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

/// The spec of a quiet run: injects nothing.
static QUIET: FaultSpec = FaultSpec::quiet(0);

/// Executes one plan on a machine, under an injected fault schedule or
/// quietly.
pub struct ResilientExecutor<'a> {
    graph: &'a Graph,
    plan: &'a ExecutionPlan,
    machine: Machine<'a>,
    spec: &'a FaultSpec,
    options: RecoveryOptions,
    /// Split provenance: lets functional mode slice original host tensors
    /// into piece views and reassemble piece outputs.
    origin: Option<&'a SplitResult>,
    /// Device-allocator fit policy (first-fit by default, matching the
    /// CUDA-era behaviour the paper plans around).
    alloc_policy: FitPolicy,
    /// The device `plan` assigns each operator to: whose kernel model
    /// times the operator's CPU fallback, whatever a replan did since.
    op_device: Vec<usize>,
}

/// Hashes a [`DataId`] by one multiply: the residency maps sit on the
/// walk's hot path, and their keys are small dense integers.
#[derive(Default)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// One device's resident data: allocation plus (functional) tensor.
type Resident = HashMap<DataId, (Allocation, Option<Tensor>), BuildHasherDefault<IdHasher>>;

/// Mutable state of one resilient walk.
struct Walk<'a, 'b> {
    /// The plan being walked: the compiled one until a failover replan.
    plan: Cow<'a, ExecutionPlan>,
    /// Failover replans so far; part of every site id.
    epoch: u64,
    /// Take exit checkpoints (off for the fault-free baseline).
    checkpoints: bool,
    /// Nothing can fault and nothing is checkpointed, so there is no
    /// recovery ladder: an allocation or residency failure is an error,
    /// and no site keeps an attempt counter.
    strict: bool,
    /// Per launch of `plan`, in step order: the produced data a restart
    /// there needs host-resident. Each entry is consumed once.
    restart_sets: Vec<Vec<DataId>>,
    timeline: Timeline,
    allocs: Vec<DeviceAllocator>,
    /// Per-device resident data (allocation + functional tensor); only
    /// looked up.
    resident: Vec<Resident>,
    /// Host copies of produced data (functional mode); only looked up.
    host: HashMap<DataId, Tensor>,
    /// Produced data currently valid on the host, by data index (both
    /// modes).
    host_valid: Vec<bool>,
    bindings: Option<&'b HashMap<DataId, Tensor>>,
    injector: FaultInjector,
    stats: RecoveryStats,
    /// Per-site attempt counters, only looked up; they persist across unit
    /// restarts so escalation always makes progress.
    attempts: HashMap<u64, u32>,
    /// Devices observed dead.
    lost: Vec<bool>,
    /// No device is usable any more: everything left runs on the host CPU.
    cpu_mode: bool,
    peak_frag: f64,
    /// Highest high-water mark of the allocators dropped so far.
    peak_bytes: u64,
}

impl Walk<'_, '_> {
    /// The fault site `local` of namespace `class` on device `dev` in the
    /// current epoch (module docs).
    fn site(&self, class: u64, dev: usize, local: u64) -> u64 {
        debug_assert!(local < 1 << SITE_DEVICE_SHIFT && dev < 256 && self.epoch < 256);
        class | self.epoch << SITE_EPOCH_SHIFT | (dev as u64) << SITE_DEVICE_SHIFT | local
    }

    /// The first device holding `d`. Dead devices hold nothing.
    fn holder(&self, d: DataId) -> Option<usize> {
        self.resident.iter().position(|r| r.contains_key(&d))
    }

    /// Count an attempt at `site` and return its 0-based number, or `None`
    /// once `max_attempts` are spent. A strict walk cannot fault, so each
    /// of its attempts is the first and it keeps no counter.
    fn next_attempt(&mut self, site: u64, max_attempts: u32) -> Option<u32> {
        if self.strict {
            return Some(0);
        }
        let n = self.attempts.entry(site).or_insert(0);
        if *n >= max_attempts {
            return None;
        }
        *n += 1;
        Some(*n - 1)
    }
}

/// How one device-op attempt ended.
enum OpResult {
    /// The op completed.
    Done,
    /// Kernel retries exhausted — restart or degrade the unit.
    RetriesExhausted,
    /// Allocation/transfer machinery gave out — the unit finishes on the
    /// CPU.
    Degraded,
}

impl<'a> ResilientExecutor<'a> {
    /// Resilient executor over `plan` for `graph` on `machine` under the
    /// fault model `spec`.
    pub fn new(
        graph: &'a Graph,
        plan: &'a ExecutionPlan,
        machine: &Machine<'a>,
        spec: &'a FaultSpec,
    ) -> Self {
        let mut op_device = vec![0; graph.num_ops()];
        for (unit, &dev) in plan.units.iter().zip(&plan.unit_device) {
            for &o in &unit.ops {
                op_device[o.index()] = dev;
            }
        }
        ResilientExecutor {
            graph,
            plan,
            machine: machine.clone(),
            spec,
            options: RecoveryOptions::default(),
            origin: None,
            alloc_policy: FitPolicy::FirstFit,
            op_device,
        }
    }

    /// Quiet executor over `plan`: nothing is injected and no checkpoint
    /// is taken, so a run is one walk of the plan with no recovery ladder
    /// (module docs). `graph` must be the graph the plan was scheduled
    /// for.
    pub fn quiet(graph: &'a Graph, plan: &'a ExecutionPlan, machine: &Machine<'a>) -> Self {
        ResilientExecutor::new(graph, plan, machine, &QUIET).with_options(RecoveryOptions {
            checkpoints: false,
            ..RecoveryOptions::default()
        })
    }

    /// Override the recovery options.
    pub fn with_options(mut self, options: RecoveryOptions) -> Self {
        self.options = options;
        self
    }

    /// Supply split provenance (the graph inside `split` must be the
    /// executor's graph).
    pub fn with_origin(mut self, split: &'a SplitResult) -> Self {
        self.origin = Some(split);
        self
    }

    /// Override the device allocators' fit policy, including the fresh
    /// allocators a wiped device gets.
    pub fn with_alloc_policy(mut self, policy: FitPolicy) -> Self {
        self.alloc_policy = policy;
        self
    }

    /// Run without materializing data.
    pub fn run_analytic(&self) -> Result<ResilientOutcome, FrameworkError> {
        self.run(None)
    }

    /// Run functionally. `bindings` supplies tensors for the template's
    /// inputs and constants — keyed by *original* graph ids when split
    /// provenance was supplied, by plan-graph ids otherwise.
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
        self.spec
            .check_devices(self.machine.devices.len())
            .map_err(FrameworkError::InvalidFaultSpec)?;
        let mut st = if self.spec.is_quiet() && !self.options.checkpoints {
            // Dynamic sanitizer: the walk retires each step before issuing
            // the next, so its step times must honour every
            // happens-before edge of a certified schedule.
            #[cfg(debug_assertions)]
            if let [dev] = self.machine.devices {
                let times = crate::sanitize::serial_step_times(self.graph, self.plan, dev);
                crate::sanitize::assert_hb_consistent(
                    self.graph,
                    self.plan,
                    &times,
                    "ResilientExecutor::run",
                );
            }
            // Nothing can fault: the run is its own fault-free baseline.
            let mut st = self.walk(self.spec, 0.0, false, bindings)?;
            st.stats.faultfree_makespan_s = st.timeline.counters().total_time();
            st
        } else {
            // The fault-free baseline: resolves `loss=DEV@P%` times and is
            // the overhead denominator. Always analytic — same simulated
            // clock. A plan that cannot run it is not a valid plan.
            let base = self
                .walk(&FaultSpec::quiet(self.spec.seed), 0.0, false, None)
                .map_err(|e| match e {
                    FrameworkError::InvalidPlan(m) => {
                        FrameworkError::InvalidPlan(format!("plan does not run fault-free: {m}"))
                    }
                    e => e,
                })?;
            let faultfree = base.timeline.counters().total_time();
            let mut st = self.walk(self.spec, faultfree, self.options.checkpoints, bindings)?;
            st.stats.faultfree_makespan_s = faultfree;
            st
        };
        st.stats.makespan_s = st.timeline.now();
        let outputs = if bindings.is_some() && st.stats.recovered {
            assemble_outputs(self.graph, self.origin, &st.host)?
        } else {
            HashMap::new()
        };
        let peak_device_bytes = st
            .allocs
            .iter()
            .map(DeviceAllocator::high_water)
            .fold(st.peak_bytes, u64::max);
        Ok(ResilientOutcome {
            exec: ExecOutcome {
                timeline: st.timeline,
                peak_device_bytes,
                peak_fragmentation: st.peak_frag,
                outputs,
            },
            stats: st.stats,
            injector: st.injector,
        })
    }

    /// One full walk of the plan under `spec`, bound to a run whose
    /// fault-free makespan is `faultfree`. Under a quiet spec without
    /// checkpoints the walk is strict.
    fn walk<'b>(
        &self,
        spec: &FaultSpec,
        faultfree: f64,
        checkpoints: bool,
        bindings: Option<&'b HashMap<DataId, Tensor>>,
    ) -> Result<Walk<'a, 'b>, FrameworkError> {
        let ndev = self.machine.devices.len();
        let mut st = Walk {
            plan: Cow::Borrowed(self.plan),
            epoch: 0,
            checkpoints,
            strict: spec.is_quiet() && !checkpoints,
            restart_sets: if checkpoints {
                restart_sets(self.graph, self.plan)
            } else {
                Vec::new()
            },
            timeline: Timeline::new(),
            allocs: self
                .machine
                .devices
                .iter()
                .map(|d| DeviceAllocator::with_policy(d.memory_bytes, self.alloc_policy))
                .collect(),
            resident: (0..ndev).map(|_| Resident::default()).collect(),
            host: HashMap::new(),
            host_valid: vec![false; self.graph.num_data()],
            bindings,
            injector: FaultInjector::new(spec, faultfree),
            stats: RecoveryStats::default(),
            attempts: HashMap::new(),
            lost: vec![false; ndev],
            cpu_mode: false,
            peak_frag: 0.0,
            peak_bytes: 0,
        };

        let (mut i, mut launches) = (0, 0);
        while i < st.plan.steps.len() {
            if self.observe_device_loss(&mut st, i)? {
                // Failed over: walk the replanned suffix from its start.
                (i, launches) = (0, 0);
                continue;
            }
            match st.plan.steps[i] {
                Step::CopyIn { device, data } => self.step_copy_in(&mut st, i, device, data)?,
                Step::CopyOut { device, data } => self.step_copy_out(&mut st, i, device, data)?,
                Step::Free { device, data } => self.step_free(&mut st, device, data)?,
                Step::Launch(u) => {
                    self.step_launch(&mut st, i, u)?;
                    launches += 1;
                    if st.checkpoints && !st.cpu_mode {
                        self.checkpoint(&mut st, launches)?;
                    }
                }
            }
            i += 1;
        }

        // Deliver outputs that the faulted walk left undelivered.
        let mut recovered = true;
        for d in self.graph.outputs() {
            if st.strict && !st.host_valid[d.index()] {
                return Err(FrameworkError::DataUnavailable {
                    data: d,
                    context: "output never copied to the host".into(),
                });
            }
            self.fetch_to_host(&mut st, d)?;
            recovered &= st.host_valid[d.index()];
        }
        st.stats.recovered = recovered;
        Ok(st)
    }

    fn name(&self, d: DataId) -> &str {
        &self.graph.data(d).name
    }

    /// Observe a hard device loss at the current simulated time. With a
    /// survivor the rest of the plan fails over to it (rung 3); `true`
    /// means it was replanned and the walk restarts at its first step.
    /// Without one, the remaining steps degrade to the host CPU (rung 4).
    fn observe_device_loss(&self, st: &mut Walk, i: usize) -> Result<bool, FrameworkError> {
        let t = st.timeline.now();
        let Some(ld) = st.injector.lost_device() else {
            return Ok(false);
        };
        if st.cpu_mode || st.lost[ld] || !st.injector.device_lost(ld, t) {
            return Ok(false);
        }
        st.injector.log_device_loss(t, ld);
        st.stats
            .record(t, RecoveryEventKind::Fault, "hard device loss".to_string());
        st.lost[ld] = true;
        if st.lost.iter().all(|&l| l) {
            self.degrade(
                st,
                format!("device {ld} lost; degrading remaining work to host CPU"),
            );
            return Ok(false);
        }
        st.stats.record(
            t,
            RecoveryEventKind::DeviceLost,
            format!("device {ld} lost at t={t:.6}s"),
        );
        self.wipe(st, ld);
        self.fail_over(st, ld, i)
    }

    /// Rung 3: device `ld` died before step `i` and another survives. Fetch
    /// to the host what the rest of the run reads — the unlaunched units'
    /// produced inputs and the outputs produced so far — drop every
    /// device's memory, and replan the unlaunched units onto the survivors
    /// (the dead device's round-robin) from that host-only state.
    fn fail_over(&self, st: &mut Walk, ld: usize, i: usize) -> Result<bool, FrameworkError> {
        let g = self.graph;
        let rem: Vec<usize> = st.plan.steps[i..]
            .iter()
            .filter_map(|s| match *s {
                Step::Launch(u) => Some(u),
                _ => None,
            })
            .collect();
        if rem.is_empty() {
            // Only transfers and frees are left; they route around the
            // dead device.
            return Ok(false);
        }
        let units: Vec<OffloadUnit> = rem.iter().map(|&u| st.plan.units[u].clone()).collect();
        let suffix_outputs: BTreeSet<DataId> = units.iter().flat_map(|u| u.outputs(g)).collect();
        let needed: BTreeSet<DataId> = units
            .iter()
            .flat_map(|u| u.external_inputs(g))
            .filter(|&d| g.producer(d).is_some())
            .chain(g.outputs())
            .filter(|d| !suffix_outputs.contains(d))
            .collect();
        for d in needed {
            self.fetch_to_host(st, d)?;
        }
        if st.cpu_mode {
            return Ok(false); // the bus gave out while fetching
        }
        for dev in 0..st.allocs.len() {
            self.wipe(st, dev);
        }

        let survivors: Vec<usize> = (0..st.lost.len()).filter(|&e| !st.lost[e]).collect();
        let mut moved = 0;
        let unit_device: Vec<usize> = rem
            .iter()
            .map(|&u| {
                let dev = st.plan.unit_device[u];
                if !st.lost[dev] {
                    return dev;
                }
                moved += 1;
                survivors[(moved - 1) % survivors.len()]
            })
            .collect();
        let opts = MultiXferOptions {
            budgets: self
                .machine
                .devices
                .iter()
                .zip(&st.lost)
                .map(|(d, &lost)| if lost { 0 } else { d.memory_bytes })
                .collect(),
            eager_free: true,
            pinned_host: g.data_ids().filter(|d| st.host_valid[d.index()]).collect(),
        };
        let order: Vec<usize> = (0..units.len()).collect();
        match schedule_device_transfers(
            g,
            units,
            unit_device,
            &order,
            &opts,
            EvictionPolicy::Belady,
        ) {
            Ok(plan) => {
                st.stats.record(
                    st.timeline.now(),
                    RecoveryEventKind::Replan,
                    format!(
                        "replanned {} remaining unit(s) ({moved} moved off device {ld}) onto {} survivor(s)",
                        order.len(),
                        survivors.len()
                    ),
                );
                if st.checkpoints {
                    st.restart_sets = restart_sets(g, &plan);
                }
                st.plan = Cow::Owned(plan);
                st.epoch += 1;
                Ok(true)
            }
            Err(e) => {
                self.degrade(
                    st,
                    format!(
                        "failover replanning failed ({e}); degrading remaining work to host CPU"
                    ),
                );
                Ok(false)
            }
        }
    }

    /// Drop device `dev`'s memory: its contents are gone.
    fn wipe(&self, st: &mut Walk, dev: usize) {
        st.peak_bytes = st.peak_bytes.max(st.allocs[dev].high_water());
        st.allocs[dev] =
            DeviceAllocator::with_policy(self.machine.devices[dev].memory_bytes, self.alloc_policy);
        st.resident[dev].clear();
    }

    /// No device is usable any more: record `detail`, drop every device's
    /// memory, and finish the run on the host CPU (rung 4).
    fn degrade(&self, st: &mut Walk, detail: String) {
        st.stats
            .record(st.timeline.now(), RecoveryEventKind::DeviceLost, detail);
        for dev in 0..st.allocs.len() {
            self.wipe(st, dev);
        }
        st.cpu_mode = true;
    }

    /// Staging or delivery gave out for the reason `why`: treat the
    /// devices as unreachable and finish on the CPU (rung 4 without a
    /// device loss).
    fn escalate(&self, st: &mut Walk, why: String) {
        self.degrade(st, format!("{why}; degrading to host CPU"));
    }

    fn transfer_exhausted(&self, d: DataId) -> String {
        format!("transfer retries exhausted for {}", self.name(d))
    }

    /// Bounded-retry transfer of `d` to (`to_gpu`) or from device `dev`,
    /// honouring brown-outs. Returns `false` if retries were exhausted
    /// (escalation needed).
    fn transfer(&self, st: &mut Walk, site: u64, dev: usize, d: DataId, to_gpu: bool) -> bool {
        let bytes = self.graph.data(d).bytes();
        let bus = &self.machine.bus;
        let policy = self.options.retry;
        loop {
            let Some(attempt) = st.next_attempt(site, policy.max_attempts) else {
                return false;
            };
            let t = st.timeline.now();
            // Brown-out: bandwidth scaled by the window's factor at the
            // transfer's start instant.
            let factor = st.injector.bandwidth_factor(t);
            let dur = bus.latency_s + bytes as f64 / (bus.bandwidth * factor);
            // A cluster's timeline names the device each copy serves.
            let label = if self.machine.shared_bus() {
                format!("{}@d{dev}", self.name(d))
            } else {
                self.name(d).to_string()
            };
            if to_gpu {
                st.timeline.push_copy_to_gpu(label, bytes, dur);
            } else {
                st.timeline.push_copy_to_cpu(label, bytes, dur);
            }
            if !st.injector.transfer_faults(t, site, attempt) {
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

    /// Bounded-retry allocation of `d` on device `dev` under transient
    /// injected failures. `Ok(Err(why))` escalates: retries exhausted, or
    /// the device cannot satisfy it — recovery can crowd a device beyond
    /// what the plan allotted it. In a strict walk the latter is the error.
    fn allocate(
        &self,
        st: &mut Walk,
        dev: usize,
        d: DataId,
    ) -> Result<Result<Allocation, String>, FrameworkError> {
        let site = st.site(SITE_ALLOC, dev, d.index() as u64);
        let policy = self.options.retry;
        let exhausted = || format!("allocation retries exhausted for {}", self.name(d));
        loop {
            let Some(attempt) = st.next_attempt(site, policy.max_attempts) else {
                return Ok(Err(exhausted()));
            };
            let t = st.timeline.now();
            if st.injector.alloc_faults(t, site, attempt) {
                st.stats.record(
                    t,
                    RecoveryEventKind::Fault,
                    format!("transient allocation failure for {}", self.name(d)),
                );
                if attempt + 1 >= policy.max_attempts {
                    return Ok(Err(exhausted()));
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
            return match st.allocs[dev].alloc(self.graph.data(d).bytes()) {
                Ok(a) => {
                    // The budget is per allocation: a datum staged many
                    // times must not spend it by succeeding.
                    if !st.strict {
                        st.attempts.remove(&site);
                    }
                    st.peak_frag = st.peak_frag.max(st.allocs[dev].fragmentation());
                    Ok(Ok(a))
                }
                Err(e) => {
                    let why = format!("device allocation failed for {}: {e}", self.name(d));
                    if st.strict {
                        return Err(FrameworkError::InvalidPlan(why));
                    }
                    Ok(Err(why))
                }
            };
        }
    }

    /// Device→host copy of `d`, resident on `dev`, with retries; marks it
    /// host-valid.
    fn copy_out(
        &self,
        st: &mut Walk,
        dev: usize,
        site: u64,
        d: DataId,
    ) -> Result<(), FrameworkError> {
        let tensor = match st.resident[dev].get(&d) {
            Some((_, t)) => t.clone(),
            None => {
                return Err(FrameworkError::DataUnavailable {
                    data: d,
                    context: "CopyOut of non-resident data".into(),
                })
            }
        };
        if !self.transfer(st, site, dev, d, false) {
            // Retries exhausted on the way out: degrade to CPU for the
            // rest of the run — the device is effectively unreachable.
            self.escalate(st, self.transfer_exhausted(d));
            return Ok(());
        }
        if let Some(t) = tensor {
            st.host.insert(d, t);
        }
        st.host_valid[d.index()] = true;
        Ok(())
    }

    /// Host→device staging of `d` onto `dev`: allocation, then the upload
    /// at `site`. `Ok(Err(why))` when either gave out (nothing stays
    /// allocated).
    fn stage_in(
        &self,
        st: &mut Walk,
        dev: usize,
        site: u64,
        d: DataId,
    ) -> Result<Result<(), String>, FrameworkError> {
        let tensor = match st.bindings {
            Some(b) => Some(host_source(self.graph, self.origin, d, &st.host, b)?),
            None => None,
        };
        let a = match self.allocate(st, dev, d)? {
            Ok(a) => a,
            Err(why) => return Ok(Err(why)),
        };
        if !self.transfer(st, site, dev, d, true) {
            st.allocs[dev]
                .try_free(a)
                .map_err(|e| FrameworkError::InvalidPlan(format!("allocator corrupted: {e}")))?;
            return Ok(Err(self.transfer_exhausted(d)));
        }
        st.resident[dev].insert(d, (a, tensor));
        Ok(Ok(()))
    }

    /// Make `d` host-valid: copy it out of a device that holds it, else
    /// (or if that copy escalated) recompute it on the host CPU.
    fn fetch_to_host(&self, st: &mut Walk, d: DataId) -> Result<(), FrameworkError> {
        if st.host_valid[d.index()] {
            return Ok(());
        }
        if let Some(dev) = st.holder(d) {
            let site = st.site(SITE_DYN_XFER, dev, d.index() as u64);
            self.copy_out(st, dev, site, d)?;
        }
        self.cpu_eval(st, d)
    }

    /// Exit checkpoint ahead of launch number `next` (0-based, in step
    /// order): copy to the host what its restart set needs and no host
    /// copy holds yet.
    fn checkpoint(&self, st: &mut Walk, next: usize) -> Result<(), FrameworkError> {
        let Some(set) = st.restart_sets.get_mut(next).map(std::mem::take) else {
            return Ok(());
        };
        for d in set {
            if st.host_valid[d.index()] {
                continue;
            }
            if let Some(dev) = st.holder(d) {
                let site = st.site(SITE_DYN_XFER, dev, d.index() as u64);
                self.copy_out(st, dev, site, d)?;
                let t = st.timeline.now();
                st.stats.record(
                    t,
                    RecoveryEventKind::Checkpoint,
                    format!("checkpointed {} at unit exit", self.name(d)),
                );
            }
        }
        Ok(())
    }

    fn step_copy_in(
        &self,
        st: &mut Walk,
        i: usize,
        dev: usize,
        d: DataId,
    ) -> Result<(), FrameworkError> {
        if st.cpu_mode || st.lost[dev] {
            return Ok(()); // no device to copy to; CPU path reads the host
        }
        // A strict walk has no recovery that could have staged it early.
        if !st.strict && st.resident[dev].contains_key(&d) {
            return Ok(()); // already staged by recovery
        }
        let site = st.site(SITE_PLAN_XFER, dev, i as u64);
        if let Err(why) = self.stage_in(st, dev, site, d)? {
            self.escalate(st, why);
        }
        Ok(())
    }

    fn step_copy_out(
        &self,
        st: &mut Walk,
        i: usize,
        dev: usize,
        d: DataId,
    ) -> Result<(), FrameworkError> {
        if st.host_valid[d.index()] {
            return Ok(()); // a checkpoint already delivered it (data is immutable)
        }
        if st.cpu_mode || st.lost[dev] {
            return self.cpu_eval(st, d); // device gone: recompute on the host
        }
        let site = st.site(SITE_PLAN_XFER, dev, i as u64);
        self.copy_out(st, dev, site, d)
    }

    fn step_free(&self, st: &mut Walk, dev: usize, d: DataId) -> Result<(), FrameworkError> {
        match st.resident[dev].remove(&d) {
            Some((a, _)) => {
                st.allocs[dev].try_free(a).map_err(|e| {
                    FrameworkError::InvalidPlan(format!("allocator corrupted: {e}"))
                })?;
                st.timeline
                    .push_free(self.name(d).to_string(), self.graph.data(d).bytes());
            }
            None if st.strict => {
                return Err(FrameworkError::DataUnavailable {
                    data: d,
                    context: "Free of non-resident data".into(),
                })
            }
            // After a wipe/restart the datum may simply not be resident.
            None => {}
        }
        Ok(())
    }

    /// Execute one offload unit on its device, escalating through retries,
    /// unit restarts, and CPU fallback.
    fn step_launch(&self, st: &mut Walk, i: usize, u: usize) -> Result<(), FrameworkError> {
        let dev = st.plan.unit_device[u];
        if st.cpu_mode || st.lost[dev] {
            return self.launch_on_cpu(st, u);
        }
        let mut restarts = 0u32;
        'unit: loop {
            for k in 0..st.plan.units[u].ops.len() {
                match self.launch_op(st, dev, i, k, st.plan.units[u].ops[k])? {
                    OpResult::Done => {}
                    OpResult::RetriesExhausted => {
                        // Rung 2: restart the unit from host-resident
                        // inputs, dropping the outputs its ops produced so
                        // far.
                        for j in (0..k).rev() {
                            let d = self.graph.op(st.plan.units[u].ops[j]).outputs[0];
                            if let Some((a, _)) = st.resident[dev].remove(&d) {
                                st.allocs[dev].try_free(a).map_err(|e| {
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
                        return self.launch_on_cpu(st, u);
                    }
                    OpResult::Degraded => return self.launch_on_cpu(st, u),
                }
            }
            return Ok(());
        }
    }

    /// One op of a device launch on `dev`. Stages missing inputs,
    /// allocates the output, and runs the kernel under the retry policy.
    fn launch_op(
        &self,
        st: &mut Walk,
        dev: usize,
        step: usize,
        op_ordinal: usize,
        o: OpId,
    ) -> Result<OpResult, FrameworkError> {
        let node = self.graph.op(o);
        // Re-stage inputs lost to recovery (restart, eviction rollback,
        // failover). A strict walk has no recovery to lose them to: a
        // missing input is an error where functional mode reads it.
        let restage: &[DataId] = if st.strict { &[] } else { &node.inputs };
        for &inp in restage {
            if st.resident[dev].contains_key(&inp) {
                continue;
            }
            if self.graph.producer(inp).is_some() && !st.host_valid[inp.index()] {
                // Lost intermediate with no checkpoint: fetch it from
                // another device or recompute it on the host, then stage
                // it.
                self.fetch_to_host(st, inp)?;
                if st.cpu_mode {
                    // Recomputation escalated past the devices entirely.
                    return Ok(OpResult::Degraded);
                }
            }
            let site = st.site(SITE_DYN_XFER, dev, inp.index() as u64);
            if self.stage_in(st, dev, site, inp)?.is_err() {
                return Ok(OpResult::Degraded);
            }
        }

        let out = node.outputs[0];
        let dur = op_kernel_time(self.graph, o, &self.machine.devices[dev]).0;
        let site = st.site(SITE_KERNEL, dev, (step as u64) << 16 | op_ordinal as u64);
        let policy = self.options.retry;
        loop {
            let Some(attempt) = st.next_attempt(site, policy.max_attempts) else {
                return Ok(OpResult::RetriesExhausted);
            };
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
                    st.resident[dev]
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
        let Ok(a) = self.allocate(st, dev, out)? else {
            return Ok(OpResult::Degraded);
        };
        st.resident[dev].insert(out, (a, out_tensor));
        Ok(OpResult::Done)
    }

    /// Run one offload unit's operators on the host CPU (rung 4).
    fn launch_on_cpu(&self, st: &mut Walk, u: usize) -> Result<(), FrameworkError> {
        let ops: Vec<OpId> = st.plan.units[u].ops.clone();
        for o in ops {
            let out = self.graph.op(o).outputs[0];
            self.cpu_eval(st, out)?;
        }
        Ok(())
    }

    /// Produce `d` on the host CPU, fetching (or recursively recomputing)
    /// missing intermediates. Bindings are read directly. Deterministic:
    /// recursion follows graph structure only.
    fn cpu_eval(&self, st: &mut Walk, d: DataId) -> Result<(), FrameworkError> {
        if st.host_valid[d.index()] {
            return Ok(());
        }
        let Some(producer) = self.graph.producer(d) else {
            return Ok(()); // bindings are always host-resident
        };
        let node = self.graph.op(producer);
        for &inp in &node.inputs {
            if self.graph.producer(inp).is_some() {
                self.fetch_to_host(st, inp)?;
            }
        }
        let device = &self.machine.devices[self.op_device[producer.index()]];
        let dur = op_kernel_time(self.graph, producer, device).0 * self.options.cpu_slowdown;
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
        st.host_valid[d.index()] = true;
        Ok(())
    }
}

/// What each launch of `plan` needs host-resident to restart there: the
/// exit checkpoint set of launch `k` is the restart set of launch `k + 1`.
fn restart_sets(g: &Graph, plan: &ExecutionPlan) -> Vec<Vec<DataId>> {
    plan.recovery_report(g, RecoveryCheckOptions::default())
        .per_launch
        .into_iter()
        .map(|l| l.restart_set)
        .collect()
}

/// Materialize the host-side source tensor for `d` in functional mode:
/// produced data comes from `host`, bindings come from `bindings` —
/// sliced through split provenance (`origin`) when the plan runs on
/// pieces of the original template data.
fn host_source(
    g: &Graph,
    origin: Option<&SplitResult>,
    d: DataId,
    host: &HashMap<DataId, Tensor>,
    bindings: &HashMap<DataId, Tensor>,
) -> Result<Tensor, FrameworkError> {
    if g.producer(d).is_some() {
        return host
            .get(&d)
            .cloned()
            .ok_or_else(|| FrameworkError::DataUnavailable {
                data: d,
                context: "produced data not in host memory".into(),
            });
    }
    let desc = g.data(d);
    match origin {
        Some(split) => match split.origin_of(d) {
            DataOrigin::Region { parent, row_off } => {
                let src = bindings
                    .get(&parent)
                    .ok_or_else(|| FrameworkError::DataUnavailable {
                        data: parent,
                        context: format!("no binding for template input '{}'", desc.name),
                    })?;
                if row_off + desc.rows > src.rows() || desc.cols > src.cols() {
                    return Err(FrameworkError::InvalidPlan(format!(
                        "binding for {} too small for piece {}",
                        parent, desc.name
                    )));
                }
                Ok(src.view(row_off, 0, desc.rows, desc.cols))
            }
            DataOrigin::Fresh => Err(FrameworkError::DataUnavailable {
                data: d,
                context: "fresh data cannot come from the host".into(),
            }),
        },
        None => {
            let t = bindings
                .get(&d)
                .cloned()
                .ok_or_else(|| FrameworkError::DataUnavailable {
                    data: d,
                    context: format!("no binding for '{}'", desc.name),
                })?;
            if t.shape() != g.shape(d) {
                return Err(FrameworkError::InvalidPlan(format!(
                    "binding for '{}' has shape {} (expected {})",
                    desc.name,
                    t.shape(),
                    g.shape(d)
                )));
            }
            Ok(t)
        }
    }
}

/// Assemble the final output tensors from host-resident pieces. With
/// split provenance, each `Output` piece is pasted back into its original
/// tensor (keyed by original-graph id); without it, outputs are returned
/// as-is keyed by plan-graph id.
fn assemble_outputs(
    g: &Graph,
    origin: Option<&SplitResult>,
    host: &HashMap<DataId, Tensor>,
) -> Result<HashMap<DataId, Tensor>, FrameworkError> {
    let mut outputs = HashMap::new();
    // Each output piece, and where it lands in its original tensor.
    let mut pieces = Vec::new();
    for d in g.outputs() {
        let t = host
            .get(&d)
            .ok_or_else(|| FrameworkError::DataUnavailable {
                data: d,
                context: "output missing on host".into(),
            })?;
        match origin.map(|split| split.origin_of(d)) {
            None => {
                outputs.insert(d, t.clone());
            }
            Some(DataOrigin::Region { parent, row_off }) => pieces.push((parent, row_off, t)),
            Some(DataOrigin::Fresh) => {
                return Err(FrameworkError::InvalidPlan(
                    "output piece with no provenance".into(),
                ))
            }
        }
    }
    // An original output spans its pieces' rows and takes its first
    // piece's columns.
    let mut shapes: HashMap<DataId, (usize, usize)> = HashMap::new();
    for &(parent, row_off, t) in &pieces {
        let (rows, _) = shapes.entry(parent).or_insert((0, t.cols()));
        *rows = (*rows).max(row_off + t.rows());
    }
    for (parent, (rows, cols)) in shapes {
        outputs.insert(parent, Tensor::zeros(rows, cols));
    }
    for (parent, row_off, t) in pieces {
        outputs
            .get_mut(&parent)
            .expect("shaped above")
            .paste(t, row_off, 0);
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_plan;
    use crate::examples::{fig3_graph, fig3_memory_bytes};
    use crate::opschedule::{schedule_units, OpScheduler};
    use crate::partition::{partition_offload_units, PartitionPolicy};
    use crate::sanitize::serial_step_times;
    use crate::xfer::{schedule_transfers, XferOptions};
    use gpuflow_graph::{OpKind, RemapKind};
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
    fn quiet_walk_matches_the_serial_shadow_clock() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let machine = Machine::single(&dev);
        let quiet = ResilientExecutor::quiet(&g, &plan, &machine)
            .run_analytic()
            .unwrap();
        // The independent oracle: same end time, one interval per step,
        // and one timeline event per transfer or free and per operator.
        let times = serial_step_times(&g, &plan, &dev);
        assert_eq!(times.len(), plan.steps.len());
        let end = times.last().unwrap().1;
        assert!((end - quiet.exec.total_time()).abs() <= 1e-12 * end);
        assert_eq!(quiet.exec.timeline.events().len(), plan.steps.len());
        assert_eq!(quiet.exec.transfer_floats(), plan.stats(&g).total_floats());
        assert_eq!(quiet.exec.timeline.counters().kernel_launches, 10);
        assert!(quiet.exec.peak_device_bytes <= fig3_memory_bytes());
        assert!(quiet.exec.outputs.is_empty());
        // A quiet run is its own fault-free baseline.
        assert_eq!(
            quiet.stats.faultfree_makespan_s.to_bits(),
            quiet.exec.total_time().to_bits()
        );
        // With checkpoints the run takes two walks; its baseline is the
        // quiet walk bit for bit.
        let spec = FaultSpec::quiet(7);
        let res = ResilientExecutor::new(&g, &plan, &machine, &spec)
            .run_analytic()
            .unwrap();
        assert!(res.stats.recovered);
        assert_eq!(res.stats.faults_injected, 0);
        assert_eq!(res.stats.retries, 0);
        assert_eq!(
            res.stats.faultfree_makespan_s.to_bits(),
            quiet.exec.total_time().to_bits()
        );
    }

    #[test]
    fn quiet_functional_walk_matches_reference() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let bind = bindings(&g);
        let out = ResilientExecutor::quiet(&g, &plan, &Machine::single(&dev))
            .run_functional(&bind)
            .unwrap()
            .exec;
        let reference = reference_eval(&g, &bind).unwrap();
        assert_eq!(out.outputs.len(), 2);
        for (d, t) in &out.outputs {
            assert_eq!(t, &reference[d], "output {} differs", g.data(*d).name);
        }
    }

    #[test]
    fn baseline_plan_also_executes_functionally() {
        let g = fig3_graph();
        let plan = baseline_plan(&g, u64::MAX).unwrap();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let bind = bindings(&g);
        let out = ResilientExecutor::quiet(&g, &plan, &Machine::single(&dev))
            .run_functional(&bind)
            .unwrap()
            .exec;
        let reference = reference_eval(&g, &bind).unwrap();
        for (d, t) in &out.outputs {
            assert_eq!(t, &reference[d]);
        }
        // The baseline moves much more data than the optimized plan.
        assert_eq!(out.transfer_floats(), 30 * 256);
    }

    #[test]
    fn best_fit_policy_executes_identically() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let machine = Machine::single(&dev);
        let first = ResilientExecutor::quiet(&g, &plan, &machine)
            .run_analytic()
            .unwrap();
        let best = ResilientExecutor::quiet(&g, &plan, &machine)
            .with_alloc_policy(FitPolicy::BestFit)
            .run_analytic()
            .unwrap();
        assert_eq!(first.exec.transfer_floats(), best.exec.transfer_floats());
        assert_eq!(first.exec.peak_device_bytes, best.exec.peak_device_bytes);
    }

    #[test]
    fn oversubscribed_plan_fails_allocation() {
        let (g, plan) = fig3_plan();
        // Run the 5-unit plan on a 3-unit device.
        let dev = tesla_c870().with_memory(3 * 256 * 4);
        let machine = Machine::single(&dev);
        let err = ResilientExecutor::quiet(&g, &plan, &machine)
            .run_analytic()
            .unwrap_err();
        assert!(
            err.to_string().contains("device allocation failed for "),
            "{err}"
        );
        // A faulted run reports the same failure of its baseline.
        let spec = FaultSpec::parse("seed=1,kernel=0.1").unwrap();
        let err = ResilientExecutor::new(&g, &plan, &machine, &spec)
            .run_analytic()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("plan does not run fault-free: device allocation failed for "),
            "{err}"
        );
    }

    #[test]
    fn an_allocation_the_device_cannot_satisfy_is_reported_as_one() {
        // A failover replans the stencil chain's mixed band sizes onto the
        // survivor's full memory, which its first-fit allocator cannot
        // satisfy contiguously: the ledger names the allocation, not the
        // bus.
        let g = gpuflow_templates::stencil::heat_diffusion(192, 24).graph;
        let dev = tesla_c870().with_memory(96 << 10);
        let compiled = crate::Framework::new(dev.clone())
            .with_options(crate::CompileOptions {
                memory_margin: 0.4,
                ..crate::CompileOptions::default()
            })
            .compile(&g)
            .unwrap();
        let devices = [dev.clone(), dev.clone()];
        let machine = Machine::cluster(&devices, &gpuflow_sim::BusSpec::from_device(&dev));
        let spec = FaultSpec::parse("seed=2,loss=0@50%").unwrap();
        let res = ResilientExecutor::new(&compiled.split.graph, &compiled.plan, &machine, &spec)
            .run_analytic()
            .unwrap();
        assert!(res.stats.recovered);
        let details: Vec<&str> = res.stats.events.iter().map(|e| e.detail.as_str()).collect();
        assert!(
            details
                .iter()
                .any(|d| d.starts_with("device allocation failed for ")
                    && d.ends_with("; degrading to host CPU")),
            "{details:?}"
        );
        assert!(!details.iter().any(|d| d.contains("retries exhausted")));
    }

    #[test]
    fn a_datum_staged_many_times_keeps_its_allocation_budget() {
        // One input read by eight operators: the baseline stages it eight
        // times on the same device, more than the retry policy's attempts.
        let mut g = Graph::new();
        let x = g.add("x", 4, 4, gpuflow_graph::DataKind::Input);
        for k in 0..8 {
            let y = g.add(format!("y{k}"), 4, 4, gpuflow_graph::DataKind::Output);
            g.add_op(format!("f{k}"), OpKind::Remap(RemapKind::FlipH), vec![x], y)
                .unwrap();
        }
        let plan = baseline_plan(&g, u64::MAX).unwrap();
        let dev = tesla_c870();
        let machine = Machine::single(&dev);
        assert!(RecoveryOptions::default().retry.max_attempts < 8);
        let quiet = ResilientExecutor::quiet(&g, &plan, &machine)
            .run_analytic()
            .unwrap();
        // A spec that injects nothing before t = 1000 s still counts
        // attempts; so does a quiet one with checkpoints.
        let late = FaultSpec::parse("brownout=1000:1:0.5").unwrap();
        for spec in [late, FaultSpec::quiet(0)] {
            let res = ResilientExecutor::new(&g, &plan, &machine, &spec)
                .run_analytic()
                .unwrap();
            assert!(res.stats.recovered, "{}", res.stats.summary());
            assert_eq!(res.stats.faults_injected, 0);
            // Nothing escalated: every operator ran on the device.
            assert_eq!(res.stats.cpu_fallback_ops, 0, "{}", res.stats.summary());
            assert_eq!(
                res.stats.faultfree_makespan_s.to_bits(),
                quiet.exec.total_time().to_bits()
            );
        }
    }

    #[test]
    fn a_quiet_walk_does_not_recover_a_broken_plan() {
        // The faulted walk would re-stage the input a dropped upload left
        // off the device; the quiet walk has no ladder: it reports the
        // input where functional mode reads it, and its free either way.
        let (g, mut plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let first = plan
            .steps
            .iter()
            .position(|s| matches!(s, Step::CopyIn { .. }))
            .unwrap();
        let Step::CopyIn { data, .. } = plan.steps.remove(first) else {
            unreachable!()
        };
        let quiet = ResilientExecutor::quiet(&g, &plan, &Machine::single(&dev));
        for err in [
            quiet.run_analytic().unwrap_err(),
            quiet.run_functional(&bindings(&g)).unwrap_err(),
        ] {
            assert!(
                matches!(&err, FrameworkError::DataUnavailable { data: d, .. } if *d == data),
                "{err}"
            );
        }
        let spec = FaultSpec::parse("seed=1,kernel=0.01").unwrap();
        assert!(
            ResilientExecutor::new(&g, &plan, &Machine::single(&dev), &spec)
                .run_analytic()
                .is_err()
        );
    }

    #[test]
    fn missing_binding_is_reported() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870();
        let err = ResilientExecutor::quiet(&g, &plan, &Machine::single(&dev))
            .run_functional(&HashMap::new())
            .unwrap_err();
        assert!(matches!(err, FrameworkError::DataUnavailable { .. }));
    }

    #[test]
    fn wrong_shape_binding_is_reported() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870();
        let mut bind = HashMap::new();
        bind.insert(g.inputs()[0], Tensor::zeros(3, 3));
        let err = ResilientExecutor::quiet(&g, &plan, &Machine::single(&dev))
            .run_functional(&bind)
            .unwrap_err();
        assert!(matches!(err, FrameworkError::InvalidPlan(_)), "{err:?}");
    }

    #[test]
    fn transient_kernel_faults_are_retried_and_outputs_match_reference() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let spec = FaultSpec::parse("seed=11,kernel=0.3,transfer=0.1,alloc=0.1").unwrap();
        let bind = bindings(&g);
        let res = ResilientExecutor::new(&g, &plan, &Machine::single(&dev), &spec)
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
        let res = ResilientExecutor::new(&g, &plan, &Machine::single(&dev), &spec)
            .run_functional(&bind)
            .unwrap();
        assert!(res.stats.recovered, "{}", res.stats.summary());
        assert!(res.stats.cpu_fallback_ops > 0, "{}", res.stats.summary());
        // One device has no survivor to fail over to.
        assert_eq!(res.stats.replans, 0);
        let reference = reference_eval(&g, &bind).unwrap();
        assert_eq!(res.exec.outputs.len(), 2);
        for (d, t) in &res.exec.outputs {
            assert_eq!(t, &reference[d]);
        }
        // Recovery costs time.
        assert!(res.stats.makespan_s > res.stats.faultfree_makespan_s);
    }

    #[test]
    fn a_loss_naming_a_device_the_machine_lacks_is_rejected() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let spec = FaultSpec::parse("seed=1,loss=3@50%").unwrap();
        let err = ResilientExecutor::new(&g, &plan, &Machine::single(&dev), &spec)
            .run_analytic()
            .unwrap_err();
        assert!(
            matches!(&err, FrameworkError::InvalidFaultSpec(m) if m.contains("device 3")),
            "{err}"
        );
    }

    #[test]
    fn same_seed_gives_bit_identical_timelines() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let machine = Machine::single(&dev);
        let spec = FaultSpec::parse("seed=21,kernel=0.25,transfer=0.2,alloc=0.15,brownout=0:1:0.5")
            .unwrap();
        let run = || {
            ResilientExecutor::new(&g, &plan, &machine, &spec)
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
        let c = ResilientExecutor::new(&g, &plan, &machine, &other)
            .run_analytic()
            .unwrap();
        assert_ne!(a.injector.events(), c.injector.events());
    }

    #[test]
    fn brownout_slows_transfers() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let machine = Machine::single(&dev);
        let quiet = FaultSpec::quiet(0);
        let slow = FaultSpec::parse("brownout=0:1000:0.1").unwrap();
        let opts = RecoveryOptions {
            checkpoints: false,
            ..RecoveryOptions::default()
        };
        let base = ResilientExecutor::new(&g, &plan, &machine, &quiet)
            .with_options(opts.clone())
            .run_analytic()
            .unwrap();
        let browned = ResilientExecutor::new(&g, &plan, &machine, &slow)
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
