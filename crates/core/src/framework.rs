//! The top-level framework API: the paper's Fig. 4 pipeline in one call.
//!
//! ```text
//! domain-specific template (operator graph) + target GPU parameters
//!   → operator splitting (to satisfy GPU memory constraints)
//!   → partition graph into offload units
//!   → offload and data-transfer scheduling
//!   → optimal execution plan for template
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use gpuflow_graph::{DataId, Graph};
use gpuflow_ops::Tensor;
use gpuflow_sim::{BusSpec, DeviceSpec};

use gpuflow_trace::{kv, Tracer};
use gpuflow_verify::{ConcurrencyReport, PlanAnalysis};

use crate::error::FrameworkError;
use crate::opschedule::{schedule_units, OpScheduler};
use crate::overlap::{LaneEvent, Machine, OverlapOutcome, Simulation};
use crate::partition::{partition_offload_units, OffloadUnit, PartitionPolicy};
use crate::pbexact::{pb_exact_plan_traced, PbExactOptions, PbExactStats};
use crate::plan::{check_plan, ExecutionPlan, PlanStats};
use crate::resilient::{ExecOutcome, ResilientExecutor};
use crate::split::{Rewrites, SplitResult};
use crate::streams::{schedule_stream_order, stream_order};
use crate::xfer::{schedule_transfers, EvictionPolicy, XferOptions};

/// Compilation knobs. The defaults are the paper's configuration.
///
/// `Eq`/`Hash` are implemented manually so option sets can key a plan cache
/// (`gpuflow-serve`): `memory_margin` is compared and hashed by its `f64`
/// bit pattern (with `-0.0` normalized to `0.0`), making equality total —
/// `NaN` margins compare equal to themselves and never poison a cache
/// lookup. Every other field participates structurally, so two option sets
/// collide only when every knob — margin bits, scheduler, eviction,
/// partition, eager-free, and the full exact-solver budget — matches.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Fraction of device memory withheld from the planner to absorb
    /// allocator fragmentation (§3.3.2: `Total_GPU_Memory` "is set to a
    /// value less than the actual amount of GPU memory").
    pub memory_margin: f64,
    /// Operator scheduling heuristic.
    pub scheduler: OpScheduler,
    /// Eviction policy for data-transfer scheduling.
    pub eviction: EvictionPolicy,
    /// Offload-unit partitioning policy.
    pub partition: PartitionPolicy,
    /// Eagerly delete dead data (§3.3.1 step 3).
    pub eager_free: bool,
    /// Sink `Free` steps to the latest point the memory budget allows in
    /// streamed plans (`streams > 1`), so frees never serialize
    /// independent streams through the committed-free horizon. `true` is
    /// the production default; `false` keeps the transfer scheduler's
    /// eager free placement and exists as an ablation knob — `gpuflow
    /// profile --no-defer-frees` uses it to show the free-horizon stalls
    /// the deferral pass removes. Ignored at `streams == 1`.
    pub defer_frees: bool,
    /// Use the exact pseudo-Boolean scheduler instead of the heuristics
    /// (only feasible for small templates).
    pub exact: Option<PbExactOptions>,
    /// Concurrent compute streams per device. `1` (the default) keeps the
    /// paper's single compute engine and the classic scheduling pipeline
    /// byte-for-byte; `> 1` replaces the operator scheduler with the
    /// stream-aware list scheduler of [`crate::streams`] and annotates the
    /// plan with its stream assignment and event-wait edges. Ignored by
    /// the exact PB scheduler (its model is single-stream).
    pub streams: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            memory_margin: 0.05,
            scheduler: OpScheduler::DepthFirst,
            eviction: EvictionPolicy::Belady,
            partition: PartitionPolicy::PerOperator,
            eager_free: true,
            defer_frees: true,
            exact: None,
            streams: 1,
        }
    }
}

impl CompileOptions {
    /// The margin's bit pattern as used by `Eq`/`Hash`: `-0.0` folds onto
    /// `0.0` so the two zero encodings share a cache entry.
    fn margin_bits(&self) -> u64 {
        if self.memory_margin == 0.0 {
            0.0f64.to_bits()
        } else {
            self.memory_margin.to_bits()
        }
    }
}

impl PartialEq for CompileOptions {
    fn eq(&self, other: &Self) -> bool {
        self.margin_bits() == other.margin_bits()
            && self.scheduler == other.scheduler
            && self.eviction == other.eviction
            && self.partition == other.partition
            && self.eager_free == other.eager_free
            && self.defer_frees == other.defer_frees
            && self.exact == other.exact
            && self.streams == other.streams
    }
}

impl Eq for CompileOptions {}

impl std::hash::Hash for CompileOptions {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.margin_bits().hash(state);
        self.scheduler.hash(state);
        self.eviction.hash(state);
        self.partition.hash(state);
        self.eager_free.hash(state);
        self.defer_frees.hash(state);
        self.exact.hash(state);
        self.streams.hash(state);
    }
}

/// The framework, configured for one target device.
///
/// ```
/// use gpuflow_core::Framework;
/// use gpuflow_graph::{DataKind, Graph, OpKind};
/// use gpuflow_sim::device::tesla_c870;
///
/// // A template: convolve, then squash.
/// let mut g = Graph::new();
/// let img = g.add("Img", 512, 512, DataKind::Input);
/// let k = g.add("K", 9, 9, DataKind::Constant);
/// let e = g.add("E", 504, 504, DataKind::Temporary);
/// let out = g.add("Out", 504, 504, DataKind::Output);
/// g.add_op("conv", OpKind::Conv2d, vec![img, k], e).unwrap();
/// g.add_op("squash", OpKind::Tanh, vec![e], out).unwrap();
///
/// // Target a 1 MiB device: the ~3 MB working sets must be split.
/// let device = tesla_c870().with_memory(1 << 20);
/// let compiled = Framework::new(device).compile(&g).unwrap();
/// assert!(compiled.split.parts >= 2);
/// // The plan was validated against the memory bound at compile time.
/// let stats = compiled.stats();
/// assert!(stats.peak_bytes <= 1 << 20);
/// ```
#[derive(Debug, Clone)]
pub struct Framework {
    device: DeviceSpec,
    options: CompileOptions,
}

/// A compiled template: split graph, plan, the machine it targets and
/// provenance, ready to run. One device ([`Framework`]) and a cluster
/// (`gpuflow_multi::compile_multi`) compile to this one type, and both
/// compiles end with the one check of the plan, whose statistics it
/// keeps: a template is certified by construction.
#[derive(Debug, Clone)]
pub struct CompiledTemplate {
    /// The split (on a cluster, sharded) graph plus data provenance.
    pub split: SplitResult,
    /// The execution plan over `split.graph`. Shared, so a recompile
    /// that reuses a schedule verbatim (the serve cache's incremental
    /// path) holds the same plan instead of a copy.
    pub plan: Arc<ExecutionPlan>,
    /// The devices the plan was compiled for, indexed by the plan's
    /// device ids: one for a [`Framework`] compile.
    pub devices: Vec<DeviceSpec>,
    /// The fabric a cluster's devices share; `None` for one device with
    /// its own DMA engines. A cluster of one keeps its shared bus.
    bus: Option<BusSpec>,
    /// Whether the exact PB scheduler produced the plan (and proved it
    /// optimal).
    pub exact_optimal: bool,
    /// Solver search and formula-size statistics when the exact PB
    /// scheduler ran.
    pub exact_stats: Option<PbExactStats>,
    /// The plan's statistics, from the residency walk that validated it.
    stats: PlanStats,
    /// Peak bytes resident on each device, from the same walk.
    peak_per_device: Vec<u64>,
}

/// What a traced compile hands back: the template, plus the facts the
/// compile established on the way — the concurrency certificate its
/// closing `validate` built and, on the margin ladder, the accepted rung's
/// dry run on the real first-fit allocator. A caller that needs either
/// takes it from here instead of walking the plan again.
///
/// The certificate is not kept on [`CompiledTemplate`]: a cached template
/// lives as long as its cache entry, and a large plan's happens-before
/// graph can weigh as much as the rest of the entry together.
#[derive(Debug)]
pub struct Compiled {
    /// The compiled template.
    pub template: CompiledTemplate,
    /// The plan's concurrency certificate (what `ExecutionPlan::certify`
    /// returns).
    pub certificate: ConcurrencyReport,
    /// The accepted rung's analytic dry run (what
    /// [`CompiledTemplate::run_analytic`] returns): only
    /// [`Framework::compile_adaptive_traced`] makes one.
    pub dry_run: Option<ExecOutcome>,
}

impl Framework {
    /// Framework targeting `device` with default (paper) options.
    pub fn new(device: DeviceSpec) -> Self {
        Framework {
            device,
            options: CompileOptions::default(),
        }
    }

    /// Override the compilation options.
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// The target device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Compile a template into an execution plan (Fig. 4).
    pub fn compile(&self, template: &Graph) -> Result<CompiledTemplate, FrameworkError> {
        self.compile_traced(template, &mut Tracer::disabled())
            .map(|compiled| compiled.template)
    }

    /// [`Framework::compile`], emitting a span with per-pass counters for
    /// every pipeline phase (split, partition, op schedule, transfer
    /// schedule, validate — or the exact PB solve) onto `tracer`, and
    /// recording the plan's canonical statistics (the same
    /// [`ExecutionPlan::stats`] numbers) into its metrics registry.
    /// Returns the concurrency certificate `validate` built beside the
    /// template.
    pub fn compile_traced(
        &self,
        template: &Graph,
        tracer: &mut Tracer,
    ) -> Result<Compiled, FrameworkError> {
        // One rung of the margin ladder, with nothing to reuse and no dry
        // run.
        let budget = self.device.plannable_memory(self.options.memory_margin);
        let mut reuse = Reuse::default();
        let scheduled = self.schedule(template, budget, &mut reuse, tracer)?;
        self.accept(scheduled, budget, &mut reuse, tracer)
    }

    /// Split, partition and schedule `template` for `budget` bytes — the
    /// passes of a rung before anything checks the plan — reusing every
    /// pass result in `reuse` that the budget cannot change. A pass that
    /// runs records its span; a reused one records none.
    fn schedule(
        &self,
        template: &Graph,
        budget: u64,
        reuse: &mut Reuse,
        tracer: &mut Tracer,
    ) -> Result<Scheduled, FrameworkError> {
        // A span whose pass turns out to be reused is dropped unrecorded.
        let tok = tracer.begin("compile", "split");
        let rewrote = reuse.rewrites.split(template, budget, 1)?;
        let split = reuse.rewrites.latest();
        if rewrote {
            tracer.end_with(
                tok,
                vec![
                    kv("parts", split.parts),
                    kv("ops_before", template.num_ops()),
                    kv("ops_after", split.graph.num_ops()),
                    kv("data_after", split.graph.num_data()),
                ],
            );
            reuse.units = None;
        }
        tracer
            .metrics()
            .set("compile.split_parts", split.parts as u64);
        tracer
            .metrics()
            .set("compile.split_ops", split.graph.num_ops() as u64);

        // Per-operator units are a function of the split graph alone;
        // fused ones depend on the budget too.
        if reuse.units.is_none() || self.options.partition != PartitionPolicy::PerOperator {
            let tok = tracer.begin("compile", "partition");
            let units = partition_offload_units(&split.graph, self.options.partition, budget);
            tracer.end_with(tok, vec![kv("units", units.len())]);
            if reuse.units.as_ref() != Some(&units) {
                reuse.order = None;
            }
            reuse.units = Some(units);
        }
        let units = reuse.units.as_deref().expect("partitioned above");
        tracer.metrics().set("compile.units", units.len() as u64);

        let xfer = XferOptions {
            memory_bytes: budget,
            policy: self.options.eviction,
            eager_free: self.options.eager_free,
        };
        let mut exact_optimal = false;
        let mut exact_stats = None;
        // Evictions are counted once per rung, for the scheduling span and
        // the metrics.
        let (plan, evictions) = if let Some(pb_opts) = self.options.exact {
            let out = pb_exact_plan_traced(&split.graph, units, budget, pb_opts, None, tracer)?;
            exact_optimal = out.optimal;
            exact_stats = Some(out.stats);
            let evictions = out.plan.evictions();
            (out.plan, evictions)
        } else if self.options.streams > 1 {
            let tok = tracer.begin("compile", "stream-schedule");
            let (order, unit_stream) = reuse.order.get_or_insert_with(|| {
                stream_order(&split.graph, units, &self.device, self.options.streams)
            });
            let plan = schedule_stream_order(
                &split.graph,
                units,
                order,
                unit_stream,
                self.options.streams,
                xfer,
                self.options.defer_frees,
            )?;
            let ann = plan.streams.as_ref().expect("streamed plan is annotated");
            let evictions = plan.evictions();
            tracer.end_with(
                tok,
                vec![
                    kv("streams", ann.num_streams),
                    kv("events", ann.events.len()),
                    kv("steps", plan.steps.len()),
                    kv("evictions", evictions),
                ],
            );
            (plan, evictions)
        } else {
            if reuse.order.is_none() {
                let tok = tracer.begin("compile", "op-schedule");
                let order = schedule_units(&split.graph, units, self.options.scheduler);
                tracer.end_with(
                    tok,
                    vec![kv("scheduler", format!("{:?}", self.options.scheduler))],
                );
                reuse.order = Some((order, Vec::new()));
            }
            let (order, _) = reuse.order.as_ref().expect("scheduled above");
            let tok = tracer.begin("compile", "xfer-schedule");
            let plan = schedule_transfers(&split.graph, units, order, xfer)?;
            let evictions = plan.evictions();
            tracer.end_with(
                tok,
                vec![
                    kv("eviction", format!("{:?}", self.options.eviction)),
                    kv("steps", plan.steps.len()),
                    kv("evictions", evictions),
                ],
            );
            (plan, evictions)
        };
        Ok(Scheduled {
            plan,
            evictions,
            exact_optimal,
            exact_stats,
        })
    }

    /// Validate and certify a scheduled rung over `reuse`'s split, and
    /// build the template from them. One residency walk gives both the
    /// verdict (what `validate_plan` checks) and the canonical plan
    /// statistics: the metrics the exported trace reconciles against, and
    /// `CompiledTemplate::stats`, come from here, never from a second count.
    fn accept(
        &self,
        scheduled: Scheduled,
        budget: u64,
        reuse: &mut Reuse,
        tracer: &mut Tracer,
    ) -> Result<Compiled, FrameworkError> {
        let Scheduled {
            plan,
            evictions,
            exact_optimal,
            exact_stats,
        } = scheduled;
        let (analysis, certificate) =
            validate(&reuse.rewrites.latest().graph, &plan, &[budget], tracer)?;
        crate::observe::record_plan_metrics(tracer, &analysis.stats);
        if tracer.is_enabled() {
            let m = tracer.metrics();
            m.set("plan.steps", plan.steps.len() as u64);
            m.set("plan.evictions", evictions as u64);
        }
        let mut template = CompiledTemplate::new(
            reuse.rewrites.take(),
            Arc::new(plan),
            vec![self.device.clone()],
            None,
            analysis,
        );
        template.exact_optimal = exact_optimal;
        template.exact_stats = exact_stats;
        Ok(Compiled {
            template,
            certificate,
            dry_run: None,
        })
    }
}

/// The closing pass of every compile, in a `validate` span: one residency
/// walk of `plan` against `capacities` and the concurrency certificate,
/// or the first error either finds.
fn validate(
    g: &Graph,
    plan: &ExecutionPlan,
    capacities: &[u64],
    tracer: &mut Tracer,
) -> Result<(PlanAnalysis, ConcurrencyReport), FrameworkError> {
    let tok = tracer.begin("compile", "validate");
    let checked = check_plan(g, plan, capacities).map_err(FrameworkError::InvalidPlan)?;
    tracer.end(tok);
    Ok(checked)
}

/// What a rung of the margin ladder takes over from the rungs before it.
/// Only the budget changes from rung to rung, and each of these is a pure
/// function of the template, the options and the one before it: the
/// split rewrite of a factor, the units of a rewrite, and the issue order
/// of the units.
#[derive(Debug, Default)]
struct Reuse {
    rewrites: Rewrites,
    /// The units of `rewrites`' latest rewrite.
    units: Option<Vec<OffloadUnit>>,
    /// The issue order of `units`, and under `--streams` the stream of
    /// every unit (empty for a serial plan).
    order: Option<(Vec<usize>, Vec<usize>)>,
}

/// A rung's plan before validation, with what the exact solver reported.
struct Scheduled {
    plan: ExecutionPlan,
    evictions: usize,
    exact_optimal: bool,
    exact_stats: Option<PbExactStats>,
}

/// The margin ladder used by [`Framework::compile_adaptive`].
pub const DEFAULT_MARGINS: [f64; 6] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5];

impl Framework {
    /// Compile like [`Framework::compile`], but validate the plan against
    /// the *real* first-fit allocator by dry-running it analytically, and
    /// escalate the fragmentation margin until the plan both schedules and
    /// allocates. The configured `memory_margin` is the ladder's floor;
    /// rungs of [`DEFAULT_MARGINS`] above it are tried in order. This is
    /// the production entry point: the paper de-rates `Total_GPU_Memory`
    /// for exactly this reason (§3.3.2).
    pub fn compile_adaptive(&self, template: &Graph) -> Result<CompiledTemplate, FrameworkError> {
        self.compile_adaptive_traced(template, &mut Tracer::disabled())
            .map(|compiled| compiled.template)
    }

    /// [`Framework::compile_adaptive`] with tracing: each margin attempt
    /// becomes a span (wrapping the per-pass spans of the passes it ran)
    /// that records the margin tried and why it was rejected, and the
    /// accepted margin lands in the metrics registry as `compile.margin`.
    /// Returns the accepted rung's dry run and certificate beside the
    /// template.
    ///
    /// A rung reuses what earlier rungs computed and the smaller budget
    /// cannot change (the split rewrite while the factor holds, the units
    /// and their order while the rewrite holds), and dry-runs its plan on
    /// the allocator before it validates and certifies it, so a rung the
    /// allocator rejects builds neither a residency walk nor a certificate.
    pub fn compile_adaptive_traced(
        &self,
        template: &Graph,
        tracer: &mut Tracer,
    ) -> Result<Compiled, FrameworkError> {
        let mut reuse = Reuse::default();
        let mut last_err = None;
        for margin in self.margin_ladder() {
            let budget = self.device.plannable_memory(margin);
            let tok = tracer.begin("compile", "margin-attempt");
            match self.attempt(template, budget, &mut reuse, tracer) {
                Ok(accepted) => {
                    tracer.end_with(tok, vec![kv("margin", margin), kv("outcome", "ok")]);
                    tracer.metrics().gauge("compile.margin", margin);
                    return Ok(accepted);
                }
                Err((stage, e)) => {
                    tracer.end_with(
                        tok,
                        vec![kv("margin", margin), kv("outcome", format!("{stage}{e}"))],
                    );
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("ladder attempted at least one margin"))
    }

    /// The margins the ladder tries: the configured margin, which is the
    /// floor, then the rungs of [`DEFAULT_MARGINS`] above it. With default
    /// options this is exactly `DEFAULT_MARGINS`.
    fn margin_ladder(&self) -> Vec<f64> {
        let floor = self.options.memory_margin;
        std::iter::once(floor)
            .chain(DEFAULT_MARGINS.iter().copied().filter(|&m| m > floor))
            .collect()
    }

    /// One rung of the ladder: schedule, dry-run on the first-fit
    /// allocator, then validate and certify. A failure comes back with the
    /// prefix its span outcome carries (`"dry-run: "` for the allocator).
    fn attempt(
        &self,
        template: &Graph,
        budget: u64,
        reuse: &mut Reuse,
        tracer: &mut Tracer,
    ) -> Result<Compiled, (&'static str, FrameworkError)> {
        let scheduled = self
            .schedule(template, budget, reuse, tracer)
            .map_err(|e| ("", e))?;
        let split = reuse.rewrites.latest();
        let dry_run = ResilientExecutor::quiet(
            &split.graph,
            &scheduled.plan,
            &Machine::single(&self.device),
        )
        .with_origin(split)
        .run_analytic()
        .map_err(|e| ("dry-run: ", e))?
        .exec;
        let accepted = self
            .accept(scheduled, budget, reuse, tracer)
            .map_err(|e| ("", e))?;
        Ok(Compiled {
            dry_run: Some(dry_run),
            ..accepted
        })
    }
}

impl CompiledTemplate {
    /// The template of a cluster compile: `plan` over the sharded `split`
    /// for `devices` behind the shared `bus`, checked in a `validate` span
    /// against the devices' full capacities. Returns the plan's
    /// concurrency certificate beside it; a plan the residency walk or the
    /// certifier rejects is an error.
    pub fn for_cluster(
        split: SplitResult,
        plan: ExecutionPlan,
        devices: Vec<DeviceSpec>,
        bus: BusSpec,
        tracer: &mut Tracer,
    ) -> Result<Compiled, FrameworkError> {
        let capacities: Vec<u64> = devices.iter().map(|d| d.memory_bytes).collect();
        let (analysis, certificate) = validate(&split.graph, &plan, &capacities, tracer)?;
        Ok(Compiled {
            template: CompiledTemplate::new(split, Arc::new(plan), devices, Some(bus), analysis),
            certificate,
            dry_run: None,
        })
    }

    /// The template of `plan` over `split` for `devices` (behind `bus` on
    /// a cluster), keeping the statistics of the walk that checked it.
    fn new(
        split: SplitResult,
        plan: Arc<ExecutionPlan>,
        devices: Vec<DeviceSpec>,
        bus: Option<BusSpec>,
        analysis: PlanAnalysis,
    ) -> CompiledTemplate {
        CompiledTemplate {
            split,
            plan,
            devices,
            bus,
            exact_optimal: false,
            exact_stats: None,
            stats: analysis.stats,
            peak_per_device: analysis.peak_per_device,
        }
    }

    /// The machine the plan targets: one device with its own DMA engines,
    /// or a cluster's devices behind their shared, backfilling bus.
    pub fn machine(&self) -> Machine<'_> {
        match &self.bus {
            Some(bus) => Machine::cluster(&self.devices, bus),
            None => Machine::single(&self.devices[0]),
        }
    }

    /// Static transfer statistics, as the validating walk computed them.
    pub fn stats(&self) -> PlanStats {
        debug_assert_eq!(
            self.stats,
            self.plan.stats(&self.split.graph),
            "cached plan statistics disagree with a fresh walk of the plan"
        );
        self.stats
    }

    /// Peak bytes resident on each device, as the validating walk
    /// computed them.
    pub fn peak_per_device(&self) -> &[u64] {
        &self.peak_per_device
    }

    /// This template's schedule over `split`, a re-split of a graph with
    /// the same skeleton at new sizes, for `device` with `budget`
    /// plannable bytes. The shared plan is validated against the new
    /// shapes (residency, capacity and the concurrency certificate), and
    /// the new template's statistics come from that same walk.
    pub fn reuse_schedule(
        &self,
        split: SplitResult,
        device: DeviceSpec,
        budget: u64,
    ) -> Result<CompiledTemplate, FrameworkError> {
        let (analysis, _) =
            check_plan(&split.graph, &self.plan, &[budget]).map_err(FrameworkError::InvalidPlan)?;
        let mut t =
            CompiledTemplate::new(split, Arc::clone(&self.plan), vec![device], None, analysis);
        t.exact_optimal = self.exact_optimal;
        t.exact_stats = self.exact_stats;
        Ok(t)
    }

    /// Simulate the plan with concurrent copy engines and compute lanes
    /// ([`crate::overlap`]) on the machine it was compiled for.
    pub fn simulate(&self) -> Simulation {
        crate::overlap::simulate(&self.split.graph, &self.plan, &self.machine())
    }

    /// The outcome and the lane events of [`CompiledTemplate::simulate`].
    // Survives as an adapter: perf/src/layers.rs reads `.trace().0.makespan`.
    pub fn trace(&self) -> (OverlapOutcome, Vec<LaneEvent>) {
        let sim = self.simulate();
        (sim.outcome, sim.events)
    }

    /// Run the static analyzer against the devices' full capacities.
    // Survives as an adapter: perf/src/layers.rs analyzes the compiled
    // cluster; every other caller has the validating walk's numbers.
    pub fn analyze(&self) -> PlanAnalysis {
        let capacities: Vec<u64> = self.devices.iter().map(|d| d.memory_bytes).collect();
        self.plan
            .analyze_devices(&self.split.graph, &capacities, false)
    }

    /// Execute without materializing data (time + transfer accounting):
    /// the quiet walk on the machine the plan was compiled for.
    pub fn run_analytic(&self) -> Result<ExecOutcome, FrameworkError> {
        self.quiet_executor(&self.machine())
            .run_analytic()
            .map(|r| r.exec)
    }

    /// Execute functionally. `bindings` maps the *original* template's
    /// inputs and constants to tensors; outputs come back keyed by the
    /// original template's output ids.
    pub fn run_functional(
        &self,
        bindings: &HashMap<DataId, Tensor>,
    ) -> Result<ExecOutcome, FrameworkError> {
        self.quiet_executor(&self.machine())
            .run_functional(bindings)
            .map(|r| r.exec)
    }

    fn quiet_executor<'a>(&'a self, machine: &Machine<'a>) -> ResilientExecutor<'a> {
        ResilientExecutor::quiet(&self.split.graph, &self.plan, machine).with_origin(&self.split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{fig3_graph, fig3_memory_bytes};
    use gpuflow_graph::{DataKind, OpKind};
    use gpuflow_ops::reference_eval;
    use gpuflow_sim::device::tesla_c870;

    fn edge_graph(n: usize, k: usize) -> Graph {
        let mut g = Graph::new();
        let img = g.add("Img", n, n, DataKind::Input);
        let k1 = g.add("K1", k, k, DataKind::Constant);
        let k2 = g.add("K2", k, k, DataKind::Constant);
        let e = n - k + 1;
        let e1 = g.add("E1", e, e, DataKind::Temporary);
        let e2 = g.add("E2", e, e, DataKind::Temporary);
        let e5 = g.add("E5", e, e, DataKind::Temporary);
        let e6 = g.add("E6", e, e, DataKind::Temporary);
        let edg = g.add("Edg", e, e, DataKind::Output);
        g.add_op("C1", OpKind::Conv2d, vec![img, k1], e1).unwrap();
        g.add_op("C2", OpKind::Conv2d, vec![img, k2], e2).unwrap();
        g.add_op(
            "R1",
            OpKind::Remap(gpuflow_graph::RemapKind::FlipH),
            vec![e1],
            e5,
        )
        .unwrap();
        g.add_op(
            "R2",
            OpKind::Remap(gpuflow_graph::RemapKind::FlipH),
            vec![e2],
            e6,
        )
        .unwrap();
        g.add_op("max", OpKind::EwMax { arity: 4 }, vec![e1, e2, e5, e6], edg)
            .unwrap();
        g
    }

    fn bindings_for(g: &Graph) -> HashMap<DataId, Tensor> {
        let mut bind = HashMap::new();
        for d in g.data_ids() {
            let desc = g.data(d);
            if desc.kind.starts_on_cpu() {
                bind.insert(
                    d,
                    Tensor::from_fn(desc.rows, desc.cols, |r, c| {
                        ((r * 31 + c * 7 + d.index() * 13) % 17) as f32 - 8.0
                    }),
                );
            }
        }
        bind
    }

    /// End-to-end: split + schedule + execute a template that exceeds the
    /// device memory, and check against the reference evaluator.
    #[test]
    fn end_to_end_split_execution_is_correct() {
        let g = edge_graph(120, 9);
        // A device so small the template must split: total data ≈ 120² +
        // 5·112² floats ≈ 315 KB; give it 120 KB.
        let dev = tesla_c870().with_memory(120 * 1024);
        // A tiny device fragments badly in relative terms; plan with a
        // generous margin (the paper's de-rated Total_GPU_Memory).
        let fw = Framework::new(dev).with_options(CompileOptions {
            memory_margin: 0.25,
            ..CompileOptions::default()
        });
        let compiled = fw.compile(&g).unwrap();
        assert!(compiled.split.parts >= 2, "template must actually split");
        let bind = bindings_for(&g);
        let out = compiled.run_functional(&bind).unwrap();
        let reference = reference_eval(&g, &bind).unwrap();
        assert_eq!(out.outputs.len(), 1);
        let edg = g.outputs()[0];
        assert_eq!(
            out.outputs[&edg], reference[&edg],
            "split execution must match the unconstrained reference"
        );
        // Memory must be respected on the real allocator too.
        assert!(out.peak_device_bytes <= 120 * 1024);
    }

    #[test]
    fn optimized_beats_baseline_on_transfers() {
        let g = edge_graph(120, 9);
        let dev = tesla_c870().with_memory(320 * 1024);
        let compiled = Framework::new(dev).compile(&g).unwrap();
        let baseline = crate::baseline::baseline_plan(&g, 320 * 1024).unwrap();
        assert!(
            compiled.stats().total_floats() < baseline.stats(&g).total_floats(),
            "optimized {} vs baseline {}",
            compiled.stats().total_floats(),
            baseline.stats(&g).total_floats()
        );
    }

    #[test]
    fn exact_mode_matches_heuristic_or_better() {
        let g = fig3_graph();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let mut opts = CompileOptions {
            memory_margin: 0.0,
            ..CompileOptions::default()
        };
        let heuristic = Framework::new(dev.clone())
            .with_options(opts)
            .compile(&g)
            .unwrap();
        opts.exact = Some(PbExactOptions::default());
        let exact = Framework::new(dev).with_options(opts).compile(&g).unwrap();
        assert!(exact.exact_optimal);
        assert!(
            exact.stats().total_floats() <= heuristic.stats().total_floats(),
            "exact {} must not exceed heuristic {}",
            exact.stats().total_floats(),
            heuristic.stats().total_floats()
        );
    }

    #[test]
    fn analytic_run_reports_time() {
        let g = edge_graph(64, 5);
        let dev = tesla_c870();
        let compiled = Framework::new(dev).compile(&g).unwrap();
        let out = compiled.run_analytic().unwrap();
        assert!(out.total_time() > 0.0);
        assert_eq!(out.transfer_floats(), compiled.stats().total_floats());
    }

    #[test]
    fn compile_adaptive_rescues_fragmented_plans() {
        // This device/template pair fails the analytic dry-run at the 5%
        // margin (first-fit fragmentation); the ladder must recover.
        let g = edge_graph(120, 9);
        let dev = tesla_c870().with_memory(120 * 1024);
        let compiled = Framework::new(dev).compile_adaptive(&g).unwrap();
        assert!(compiled.split.parts >= 2);
        compiled.run_analytic().unwrap();
    }

    #[test]
    fn adaptive_compile_hands_back_the_accepted_rungs_dry_run_and_certificate() {
        // The 5 % rung fails its dry run here, so what comes back must be
        // the facts of the rung that was accepted.
        let g = edge_graph(120, 9);
        let dev = tesla_c870().with_memory(120 * 1024);
        for streams in [1, 2] {
            let accepted = Framework::new(dev.clone())
                .with_options(CompileOptions {
                    streams,
                    ..CompileOptions::default()
                })
                .compile_adaptive_traced(&g, &mut Tracer::disabled())
                .unwrap();
            let t = &accepted.template;
            let fresh = t.run_analytic().unwrap();
            let dry_run = accepted
                .dry_run
                .as_ref()
                .expect("the ladder dry-runs its plan");
            assert_eq!(dry_run.timeline.events(), fresh.timeline.events());
            assert_eq!(dry_run.peak_device_bytes, fresh.peak_device_bytes);
            let cert = t.plan.certify(&t.split.graph);
            assert_eq!(accepted.certificate.diagnostics, cert.diagnostics);
            assert_eq!(accepted.certificate.hb.edge_counts(), cert.hb.edge_counts());
        }
    }

    /// The margin ladder as a fresh compile plus dry run per rung, sharing
    /// nothing between rungs: the accepted margin with its template and
    /// dry run, or the last rung's error.
    fn per_rung_ladder(
        fw: &Framework,
        g: &Graph,
    ) -> Result<(f64, CompiledTemplate, ExecOutcome), FrameworkError> {
        let mut last_err = None;
        for margin in fw.margin_ladder() {
            let rung = Framework::new(fw.device.clone()).with_options(CompileOptions {
                memory_margin: margin,
                ..fw.options
            });
            match rung.compile(g).and_then(|c| Ok((c.run_analytic()?, c))) {
                Ok((dry_run, compiled)) => return Ok((margin, compiled, dry_run)),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap())
    }

    /// The ladder whose rungs share split, units and order, and dry-run
    /// before they validate, must accept the rung the per-rung ladder
    /// accepts, with the same facts — or fail with the same error.
    #[test]
    fn the_sharing_ladder_accepts_what_fresh_rungs_accept() {
        use gpuflow_templates::edge::{find_edges, CombineOp};
        let fragmenting = tesla_c870().with_memory(120 * 1024);
        let with = |dev: &DeviceSpec, options| Framework::new(dev.clone()).with_options(options);
        let base = CompileOptions::default();
        let cases = [
            // Fails its dry run at the first rung (first-fit fragmentation).
            ("fragmenting", edge_graph(120, 9), with(&fragmenting, base)),
            (
                "fragmenting --streams 2",
                edge_graph(120, 9),
                with(&fragmenting, CompileOptions { streams: 2, ..base }),
            ),
            (
                "fragmenting, fused units",
                edge_graph(120, 9),
                with(
                    &fragmenting,
                    CompileOptions {
                        partition: PartitionPolicy::GreedyFuse,
                        ..base
                    },
                ),
            ),
            (
                "fragmenting --margin 0.15",
                edge_graph(120, 9),
                with(
                    &fragmenting,
                    CompileOptions {
                        memory_margin: 0.15,
                        ..base
                    },
                ),
            ),
            // Split factors 1, 1, 1, 1, 2: rungs share split, units and order.
            (
                "cnn-small:600x600 on 4 MiB",
                gpuflow_templates::cnn::small_cnn(600, 600).graph,
                with(&tesla_c870().with_memory(4 << 20), base),
            ),
            // Split factors 13, 14, 16: every rung rewrites.
            (
                "edge:600x600,k=9,o=8 on 1 MiB",
                find_edges(600, 600, 9, 8, CombineOp::Max).graph,
                with(&tesla_c870().with_memory(1 << 20), base),
            ),
            (
                "fig3 --exact",
                fig3_graph(),
                with(
                    &tesla_c870().with_memory(fig3_memory_bytes() * 6 / 5),
                    CompileOptions {
                        exact: Some(PbExactOptions::default()),
                        ..base
                    },
                ),
            ),
            // No rung can split the convolutions far enough.
            (
                "every rung fails",
                edge_graph(120, 9),
                with(&tesla_c870().with_memory(2048), base),
            ),
        ];
        let mut accepted = 0;
        for (name, g, fw) in &cases {
            let mut tracer = Tracer::new();
            match (
                fw.compile_adaptive_traced(g, &mut tracer),
                per_rung_ladder(fw, g),
            ) {
                (Ok(ladder), Ok((margin, fresh, dry_run))) => {
                    accepted += 1;
                    let t = &ladder.template;
                    let margin_gauge = tracer.metrics_ref().gauge_value("compile.margin");
                    assert_eq!(margin_gauge, Some(margin), "{name}: accepted margin");
                    assert_eq!(
                        format!("{:?}", t.split),
                        format!("{:?}", fresh.split),
                        "{name}: split"
                    );
                    assert_eq!(t.plan.steps, fresh.plan.steps, "{name}: steps");
                    assert_eq!(t.plan.streams, fresh.plan.streams, "{name}: streams");
                    assert_eq!(t.stats(), fresh.stats(), "{name}: stats");
                    assert_eq!(t.exact_optimal, fresh.exact_optimal, "{name}: exact");
                    let (a, b) = (ladder.dry_run.as_ref().unwrap(), &dry_run);
                    assert_eq!(a.timeline.counters(), b.timeline.counters(), "{name}");
                    assert_eq!(a.timeline.events(), b.timeline.events(), "{name}");
                    assert_eq!(a.peak_device_bytes, b.peak_device_bytes, "{name}");
                    let cert = fresh.plan.certify(&fresh.split.graph);
                    assert_eq!(ladder.certificate.diagnostics, cert.diagnostics, "{name}");
                    assert_eq!(
                        ladder.certificate.hb.edge_counts(),
                        cert.hb.edge_counts(),
                        "{name}"
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{name}"),
                (a, b) => panic!(
                    "{name}: the ladder {} but the per-rung loop {}",
                    a.map_or_else(|e| format!("failed ({e})"), |_| "accepted".into()),
                    b.map_or_else(|e| format!("failed ({e})"), |_| "accepted".into()),
                ),
            }
        }
        assert_eq!(
            accepted,
            cases.len() - 1,
            "only the last case fails every rung"
        );
    }

    /// Each pass runs once per distinct input: the scaled-down small CNN
    /// climbs five rungs on split factors 1, 1, 1, 1, 2, the fragmenting
    /// device three streamed rungs on one factor, and the edge case above
    /// rewrites at every rung. Only the accepted rung validates.
    #[test]
    fn ladder_rungs_skip_the_passes_they_reuse() {
        use gpuflow_templates::{cnn, edge};
        let spans = |g: &Graph, dev: DeviceSpec, streams| {
            let mut tracer = Tracer::new();
            Framework::new(dev)
                .with_options(CompileOptions {
                    streams,
                    ..CompileOptions::default()
                })
                .compile_adaptive_traced(g, &mut tracer)
                .unwrap();
            let count = |name| tracer.events().iter().filter(|e| e.name == name).count();
            [
                "margin-attempt",
                "split",
                "partition",
                "op-schedule",
                "xfer-schedule",
                "stream-schedule",
                "validate",
            ]
            .map(count)
        };
        let cnn = cnn::small_cnn(600, 600).graph;
        let four_mib = tesla_c870().with_memory(4 << 20);
        assert_eq!(spans(&cnn, four_mib, 1), [5, 2, 2, 2, 5, 0, 1]);
        let fragmenting = tesla_c870().with_memory(120 * 1024);
        assert_eq!(
            spans(&edge_graph(120, 9), fragmenting, 2),
            [3, 1, 1, 0, 0, 3, 1]
        );
        let edge = edge::find_edges(600, 600, 9, 8, edge::CombineOp::Max).graph;
        let one_mib = tesla_c870().with_memory(1 << 20);
        assert_eq!(spans(&edge, one_mib, 1), [3, 3, 3, 3, 3, 0, 1]);
    }

    #[test]
    fn ample_memory_needs_io_only() {
        let g = edge_graph(64, 5);
        let compiled = Framework::new(tesla_c870()).compile(&g).unwrap();
        let s = compiled.stats();
        // Input + 2 kernels in, output out — nothing else moves.
        assert_eq!(s.floats_in, 64 * 64 + 2 * 25);
        assert_eq!(s.floats_out, 60 * 60);
    }

    fn hash_of(o: &CompileOptions) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        o.hash(&mut h);
        h.finish()
    }

    #[test]
    fn options_eq_hash_distinguish_every_knob() {
        let base = CompileOptions::default();
        assert_eq!(base, base);
        assert_eq!(hash_of(&base), hash_of(&base));

        // Distinct margins must never collide into one cache entry.
        for margin in [0.0, 0.01, 0.05, 0.1, 0.2, 0.5] {
            let a = CompileOptions {
                memory_margin: margin,
                ..base
            };
            if margin != base.memory_margin {
                assert_ne!(a, base, "margin {margin} compared equal to default");
                assert_ne!(hash_of(&a), hash_of(&base));
            }
        }

        // Distinct exact budgets must not collide either.
        let exact_a = CompileOptions {
            exact: Some(PbExactOptions::default()),
            ..base
        };
        let exact_b = CompileOptions {
            exact: Some(PbExactOptions {
                max_conflicts: 1_000,
                ..PbExactOptions::default()
            }),
            ..base
        };
        assert_ne!(exact_a, base);
        assert_ne!(exact_a, exact_b);
        assert_ne!(hash_of(&exact_a), hash_of(&exact_b));

        // Every categorical knob participates.
        for variant in [
            CompileOptions {
                scheduler: OpScheduler::BreadthFirst,
                ..base
            },
            CompileOptions {
                eviction: EvictionPolicy::Lru,
                ..base
            },
            CompileOptions {
                partition: PartitionPolicy::GreedyFuse,
                ..base
            },
            CompileOptions {
                eager_free: false,
                ..base
            },
            CompileOptions {
                defer_frees: false,
                ..base
            },
            CompileOptions { streams: 2, ..base },
        ] {
            assert_ne!(variant, base);
            assert_ne!(hash_of(&variant), hash_of(&base));
        }
    }

    #[test]
    fn multi_stream_compile_annotates_and_validates() {
        let g = edge_graph(120, 9);
        let dev = tesla_c870();
        let compiled = Framework::new(dev)
            .with_options(CompileOptions {
                streams: 2,
                ..CompileOptions::default()
            })
            .compile(&g)
            .unwrap();
        let ann = compiled.plan.streams.as_ref().expect("stream annotation");
        assert_eq!(ann.num_streams, 2);
        assert_eq!(ann.unit_stream.len(), compiled.plan.units.len());
        let cert = compiled.plan.certify(&compiled.split.graph);
        assert!(cert.certified(), "{:?}", cert.diagnostics);
        // The streamed plan still computes the right answer.
        let bind = bindings_for(&g);
        let out = compiled.run_functional(&bind).unwrap();
        let reference = reference_eval(&g, &bind).unwrap();
        let edg = g.outputs()[0];
        assert_eq!(out.outputs[&edg], reference[&edg]);
    }

    #[test]
    fn options_eq_is_total_and_zero_normalized() {
        // NaN margins still compare equal to themselves (bit comparison):
        // equality is total, as a cache key requires.
        let nan = CompileOptions {
            memory_margin: f64::NAN,
            ..CompileOptions::default()
        };
        assert_eq!(nan, nan);
        assert_eq!(hash_of(&nan), hash_of(&nan));
        // The two float zeros are one key.
        let pz = CompileOptions {
            memory_margin: 0.0,
            ..CompileOptions::default()
        };
        let nz = CompileOptions {
            memory_margin: -0.0,
            ..CompileOptions::default()
        };
        assert_eq!(pz, nz);
        assert_eq!(hash_of(&pz), hash_of(&nz));
    }
}
