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

use gpuflow_graph::{DataId, Graph};
use gpuflow_ops::Tensor;
use gpuflow_sim::DeviceSpec;

use gpuflow_trace::{kv, Tracer};

use crate::error::FrameworkError;
use crate::executor::{ExecOutcome, Executor};
use crate::opschedule::{schedule_units, OpScheduler};
use crate::partition::{partition_offload_units, PartitionPolicy};
use crate::pbexact::{pb_exact_plan_traced, PbExactOptions, PbExactStats};
use crate::plan::{check_plan, ExecutionPlan, PlanStats};
use crate::split::{split_graph, SplitResult};
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

/// A compiled template: split graph, plan, and provenance, ready to run.
#[derive(Debug, Clone)]
pub struct CompiledTemplate {
    /// The split graph plus data provenance.
    pub split: SplitResult,
    /// The execution plan over `split.graph`.
    pub plan: ExecutionPlan,
    /// The device the plan was compiled for.
    pub device: DeviceSpec,
    /// Whether the exact PB scheduler produced the plan (and proved it
    /// optimal).
    pub exact_optimal: bool,
    /// Solver search and formula-size statistics when the exact PB
    /// scheduler ran.
    pub exact_stats: Option<PbExactStats>,
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
    }

    /// [`Framework::compile`], emitting a span with per-pass counters for
    /// every pipeline phase (split, partition, op schedule, transfer
    /// schedule, validate — or the exact PB solve) onto `tracer`, and
    /// recording the plan's canonical statistics (the same
    /// [`ExecutionPlan::stats`] numbers) into its metrics registry.
    pub fn compile_traced(
        &self,
        template: &Graph,
        tracer: &mut Tracer,
    ) -> Result<CompiledTemplate, FrameworkError> {
        let budget = self.device.plannable_memory(self.options.memory_margin);
        let tok = tracer.begin("compile", "split");
        let split = split_graph(template, budget)?;
        tracer.end_with(
            tok,
            vec![
                kv("parts", split.parts),
                kv("ops_before", template.num_ops()),
                kv("ops_after", split.graph.num_ops()),
                kv("data_after", split.graph.num_data()),
            ],
        );
        tracer
            .metrics()
            .set("compile.split_parts", split.parts as u64);
        tracer
            .metrics()
            .set("compile.split_ops", split.graph.num_ops() as u64);

        let tok = tracer.begin("compile", "partition");
        let units = partition_offload_units(&split.graph, self.options.partition, budget);
        tracer.end_with(tok, vec![kv("units", units.len())]);
        tracer.metrics().set("compile.units", units.len() as u64);

        let plan;
        let exact_optimal;
        let exact_stats;
        // Counted once per compile, for the scheduling span and the metrics.
        let evictions;
        if let Some(pb_opts) = self.options.exact {
            let out = pb_exact_plan_traced(&split.graph, &units, budget, pb_opts, None, tracer)?;
            plan = out.plan;
            evictions = plan.evictions();
            exact_optimal = out.optimal;
            exact_stats = Some(out.stats);
        } else if self.options.streams > 1 {
            let tok = tracer.begin("compile", "stream-schedule");
            plan = crate::streams::schedule_streamed_with(
                &split.graph,
                &units,
                &self.device,
                self.options.streams,
                XferOptions {
                    memory_bytes: budget,
                    policy: self.options.eviction,
                    eager_free: self.options.eager_free,
                },
                self.options.defer_frees,
            )?;
            let ann = plan.streams.as_ref().expect("streamed plan is annotated");
            evictions = plan.evictions();
            tracer.end_with(
                tok,
                vec![
                    kv("streams", ann.num_streams),
                    kv("events", ann.events.len()),
                    kv("steps", plan.steps.len()),
                    kv("evictions", evictions),
                ],
            );
            exact_optimal = false;
            exact_stats = None;
        } else {
            let tok = tracer.begin("compile", "op-schedule");
            let order = schedule_units(&split.graph, &units, self.options.scheduler);
            tracer.end_with(
                tok,
                vec![kv("scheduler", format!("{:?}", self.options.scheduler))],
            );
            let tok = tracer.begin("compile", "xfer-schedule");
            plan = schedule_transfers(
                &split.graph,
                &units,
                &order,
                XferOptions {
                    memory_bytes: budget,
                    policy: self.options.eviction,
                    eager_free: self.options.eager_free,
                },
            )?;
            evictions = plan.evictions();
            tracer.end_with(
                tok,
                vec![
                    kv("eviction", format!("{:?}", self.options.eviction)),
                    kv("steps", plan.steps.len()),
                    kv("evictions", evictions),
                ],
            );
            exact_optimal = false;
            exact_stats = None;
        }

        // One residency walk gives both the verdict (what `validate_plan`
        // checks) and the canonical plan statistics: the metrics the
        // exported trace reconciles against come from here, never from a
        // second count.
        let tok = tracer.begin("compile", "validate");
        let (analysis, error) = check_plan(&split.graph, &plan, &[budget]);
        if let Some(msg) = error {
            return Err(FrameworkError::InvalidPlan(msg));
        }
        tracer.end(tok);
        crate::observe::record_plan_metrics(tracer, &analysis.stats);
        if tracer.is_enabled() {
            let m = tracer.metrics();
            m.set("plan.steps", plan.steps.len() as u64);
            m.set("plan.evictions", evictions as u64);
        }

        Ok(CompiledTemplate {
            split,
            plan,
            device: self.device.clone(),
            exact_optimal,
            exact_stats,
        })
    }
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
    }

    /// [`Framework::compile_adaptive`] with tracing: each margin attempt
    /// becomes a span (wrapping the usual per-pass spans) that records the
    /// margin tried and why it was rejected, and the accepted margin lands
    /// in the metrics registry as `compile.margin`.
    pub fn compile_adaptive_traced(
        &self,
        template: &Graph,
        tracer: &mut Tracer,
    ) -> Result<CompiledTemplate, FrameworkError> {
        // The configured margin is the ladder's floor: start there, then
        // escalate through the default rungs above it. With default
        // options this is exactly `DEFAULT_MARGINS`.
        let floor = self.options.memory_margin;
        let ladder: Vec<f64> = std::iter::once(floor)
            .chain(DEFAULT_MARGINS.iter().copied().filter(|&m| m > floor))
            .collect();
        let mut last_err = None;
        for &margin in &ladder {
            let fw = Framework {
                device: self.device.clone(),
                options: CompileOptions {
                    memory_margin: margin,
                    ..self.options
                },
            };
            let tok = tracer.begin("compile", "margin-attempt");
            match fw.compile_traced(template, tracer) {
                Ok(compiled) => match compiled.run_analytic() {
                    Ok(_) => {
                        tracer.end_with(tok, vec![kv("margin", margin), kv("outcome", "ok")]);
                        tracer.metrics().gauge("compile.margin", margin);
                        return Ok(compiled);
                    }
                    Err(e) => {
                        tracer.end_with(
                            tok,
                            vec![kv("margin", margin), kv("outcome", format!("dry-run: {e}"))],
                        );
                        last_err = Some(e);
                    }
                },
                Err(e) => {
                    tracer.end_with(
                        tok,
                        vec![kv("margin", margin), kv("outcome", format!("{e}"))],
                    );
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("ladder attempted at least one margin"))
    }
}

impl CompiledTemplate {
    /// Static transfer statistics.
    pub fn stats(&self) -> PlanStats {
        self.plan.stats(&self.split.graph)
    }

    /// Simulate the plan with concurrent copy engines and compute streams
    /// ([`crate::overlap`]) on the device it was compiled for.
    pub fn simulate(&self) -> crate::overlap::Simulation {
        let machine = crate::overlap::Machine::single(&self.device);
        crate::overlap::simulate(&self.split.graph, &self.plan, &machine)
    }

    /// Execute without materializing data (time + transfer accounting).
    pub fn run_analytic(&self) -> Result<ExecOutcome, FrameworkError> {
        Executor::new(&self.split.graph, &self.plan, &self.device)
            .with_origin(&self.split)
            .run_analytic()
    }

    /// Execute functionally. `bindings` maps the *original* template's
    /// inputs and constants to tensors; outputs come back keyed by the
    /// original template's output ids.
    pub fn run_functional(
        &self,
        bindings: &HashMap<DataId, Tensor>,
    ) -> Result<ExecOutcome, FrameworkError> {
        Executor::new(&self.split.graph, &self.plan, &self.device)
            .with_origin(&self.split)
            .run_functional(bindings)
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
