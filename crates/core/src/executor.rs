//! Plan execution against the simulated GPU platform.
//!
//! Two modes:
//!
//! * **Analytic** — no tensors are materialized; the executor walks the
//!   plan, drives the device allocator (so fragmentation is real), and
//!   accumulates simulated time and transfer counters. This scales to the
//!   paper's 17 GB-footprint experiments on a laptop.
//! * **Functional** — every kernel really runs (on the host CPU, via
//!   `gpuflow-ops`); split pieces are extracted from and reassembled into
//!   the original template data, and the final outputs can be compared
//!   bit-for-bit against `gpuflow_ops::reference_eval`.

use std::collections::HashMap;

use gpuflow_graph::{DataId, DataKind, Graph};
use gpuflow_ops::{execute, op_cost, Tensor};
use gpuflow_sim::{
    kernel_time, timing::Work, transfer_time, DeviceAllocator, DeviceSpec, FitPolicy, Timeline,
};

use crate::error::FrameworkError;
use crate::plan::{ExecutionPlan, Step};
use crate::split::{DataOrigin, SplitResult};

/// Execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Account time and transfers only.
    Analytic,
    /// Really run every kernel and produce output tensors.
    Functional,
}

/// Result of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The simulated event timeline (durations, counters).
    pub timeline: Timeline,
    /// Peak bytes allocated on the device.
    pub peak_device_bytes: u64,
    /// Worst external fragmentation observed at any allocation.
    pub peak_fragmentation: f64,
    /// Functional mode: assembled output tensors. Keyed by the *original*
    /// graph's output ids when the executor was given split provenance,
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

/// Executes one plan on one device.
pub struct Executor<'a> {
    graph: &'a Graph,
    plan: &'a ExecutionPlan,
    device: &'a DeviceSpec,
    /// Split provenance: lets functional mode slice original host tensors
    /// into piece views and reassemble piece outputs.
    origin: Option<&'a SplitResult>,
    /// Device-allocator fit policy (first-fit by default, matching the
    /// CUDA-era behaviour the paper plans around).
    alloc_policy: FitPolicy,
}

impl<'a> Executor<'a> {
    /// Executor over `plan` for `graph` on `device`. `graph` must be the
    /// graph the plan was scheduled for.
    pub fn new(graph: &'a Graph, plan: &'a ExecutionPlan, device: &'a DeviceSpec) -> Self {
        Executor {
            graph,
            plan,
            device,
            origin: None,
            alloc_policy: FitPolicy::FirstFit,
        }
    }

    /// Override the device allocator's fit policy.
    pub fn with_alloc_policy(mut self, policy: FitPolicy) -> Self {
        self.alloc_policy = policy;
        self
    }

    /// Supply split provenance (the graph inside `split` must be `graph`).
    pub fn with_origin(mut self, split: &'a SplitResult) -> Self {
        self.origin = Some(split);
        self
    }

    /// Run without materializing data.
    pub fn run_analytic(&self) -> Result<ExecOutcome, FrameworkError> {
        self.run(None)
    }

    /// Run functionally. `bindings` supplies tensors for the template's
    /// inputs and constants — keyed by *original* graph ids when split
    /// provenance was supplied, by plan-graph ids otherwise.
    pub fn run_functional(
        &self,
        bindings: &HashMap<DataId, Tensor>,
    ) -> Result<ExecOutcome, FrameworkError> {
        self.run(Some(bindings))
    }

    fn host_source(
        &self,
        d: DataId,
        host: &HashMap<DataId, Tensor>,
        bindings: &HashMap<DataId, Tensor>,
    ) -> Result<Tensor, FrameworkError> {
        host_source(self.graph, self.origin, d, host, bindings)
    }

    fn run(
        &self,
        bindings: Option<&HashMap<DataId, Tensor>>,
    ) -> Result<ExecOutcome, FrameworkError> {
        let g = self.graph;
        // Dynamic sanitizer: the serial executor retires each step before
        // issuing the next, so its step times must honour every
        // happens-before edge of a certified schedule.
        #[cfg(debug_assertions)]
        {
            let times = crate::sanitize::serial_step_times(g, self.plan, self.device);
            crate::sanitize::assert_hb_consistent(g, self.plan, &times, "Executor::run");
        }
        let mut timeline = Timeline::new();
        let mut alloc = DeviceAllocator::with_policy(self.device.memory_bytes, self.alloc_policy);
        // Device-resident data: allocation plus (functional) the tensor.
        let mut device: HashMap<DataId, (gpuflow_sim::Allocation, Option<Tensor>)> = HashMap::new();
        // Host copies of produced data (functional).
        let mut host: HashMap<DataId, Tensor> = HashMap::new();
        let mut peak_frag = 0.0f64;

        let allocate = |alloc: &mut DeviceAllocator,
                        peak_frag: &mut f64,
                        d: DataId|
         -> Result<gpuflow_sim::Allocation, FrameworkError> {
            let a = alloc.alloc(g.data(d).bytes()).map_err(|e| {
                FrameworkError::InvalidPlan(format!(
                    "device allocation failed for {}: {e}",
                    g.data(d).name
                ))
            })?;
            *peak_frag = peak_frag.max(alloc.fragmentation());
            Ok(a)
        };

        for step in &self.plan.steps {
            match *step {
                Step::CopyIn { data: d, .. } => {
                    let tensor = match bindings {
                        Some(b) => Some(self.host_source(d, &host, b)?),
                        None => None,
                    };
                    let bytes = g.data(d).bytes();
                    let a = allocate(&mut alloc, &mut peak_frag, d)?;
                    device.insert(d, (a, tensor));
                    timeline.push_copy_to_gpu(
                        g.data(d).name.clone(),
                        bytes,
                        transfer_time(self.device, bytes),
                    );
                }
                Step::CopyOut { data: d, .. } => {
                    let (_, tensor) =
                        device
                            .get(&d)
                            .ok_or_else(|| FrameworkError::DataUnavailable {
                                data: d,
                                context: "CopyOut of non-resident data".into(),
                            })?;
                    if let Some(t) = tensor {
                        host.insert(d, t.clone());
                    }
                    let bytes = g.data(d).bytes();
                    timeline.push_copy_to_cpu(
                        g.data(d).name.clone(),
                        bytes,
                        transfer_time(self.device, bytes),
                    );
                }
                Step::Free { data: d, .. } => {
                    let (a, _) =
                        device
                            .remove(&d)
                            .ok_or_else(|| FrameworkError::DataUnavailable {
                                data: d,
                                context: "Free of non-resident data".into(),
                            })?;
                    alloc.free(a);
                    timeline.push_free(g.data(d).name.clone(), g.data(d).bytes());
                }
                Step::Launch(u) => {
                    for &o in &self.plan.units[u].ops {
                        let node = g.op(o);
                        let in_shapes: Vec<_> = node.inputs.iter().map(|&i| g.shape(i)).collect();
                        let cost = op_cost(node.kind, &in_shapes, g.shape(node.outputs[0]));
                        let out_tensor = if bindings.is_some() {
                            let ins: Vec<&Tensor> = node
                                .inputs
                                .iter()
                                .map(|i| {
                                    device.get(i).and_then(|(_, t)| t.as_ref()).ok_or_else(|| {
                                        FrameworkError::DataUnavailable {
                                            data: *i,
                                            context: format!(
                                                "input of {} not on device",
                                                node.name
                                            ),
                                        }
                                    })
                                })
                                .collect::<Result<_, _>>()?;
                            Some(execute(node.kind, &ins))
                        } else {
                            None
                        };
                        let out = node.outputs[0];
                        let a = allocate(&mut alloc, &mut peak_frag, out)?;
                        device.insert(out, (a, out_tensor));
                        timeline.push_kernel(
                            node.name.clone(),
                            kernel_time(
                                self.device,
                                Work {
                                    flops: cost.flops,
                                    bytes: cost.bytes,
                                },
                            ),
                        );
                    }
                }
            }
        }

        // Assemble outputs (functional only).
        let outputs = if bindings.is_some() {
            assemble_outputs(g, self.origin, &host)?
        } else {
            HashMap::new()
        };

        Ok(ExecOutcome {
            timeline,
            peak_device_bytes: alloc.high_water(),
            peak_fragmentation: peak_frag,
            outputs,
        })
    }
}

/// Materialize the host-side source tensor for `d` in functional mode:
/// produced data comes from `host`, bindings come from `bindings` —
/// sliced through split provenance (`origin`) when the plan runs on
/// pieces of the original template data. Shared by the plain and the
/// resilient executor.
pub fn host_source(
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
/// as-is keyed by plan-graph id. Shared by the plain and the resilient
/// executor.
pub fn assemble_outputs(
    g: &Graph,
    origin: Option<&SplitResult>,
    host: &HashMap<DataId, Tensor>,
) -> Result<HashMap<DataId, Tensor>, FrameworkError> {
    match origin {
        Some(split) => {
            // Paste each Output piece into its original tensor.
            let mut extents: HashMap<DataId, usize> = HashMap::new();
            for d in g.data_ids() {
                if g.data(d).kind != DataKind::Output {
                    continue;
                }
                let piece = host
                    .get(&d)
                    .ok_or_else(|| FrameworkError::DataUnavailable {
                        data: d,
                        context: "output piece missing on host".into(),
                    })?;
                match split.origin_of(d) {
                    DataOrigin::Region { parent, row_off } => {
                        let e = extents.entry(parent).or_insert(0);
                        *e = (*e).max(row_off + piece.rows());
                    }
                    DataOrigin::Fresh => {
                        return Err(FrameworkError::InvalidPlan(
                            "output piece with no provenance".into(),
                        ))
                    }
                }
            }
            // Second pass with final extents known.
            let mut final_out: HashMap<DataId, Tensor> = extents
                .iter()
                .map(|(&parent, &rows)| {
                    let cols = g
                        .data_ids()
                        .filter(|&d| g.data(d).kind == DataKind::Output)
                        .find_map(|d| match split.origin_of(d) {
                            DataOrigin::Region { parent: p, .. } if p == parent => {
                                Some(g.data(d).cols)
                            }
                            _ => None,
                        })
                        .expect("parent has pieces");
                    (parent, Tensor::zeros(rows, cols))
                })
                .collect();
            for d in g.data_ids() {
                if g.data(d).kind != DataKind::Output {
                    continue;
                }
                if let DataOrigin::Region { parent, row_off } = split.origin_of(d) {
                    let piece = &host[&d];
                    final_out
                        .get_mut(&parent)
                        .expect("allocated above")
                        .paste(piece, row_off, 0);
                }
            }
            Ok(final_out)
        }
        None => {
            let mut outputs = HashMap::new();
            for d in g.outputs() {
                let t = host
                    .get(&d)
                    .cloned()
                    .ok_or_else(|| FrameworkError::DataUnavailable {
                        data: d,
                        context: "output missing on host".into(),
                    })?;
                outputs.insert(d, t);
            }
            Ok(outputs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_plan;
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

    #[test]
    fn analytic_execution_counts_match_plan_stats() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let out = Executor::new(&g, &plan, &dev).run_analytic().unwrap();
        let stats = plan.stats(&g);
        assert_eq!(out.transfer_floats(), stats.total_floats());
        assert_eq!(out.timeline.counters().kernel_launches, 10);
        assert!(out.total_time() > 0.0);
        assert!(out.peak_device_bytes <= fig3_memory_bytes());
        assert!(out.outputs.is_empty());
    }

    #[test]
    fn functional_execution_matches_reference() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        let im = g.inputs()[0];
        let mut bind = HashMap::new();
        bind.insert(
            im,
            Tensor::from_fn(2, crate::examples::FIG3_UNIT_FLOATS, |r, c| {
                (r * 1000 + c) as f32
            }),
        );
        let out = Executor::new(&g, &plan, &dev)
            .run_functional(&bind)
            .unwrap();
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
        let im = g.inputs()[0];
        let mut bind = HashMap::new();
        bind.insert(
            im,
            Tensor::from_fn(2, crate::examples::FIG3_UNIT_FLOATS, |_, c| c as f32),
        );
        let out = Executor::new(&g, &plan, &dev)
            .run_functional(&bind)
            .unwrap();
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
        let first = Executor::new(&g, &plan, &dev).run_analytic().unwrap();
        let best = Executor::new(&g, &plan, &dev)
            .with_alloc_policy(gpuflow_sim::FitPolicy::BestFit)
            .run_analytic()
            .unwrap();
        assert_eq!(first.transfer_floats(), best.transfer_floats());
        assert_eq!(first.peak_device_bytes, best.peak_device_bytes);
    }

    #[test]
    fn oversubscribed_plan_fails_allocation() {
        let (g, plan) = fig3_plan();
        // Run the 5-unit plan on a 3-unit device.
        let dev = tesla_c870().with_memory(3 * 256 * 4);
        let err = Executor::new(&g, &plan, &dev).run_analytic().unwrap_err();
        assert!(err.to_string().contains("allocation failed"), "{err}");
    }

    #[test]
    fn missing_binding_is_reported() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870();
        let bind = HashMap::new();
        let err = Executor::new(&g, &plan, &dev)
            .run_functional(&bind)
            .unwrap_err();
        assert!(matches!(err, FrameworkError::DataUnavailable { .. }));
    }

    #[test]
    fn wrong_shape_binding_is_reported() {
        let (g, plan) = fig3_plan();
        let dev = tesla_c870();
        let mut bind = HashMap::new();
        bind.insert(g.inputs()[0], Tensor::zeros(3, 3));
        let err = Executor::new(&g, &plan, &dev)
            .run_functional(&bind)
            .unwrap_err();
        assert!(matches!(err, FrameworkError::InvalidPlan(_)), "{err:?}");
    }
}
