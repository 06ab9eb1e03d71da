//! # gpuflow-codegen
//!
//! The final stage of the paper's Fig. 4 pipeline: "a code generator takes
//! the execution plan generated by the previous steps, and generates a
//! hybrid CPU/GPU program that uses the desired GPU programming framework
//! such as CUDA".
//!
//! Two emitters:
//!
//! * [`cuda`] — a CUDA-2.0-style C source file: one `__global__` kernel
//!   declaration per operator kind used, plus a host driver function with
//!   the exact `cudaMalloc` / `cudaMemcpy` / kernel-launch / `cudaFree`
//!   sequence of the plan. The output is a faithful rendering of what the
//!   paper's generator would hand to `nvcc`; here it documents and
//!   exchanges plans (there is no GPU in this environment to compile for —
//!   the simulator executes the same plan instead).
//! * [`json`] — a JSON plan document for tooling and for the "simple
//!   run-time library" alternative the paper mentions at the end of §3.3.
//!   One document serves every machine: a cluster plan's document adds a
//!   device table and a device on every unit, transfer and free.
//!
//! Both emitters refuse to emit from a plan that carries error
//! diagnostics: every plan is run through the `gpuflow-verify` static
//! analyzer first, and an [`EmitError`] is returned instead of code that
//! would execute an invalid transfer/launch sequence.

#![warn(missing_docs)]

use gpuflow_core::ExecutionPlan;
use gpuflow_graph::Graph;
use gpuflow_verify::{Diagnostic, PlanAnalysis};

pub mod cuda;
pub mod json;

pub use cuda::generate_cuda;
pub use json::{load_plan, parse_plan_doc, plan_to_json, DocParseError, LoadError, PlanDoc};

/// Emit the JSON plan document of `plan` on `devices` (empty for one
/// device, see [`json::emit`]) under an `"emit"` span recording the output
/// size, so traced invocations show codegen time alongside the
/// compilation passes.
pub fn plan_to_json_traced(
    graph: &Graph,
    plan: &ExecutionPlan,
    devices: &[gpuflow_sim::DeviceSpec],
    template: &str,
    tracer: &mut gpuflow_trace::Tracer,
) -> Result<String, EmitError> {
    let tok = tracer.begin("emit", "emit-json");
    let out = json::emit(graph, plan, devices, template)?;
    tracer.end_with(tok, vec![gpuflow_trace::kv("bytes", out.len())]);
    Ok(out)
}

/// The plan document of a compiled cluster template (see [`json::emit`]).
// Survives as an adapter: perf/src/layers.rs names it.
pub fn compiled_multi_to_json(
    c: &gpuflow_core::CompiledTemplate,
    template: &str,
) -> Result<String, EmitError> {
    json::emit(&c.split.graph, &c.plan, &c.devices, template)
}

/// Refusal to emit code from a plan the static analyzer rejects.
#[derive(Debug, Clone, PartialEq)]
pub struct EmitError {
    /// The error diagnostics that caused the refusal (errors only; any
    /// warnings/notes the analyzer produced are not grounds for refusal).
    pub errors: Vec<Diagnostic>,
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "refusing to emit code from an invalid plan ({} error{}): {}",
            self.errors.len(),
            if self.errors.len() == 1 { "" } else { "s" },
            self.errors.first().map(|d| d.render()).unwrap_or_default()
        )
    }
}

impl std::error::Error for EmitError {}

/// Run the static analyzer over `plan` against the per-device
/// `capacities` and refuse (with every error diagnostic) unless it is
/// clean. Shared gate of both emitters; a clean analysis is returned for
/// its statistics.
pub(crate) fn check_emittable(
    graph: &Graph,
    plan: &ExecutionPlan,
    capacities: &[u64],
) -> Result<PlanAnalysis, EmitError> {
    let analysis = plan.analyze_devices(graph, capacities, false);
    if analysis.has_errors() {
        Err(EmitError {
            errors: analysis
                .diagnostics
                .into_iter()
                .filter(|d| d.severity == gpuflow_verify::Severity::Error)
                .collect(),
        })
    } else {
        Ok(analysis)
    }
}
