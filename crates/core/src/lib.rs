//! # gpuflow-core
//!
//! The gpuflow execution framework — the primary contribution of the IPDPS
//! 2009 paper *"A framework for efficient and scalable execution of
//! domain-specific templates on GPUs"*, reimplemented in Rust against the
//! simulated GPU platform of `gpuflow-sim`.
//!
//! Given a domain-specific template expressed as a parallel operator graph
//! (`gpuflow-graph`) and a target device, the framework produces an
//! **execution plan** — the exact sequence of host↔device transfers, kernel
//! launches, and device frees — through the paper's pipeline:
//!
//! 1. [`split`] — *operator splitting* (§3.2): break operators whose memory
//!    footprint exceeds the device capacity into row-band pieces, with
//!    halo-aware regions for convolutions and structural splits for
//!    reductions. Scales templates to data far beyond GPU memory.
//! 2. [`partition`] — *offload-unit identification* (§3.1): group operators
//!    into units that are atomically offloaded (the paper, and our default,
//!    use one operator per unit; a greedy fusion policy is provided for the
//!    ablation study).
//! 3. [`opschedule`] — *operator scheduling* (§3.3.1): the paper's
//!    depth-first heuristic, plus BFS / insertion-order alternatives.
//! 4. [`xfer`] — *data-transfer scheduling* (§3.3.1): Belady-style
//!    latest-time-of-use eviction with eager deletion of dead data, plus
//!    LRU / FIFO alternatives for the ablation.
//! 5. [`pbexact`] — the exact pseudo-Boolean formulation of Fig. 5, solved
//!    with `gpuflow-pbsat`, for small templates.
//!
//! Plans are validated ([`plan`]), executed against the simulator in
//! analytic or functional mode by one serial walk ([`resilient`], which
//! also recovers from injected faults), and compared against the
//! paper's baseline (§4: per-operator in/out transfers, [`baseline`]) and
//! "best possible" (Fig. 8: one fused kernel, [`best`]) reference points.

#![warn(missing_docs)]

pub mod baseline;
pub mod best;
pub mod error;
pub mod examples;
pub mod framework;
pub mod observe;
pub mod opschedule;
pub mod overlap;
pub mod partition;
pub mod pbexact;
pub mod plan;
pub mod prefetch;
pub mod report;
pub mod resilient;
pub mod sanitize;
pub mod split;
pub mod streams;
pub mod xfer;

pub use baseline::baseline_plan;
pub use best::best_possible_estimate;
pub use error::FrameworkError;
pub use framework::{CompileOptions, Compiled, CompiledTemplate, Framework};
pub use observe::{
    record_plan_metrics, record_serial_metrics, trace_hazard_certificate, trace_lanes,
    trace_serial_timeline,
};
pub use opschedule::{schedule_units, OpScheduler};
pub use overlap::{
    op_kernel_time, overlapped_makespan, overlapped_trace, render_gantt, simulate, GapCause,
    GapEvent, Lane, LaneEvent, LaneInfo, LaneTable, LaneWork, Machine, OverlapOutcome, Simulation,
};
pub use partition::{partition_offload_units, OffloadUnit, PartitionPolicy};
pub use pbexact::{
    exposed_transfer_floats, pb_exact_plan, ObjectiveKind, PbExactOptions, PbExactOutcome,
    PbExactStats,
};
pub use plan::{validate_plan, ExecutionPlan, PlanStats, Step};
pub use prefetch::{hoist_prefetches, hoist_prefetches_traced};
pub use report::compilation_report;
pub use resilient::{ExecOutcome, ResilientExecutor, ResilientOutcome};
pub use sanitize::{assert_hb_consistent, serial_step_times, step_times};
pub use split::{split_graph, split_graph_min_parts, DataOrigin, SplitResult};
pub use streams::{
    derive_events, derive_events_for, schedule_streamed, schedule_streamed_with, stream_order,
    unit_compute_time, StreamEvent, StreamSchedule,
};
pub use xfer::EvictionPolicy;
