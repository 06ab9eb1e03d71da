//! # gpuflow-verify — static analysis for operator graphs and execution plans
//!
//! A diagnostics-grade analyzer in the spirit of the IPDPS'09 framework's
//! "templates are analyzable" premise: because a domain-specific template
//! fully describes its dataflow, every plan the framework emits can be
//! *proven* well-formed before a single byte moves to the device.
//!
//! The crate has three layers:
//!
//! * [`diag`] — the diagnostic vocabulary: stable `GF####` codes,
//!   severities, locations, human and JSON rendering.
//! * [`graph_check`] — whole-graph passes ([`analyze_graph`]): cycle
//!   detection, shape/arity consistency, reachability, dead data,
//!   per-operator footprint vs. device memory, and halo consistency for
//!   split stencil operators.
//! * [`engine`] — the plan IR ([`Step`], [`PlanView`]) and the
//!   residency-dataflow engine ([`analyze_plan`]): one forward walk that
//!   validates a plan over any number of devices (use-after-free,
//!   double-free, precedence, per-device capacity, staged
//!   device→host→device transfers, cross-device launch placement),
//!   computes its transfer statistics ([`PlanStats`]), and optionally
//!   lints it for efficiency hazards. One device reports `GF001x`/`GF002x`
//!   codes, a cluster the device-naming `GF003x` ones.
//! * [`recover`] — recoverability analysis ([`analyze_recovery`]): the
//!   minimal host-resident data set needed to restart the plan at each
//!   launch, feeding the checkpoint/restart machinery in `gpuflow-core`
//!   (`GF004x` codes).
//! * [`hb`] / [`hazard`] — the concurrency certifier
//!   ([`certify_concurrency`]): an explicit happens-before DAG over plan
//!   steps (program order per engine lane, transfer-completion edges,
//!   allocation-lifetime edges) proving every pair of conflicting
//!   accesses ordered, or reporting RAW/WAR/WAW races, use-after-free
//!   across lanes, and unstaged cross-device reads (`GF005x` codes).
//! * [`guard`] — diagnostic codes for the serve-hardening layer
//!   (`gpuflow-guard`): infeasible deadlines, journal-corruption
//!   recovery, breaker trips (`GF007x` codes, emitted by `gpuflow-serve`).
//!
//! `gpuflow-core` builds its `validate_plan` and `ExecutionPlan::stats`
//! on the engine, so the checked semantics and the reported numbers can
//! never drift apart. The `gpuflow check` CLI subcommand exposes the same
//! analyses to users.
//!
//! Diagnostic codes are catalogued in `docs/diagnostics.md` at the
//! repository root.

pub mod critpath;
pub mod diag;
pub mod engine;
pub mod graph_check;
pub mod guard;
pub mod hazard;
pub mod hb;
pub mod recover;

pub use critpath::{critical_path, critical_path_over, dependency_critical_path, CriticalPath};
pub use diag::{
    count, has_errors, render_report, report_to_json, summary, Counts, Diagnostic, Location,
    Severity,
};
pub use engine::{analyze_plan, PlanAnalysis, PlanStats, PlanView, Step, UnitView};
pub use graph_check::analyze_graph;
pub use hazard::{
    certify_concurrency, certify_concurrency_streams, ConcurrencyReport, Lane, LaneModel,
};
pub use hb::{EdgeCounts, EdgeKind, HbGraph};
pub use recover::{analyze_recovery, LaunchRecovery, RecoveryCheckOptions, RecoveryReport};
