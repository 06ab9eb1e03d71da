//! # gpuflow-profile
//!
//! Explains a makespan. Where `gpuflow trace` shows *what ran when*, the
//! profiler answers *why the plan takes as long as it does*:
//!
//! 1. **Exact bottleneck attribution** ([`attribution`]). The overlap
//!    simulator ([`gpuflow_core::overlap`], one walk for a single device
//!    and a cluster) tags every idle interval of every engine with the
//!    constraint that was binding — the closed [`GapCause`](gpuflow_core::GapCause) taxonomy:
//!    exposed upload/download/compute, stream imbalance, free-horizon
//!    stall, bus wait, and plain idle. Per engine, busy events and
//!    attributed gaps tile `[0, makespan]` with shared endpoints, so the
//!    nanosecond-rounded sums telescope to the makespan **exactly** — the
//!    report refuses to construct otherwise ([`ProfileReport::reconcile`]),
//!    the same discipline `gpuflow trace` applies to byte counts.
//! 2. **Critical path** (via [`gpuflow_verify::critical_path`]). The
//!    longest-duration chain through the certifier's happens-before DAG,
//!    using the simulator's own step durations; its length is a makespan
//!    lower bound no engine count can beat.
//! 3. **What-if advisor** ([`advisor`]). First-order estimates — from the
//!    attribution and the analytic model, *without replanning* — of the
//!    makespan under `streams k±1` (or `devices n±1` on clusters), the
//!    next fragmentation-margin rung, and an eviction-policy swap. See
//!    docs/profiling.md for the exact models and their error bars.
//!
//! The report renders as a human table ([`render_table`]), as JSON
//! ([`ProfileReport::to_json`], embedded by `gpuflow run --json`), and as
//! a Chrome-trace track ([`trace_profile`], `PID_PROFILE`).

#![warn(missing_docs)]

pub mod advisor;
pub mod attribution;
pub mod observe;
pub mod render;

pub use advisor::WhatIf;
pub use attribution::{
    ns, profile_cluster, profile_plan, CritSpan, CriticalSummary, EngineBreakdown, ProfileReport,
};
pub use observe::trace_profile;
pub use render::render_table;
