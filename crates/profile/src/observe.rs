//! Projection of a [`ProfileReport`] onto the `PID_PROFILE` Chrome-trace
//! track: one lane for the critical path (virtual time), then one lane
//! per engine carrying its attributed idle gaps, each span named by its
//! taxonomy cause. Busy intervals already live on the `PID_OVERLAP` /
//! `PID_CLUSTER` tracks; this track adds the *why* layer on top.

use gpuflow_core::ExecutionPlan;
use gpuflow_graph::Graph;
use gpuflow_trace::{kv, Tracer, PID_PROFILE};

use crate::attribution::ProfileReport;

/// Emit `report`, the profile of `plan` over `g`, onto `tracer`'s
/// [`PID_PROFILE`] track, naming each critical-path span after its step.
/// No-op when tracing is disabled.
pub fn trace_profile(tracer: &mut Tracer, report: &ProfileReport, g: &Graph, plan: &ExecutionPlan) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.name_process(
        PID_PROFILE,
        "profile: critical path + attributed gaps (virtual time)",
    );
    tracer.name_thread(PID_PROFILE, 0, "critical path");
    for span in &report.critical_path.spans {
        if span.end > span.start {
            tracer.virtual_span(
                PID_PROFILE,
                0,
                "critical-path",
                &span.label(g, plan, report.critical_path.shared_bus),
                span.start,
                span.end,
                vec![],
            );
        }
    }
    for (i, engine) in report.engines.iter().enumerate() {
        let tid = (i + 1) as u32;
        tracer.name_thread(PID_PROFILE, tid, &format!("{} gaps", engine.lane));
        for &(start, end, cause) in &engine.gaps {
            if end > start {
                tracer.virtual_span(
                    PID_PROFILE,
                    tid,
                    "gap",
                    cause.label(),
                    start,
                    end,
                    vec![kv("lane", engine.lane.clone())],
                );
            }
        }
    }
    let m = tracer.metrics();
    m.set("profile.makespan_ns", report.makespan_ns);
    m.gauge("profile.critical_path_share", report.critical_path.share);
}
