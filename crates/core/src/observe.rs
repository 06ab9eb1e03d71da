//! Adapters from the framework's runtime artifacts onto [`gpuflow_trace`]
//! tracks.
//!
//! The tracing crate knows nothing about graphs, plans, or timelines; this
//! module is the one place where the executor's serial [`Timeline`], the
//! simulated lanes of [`crate::overlap`] (single device or cluster), and
//! plan statistics are projected onto Chrome-trace tracks. Every byte
//! count recorded here is read from the same structures the validator and
//! [`PlanStats`] use — the trace is a *view* of existing bookkeeping,
//! never a second accounting path that could drift.

use gpuflow_sim::{EventKind, Timeline};
use gpuflow_trace::{kv, Tracer, PID_HAZARD, PID_SERIAL};
use gpuflow_verify::{ConcurrencyReport, Location, Severity};

use crate::overlap::{Lane, LaneEvent, LaneTable};
use crate::plan::PlanStats;

/// Project the serial executor [`Timeline`] onto the [`PID_SERIAL`] track
/// and record its aggregate counters as `sim.*` metrics.
///
/// Kernel launches and copies become complete ("X") events carrying their
/// byte payloads; zero-duration frees become instants. Byte arguments come
/// from the timeline's own events, so `sum_event_arg(.., "h2d", "bytes")`
/// over the exported trace equals `Counters::bytes_to_gpu` exactly.
pub fn trace_serial_timeline(tracer: &mut Tracer, tl: &Timeline) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.name_process(PID_SERIAL, "serial executor (simulated)");
    tracer.name_thread(PID_SERIAL, 0, "serial timeline");
    for e in tl.events() {
        let end = e.start + e.duration;
        match &e.kind {
            EventKind::Kernel { name } => {
                tracer.virtual_span(PID_SERIAL, 0, "kernel", name, e.start, end, vec![]);
            }
            EventKind::CopyToGpu { data, bytes } => {
                tracer.virtual_span(
                    PID_SERIAL,
                    0,
                    "h2d",
                    data,
                    e.start,
                    end,
                    vec![kv("bytes", *bytes)],
                );
            }
            EventKind::CopyToCpu { data, bytes } => {
                tracer.virtual_span(
                    PID_SERIAL,
                    0,
                    "d2h",
                    data,
                    e.start,
                    end,
                    vec![kv("bytes", *bytes)],
                );
            }
            EventKind::Free { data, bytes } => {
                tracer.virtual_instant(
                    PID_SERIAL,
                    0,
                    "free",
                    data,
                    e.start,
                    vec![kv("bytes", *bytes)],
                );
            }
            EventKind::Stall { reason } => {
                tracer.virtual_span(PID_SERIAL, 0, "stall", reason, e.start, end, vec![]);
            }
        }
    }
    let c = tl.counters();
    tracer.metrics().add("sim.bytes_h2d", c.bytes_to_gpu);
    tracer.metrics().add("sim.bytes_d2h", c.bytes_to_cpu);
    tracer.metrics().add("sim.copies_h2d", c.copies_to_gpu);
    tracer.metrics().add("sim.copies_d2h", c.copies_to_cpu);
    tracer
        .metrics()
        .add("sim.kernel_launches", c.kernel_launches);
    tracer.metrics().gauge("sim.kernel_time_s", c.kernel_time);
    tracer
        .metrics()
        .gauge("sim.transfer_time_s", c.transfer_time);
    tracer.metrics().gauge("sim.total_time_s", c.total_time());
}

/// Project the simulated lanes of [`crate::overlap::simulate`] onto their
/// track: one thread per engine of `lanes`, in display order — on a
/// single device ([`gpuflow_trace::PID_OVERLAP`]) H2D DMA on tid 0, one
/// compute thread per stream that ran on tids `1..=k`, D2H DMA on tid
/// `1 + k`; on a cluster ([`gpuflow_trace::PID_CLUSTER`]) the two shared
/// bus channels on tids 0 and 1, then one compute thread per device.
/// Byte arguments carry each event's [`LaneEvent::bytes`], so the export
/// reconciles exactly with the outcome's bus bytes.
pub fn trace_lanes(tracer: &mut Tracer, lanes: &LaneTable, events: &[LaneEvent]) {
    if !tracer.is_enabled() {
        return;
    }
    let lanes = lanes.shown(events);
    let (pid, process) = lanes.process();
    tracer.name_process(pid, process);
    for lane in lanes.by_row() {
        tracer.name_thread(pid, lane.row as u32, &lane.thread);
    }
    for e in events {
        let cat = match e.lane {
            Lane::H2d => "h2d",
            Lane::D2h => "d2h",
            _ => "kernel",
        };
        let tid = lanes.lanes[lanes.index(e.lane)].row as u32;
        tracer.virtual_span(
            pid,
            tid,
            cat,
            &e.label,
            e.start,
            e.end,
            vec![kv("bytes", e.bytes)],
        );
    }
}

/// Project a concurrency certification onto the [`PID_HAZARD`] track: one
/// instant per diagnostic, placed at its step index as pseudo-time (the
/// hazard report orders by plan position, not wall clock), carrying the
/// code, severity, and lane; plus `hazard.*` metrics with the
/// happens-before edge breakdown. Certified and hazardous reports both
/// render, so a trace always shows what the certifier concluded.
pub fn trace_hazard_certificate(tracer: &mut Tracer, report: &ConcurrencyReport) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.name_process(PID_HAZARD, "concurrency certifier");
    tracer.name_thread(PID_HAZARD, 0, "hazards");
    for d in &report.diagnostics {
        let (ts, lane) = match d.location {
            Some(Location::Step(i)) => (i as f64, report.step_lane[i].label()),
            _ => (report.hb.len() as f64, "-".to_string()),
        };
        tracer.virtual_instant(
            PID_HAZARD,
            0,
            match d.severity {
                Severity::Error => "hazard",
                Severity::Warning => "hazard-warning",
                Severity::Note => "certificate",
            },
            d.code,
            ts,
            vec![kv("message", d.message.as_str()), kv("lane", lane.as_str())],
        );
    }
    let c = report.hb.edge_counts();
    let m = tracer.metrics();
    m.set("hazard.steps", report.hb.len() as u64);
    m.set("hazard.lanes", report.lanes_used as u64);
    m.set("hazard.edges_program", c.program as u64);
    m.set("hazard.edges_transfer", c.transfer as u64);
    m.set("hazard.edges_lifetime", c.lifetime as u64);
    m.set(
        "hazard.errors",
        gpuflow_verify::count(&report.diagnostics).errors as u64,
    );
}

/// Record the canonical plan statistics as `plan.*` metrics — the same
/// numbers [`crate::framework::Framework::compile`] derives from the
/// verification engine's [`PlanStats`].
pub fn record_plan_metrics(tracer: &mut Tracer, stats: &PlanStats) {
    if !tracer.is_enabled() {
        return;
    }
    let m = tracer.metrics();
    m.set(
        "plan.bytes_in",
        stats.floats_in * gpuflow_graph::FLOAT_BYTES,
    );
    m.set(
        "plan.bytes_out",
        stats.floats_out * gpuflow_graph::FLOAT_BYTES,
    );
    m.set("plan.copies_in", stats.copies_in);
    m.set("plan.copies_out", stats.copies_out);
    m.set("plan.launches", stats.launches);
    m.set("plan.peak_bytes", stats.peak_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_sim::device::tesla_c870;
    use gpuflow_trace::{sum_event_arg, validate_chrome_trace, PID_CLUSTER, PID_OVERLAP};

    use crate::overlap::Machine;

    #[test]
    fn serial_timeline_bytes_reconcile_with_counters() {
        let mut tl = Timeline::new();
        tl.push_copy_to_gpu("Img", 800, 0.5);
        tl.push_kernel("C1", 0.25);
        tl.push_copy_to_cpu("E1", 400, 0.25);
        tl.push_free("Img", 800);
        let mut tracer = Tracer::new();
        trace_serial_timeline(&mut tracer, &tl);
        let doc = tracer.chrome_trace();
        validate_chrome_trace(&doc).unwrap();
        assert_eq!(
            sum_event_arg(&doc, "h2d", "bytes", Some(PID_SERIAL)),
            tl.counters().bytes_to_gpu
        );
        assert_eq!(
            sum_event_arg(&doc, "d2h", "bytes", Some(PID_SERIAL)),
            tl.counters().bytes_to_cpu
        );
        assert_eq!(tracer.metrics().counter("sim.kernel_launches"), 1);
    }

    fn event(lane: Lane, label: &str, start: f64, bytes: u64) -> LaneEvent {
        LaneEvent {
            lane,
            label: label.into(),
            start,
            end: start + 0.25,
            bytes,
        }
    }

    /// Trace `events` on `machine` with `streams` per device; the export
    /// must validate.
    fn traced(machine: &Machine, streams: usize, events: &[LaneEvent]) -> (Tracer, String) {
        let mut tracer = Tracer::new();
        trace_lanes(&mut tracer, &machine.lanes(streams), events);
        let doc = tracer.chrome_trace();
        validate_chrome_trace(&doc).unwrap();
        let text = doc.to_string_pretty();
        (tracer, text)
    }

    #[test]
    fn overlap_lanes_map_to_three_threads() {
        let events = [
            event(Lane::H2d, "Img", 0.0, 800),
            event(Lane::Compute(0), "C1", 0.5, 1600),
            event(Lane::D2h, "E1", 0.75, 400),
        ];
        let (tracer, _) = traced(&Machine::single(&tesla_c870()), 1, &events);
        let doc = tracer.chrome_trace();
        assert_eq!(sum_event_arg(&doc, "h2d", "bytes", Some(PID_OVERLAP)), 800);
        assert_eq!(sum_event_arg(&doc, "d2h", "bytes", Some(PID_OVERLAP)), 400);
    }

    #[test]
    fn stream_lanes_get_their_own_threads() {
        let events = [
            event(Lane::H2d, "Img", 0.0, 100),
            event(Lane::Compute(0), "C1", 0.25, 100),
            event(Lane::Stream(0, 1), "C2", 0.25, 100),
            event(Lane::D2h, "E1", 0.5, 100),
        ];
        let (tracer, text) = traced(&Machine::single(&tesla_c870()), 2, &events);
        for name in ["compute s0", "compute s1", "D2H DMA"] {
            assert!(text.contains(name), "{name} missing: {text}");
        }
        // Both kernels land on the kernel category across two threads.
        let doc = tracer.chrome_trace();
        assert_eq!(
            sum_event_arg(&doc, "kernel", "bytes", Some(PID_OVERLAP)),
            200
        );
    }

    #[test]
    fn cluster_lanes_get_the_shared_bus_track() {
        let events = [
            event(Lane::H2d, "Img>d1", 0.0, 100),
            event(Lane::Compute(0), "C1", 0.25, 100),
            event(Lane::Compute(2), "C3", 0.25, 100),
            event(Lane::D2h, "d2>E1", 0.5, 100),
        ];
        let devices = vec![tesla_c870(); 3];
        let bus = gpuflow_sim::BusSpec::shared_by(&devices);
        let (tracer, text) = traced(&Machine::cluster(&devices, &bus), 1, &events);
        // Bus channels on tids 0 and 1, device d's compute engine on 2 + d
        // — idle devices keep their thread.
        let tids: Vec<u32> = tracer.events().iter().map(|e| e.tid).collect();
        assert_eq!(tids, vec![0, 2, 4, 1]);
        assert!(tracer.events().iter().all(|e| e.pid == PID_CLUSTER));
        for name in ["bus H2D", "bus D2H", "GPU1 compute"] {
            assert!(text.contains(name), "{name} missing: {text}");
        }
    }

    #[test]
    fn hazard_certificate_renders_as_instants() {
        let g = crate::examples::fig3_graph();
        let compiled = crate::framework::Framework::new(tesla_c870())
            .compile(&g)
            .unwrap();
        let report = compiled.plan.certify(&compiled.split.graph);
        assert!(report.certified());
        let mut tracer = Tracer::new();
        trace_hazard_certificate(&mut tracer, &report);
        let doc = tracer.chrome_trace();
        validate_chrome_trace(&doc).unwrap();
        // The certificate note is on the track, and the edge metrics
        // reconcile with the report.
        let text = doc.to_string_pretty();
        assert!(text.contains("GF0056"), "certificate instant missing");
        let c = report.hb.edge_counts();
        assert_eq!(
            tracer.metrics().counter("hazard.edges_program"),
            c.program as u64
        );
        assert_eq!(tracer.metrics().counter("hazard.errors"), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tl = Timeline::new();
        tl.push_kernel("C1", 0.25);
        let mut tracer = Tracer::disabled();
        trace_serial_timeline(&mut tracer, &tl);
        trace_lanes(&mut tracer, &Machine::single(&tesla_c870()).lanes(1), &[]);
        assert!(tracer.events().is_empty());
        assert!(tracer.metrics_ref().is_empty());
    }
}
