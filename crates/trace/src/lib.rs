//! Structured tracing for the gpuflow pipeline.
//!
//! One [`Tracer`] collects everything a compile/solve/simulate pipeline
//! wants to report:
//!
//! * **Wall-clock spans** for real work (compilation passes, PB solving,
//!   plan emission) with nesting and per-span arguments.
//! * **Virtual-time events** for simulated execution: the simulator's
//!   seconds map onto per-engine tracks (compute lane, upload/download
//!   DMA lanes, per-device lanes and the shared bus) so a whole run opens
//!   as a flame/track view.
//! * **Instant events** for point occurrences (frees, solver incumbents).
//! * A [`MetricsRegistry`] of named counters and gauges whose values are
//!   derived from the *same* bookkeeping as the events, so summaries can
//!   be reconciled exactly against `ExecutionPlan::stats`.
//!
//! Two sinks consume the event stream: [`Tracer::chrome_trace`] renders a
//! Chrome-trace JSON document (loadable in Perfetto / `chrome://tracing`)
//! via `gpuflow-minijson`, and [`Tracer::summary`] renders a human-readable
//! report. See `docs/observability.md` for the event taxonomy.
//!
//! A disabled tracer ([`Tracer::disabled`]) turns every call into a no-op,
//! so instrumented code paths can be shared with untraced entry points.
//!
//! ```
//! use gpuflow_trace::{kv, Tracer, PID_SERIAL, TID_DEFAULT};
//!
//! let mut t = Tracer::new();
//! t.name_process(PID_SERIAL, "simulated execution");
//! let tok = t.begin("compile", "split");
//! t.end_with(tok, vec![kv("parts", 4u64)]);
//! t.virtual_span(PID_SERIAL, TID_DEFAULT, "h2d", "Img", 0.0, 1.5e-3, vec![kv("bytes", 4096u64)]);
//! t.metrics().add("sim.bytes_h2d", 4096);
//! let doc = t.chrome_trace();
//! assert!(doc["traceEvents"].as_array().unwrap().len() >= 3);
//! ```

#![warn(missing_docs)]

use std::time::Instant;

use gpuflow_minijson::{Map, Value};

mod chrome;
mod metrics;
mod summary;

pub use chrome::{sum_event_arg, sum_event_dur, validate_chrome_trace, ChromeSummary};
pub use metrics::{Histogram, MetricsRegistry};

/// Track (Chrome `pid`) for real wall-clock phases: compilation passes,
/// PB solving, plan emission.
pub const PID_COMPILE: u32 = 1;
/// Track for the serial simulated execution timeline (virtual time).
pub const PID_SERIAL: u32 = 2;
/// Track for the single-GPU overlapped-engine simulation (virtual time):
/// one thread per engine (upload DMA, compute, download DMA).
pub const PID_OVERLAP: u32 = 3;
/// Track for the multi-GPU cluster simulation (virtual time): one thread
/// per shared-bus channel plus one per device compute lane.
pub const PID_CLUSTER: u32 = 4;
/// Track for the concurrency certifier (`gpuflow-verify`'s hazard
/// analysis): one instant per diagnostic, placed at the step index it
/// points at (pseudo-time), plus the certificate summary. (Track 5 is
/// used by the chaos-engineering crate.)
pub const PID_HAZARD: u32 = 6;
/// Track for the makespan profiler (`gpuflow-profile`): one lane for the
/// critical path (virtual time) plus one lane per engine carrying its
/// attributed idle gaps, each span tagged with its bottleneck cause.
pub const PID_PROFILE: u32 = 8;

/// Default thread id within a track.
pub const TID_DEFAULT: u32 = 0;

/// What kind of Chrome event a [`TraceEvent`] renders as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// A complete span (`ph: "X"`) with a duration in microseconds.
    Complete {
        /// Span duration in microseconds.
        dur_us: u64,
    },
    /// An instant event (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`); the value lives in the args.
    Counter,
}

/// One recorded event. Timestamps are microseconds: wall-clock events
/// measure from the tracer's origin instant; virtual events carry
/// simulated time scaled to microseconds.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (shown on the slice).
    pub name: String,
    /// Category, used for filtering and reconciliation (`h2d`, `kernel`,
    /// `compile`, `solver`, ...).
    pub cat: String,
    /// Chrome process id — one per top-level track group (see
    /// [`PID_COMPILE`] and friends).
    pub pid: u32,
    /// Chrome thread id — one lane within the track group.
    pub tid: u32,
    /// Start timestamp in microseconds.
    pub ts_us: u64,
    /// Event kind.
    pub phase: EventPhase,
    /// Structured arguments attached to the event.
    pub args: Vec<(String, Value)>,
}

/// Build one event argument. Sugar for `(key.to_string(), value.into())`.
pub fn kv(key: &str, value: impl Into<Value>) -> (String, Value) {
    (key.to_string(), value.into())
}

/// An open wall-clock span returned by [`Tracer::begin`]; close it with
/// [`Tracer::end`] or [`Tracer::end_with`]. Dropping a token without
/// closing it simply records nothing.
#[derive(Debug)]
#[must_use = "close the span with Tracer::end or Tracer::end_with"]
pub struct SpanToken {
    cat: String,
    name: String,
    /// `None` when the tracer was disabled at `begin` time.
    start: Option<Instant>,
}

/// Named process/thread metadata collected for the Chrome export.
#[derive(Debug, Clone)]
pub(crate) struct TrackName {
    pub(crate) pid: u32,
    /// `None` names the process, `Some(tid)` names a thread.
    pub(crate) tid: Option<u32>,
    pub(crate) name: String,
}

/// The event collector. See the crate docs for an overview.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    events: Vec<TraceEvent>,
    names: Vec<TrackName>,
    metrics: MetricsRegistry,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A recording tracer; its origin instant is "now".
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            events: Vec::new(),
            names: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// A tracer that records nothing; every call is a no-op. Lets
    /// untraced entry points share the instrumented code paths.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds elapsed since the tracer's origin.
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Open a wall-clock span.
    pub fn begin(&self, cat: &str, name: &str) -> SpanToken {
        SpanToken {
            cat: cat.to_string(),
            name: name.to_string(),
            start: self.enabled.then(Instant::now),
        }
    }

    /// Close a span with no arguments.
    pub fn end(&mut self, token: SpanToken) {
        self.end_with(token, Vec::new());
    }

    /// Close a span, attaching arguments.
    pub fn end_with(&mut self, token: SpanToken, args: Vec<(String, Value)>) {
        let Some(start) = token.start else { return };
        if !self.enabled {
            return;
        }
        let ts_us = start.duration_since(self.origin).as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        self.events.push(TraceEvent {
            name: token.name,
            cat: token.cat,
            pid: PID_COMPILE,
            tid: TID_DEFAULT,
            ts_us,
            phase: EventPhase::Complete { dur_us },
            args,
        });
    }

    /// Record a wall-clock instant event on the compile track.
    pub fn instant(&mut self, cat: &str, name: &str, args: Vec<(String, Value)>) {
        if !self.enabled {
            return;
        }
        let ts_us = self.now_us();
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            pid: PID_COMPILE,
            tid: TID_DEFAULT,
            ts_us,
            phase: EventPhase::Instant,
            args,
        });
    }

    /// Record a wall-clock counter sample on the compile track; Perfetto
    /// plots each argument key as a series.
    pub fn counter(&mut self, name: &str, args: Vec<(String, Value)>) {
        if !self.enabled {
            return;
        }
        let ts_us = self.now_us();
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: "counter".to_string(),
            pid: PID_COMPILE,
            tid: TID_DEFAULT,
            ts_us,
            phase: EventPhase::Counter,
            args,
        });
    }

    /// Convert simulated seconds to trace microseconds.
    fn virtual_us(seconds: f64) -> u64 {
        (seconds * 1e6).round().max(0.0) as u64
    }

    /// Record a span in *virtual* (simulated) time on an execution track.
    #[allow(clippy::too_many_arguments)]
    pub fn virtual_span(
        &mut self,
        pid: u32,
        tid: u32,
        cat: &str,
        name: &str,
        start_s: f64,
        end_s: f64,
        args: Vec<(String, Value)>,
    ) {
        if !self.enabled {
            return;
        }
        let ts_us = Self::virtual_us(start_s);
        let dur_us = Self::virtual_us(end_s).saturating_sub(ts_us);
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            pid,
            tid,
            ts_us,
            phase: EventPhase::Complete { dur_us },
            args,
        });
    }

    /// Record an instant in *virtual* (simulated) time.
    pub fn virtual_instant(
        &mut self,
        pid: u32,
        tid: u32,
        cat: &str,
        name: &str,
        ts_s: f64,
        args: Vec<(String, Value)>,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            pid,
            tid,
            ts_us: Self::virtual_us(ts_s),
            phase: EventPhase::Instant,
            args,
        });
    }

    /// Name a track group (Chrome process) in the exported trace.
    pub fn name_process(&mut self, pid: u32, name: &str) {
        if !self.enabled {
            return;
        }
        self.names.push(TrackName {
            pid,
            tid: None,
            name: name.to_string(),
        });
    }

    /// Name one lane (Chrome thread) within a track group.
    pub fn name_thread(&mut self, pid: u32, tid: u32, name: &str) {
        if !self.enabled {
            return;
        }
        self.names.push(TrackName {
            pid,
            tid: Some(tid),
            name: name.to_string(),
        });
    }

    /// The metrics registry. Mutations on a disabled tracer are recorded
    /// but never read by the untraced entry points that use one.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Read-only view of the metrics registry.
    pub fn metrics_ref(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Render the Chrome-trace JSON document (`traceEvents` array plus
    /// track metadata). Load it in Perfetto (<https://ui.perfetto.dev>)
    /// or `chrome://tracing`.
    pub fn chrome_trace(&self) -> Value {
        chrome::chrome_trace(&self.events, &self.names, &self.metrics)
    }

    /// Render the human-readable summary.
    pub fn summary(&self) -> String {
        summary::render(&self.events, &self.metrics)
    }
}

/// Helper used by the sinks: args vector to a JSON object.
pub(crate) fn args_to_map(args: &[(String, Value)]) -> Map {
    let mut m = Map::new();
    for (k, v) in args {
        m.insert(k.clone(), v.clone());
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let tok = t.begin("compile", "split");
        t.end_with(tok, vec![kv("parts", 3u64)]);
        t.instant("solver", "incumbent", vec![]);
        t.virtual_span(PID_SERIAL, 0, "h2d", "Img", 0.0, 1.0, vec![]);
        t.name_process(PID_SERIAL, "sim");
        assert!(t.events().is_empty());
        assert_eq!(t.chrome_trace()["traceEvents"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn wall_span_has_nonnegative_duration_and_args() {
        let mut t = Tracer::new();
        let tok = t.begin("compile", "xfer-schedule");
        t.end_with(tok, vec![kv("steps", 12u64)]);
        assert_eq!(t.events().len(), 1);
        let e = &t.events()[0];
        assert_eq!(e.pid, PID_COMPILE);
        assert!(matches!(e.phase, EventPhase::Complete { .. }));
        assert_eq!(e.args[0].0, "steps");
    }

    #[test]
    fn virtual_span_scales_seconds_to_microseconds() {
        let mut t = Tracer::new();
        t.virtual_span(PID_SERIAL, 1, "kernel", "conv", 0.5e-3, 2.5e-3, vec![]);
        let e = &t.events()[0];
        assert_eq!(e.ts_us, 500);
        assert_eq!(e.phase, EventPhase::Complete { dur_us: 2000 });
    }

    #[test]
    fn chrome_trace_is_reparsable_json() {
        let mut t = Tracer::new();
        t.name_process(PID_SERIAL, "simulated execution");
        t.name_thread(PID_SERIAL, 0, "timeline");
        t.virtual_span(PID_SERIAL, 0, "h2d", "weird \"name\"\n", 0.0, 1e-6, vec![]);
        let doc = t.chrome_trace();
        let text = doc.to_string_pretty();
        let reparsed = gpuflow_minijson::parse(&text).unwrap();
        assert_eq!(reparsed, doc);
        validate_chrome_trace(&reparsed).unwrap();
    }
}
