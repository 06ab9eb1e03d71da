//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing is written until the run ends. A span's self
//! time is its duration minus the part its direct children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use gpuflow_minijson::{Map, Value};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric the span feeds (`core.xfer_ms`, …) or a structural
    /// name (`entry`).
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by all spans of one operation (corpus entry or request).
    pub op_id: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to `end`.
#[derive(Debug, Clone, Copy)]
pub struct Token(Option<usize>);

/// Span and count store. A disabled recorder records nothing, so the same
/// pipeline can run untraced to measure the tracing overhead.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u32,
    /// Counts recorded at the same boundaries as the spans, per operation.
    counts: BTreeMap<(u32, &'static str), f64>,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Set the operation id stamped on the spans and counts that follow.
    pub fn set_op(&mut self, op_id: u32) {
        self.op_id = op_id;
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str) -> Token {
        if !self.enabled {
            return Token(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(self.spans.len() - 1);
        Token(Some(self.spans.len() - 1))
    }

    /// Close a span opened by [`Recorder::begin`].
    pub fn end(&mut self, token: Token) {
        let Some(i) = token.0 else { return };
        self.spans[i].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(i), "spans close innermost first");
    }

    /// Record an already-measured interval (client-side request spans).
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, op_id: u32) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                op_id,
            });
        }
    }

    /// Record a count for the current operation (last write wins: counts
    /// repeat exactly across repetitions).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.insert((self.op_id, name), value);
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of each count over all operations.
    pub fn count_totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (&(_, name), &v) in &self.counts {
            *out.entry(name).or_insert(0.0) += v;
        }
        out
    }

    /// Self time of every span: duration minus direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The Chrome trace-event document (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self, workload: &str) -> Value {
        let own = self.self_ns();
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Map::new();
                args.insert("op_id", s.op_id);
                if let Some(p) = s.parent {
                    args.insert("parent", p);
                }
                args.insert("self_us", own[i] as f64 / 1e3);
                let mut e = Map::new();
                e.insert("name", s.name);
                e.insert("cat", workload);
                e.insert("ph", "X");
                e.insert("ts", s.start_ns as f64 / 1e3);
                e.insert("dur", (s.end_ns - s.start_ns) as f64 / 1e3);
                e.insert("pid", 1u32);
                e.insert("tid", s.op_id);
                e.insert("args", Value::Object(args));
                Value::Object(e)
            })
            .collect();
        let mut doc = Map::new();
        doc.insert("traceEvents", Value::Array(events));
        doc.insert("displayTimeUnit", "ms");
        Value::Object(doc)
    }
}

/// The layer metric `name` over repetitions of one corpus: per operation
/// the median over repetitions of the span time spent under that name,
/// summed over operations.
pub fn layer_ms(reps: &[Recorder], name: &str) -> f64 {
    let mut per_op: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for rec in reps {
        let mut totals: BTreeMap<u32, f64> = BTreeMap::new();
        for s in rec.spans.iter().filter(|s| s.name == name) {
            *totals.entry(s.op_id).or_insert(0.0) += s.ms();
        }
        for (op, ms) in totals {
            per_op.entry(op).or_default().push(ms);
        }
    }
    per_op.values().map(|v| crate::stats::median(v)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_metric_is_sum_over_entries_of_median_over_reps() {
        let rep = |a: u64, b: u64| {
            let mut r = Recorder::new(true);
            r.push("core.xfer_ms", 0, a * 1_000_000, 0);
            r.push("core.xfer_ms", 0, b * 1_000_000, 1);
            r
        };
        let reps = [rep(1, 10), rep(3, 30), rep(2, 20)];
        assert_eq!(layer_ms(&reps, "core.xfer_ms"), 22.0);
        assert_eq!(layer_ms(&reps, "core.split_ms"), 0.0);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new(true);
        r.set_op(3);
        let outer = r.begin("entry");
        let a = r.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.end(a);
        let b = r.begin("b");
        r.end(b);
        r.end(outer);
        r.count("n", 4.0);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op_id == 3));
        let own = r.self_ns();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert_eq!(own[1], dur(1));
        assert!(dur(1) >= 2_000_000);
        assert_eq!(r.count_totals()["n"], 4.0);
        let doc = r.chrome_trace("w");
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 3);
        assert!(gpuflow_minijson::parse(&doc.to_string_compact()).is_ok());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let t = r.begin("x");
        r.end(t);
        r.count("n", 1.0);
        r.push("y", 0, 1, 0);
        assert!(r.spans().is_empty());
        assert!(r.count_totals().is_empty());
    }
}
