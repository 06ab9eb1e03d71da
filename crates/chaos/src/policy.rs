//! Recovery policies and bookkeeping shared by the resilient executors.
//!
//! The recovery ladder escalates through four rungs:
//!
//! 1. **Retry** — transient faults are retried in simulated time with
//!    exponential backoff, bounded by [`RetryPolicy::max_attempts`];
//! 2. **Checkpoint/restart** — offload units whose retries are exhausted
//!    are restarted from host-resident checkpoints taken at unit exits;
//! 3. **Failover replanning** — on hard device loss with a surviving
//!    device, the not-yet-executed suffix is replanned onto the survivors
//!    (a one-device machine skips this rung);
//! 4. **CPU degradation** — operators that cannot run on any device finish
//!    on the host at a configurable slowdown. This rung is always there.
//!
//! The executor implementing the ladder lives in `gpuflow-core`
//! (`ResilientExecutor`); this module holds the knobs ([`RetryPolicy`],
//! [`RecoveryOptions`]) and the ledger ([`RecoveryStats`],
//! [`RecoveryEvent`]) so reports agree on vocabulary and JSON shape.

use gpuflow_minijson::{Map, Value};

/// Bounded exponential backoff for transient faults, in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per site (first try included). Must be >= 1; a
    /// plan with an unbounded policy trips diagnostic `GF0042`.
    pub max_attempts: u32,
    /// Backoff before the first retry, seconds of simulated time.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after each failed retry.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_backoff_s: 100e-6,
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff inserted before retry number `retry` (1-based: the wait
    /// after the first failure is `backoff(1) == base_backoff_s`).
    pub fn backoff(&self, retry: u32) -> f64 {
        debug_assert!(retry >= 1);
        self.base_backoff_s * self.multiplier.powi(retry as i32 - 1)
    }
}

/// Knobs for the resilient executors.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOptions {
    /// Retry policy for transient kernel/transfer/allocation faults.
    pub retry: RetryPolicy,
    /// Take exit checkpoints (copy freshly produced, needed-later data to
    /// the host after each offload unit). Disabling removes rung 2: a
    /// device loss then forfeits everything not already host-resident.
    pub checkpoints: bool,
    /// How many times one offload unit may be restarted from checkpoint
    /// before escalating to CPU fallback.
    pub max_unit_restarts: u32,
    /// Host compute slowdown relative to the device kernel time model
    /// (rung 4, which every run may fall back to).
    pub cpu_slowdown: f64,
}

impl Default for RecoveryOptions {
    fn default() -> RecoveryOptions {
        RecoveryOptions {
            retry: RetryPolicy::default(),
            checkpoints: true,
            max_unit_restarts: 3,
            cpu_slowdown: 40.0,
        }
    }
}

/// What happened at one point on the recovery timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEventKind {
    /// A fault was injected.
    Fault,
    /// A transient fault was retried after backoff.
    Retry,
    /// An exit checkpoint copied data to the host.
    Checkpoint,
    /// An offload unit was restarted from checkpointed inputs.
    UnitRestart,
    /// A device was observed dead.
    DeviceLost,
    /// The remaining suffix was replanned onto surviving devices.
    Replan,
    /// An operator was executed on the host CPU.
    CpuFallback,
}

impl RecoveryEventKind {
    /// Stable label used in traces, reports, and JSON.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryEventKind::Fault => "fault",
            RecoveryEventKind::Retry => "retry",
            RecoveryEventKind::Checkpoint => "checkpoint",
            RecoveryEventKind::UnitRestart => "unit-restart",
            RecoveryEventKind::DeviceLost => "device-lost",
            RecoveryEventKind::Replan => "replan",
            RecoveryEventKind::CpuFallback => "cpu-fallback",
        }
    }
}

/// One entry on the recovery timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Simulated time, seconds.
    pub at_s: f64,
    /// What happened.
    pub kind: RecoveryEventKind,
    /// Human-readable detail ("kernel fault at step 12, attempt 2", …).
    pub detail: String,
}

/// The recovery ledger for one run: counters, the event timeline, and the
/// makespans needed to express overhead.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryStats {
    /// Faults injected, all classes.
    pub faults_injected: u64,
    /// Transient-fault retries performed (rung 1).
    pub retries: u64,
    /// Exit checkpoints taken (host copies of fresh data).
    pub checkpoints_taken: u64,
    /// Offload-unit restarts from checkpoint (rung 2).
    pub checkpoints_restored: u64,
    /// Failover replans after device loss (rung 3).
    pub replans: u64,
    /// Operators finished on the host CPU (rung 4).
    pub cpu_fallback_ops: u64,
    /// Did the run deliver all outputs despite the fault schedule?
    pub recovered: bool,
    /// Makespan of this (faulted) run, seconds.
    pub makespan_s: f64,
    /// Makespan of the fault-free baseline, seconds.
    pub faultfree_makespan_s: f64,
    /// The recovery timeline, in simulated-time order.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryStats {
    /// Record an event and bump the matching counter.
    pub fn record(&mut self, at_s: f64, kind: RecoveryEventKind, detail: impl Into<String>) {
        match kind {
            RecoveryEventKind::Fault => self.faults_injected += 1,
            RecoveryEventKind::Retry => self.retries += 1,
            RecoveryEventKind::Checkpoint => self.checkpoints_taken += 1,
            RecoveryEventKind::UnitRestart => self.checkpoints_restored += 1,
            RecoveryEventKind::Replan => self.replans += 1,
            RecoveryEventKind::CpuFallback => self.cpu_fallback_ops += 1,
            RecoveryEventKind::DeviceLost => {}
        }
        self.events.push(RecoveryEvent {
            at_s,
            kind,
            detail: detail.into(),
        });
    }

    /// Fractional makespan overhead of recovery versus the fault-free
    /// baseline (0.0 when the baseline is degenerate or the run was
    /// faster — overhead never goes negative).
    pub fn overhead(&self) -> f64 {
        if self.faultfree_makespan_s <= 0.0 {
            return 0.0;
        }
        ((self.makespan_s - self.faultfree_makespan_s) / self.faultfree_makespan_s).max(0.0)
    }

    /// The `recovery` object embedded in `run --json` output.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("faults_injected", self.faults_injected);
        m.insert("retries", self.retries);
        m.insert("checkpoints_taken", self.checkpoints_taken);
        m.insert("checkpoints_restored", self.checkpoints_restored);
        m.insert("replans", self.replans);
        m.insert("cpu_fallback_ops", self.cpu_fallback_ops);
        m.insert("recovered", self.recovered);
        m.insert("faultfree_makespan_s", self.faultfree_makespan_s);
        m.insert("makespan_s", self.makespan_s);
        m.insert("recovery_overhead", self.overhead());
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| {
                let mut ev = Map::new();
                ev.insert("at_s", e.at_s);
                ev.insert("kind", e.kind.label());
                ev.insert("detail", e.detail.as_str());
                Value::Object(ev)
            })
            .collect();
        m.insert("events", Value::Array(events));
        Value::Object(m)
    }

    /// One-line human summary for CLI text output.
    pub fn summary(&self) -> String {
        format!(
            "recovery: {} fault(s), {} retry(ies), {} checkpoint(s) taken, {} restored, {} replan(s), {} CPU-fallback op(s); overhead {:+.1}% ({})",
            self.faults_injected,
            self.retries,
            self.checkpoints_taken,
            self.checkpoints_restored,
            self.replans,
            self.cpu_fallback_ops,
            self.overhead() * 100.0,
            if self.recovered { "recovered" } else { "NOT RECOVERED" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::default();
        assert!((p.backoff(1) - 100e-6).abs() < 1e-12);
        assert!((p.backoff(2) - 200e-6).abs() < 1e-12);
        assert!((p.backoff(3) - 400e-6).abs() < 1e-12);
    }

    #[test]
    fn record_bumps_matching_counters() {
        let mut s = RecoveryStats::default();
        s.record(0.1, RecoveryEventKind::Fault, "kernel fault");
        s.record(0.2, RecoveryEventKind::Retry, "retry 1");
        s.record(0.3, RecoveryEventKind::Checkpoint, "d3 to host");
        s.record(0.4, RecoveryEventKind::UnitRestart, "unit 2");
        s.record(0.5, RecoveryEventKind::DeviceLost, "device 1");
        s.record(0.6, RecoveryEventKind::Replan, "2 units moved");
        s.record(0.7, RecoveryEventKind::CpuFallback, "op 9");
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.checkpoints_taken, 1);
        assert_eq!(s.checkpoints_restored, 1);
        assert_eq!(s.replans, 1);
        assert_eq!(s.cpu_fallback_ops, 1);
        assert_eq!(s.events.len(), 7);
    }

    #[test]
    fn overhead_is_clamped_and_json_has_the_contract_keys() {
        let mut s = RecoveryStats {
            makespan_s: 1.5,
            faultfree_makespan_s: 1.0,
            recovered: true,
            ..RecoveryStats::default()
        };
        assert!((s.overhead() - 0.5).abs() < 1e-12);
        s.makespan_s = 0.9;
        assert_eq!(s.overhead(), 0.0);
        s.faultfree_makespan_s = 0.0;
        assert_eq!(s.overhead(), 0.0);

        let json = s.to_json();
        for key in [
            "faults_injected",
            "retries",
            "checkpoints_taken",
            "checkpoints_restored",
            "replans",
            "cpu_fallback_ops",
            "recovered",
            "faultfree_makespan_s",
            "makespan_s",
            "recovery_overhead",
            "events",
        ] {
            assert!(json.get(key).is_some(), "missing key {key}");
        }
    }

    #[test]
    fn summary_mentions_recovery_state() {
        let mut s = RecoveryStats {
            recovered: true,
            makespan_s: 1.0,
            faultfree_makespan_s: 1.0,
            ..RecoveryStats::default()
        };
        assert!(s.summary().contains("recovered"));
        s.recovered = false;
        assert!(s.summary().contains("NOT RECOVERED"));
    }
}
