//! Exact makespan attribution: per-engine busy/gap rollup, taxonomy
//! totals, dominant bottleneck, and the critical path.
//!
//! All durations are carried in **rounded nanoseconds**. The simulator
//! guarantees that each engine's busy events and attributed gaps tile
//! `[0, makespan]` with *shared* `f64` endpoints, so the per-interval
//! `ns(end) - ns(start)` sums telescope: every engine's total equals
//! `ns(makespan)` exactly, with zero drift, or [`profile_plan`] /
//! [`profile_cluster`] refuse to return a report.

use std::collections::HashMap;

use gpuflow_core::{
    simulate, step_times, CompileOptions, ExecutionPlan, GapCause, Machine, OverlapOutcome, Step,
};
use gpuflow_graph::Graph;
use gpuflow_minijson::{Map, Value};
use gpuflow_multi::MultiCompiled;
use gpuflow_sim::DeviceSpec;
use gpuflow_verify::{critical_path, dependency_critical_path};

use crate::advisor::{advise_cluster, advise_single, WhatIf};

/// Seconds → rounded nanoseconds (never negative).
pub fn ns(t: f64) -> u64 {
    (t * 1e9).round().max(0.0) as u64
}

/// Position of `cause` in [`GapCause::all`] — the taxonomy's stable
/// rendering order.
pub(crate) fn cause_idx(cause: GapCause) -> usize {
    GapCause::all()
        .iter()
        .position(|&c| c == cause)
        .expect("GapCause::all covers every cause")
}

/// Number of causes in the taxonomy.
pub(crate) const NUM_CAUSES: usize = 7;

/// One engine's fully attributed timeline: busy time plus one bucket per
/// gap cause, summing to the makespan exactly.
#[derive(Debug, Clone)]
pub struct EngineBreakdown {
    /// Engine label, matching the certifier's lane vocabulary (`h2d`,
    /// `d2h`, `gpu0`, `gpu0s1`, …) plus the cluster bus channels
    /// (`bus-h2d`, `bus-d2h`).
    pub lane: String,
    /// Whether this is a compute engine (dominance is judged on compute
    /// lanes only; DMA engines are support machinery).
    pub is_compute: bool,
    /// Rounded busy nanoseconds.
    pub busy_ns: u64,
    /// Rounded idle nanoseconds per [`GapCause`], indexed in
    /// [`GapCause::all`] order.
    pub gap_ns: [u64; NUM_CAUSES],
    /// Raw attributed gap intervals `(start_s, end_s, cause)` — kept for
    /// the `PID_PROFILE` trace track.
    pub gaps: Vec<(f64, f64, GapCause)>,
}

impl EngineBreakdown {
    /// Busy plus every gap bucket — must equal the makespan in ns.
    pub fn total_ns(&self) -> u64 {
        self.busy_ns + self.gap_ns.iter().sum::<u64>()
    }
}

/// One step on the critical path, with its simulated interval.
#[derive(Debug, Clone)]
pub struct CritSpan {
    /// Human label (`in:Img`, `C1`, `out:Edg`, …).
    pub label: String,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
}

/// The critical path through the happens-before DAG, summarized.
#[derive(Debug, Clone)]
pub struct CriticalSummary {
    /// Total duration of the steps on the path, seconds. A makespan
    /// lower bound.
    pub length_s: f64,
    /// `length_s / makespan` (0 for an empty plan).
    pub share: f64,
    /// The path's steps with their simulated intervals, in issue order.
    pub spans: Vec<CritSpan>,
}

/// The full profile: attribution, critical path, dominance, advice.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Makespan, rounded nanoseconds — the reconciliation target.
    pub makespan_ns: u64,
    /// Per-engine breakdowns, in lane order (DMA first, then compute).
    pub engines: Vec<EngineBreakdown>,
    /// Dominant bottleneck: the largest bucket across compute lanes —
    /// `compute` (busy) or a [`GapCause`] label.
    pub dominant: String,
    /// The dominant bucket's share of total compute-lane time.
    pub dominant_share: f64,
    /// Critical path over the certifier's happens-before DAG.
    pub critical_path: CriticalSummary,
    /// Busiest operators: compute-lane busy ns per label, descending.
    pub units: Vec<(String, u64)>,
    /// What-if advisor estimates (empty when no knob applies).
    pub what_if: Vec<WhatIf>,
}

impl ProfileReport {
    /// Check the attribution invariant: every engine's busy + gap time
    /// equals the makespan, in rounded nanoseconds, exactly. Constructors
    /// already enforce this; the CLI smoke gate calls it again so the
    /// invariant is asserted on the shipped binary too.
    pub fn reconcile(&self) -> Result<(), String> {
        for e in &self.engines {
            let total = e.total_ns();
            if total != self.makespan_ns {
                return Err(format!(
                    "unattributed time on {}: busy+gaps {} ns != makespan {} ns (drift {})",
                    e.lane,
                    total,
                    self.makespan_ns,
                    total as i64 - self.makespan_ns as i64
                ));
            }
        }
        Ok(())
    }

    /// Taxonomy totals across *all* engines: rounded ns per cause, in
    /// [`GapCause::all`] order.
    pub fn cause_totals(&self) -> [u64; NUM_CAUSES] {
        let mut totals = [0u64; NUM_CAUSES];
        for e in &self.engines {
            for (t, &g) in totals.iter_mut().zip(e.gap_ns.iter()) {
                *t += g;
            }
        }
        totals
    }

    /// The profile as JSON (the shape `gpuflow profile --json` emits and
    /// `gpuflow run --json` embeds under `"profile"`).
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("makespan_s", self.makespan_s);
        m.insert("makespan_ns", self.makespan_ns);
        m.insert("dominant", self.dominant.clone());
        m.insert("dominant_share", self.dominant_share);
        let mut cp = Map::new();
        cp.insert("length_s", self.critical_path.length_s);
        cp.insert("share", self.critical_path.share);
        cp.insert("steps", self.critical_path.spans.len() as u64);
        m.insert("critical_path", Value::Object(cp));
        let mut engines = Vec::new();
        for e in &self.engines {
            let mut em = Map::new();
            em.insert("lane", e.lane.clone());
            em.insert("busy_ns", e.busy_ns);
            let mut gaps = Map::new();
            for (i, cause) in GapCause::all().iter().enumerate() {
                if e.gap_ns[i] > 0 {
                    gaps.insert(cause.label(), e.gap_ns[i]);
                }
            }
            em.insert("gap_ns", Value::Object(gaps));
            em.insert("total_ns", e.total_ns());
            engines.push(Value::Object(em));
        }
        m.insert("engines", Value::Array(engines));
        let totals = self.cause_totals();
        let mut causes = Map::new();
        for (i, cause) in GapCause::all().iter().enumerate() {
            if totals[i] > 0 {
                causes.insert(cause.label(), totals[i]);
            }
        }
        m.insert("causes", Value::Object(causes));
        m.insert(
            "units",
            Value::Array(
                self.units
                    .iter()
                    .map(|(label, busy)| {
                        let mut um = Map::new();
                        um.insert("label", label.clone());
                        um.insert("busy_ns", *busy);
                        Value::Object(um)
                    })
                    .collect(),
            ),
        );
        m.insert(
            "what_if",
            Value::Array(self.what_if.iter().map(|w| w.to_json()).collect()),
        );
        Value::Object(m)
    }
}

/// `ns(end) - ns(start)` — rounding the *endpoints*, not the duration, so
/// sums over intervals with shared endpoints telescope exactly.
fn interval_ns(start: f64, end: f64) -> u64 {
    ns(end).saturating_sub(ns(start))
}

/// Dominant bucket over compute lanes: `compute` busy time vs. each gap
/// cause, as a share of total compute-lane time.
fn dominance(engines: &[EngineBreakdown], makespan_ns: u64) -> (String, f64) {
    let compute: Vec<_> = engines.iter().filter(|e| e.is_compute).collect();
    let denom = makespan_ns.saturating_mul(compute.len() as u64);
    if denom == 0 {
        return ("compute".to_string(), 0.0);
    }
    let busy: u64 = compute.iter().map(|e| e.busy_ns).sum();
    let mut best = ("compute".to_string(), busy);
    for (i, cause) in GapCause::all().iter().enumerate() {
        let total: u64 = compute.iter().map(|e| e.gap_ns[i]).sum();
        if total > best.1 {
            best = (cause.label().to_string(), total);
        }
    }
    (best.0, best.1 as f64 / denom as f64)
}

/// Human label for plan step `step`; on a shared bus, transfers and frees
/// say which device they serve.
fn step_label(g: &Graph, plan: &ExecutionPlan, step: &Step, shared_bus: bool) -> String {
    let at = |device: usize| {
        if shared_bus {
            format!("@gpu{device}")
        } else {
            String::new()
        }
    };
    match *step {
        Step::CopyIn { device, data } => format!("in:{}{}", g.data(data).name, at(device)),
        Step::CopyOut { device, data } => format!("out:{}{}", g.data(data).name, at(device)),
        Step::Free { device, data } => format!("free:{}{}", g.data(data).name, at(device)),
        Step::Launch(u) => plan.units[u]
            .ops
            .iter()
            .map(|&o| g.op(o).name.as_str())
            .collect::<Vec<_>>()
            .join("+"),
    }
}

/// Busiest compute labels, descending, capped at `cap`.
fn top_units(busy: HashMap<String, u64>, cap: usize) -> Vec<(String, u64)> {
    let mut units: Vec<_> = busy.into_iter().collect();
    units.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    units.truncate(cap);
    units
}

/// The one profile body: simulate `plan` on `machine` with gap
/// attribution, extract the critical path from the plan's happens-before
/// certificate, and attach `advise(outcome, critical-path length)`.
fn profile_on(
    g: &Graph,
    plan: &ExecutionPlan,
    machine: &Machine,
    advise: impl FnOnce(&OverlapOutcome, f64) -> Vec<WhatIf>,
) -> Result<ProfileReport, String> {
    let sim = simulate(g, plan, machine);
    // One row per lane of the machine, in table order (transfer channels
    // first, then every compute lane) — engines with no events still get
    // a row: their whole makespan is an attributed gap.
    let mut engines: Vec<EngineBreakdown> = sim
        .lanes
        .lanes
        .iter()
        .map(|info| EngineBreakdown {
            lane: info.label.clone(),
            is_compute: info.lane.device_stream().is_some(),
            busy_ns: 0,
            gap_ns: [0; NUM_CAUSES],
            gaps: Vec::new(),
        })
        .collect();
    let mut unit_busy: HashMap<String, u64> = HashMap::new();
    for e in &sim.events {
        let engine = &mut engines[sim.lanes.index(e.lane)];
        let busy = interval_ns(e.start, e.end);
        engine.busy_ns += busy;
        if engine.is_compute {
            *unit_busy.entry(e.label.clone()).or_insert(0) += busy;
        }
    }
    for gap in &sim.gaps {
        let engine = &mut engines[sim.lanes.index(gap.lane)];
        engine.gap_ns[cause_idx(gap.cause)] += interval_ns(gap.start, gap.end);
        engine.gaps.push((gap.start, gap.end, gap.cause));
    }

    let makespan_s = sim.outcome.makespan;
    let makespan_ns = ns(makespan_s);
    let (dominant, dominant_share) = dominance(&engines, makespan_ns);

    let cert = plan.certify(g);
    let times = step_times(g, plan, machine);
    let durations: Vec<f64> = times.iter().map(|&(s, e)| e - s).collect();
    // A shared fabric backfills grants out of issue order, so same-lane
    // Program edges are not enforced there and only the dependency-edge
    // path lower-bounds the makespan; private engines honour the full DAG.
    let cp = if machine.shared_bus() {
        dependency_critical_path(&cert.hb, &durations)
    } else {
        critical_path(&cert.hb, &durations)
    };
    let critical = CriticalSummary {
        length_s: cp.length,
        share: if makespan_s <= 0.0 {
            0.0
        } else {
            cp.length / makespan_s
        },
        spans: cp
            .steps
            .iter()
            .map(|&i| CritSpan {
                label: step_label(g, plan, &plan.steps[i], machine.shared_bus()),
                start: times[i].0,
                end: times[i].1,
            })
            .collect(),
    };

    let report = ProfileReport {
        makespan_s,
        makespan_ns,
        engines,
        dominant,
        dominant_share,
        critical_path: critical,
        units: top_units(unit_busy, 8),
        what_if: advise(&sim.outcome, cp.length),
    };
    report.reconcile()?;
    Ok(report)
}

/// Profile a compiled single-device plan. `opts` must be the options the
/// plan was compiled with (the advisor perturbs them).
pub fn profile_plan(
    g: &Graph,
    plan: &ExecutionPlan,
    dev: &DeviceSpec,
    opts: &CompileOptions,
) -> Result<ProfileReport, String> {
    profile_on(g, plan, &Machine::single(dev), |out, cp_len| {
        advise_single(g, plan, dev, opts, out, cp_len)
    })
}

/// Profile a compiled cluster plan. `margin` is the planner margin the
/// plan was compiled with (the advisor's margin knob steps it).
pub fn profile_cluster(c: &MultiCompiled, margin: f64) -> Result<ProfileReport, String> {
    let g = &c.sharded.split.graph;
    profile_on(g, &c.plan, &c.cluster.machine(), |out, cp_len| {
        advise_cluster(c, margin, out, cp_len)
    })
}
