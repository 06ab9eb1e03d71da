//! Exact makespan attribution: per-engine busy/gap rollup, taxonomy
//! totals, dominant bottleneck, and the critical path.
//!
//! All durations are carried in **rounded nanoseconds**. The simulator
//! guarantees that each engine's busy events and attributed gaps tile
//! `[0, makespan]` with *shared* `f64` endpoints, so the per-interval
//! `ns(end) - ns(start)` sums telescope: every engine's total equals
//! `ns(makespan)` exactly, with zero drift, or [`profile_with`] refuses
//! to return a report.
//!
//! [`profile_with`] profiles a compiled template on its own machine, one
//! device or a cluster alike. Its caller passes the plan's
//! [`Simulation`] (`gpuflow run --json` prints one and profiles it), so
//! the profiler does not simulate the plan a second time, and the
//! concurrency certificate the compile returned beside the template, so
//! the plan is certified once, not again for its critical path.

use gpuflow_core::{
    simulate, step_times, CompileOptions, CompiledTemplate, ExecutionPlan, GapCause, LaneWork,
    Machine, OverlapOutcome, Simulation, Step,
};
use gpuflow_graph::Graph;
use gpuflow_minijson::{Map, Value};
use gpuflow_sim::DeviceSpec;
use gpuflow_verify::{critical_path, dependency_critical_path, ConcurrencyReport};

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
    /// Index of the step in the profiled plan.
    pub step: usize,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
}

impl CritSpan {
    /// Human label of the step (`in:Img`, `C1`, `out:Edg`, …) in `plan`,
    /// the profiled plan over `g`; on a shared bus (`shared_bus`, as
    /// [`CriticalSummary::shared_bus`] records) transfers and frees say
    /// which device they serve.
    pub fn label(&self, g: &Graph, plan: &ExecutionPlan, shared_bus: bool) -> String {
        let at = |device: usize| {
            if shared_bus {
                format!("@gpu{device}")
            } else {
                String::new()
            }
        };
        match plan.steps[self.step] {
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
}

/// The critical path through the happens-before DAG, summarized.
#[derive(Debug, Clone)]
pub struct CriticalSummary {
    /// Total duration of the steps on the path, seconds. A makespan
    /// lower bound.
    pub length_s: f64,
    /// `length_s / makespan` (0 for an empty plan).
    pub share: f64,
    /// True when the plan ran on a shared bus, so the path follows
    /// dependency edges only.
    pub shared_bus: bool,
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

/// Busiest compute labels, descending, capped at `cap`, from the busy
/// nanoseconds of every operator of `g` (indexed by `OpId`). Operators
/// that share a name share a label, so their times add up.
fn top_units(g: &Graph, op_busy: &[u64], cap: usize) -> Vec<(String, u64)> {
    let mut units: Vec<(&str, u64)> = g
        .op_ids()
        .zip(op_busy)
        .filter(|&(_, &busy)| busy > 0)
        .map(|(o, &busy)| (g.op(o).name.as_str(), busy))
        .collect();
    units.sort_unstable_by(|a, b| a.0.cmp(b.0));
    units.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
    units.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    units.truncate(cap);
    units.into_iter().map(|(u, b)| (u.to_string(), b)).collect()
}

/// The one profile body: roll up `sim` — the simulation of `plan` on
/// `machine`, with its gap attribution — per engine, extract the critical
/// path from `cert`, the plan's happens-before certificate, and attach
/// `advise(outcome, critical-path length)`.
fn profile_on(
    g: &Graph,
    plan: &ExecutionPlan,
    machine: &Machine,
    sim: &Simulation,
    cert: &ConcurrencyReport,
    advise: impl FnOnce(&OverlapOutcome, f64) -> Vec<WhatIf>,
) -> Result<ProfileReport, String> {
    debug_assert_eq!(
        sim.lanes,
        machine.lanes(plan.streams.as_ref().map_or(1, |s| s.num_streams)),
        "profile: the simulation is not of this plan's machine"
    );
    #[cfg(debug_assertions)]
    {
        let fresh = plan.certify(g);
        debug_assert_eq!(
            (&cert.diagnostics, cert.hb.edge_counts()),
            (&fresh.diagnostics, fresh.hb.edge_counts()),
            "profile: the certificate is not this plan's"
        );
    }
    // One row per lane of the machine, in table order (transfer channels
    // first, then every compute lane) — engines with no events still get
    // a row: their whole makespan is an attributed gap. Each row's gap
    // list is sized up front, so it is allocated once.
    let mut gaps_per_lane = vec![0usize; sim.lanes.lanes.len()];
    for gap in &sim.gaps {
        gaps_per_lane[sim.lanes.index(gap.lane)] += 1;
    }
    let mut engines: Vec<EngineBreakdown> = sim
        .lanes
        .lanes
        .iter()
        .zip(gaps_per_lane)
        .map(|(info, gaps)| EngineBreakdown {
            lane: info.label.clone(),
            is_compute: info.lane.device_stream().is_some(),
            busy_ns: 0,
            gap_ns: [0; NUM_CAUSES],
            gaps: Vec::with_capacity(gaps),
        })
        .collect();
    let mut op_busy = vec![0u64; g.num_ops()];
    for e in &sim.events {
        let engine = &mut engines[sim.lanes.index(e.lane)];
        let busy = interval_ns(e.start, e.end);
        engine.busy_ns += busy;
        if let LaneWork::Op(o) = e.what {
            op_busy[o.index()] += busy;
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

    let times = step_times(g, plan, machine);
    let durations: Vec<f64> = times.iter().map(|&(s, e)| e - s).collect();
    // A shared fabric backfills grants out of issue order, so same-lane
    // Program edges are not enforced there and only the dependency-edge
    // path lower-bounds the makespan; private engines honour the full DAG.
    let shared_bus = machine.shared_bus();
    let cp = if shared_bus {
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
        shared_bus,
        spans: cp
            .steps
            .iter()
            .map(|&i| CritSpan {
                step: i,
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
        units: top_units(g, &op_busy, 8),
        what_if: advise(&sim.outcome, cp.length),
    };
    report.reconcile()?;
    Ok(report)
}

/// Profile a compiled template on the machine it was compiled for, from
/// `sim`, its simulation there (what [`CompiledTemplate::simulate`]
/// returns), and `cert`, its concurrency certificate (what the compile
/// returned beside it). `opts` are the options it was compiled with: the
/// advisor perturbs them, with the streams, margin and eviction knobs on
/// one device and the devices and margin knobs on a shared-bus cluster.
pub fn profile_with(
    t: &CompiledTemplate,
    opts: &CompileOptions,
    sim: &Simulation,
    cert: &ConcurrencyReport,
) -> Result<ProfileReport, String> {
    let (g, plan, machine) = (&t.split.graph, &*t.plan, t.machine());
    profile_on(g, plan, &machine, sim, cert, |out, cp_len| {
        if machine.shared_bus() {
            advise_cluster(t.devices.len(), opts.memory_margin, out, cp_len)
        } else {
            advise_single(g, plan, &t.devices[0], opts, out, cp_len)
        }
    })
}

/// Profile a single-device `plan` over `g` on `dev`. `opts` must be the
/// options the plan was compiled with (the advisor perturbs them).
// Survives as an adapter: perf/src/layers.rs profiles a bare plan.
pub fn profile_plan(
    g: &Graph,
    plan: &ExecutionPlan,
    dev: &DeviceSpec,
    opts: &CompileOptions,
) -> Result<ProfileReport, String> {
    let machine = Machine::single(dev);
    let sim = simulate(g, plan, &machine);
    profile_on(g, plan, &machine, &sim, &plan.certify(g), |out, cp_len| {
        advise_single(g, plan, dev, opts, out, cp_len)
    })
}

/// Profile a compiled cluster template. `margin` is the planner margin it
/// was compiled with (the advisor's margin knob steps it).
// Survives as an adapter: perf/src/layers.rs profiles the compiled
// cluster without its certificate.
pub fn profile_cluster(c: &CompiledTemplate, margin: f64) -> Result<ProfileReport, String> {
    let opts = CompileOptions {
        memory_margin: margin,
        ..CompileOptions::default()
    };
    profile_with(c, &opts, &c.simulate(), &c.plan.certify(&c.split.graph))
}
