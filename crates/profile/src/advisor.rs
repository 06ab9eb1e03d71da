//! The what-if advisor: first-order makespan estimates for neighbouring
//! configurations, computed from the attribution and the analytic model
//! **without replanning**.
//!
//! Each estimate states its model in `basis`; docs/profiling.md defines
//! the semantics and the expected error. The CI smoke gate replans one
//! knob (`streams k+1`) and prints a GF-style note when the estimate and
//! the replanned reality diverge by more than 10% — the advisor is a
//! triage tool, not an oracle.

use gpuflow_core::framework::DEFAULT_MARGINS;
use gpuflow_core::{CompileOptions, EvictionPolicy, ExecutionPlan, OverlapOutcome, Step};
use gpuflow_graph::Graph;
use gpuflow_minijson::{Map, Value};
use gpuflow_multi::{MultiCompiled, MultiOutcome};
use gpuflow_sim::{transfer_time, DeviceSpec};

/// One advisor estimate: a knob change and its projected makespan.
#[derive(Debug, Clone)]
pub struct WhatIf {
    /// The configuration change, e.g. `streams=3`, `margin=0.1`,
    /// `eviction=Lru`.
    pub knob: String,
    /// Projected makespan under the change, seconds.
    pub estimated_s: f64,
    /// `estimated_s - current makespan` (negative = projected win).
    pub delta_s: f64,
    /// One-line statement of the model behind the number.
    pub basis: String,
}

impl WhatIf {
    /// JSON shape used by `gpuflow profile --json`.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("knob", self.knob.clone());
        m.insert("estimated_s", self.estimated_s);
        m.insert("delta_s", self.delta_s);
        m.insert("basis", self.basis.clone());
        Value::Object(m)
    }
}

/// Compute-scaling estimate: total compute work `compute` redistributes
/// from `k` engines to `k2`, every other term untouched, clamped at the
/// critical-path lower bound.
fn scaled_compute(makespan: f64, compute: f64, k: usize, k2: usize, cp_len: f64) -> f64 {
    let delta = compute * (1.0 / k as f64 - 1.0 / k2 as f64);
    (makespan - delta).max(cp_len)
}

/// The next fragmentation-margin rung above `margin`, if any.
fn next_margin(margin: f64) -> Option<f64> {
    DEFAULT_MARGINS.iter().copied().find(|&m| m > margin)
}

/// Margin-step estimate: transfer traffic scales inversely with the
/// plannable budget, so busy transfer time grows by the budget ratio.
fn margin_step(makespan: f64, xfer_busy: f64, margin: f64) -> Option<WhatIf> {
    let m2 = next_margin(margin)?;
    let ratio = (1.0 - margin) / (1.0 - m2);
    let est = makespan + xfer_busy * (ratio - 1.0);
    Some(WhatIf {
        knob: format!("margin={m2}"),
        estimated_s: est,
        delta_s: est - makespan,
        basis: format!(
            "transfer time scaled by the plannable-budget ratio {:.3}",
            ratio
        ),
    })
}

/// Transfer time of re-uploads (a `CopyIn` of a datum uploaded before):
/// the slice of the makespan an eviction-policy change could move.
fn reupload_time(g: &Graph, plan: &ExecutionPlan, dev: &DeviceSpec) -> f64 {
    let mut seen = vec![false; g.num_data()];
    let mut total = 0.0;
    for step in &plan.steps {
        if let Step::CopyIn { data: d, .. } = *step {
            if seen[d.index()] {
                total += transfer_time(dev, g.data(d).bytes());
            }
            seen[d.index()] = true;
        }
    }
    total
}

/// Advisor for a single-device plan: `streams k±1`, the next margin
/// rung, and an eviction-policy swap.
pub fn advise_single(
    g: &Graph,
    plan: &ExecutionPlan,
    dev: &DeviceSpec,
    opts: &CompileOptions,
    out: &OverlapOutcome,
    cp_len: f64,
) -> Vec<WhatIf> {
    let makespan = out.overlapped_time;
    let k = plan.streams.as_ref().map_or(1, |s| s.num_streams.max(1));
    let mut advice = Vec::new();
    let scaling = "compute redistributed across streams, clamped at the critical path";
    let est = scaled_compute(makespan, out.compute_busy, k, k + 1, cp_len);
    advice.push(WhatIf {
        knob: format!("streams={}", k + 1),
        estimated_s: est,
        delta_s: est - makespan,
        basis: scaling.to_string(),
    });
    if k > 1 {
        let est = scaled_compute(makespan, out.compute_busy, k, k - 1, cp_len);
        advice.push(WhatIf {
            knob: format!("streams={}", k - 1),
            estimated_s: est,
            delta_s: est - makespan,
            basis: scaling.to_string(),
        });
    }
    if let Some(w) = margin_step(makespan, out.h2d_busy + out.d2h_busy, opts.memory_margin) {
        advice.push(w);
    }
    let evictions = plan.evictions();
    let (knob, sign) = if opts.eviction == EvictionPolicy::Belady {
        ("eviction=Lru".to_string(), 1.0)
    } else {
        ("eviction=Belady".to_string(), -1.0)
    };
    let (delta, basis) = if evictions == 0 {
        (
            0.0,
            "no evictions in the plan: the policy never fires".to_string(),
        )
    } else {
        let r = reupload_time(g, plan, dev);
        (
            sign * r / 2.0,
            format!(
                "midpoint of the ±{:.3} ms re-upload slice the policy controls ({} evictions)",
                r * 1e3,
                evictions
            ),
        )
    };
    advice.push(WhatIf {
        knob,
        estimated_s: makespan + delta,
        delta_s: delta,
        basis,
    });
    advice
}

/// Advisor for a cluster plan: `devices n±1` (compute scaling) and the
/// next margin rung (bus-traffic scaling).
pub fn advise_cluster(
    c: &MultiCompiled,
    margin: f64,
    out: &MultiOutcome,
    cp_len: f64,
) -> Vec<WhatIf> {
    let makespan = out.makespan;
    let n = c.cluster.len();
    let compute: f64 = out.compute_busy.iter().sum();
    let mut advice = Vec::new();
    let scaling = "compute redistributed across devices, clamped at the critical path";
    let est = scaled_compute(makespan, compute, n, n + 1, cp_len);
    advice.push(WhatIf {
        knob: format!("devices={}", n + 1),
        estimated_s: est,
        delta_s: est - makespan,
        basis: scaling.to_string(),
    });
    if n > 1 {
        let est = scaled_compute(makespan, compute, n, n - 1, cp_len);
        advice.push(WhatIf {
            knob: format!("devices={}", n - 1),
            estimated_s: est,
            delta_s: est - makespan,
            basis: scaling.to_string(),
        });
    }
    if let Some(w) = margin_step(makespan, out.bus_h2d_busy + out.bus_d2h_busy, margin) {
        advice.push(w);
    }
    advice
}
