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
use gpuflow_multi::MultiCompiled;
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

/// Compute-scaling estimates for `n ± 1` engines of kind `knob`
/// (`streams` or `devices`): total compute work `compute` redistributes
/// from `n` engines to the neighbour count, every other term untouched,
/// clamped at the critical-path lower bound.
fn scaling_advice(knob: &str, makespan: f64, compute: f64, n: usize, cp_len: f64) -> Vec<WhatIf> {
    let neighbours = if n > 1 {
        vec![n + 1, n - 1]
    } else {
        vec![n + 1]
    };
    neighbours
        .into_iter()
        .map(|n2| {
            let delta = compute * (1.0 / n as f64 - 1.0 / n2 as f64);
            let est = (makespan - delta).max(cp_len);
            WhatIf {
                knob: format!("{knob}={n2}"),
                estimated_s: est,
                delta_s: est - makespan,
                basis: format!("compute redistributed across {knob}, clamped at the critical path"),
            }
        })
        .collect()
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
    let makespan = out.makespan;
    let k = plan.streams.as_ref().map_or(1, |s| s.num_streams.max(1));
    let mut advice = scaling_advice("streams", makespan, out.compute_total(), k, cp_len);
    if let Some(w) = margin_step(makespan, out.copy_busy(), opts.memory_margin) {
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
    out: &OverlapOutcome,
    cp_len: f64,
) -> Vec<WhatIf> {
    let makespan = out.makespan;
    let n = c.cluster.len();
    let mut advice = scaling_advice("devices", makespan, out.compute_total(), n, cp_len);
    if let Some(w) = margin_step(makespan, out.copy_busy(), margin) {
        advice.push(w);
    }
    advice
}
