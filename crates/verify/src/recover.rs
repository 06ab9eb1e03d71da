//! Recoverability analysis: can a plan be restarted mid-run?
//!
//! The resilient executors recover from faults by restarting offload units
//! from host-resident data (checkpoint/restart) or by replanning a
//! not-yet-executed suffix after device loss. Both moves are only possible
//! if, at the restart point, every datum the remaining steps consume is
//! available on the host. This pass computes, **per launch step**, the
//! minimal host-resident data set sufficient to restart the plan there:
//!
//! * bindings (inputs/constants) always qualify — host copies of data that
//!   starts on the CPU are never invalidated (data is immutable);
//! * data produced by *earlier* launches qualifies only if the plan as
//!   written has copied it out (or a checkpointing executor has);
//! * data produced by the suffix itself never needs checkpointing — the
//!   replay re-produces it.
//!
//! Three diagnostics fall out:
//!
//! * [`codes::NOT_RECOVERABLE`] (`GF0040`, warning) — the plan as written
//!   leaves a restart point without some produced datum on the host; a
//!   plain (non-checkpointing) executor cannot restart there.
//! * [`codes::CHECKPOINT_OVER_BUDGET`] (`GF0041`, warning) — the largest
//!   per-step restart set exceeds a caller-supplied host-memory budget.
//! * [`codes::RETRY_UNBOUNDED`] (`GF0042`, warning) — the retry policy the
//!   plan will run under has no attempt bound, so a deterministic
//!   always-faulting site would retry forever.

use std::collections::HashSet;

use gpuflow_graph::{DataId, Graph};

use crate::diag::{Diagnostic, Location};
use crate::engine::{PlanView, Step};

/// Diagnostic codes emitted by the recoverability pass.
pub mod codes {
    /// A restart point lacks host copies of produced data the suffix needs.
    pub const NOT_RECOVERABLE: &str = "GF0040";
    /// The minimal checkpoint set exceeds the host-memory budget.
    pub const CHECKPOINT_OVER_BUDGET: &str = "GF0041";
    /// The retry policy has no attempt bound.
    pub const RETRY_UNBOUNDED: &str = "GF0042";
}

/// Inputs to the recoverability pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryCheckOptions {
    /// Attempt bound of the retry policy the plan will run under.
    /// `None` means "not checked"; `Some(0)` means unbounded and trips
    /// [`codes::RETRY_UNBOUNDED`].
    pub max_attempts: Option<u32>,
    /// Optional host-memory budget in bytes for the live checkpoint set.
    pub host_budget: Option<u64>,
}

/// Restart requirements of one launch step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchRecovery {
    /// Index of the launch in the step sequence.
    pub step: usize,
    /// The unit launched.
    pub unit: usize,
    /// Produced data the suffix (this launch included) consumes: the
    /// minimal set that must be host-resident to restart here, sorted by
    /// data id. Bindings are excluded — they are always host-resident.
    pub restart_set: Vec<DataId>,
    /// Members of `restart_set` the plan as written has *not* copied to
    /// the host before this step. Empty means a plain executor can
    /// restart here; non-empty means only a checkpointing executor can.
    pub missing: Vec<DataId>,
    /// Total bytes of `restart_set` — the host memory a checkpointing
    /// executor needs live at this point.
    pub checkpoint_bytes: u64,
}

/// Everything the recoverability pass produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Per-launch restart requirements, in step order.
    pub per_launch: Vec<LaunchRecovery>,
    /// Largest `checkpoint_bytes` over all launches.
    pub max_checkpoint_bytes: u64,
    /// Findings (all warnings; recoverability gaps are facts about the
    /// plan, not execution-blocking errors — a checkpointing executor
    /// closes them at run time).
    pub diagnostics: Vec<Diagnostic>,
}

impl RecoveryReport {
    /// True when every restart point is covered by the plan as written.
    pub fn fully_recoverable(&self) -> bool {
        self.per_launch.iter().all(|l| l.missing.is_empty())
    }
}

/// Run the recoverability pass over `plan`.
pub fn analyze_recovery(g: &Graph, plan: &PlanView, opts: RecoveryCheckOptions) -> RecoveryReport {
    let mut diagnostics = Vec::new();

    if opts.max_attempts == Some(0) {
        diagnostics.push(
            Diagnostic::warning(
                codes::RETRY_UNBOUNDED,
                None,
                "retry policy has no attempt bound: a persistently faulting site would retry forever",
            )
            .with_help("set max_attempts >= 1 so retries escalate to checkpoint/restart"),
        );
    }

    // Reverse pass: at each launch, the data the suffix consumes.
    // `needed` accumulates data referenced by suffix steps, minus data the
    // suffix's own launches (re-)produce.
    let mut needed: HashSet<DataId> = HashSet::new();
    // (step index, unit, restart set) in reverse step order.
    let mut snapshots: Vec<(usize, usize, Vec<DataId>)> = Vec::new();
    for (i, step) in plan.steps.iter().enumerate().rev() {
        match *step {
            Step::Free { .. } => {}
            Step::CopyIn { data: d, .. } | Step::CopyOut { data: d, .. } => {
                needed.insert(d);
            }
            Step::Launch(u) => {
                let Some(unit) = plan.units.get(u) else {
                    // GF0011 territory; the residency engine reports it.
                    continue;
                };
                for &d in &unit.outputs {
                    needed.remove(&d);
                }
                for &d in &unit.inputs {
                    needed.insert(d);
                }
                let mut restart: Vec<DataId> = needed
                    .iter()
                    .copied()
                    .filter(|&d| d.index() < g.num_data() && !g.data(d).kind.starts_on_cpu())
                    .collect();
                restart.sort_by_key(|d| d.index());
                snapshots.push((i, u, restart));
            }
        }
    }
    snapshots.reverse();

    // Forward pass: which produced data the plan itself has made
    // host-valid before each step.
    let mut host_valid: HashSet<DataId> = HashSet::new();
    let mut per_launch = Vec::with_capacity(snapshots.len());
    let mut snap_iter = snapshots.into_iter().peekable();
    let mut max_checkpoint_bytes = 0u64;
    for (i, step) in plan.steps.iter().enumerate() {
        if let Some(&(si, unit, _)) = snap_iter.peek() {
            if si == i {
                let (_, _, restart_set) = snap_iter.next().expect("peeked");
                let missing: Vec<DataId> = restart_set
                    .iter()
                    .copied()
                    .filter(|d| !host_valid.contains(d))
                    .collect();
                let checkpoint_bytes = restart_set
                    .iter()
                    .map(|&d| {
                        if d.index() < g.num_data() {
                            g.data(d).bytes()
                        } else {
                            0
                        }
                    })
                    .sum();
                max_checkpoint_bytes = max_checkpoint_bytes.max(checkpoint_bytes);
                if !missing.is_empty() {
                    let names: Vec<&str> =
                        missing.iter().map(|&d| g.data(d).name.as_str()).collect();
                    diagnostics.push(
                        Diagnostic::warning(
                            codes::NOT_RECOVERABLE,
                            Some(Location::Step(i)),
                            format!(
                                "plan is not restartable at step {i} (launch of unit {unit}) as written: {} produced datum(s) not on the host: {}",
                                missing.len(),
                                names.join(", ")
                            ),
                        )
                        .with_help(
                            "a checkpointing executor copies these out at unit exit; a plain executor cannot restart here",
                        ),
                    );
                }
                per_launch.push(LaunchRecovery {
                    step: i,
                    unit,
                    restart_set,
                    missing,
                    checkpoint_bytes,
                });
                let _ = unit;
            }
        }
        if let Step::CopyOut { data: d, .. } = *step {
            host_valid.insert(d);
        }
    }

    if let Some(budget) = opts.host_budget {
        if max_checkpoint_bytes > budget {
            diagnostics.push(
                Diagnostic::warning(
                    codes::CHECKPOINT_OVER_BUDGET,
                    None,
                    format!(
                        "minimal checkpoint set peaks at {max_checkpoint_bytes} B, over the {budget} B host budget"
                    ),
                )
                .with_help("raise the host budget or split offload units so less live data crosses unit boundaries"),
            );
        }
    }

    RecoveryReport {
        per_launch,
        max_checkpoint_bytes,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::UnitView;
    use gpuflow_graph::{DataDesc, DataKind, Graph, OpKind};

    /// in → [u0] → mid → [u1] → out, with `mid` never copied out.
    fn chain() -> (Graph, PlanView) {
        let mut g = Graph::new();
        let input = g.add_data(DataDesc::new("in", 16, 16, DataKind::Input));
        let mid = g.add_data(DataDesc::new("mid", 16, 16, DataKind::Temporary));
        let out = g.add_data(DataDesc::new("out", 16, 16, DataKind::Output));
        g.add_op("f", OpKind::Identity, vec![input], mid).unwrap();
        g.add_op("g", OpKind::Identity, vec![mid], out).unwrap();
        let device = 0;
        let view = PlanView {
            units: vec![
                UnitView {
                    inputs: vec![input],
                    outputs: vec![mid],
                },
                UnitView {
                    inputs: vec![mid],
                    outputs: vec![out],
                },
            ],
            unit_device: vec![0, 0],
            pinned_host: vec![],
            steps: vec![
                Step::CopyIn {
                    device,
                    data: input,
                },
                Step::Launch(0),
                Step::Free {
                    device,
                    data: input,
                },
                Step::Launch(1),
                Step::Free { device, data: mid },
                Step::CopyOut { device, data: out },
                Step::Free { device, data: out },
            ],
        };
        (g, view)
    }

    #[test]
    fn uncheckpointed_intermediate_trips_gf0040() {
        let (g, view) = chain();
        let report = analyze_recovery(&g, &view, RecoveryCheckOptions::default());
        assert!(!report.fully_recoverable());
        // Unit 0 needs nothing produced; unit 1 needs `mid`.
        assert_eq!(report.per_launch.len(), 2);
        assert!(report.per_launch[0].restart_set.is_empty());
        assert_eq!(report.per_launch[0].checkpoint_bytes, 0);
        assert_eq!(report.per_launch[1].restart_set.len(), 1);
        assert_eq!(report.per_launch[1].missing.len(), 1);
        assert_eq!(report.per_launch[1].checkpoint_bytes, 16 * 16 * 4);
        assert_eq!(report.max_checkpoint_bytes, 16 * 16 * 4);
        let d = &report.diagnostics;
        assert!(d.iter().any(|x| x.code == codes::NOT_RECOVERABLE
            && x.message.contains("mid")
            && x.location == Some(Location::Step(3))));
    }

    #[test]
    fn copying_the_intermediate_out_restores_recoverability() {
        let (g, mut view) = chain();
        // Copy `mid` out right after it is produced.
        let mid = view.units[0].outputs[0];
        view.steps.insert(
            2,
            Step::CopyOut {
                device: 0,
                data: mid,
            },
        );
        let report = analyze_recovery(&g, &view, RecoveryCheckOptions::default());
        assert!(report.fully_recoverable(), "{:?}", report.diagnostics);
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code != codes::NOT_RECOVERABLE));
        // The restart set is unchanged — only `missing` shrinks.
        assert_eq!(report.per_launch[1].restart_set.len(), 1);
        assert!(report.per_launch[1].missing.is_empty());
    }

    #[test]
    fn budget_and_retry_diagnostics() {
        let (g, view) = chain();
        let report = analyze_recovery(
            &g,
            &view,
            RecoveryCheckOptions {
                max_attempts: Some(0),
                host_budget: Some(100),
            },
        );
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::RETRY_UNBOUNDED));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::CHECKPOINT_OVER_BUDGET));
        // A generous budget and a bounded policy are clean.
        let ok = analyze_recovery(
            &g,
            &view,
            RecoveryCheckOptions {
                max_attempts: Some(6),
                host_budget: Some(1 << 20),
            },
        );
        assert!(ok
            .diagnostics
            .iter()
            .all(|d| d.code != codes::RETRY_UNBOUNDED && d.code != codes::CHECKPOINT_OVER_BUDGET));
    }
}
