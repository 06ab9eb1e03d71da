//! Execution plans: the framework's output artifact.
//!
//! A plan is the "optimal execution plan for template" of the paper's
//! Fig. 4 — the exact sequence of host→device copies, kernel launches
//! (offload units), device→host copies, and device frees. There is one
//! plan type for every target: each transfer and free names its device
//! and each unit has an assigned device, so a single-GPU plan is simply
//! the plan of a one-device cluster (every device index is `0`). Plans
//! are statically validated against precedence, residency and
//! memory-capacity invariants before anything executes.
//!
//! Validation and statistics are both produced by the residency-dataflow
//! engine of `gpuflow-verify` ([`ExecutionPlan::analyze_devices`]): one
//! forward walk checks every invariant *and* computes the transfer
//! numbers, so the semantics the validator enforces and the costs the
//! reports quote can never drift apart. [`validate_plan`] and
//! [`ExecutionPlan::stats`] are thin views over that engine.

use gpuflow_graph::{DataId, Graph};
use gpuflow_verify::{
    analyze_plan, certify_concurrency_streams, ConcurrencyReport, Diagnostic, LaneModel, Location,
    PlanAnalysis, PlanView,
};

pub use gpuflow_verify::{PlanStats, Step};

use crate::error::FrameworkError;
use crate::partition::OffloadUnit;
use crate::streams::StreamSchedule;

/// A complete execution plan over a (possibly split) operator graph, for
/// one device or a cluster.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// The offload units, indexed by [`Step::Launch`].
    pub units: Vec<OffloadUnit>,
    /// Device each unit launches on (parallel to `units`).
    pub unit_device: Vec<usize>,
    /// The global step sequence (interleaved across devices).
    pub steps: Vec<Step>,
    /// Produced data already valid on the host before the plan starts
    /// (failover replanning pins a completed prefix's results here).
    /// Empty for ordinary plans.
    pub pinned_host: Vec<DataId>,
    /// Stream/event annotation from the stream-aware list scheduler
    /// ([`crate::streams`]); `None` means the classic serial discipline
    /// (one compute stream, ordering implied by plan order).
    pub streams: Option<StreamSchedule>,
}

impl ExecutionPlan {
    /// A serial plan whose every unit runs on device `0` — what the
    /// single-GPU planners emit.
    pub fn single_device(units: Vec<OffloadUnit>, steps: Vec<Step>) -> Self {
        ExecutionPlan {
            unit_device: vec![0; units.len()],
            units,
            steps,
            pinned_host: Vec::new(),
            streams: None,
        }
    }

    /// Number of devices the plan launches on (at least one).
    pub fn devices(&self) -> usize {
        self.unit_device.iter().max().map_or(1, |&d| d + 1)
    }

    /// Number of operators each of `n` devices launches.
    pub fn ops_per_device(&self, n: usize) -> Vec<usize> {
        let mut counts = vec![0; n];
        for (unit, &dev) in self.units.iter().zip(&self.unit_device) {
            counts[dev] += unit.ops.len();
        }
        counts
    }

    /// The engine-neutral view of this plan consumed by `gpuflow-verify`:
    /// per-unit external inputs/outputs beside the plan's own steps and
    /// placement, which it borrows. Its two arrays are sized once from an
    /// upper bound (every input and output of every operator), so the
    /// view allocates the same few times however many units the plan has.
    pub fn view(&self, g: &Graph) -> PlanView<'_> {
        let io = self
            .units
            .iter()
            .flat_map(|u| &u.ops)
            .map(|&o| g.op(o).inputs.len() + g.op(o).outputs.len())
            .sum();
        let mut view = PlanView::new(&self.unit_device, &self.steps, &self.pinned_host, io);
        for u in &self.units {
            view.push_unit(u.external_inputs(g), u.outputs(g));
        }
        view
    }

    /// Run the full static analyzer over this plan against per-device
    /// `capacities`: every validity invariant, transfer statistics, and
    /// (optionally) efficiency lints.
    pub fn analyze_devices(&self, g: &Graph, capacities: &[u64], lints: bool) -> PlanAnalysis {
        analyze_plan(g, &self.view(g), capacities, lints)
    }

    /// [`ExecutionPlan::analyze_devices`] for a single-GPU plan.
    // Survives as an adapter: the one-capacity form is what every
    // single-device caller (and perf/src/layers.rs) has to hand.
    pub fn analyze(&self, g: &Graph, memory_bytes: u64, lints: bool) -> PlanAnalysis {
        self.analyze_devices(g, &[memory_bytes], lints)
    }

    /// Compute transfer statistics without executing.
    pub fn stats(&self, g: &Graph) -> PlanStats {
        self.analyze_devices(g, &vec![u64::MAX; self.devices()], false)
            .stats
    }

    /// Bytes crossing the bus (both directions) — each staged
    /// inter-device copy counts twice, once per leg, exactly as the fabric
    /// sees it.
    pub fn bus_bytes(&self, g: &Graph) -> u64 {
        self.steps
            .iter()
            .map(|s| match *s {
                Step::CopyIn { data, .. } | Step::CopyOut { data, .. } => g.data(data).bytes(),
                _ => 0,
            })
            .sum()
    }

    /// Run the concurrency certifier over this plan: build the
    /// happens-before DAG for its lane decomposition — one compute lane
    /// per device (per stream, for plans annotated by the stream
    /// scheduler) racing the two DMA channels — and prove every pair of
    /// conflicting accesses ordered (`GF005x` diagnostics on failure, the
    /// `GF0056` certificate note on success). On a multi-stream plan each
    /// compute stream is its own program lane, so cross-stream data
    /// dependencies must be covered by explicit happens-before edges. See
    /// `docs/concurrency.md` and `docs/streams.md`.
    pub fn certify(&self, g: &Graph) -> ConcurrencyReport {
        self.certify_view(g, &self.view(g))
    }

    /// The residency analysis against per-device `capacities` and the
    /// concurrency certificate, both from one view of the plan. Unlike
    /// the fail-fast check `validate_plan` applies, the certifier runs
    /// even when the analysis found errors, so a report can list both.
    pub fn check_devices(
        &self,
        g: &Graph,
        capacities: &[u64],
    ) -> (PlanAnalysis, ConcurrencyReport) {
        let view = self.view(g);
        let analysis = analyze_plan(g, &view, capacities, false);
        (analysis, self.certify_view(g, &view))
    }

    fn certify_view(&self, g: &Graph, view: &PlanView) -> ConcurrencyReport {
        let (unit_stream, streams) = match &self.streams {
            Some(s) => (s.unit_stream.as_slice(), s.num_streams.max(1)),
            None => (&[][..], 1),
        };
        let lanes = LaneModel {
            devices: self.devices(),
            streams,
        };
        certify_concurrency_streams(g, view, &lanes, unit_stream)
    }

    /// Run the recoverability pass: per-launch minimal restart sets and
    /// the `GF004x` diagnostics (see `gpuflow_verify::recover`). The
    /// resilient executor consults the same report to decide what to
    /// checkpoint at each offload-unit exit.
    pub fn recovery_report(
        &self,
        g: &Graph,
        opts: gpuflow_verify::RecoveryCheckOptions,
    ) -> gpuflow_verify::RecoveryReport {
        gpuflow_verify::analyze_recovery(g, &self.view(g), opts)
    }

    /// Number of evictions: `Free` steps whose datum is uploaded again to
    /// the same device by a later `CopyIn` (the transfer scheduler spilled
    /// it to make room, as opposed to a final dead-data free).
    pub fn evictions(&self) -> usize {
        // The bitmap is sized from the steps themselves: the plan alone
        // does not know how many data the graph has.
        let (mut devices, mut data) = (0, 0);
        for step in &self.steps {
            if let Step::CopyIn { device, data: d } | Step::Free { device, data: d } = *step {
                devices = devices.max(device + 1);
                data = data.max(d.index() + 1);
            }
        }
        // One backward pass: a Free is an eviction iff a CopyIn of the
        // same (device, data) has been seen behind it.
        let mut reloaded = vec![0u64; (devices * data).div_ceil(64)];
        let mut evictions = 0;
        for step in self.steps.iter().rev() {
            match *step {
                Step::CopyIn { device, data: d } => {
                    let bit = device * data + d.index();
                    reloaded[bit / 64] |= 1 << (bit % 64);
                }
                Step::Free { device, data: d } => {
                    let bit = device * data + d.index();
                    evictions += (reloaded[bit / 64] >> (bit % 64)) as usize & 1;
                }
                Step::CopyOut { .. } | Step::Launch(_) => {}
            }
        }
        evictions
    }

    /// Render the plan as one step per line (the textual Fig. 6(b)). A
    /// plan that spans several devices tags every line with its device.
    pub fn render(&self, g: &Graph) -> String {
        use std::fmt::Write as _;
        let tagged = self.devices() > 1;
        let mut s = String::new();
        for step in &self.steps {
            let (verb, device, what) = match *step {
                Step::CopyIn { device, data } => ("H->D", device, g.data(data).name.clone()),
                Step::CopyOut { device, data } => ("D->H", device, g.data(data).name.clone()),
                Step::Free { device, data } => ("FREE", device, g.data(data).name.clone()),
                Step::Launch(u) => {
                    let names: Vec<&str> = self.units[u]
                        .ops
                        .iter()
                        .map(|&o| g.op(o).name.as_str())
                        .collect();
                    ("EXEC", self.unit_device[u], names.join(" ; "))
                }
            };
            let _ = if tagged {
                writeln!(s, "{verb}  dev{device}  {what}")
            } else {
                writeln!(s, "{verb}  {what}")
            };
        }
        s
    }
}

/// The one verdict [`validate_plan`], `Framework::compile` and the
/// planners' debug self-check all apply, over one view of the plan: the
/// residency analysis against `capacities`, then — a serially-valid plan
/// must additionally be race-free on the concurrent lanes — the
/// concurrency certifier. Returns the analysis (for its statistics) and
/// the certificate, or the first error in fail-fast form.
pub(crate) fn check_plan(
    g: &Graph,
    plan: &ExecutionPlan,
    capacities: &[u64],
) -> Result<(PlanAnalysis, ConcurrencyReport), String> {
    let view = plan.view(g);
    let analysis = analyze_plan(g, &view, capacities, false);
    // The fail-fast rendering of a finding: `step N: message`.
    let message = |d: &Diagnostic| match d.location {
        Some(Location::Step(i)) => format!("step {i}: {}", d.message),
        _ => d.message.clone(),
    };
    if let Some(d) = analysis.first_error() {
        return Err(message(d));
    }
    let certificate = plan.certify_view(g, &view);
    match certificate.first_error() {
        Some(d) => Err(message(d)),
        None => Ok((analysis, certificate)),
    }
}

/// Validate a plan against `g` and a device memory of `memory_bytes`:
///
/// * every step references existing data / units (all four step kinds);
/// * `CopyIn` only moves data that is currently valid on the host;
/// * every unit's external inputs are device-resident at launch;
/// * device occupancy never exceeds `memory_bytes`;
/// * every unit launches exactly once, in dependency order;
/// * every graph output is valid on the host when the plan ends;
/// * the schedule is race-free on the concurrent lanes.
///
/// This is a fail-fast view over [`ExecutionPlan::analyze`]: the first
/// error diagnostic (in step order) becomes the
/// [`FrameworkError::InvalidPlan`] message. Use `analyze` directly for
/// the complete diagnostic list.
pub fn validate_plan(
    g: &Graph,
    plan: &ExecutionPlan,
    memory_bytes: u64,
) -> Result<(), FrameworkError> {
    check_plan(g, plan, &[memory_bytes])
        .map(|_| ())
        .map_err(FrameworkError::InvalidPlan)
}

/// Debug/test guard used by every planner: assert that a freshly produced
/// plan carries no error diagnostics against the per-device `budgets` and
/// certifies race-free. Compiled to nothing in release builds (the
/// planners are trusted there; `validate_plan` remains the explicit
/// check).
#[cfg(debug_assertions)]
pub(crate) fn debug_check_plan(g: &Graph, plan: &ExecutionPlan, budgets: &[u64], planner: &str) {
    if let Err(msg) = check_plan(g, plan, budgets) {
        panic!("{planner} produced an invalid plan: {msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_graph::{DataKind, OpKind};
    use gpuflow_verify::engine::codes;
    use gpuflow_verify::Severity;

    /// in -> t0 -> mid -> t1 -> out
    fn chain2() -> Graph {
        let mut g = Graph::new();
        let a = g.add("in", 8, 8, DataKind::Input);
        let m = g.add("mid", 8, 8, DataKind::Temporary);
        let o = g.add("out", 8, 8, DataKind::Output);
        g.add_op("t0", OpKind::Tanh, vec![a], m).unwrap();
        g.add_op("t1", OpKind::Tanh, vec![m], o).unwrap();
        g
    }

    fn units2(g: &Graph) -> Vec<OffloadUnit> {
        g.op_ids().map(|o| OffloadUnit { ops: vec![o] }).collect()
    }

    fn cin(data: DataId) -> Step {
        Step::CopyIn { device: 0, data }
    }

    fn cout(data: DataId) -> Step {
        Step::CopyOut { device: 0, data }
    }

    fn free(data: DataId) -> Step {
        Step::Free { device: 0, data }
    }

    fn good_plan(g: &Graph) -> ExecutionPlan {
        let d = |i: u32| DataId(i);
        ExecutionPlan::single_device(
            units2(g),
            vec![
                cin(d(0)),
                Step::Launch(0),
                free(d(0)),
                Step::Launch(1),
                free(d(1)),
                cout(d(2)),
                free(d(2)),
            ],
        )
    }

    #[test]
    fn valid_plan_passes_and_stats_add_up() {
        let g = chain2();
        let p = good_plan(&g);
        validate_plan(&g, &p, 3 * 64 * 4).unwrap();
        let s = p.stats(&g);
        assert_eq!(s.floats_in, 64);
        assert_eq!(s.floats_out, 64);
        assert_eq!(s.total_floats(), 128);
        assert_eq!(s.launches, 2);
        assert_eq!(s.copies_in, 1);
        assert_eq!(s.copies_out, 1);
        assert_eq!(s.peak_bytes, 2 * 64 * 4);
    }

    #[test]
    fn memory_overflow_detected() {
        let g = chain2();
        let p = good_plan(&g);
        let err = validate_plan(&g, &p, 64 * 4).unwrap_err();
        assert!(err.to_string().contains("occupancy"));
    }

    #[test]
    fn missing_input_detected() {
        let g = chain2();
        let mut p = good_plan(&g);
        p.steps.remove(0); // never copy `in`
        let err = validate_plan(&g, &p, u64::MAX).unwrap_err();
        assert!(err.to_string().contains("not resident"), "{err}");
    }

    #[test]
    fn copyin_requires_host_validity() {
        let g = chain2();
        // `mid` is never produced.
        let p = ExecutionPlan::single_device(units2(&g), vec![cin(DataId(1))]);
        let err = validate_plan(&g, &p, u64::MAX).unwrap_err();
        assert!(err.to_string().contains("not valid on the host"), "{err}");
    }

    #[test]
    fn output_must_reach_host() {
        let g = chain2();
        let mut p = good_plan(&g);
        p.steps.retain(|s| !matches!(s, Step::CopyOut { .. }));
        let err = validate_plan(&g, &p, u64::MAX).unwrap_err();
        assert!(err.to_string().contains("not on the host"), "{err}");
    }

    #[test]
    fn double_launch_and_missing_launch_detected() {
        let g = chain2();
        let mut p = good_plan(&g);
        p.steps.push(Step::Launch(0));
        assert!(validate_plan(&g, &p, u64::MAX).is_err());
        let p2 = ExecutionPlan::single_device(
            units2(&g),
            vec![cin(DataId(0)), Step::Launch(0), cout(DataId(1))],
        );
        let err = validate_plan(&g, &p2, u64::MAX).unwrap_err();
        assert!(err.to_string().contains("never launched"), "{err}");
    }

    #[test]
    fn precedence_violation_detected() {
        let g = chain2();
        let p = ExecutionPlan::single_device(units2(&g), vec![cin(DataId(0)), Step::Launch(1)]);
        let err = validate_plan(&g, &p, u64::MAX).unwrap_err();
        assert!(err.to_string().contains("not resident"), "{err}");
    }

    #[test]
    fn render_lists_steps() {
        let g = chain2();
        let p = good_plan(&g);
        let r = p.render(&g);
        assert!(r.contains("H->D  in"));
        assert!(r.contains("EXEC  t0"));
        assert!(r.contains("D->H  out"));
        assert!(r.contains("FREE  mid"));
        assert_eq!(r.lines().count(), p.steps.len());
    }

    #[test]
    fn evictions_count_frees_reloaded_on_the_same_device() {
        let g = chain2();
        let d = DataId;
        let mut p = good_plan(&g);
        assert_eq!(p.evictions(), 0, "final frees are not evictions");
        // Spill and reload `in` twice on device 0; free `mid` on device 1,
        // where only `out` is uploaded afterwards.
        p.steps.splice(
            3..3,
            [
                cin(d(0)),
                free(d(0)),
                Step::Free {
                    device: 1,
                    data: d(1),
                },
                Step::CopyIn {
                    device: 1,
                    data: d(2),
                },
                cin(d(0)),
            ],
        );
        assert_eq!(p.evictions(), 2);
    }

    #[test]
    fn double_free_detected() {
        let g = chain2();
        let p = ExecutionPlan::single_device(
            units2(&g),
            vec![cin(DataId(0)), free(DataId(0)), free(DataId(0))],
        );
        assert!(validate_plan(&g, &p, u64::MAX).is_err());
    }

    #[test]
    fn out_of_range_ids_rejected_for_every_step_kind() {
        let g = chain2();
        let bogus = DataId(99);
        for step in [cin(bogus), cout(bogus), free(bogus)] {
            let p = ExecutionPlan::single_device(units2(&g), vec![step]);
            let err = validate_plan(&g, &p, u64::MAX).unwrap_err();
            assert!(err.to_string().contains("unknown data"), "{step:?}: {err}");
        }
        let p = ExecutionPlan::single_device(units2(&g), vec![Step::Launch(99)]);
        let err = validate_plan(&g, &p, u64::MAX).unwrap_err();
        assert!(err.to_string().contains("unknown unit"), "{err}");
    }

    #[test]
    fn freeing_a_live_buffer_is_a_use_after_free() {
        let g = chain2();
        let mut p = good_plan(&g);
        // Free `mid` before the launch that reads it.
        p.steps.swap(3, 4);
        let err = validate_plan(&g, &p, u64::MAX).unwrap_err();
        assert!(err.to_string().contains("not resident"), "{err}");
        // The analyzer pins it to the use-after-free code GF0017.
        let a = p.analyze(&g, u64::MAX, false);
        assert_eq!(a.first_error().unwrap().code, codes::INPUT_NOT_RESIDENT);
    }

    /// `validate_plan` and `analyze` are views over one engine: they must
    /// agree on validity, and the fail-fast message must be the first
    /// error diagnostic.
    #[test]
    fn validator_and_analyzer_agree() {
        let g = chain2();
        let mut variants: Vec<ExecutionPlan> = vec![good_plan(&g)];
        // Every single-step deletion of the good plan.
        for i in 0..good_plan(&g).steps.len() {
            let mut p = good_plan(&g);
            p.steps.remove(i);
            variants.push(p);
        }
        // Every adjacent swap.
        for i in 0..good_plan(&g).steps.len() - 1 {
            let mut p = good_plan(&g);
            p.steps.swap(i, i + 1);
            variants.push(p);
        }
        // A duplicated step each.
        for i in 0..good_plan(&g).steps.len() {
            let mut p = good_plan(&g);
            let s = p.steps[i];
            p.steps.insert(i, s);
            variants.push(p);
        }
        for (k, p) in variants.iter().enumerate() {
            for mem in [u64::MAX, 3 * 64 * 4, 64 * 4] {
                let v = validate_plan(&g, p, mem);
                let a = p.analyze(&g, mem, false);
                assert_eq!(v.is_ok(), !a.has_errors(), "variant {k} mem {mem}");
                if let Err(e) = v {
                    let d = a.first_error().unwrap();
                    assert_eq!(d.severity, Severity::Error);
                    assert!(
                        e.to_string().contains(&d.message),
                        "variant {k}: '{e}' vs '{}'",
                        d.message
                    );
                }
            }
        }
    }
}
