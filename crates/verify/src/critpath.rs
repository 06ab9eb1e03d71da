//! Critical-path extraction over the happens-before DAG.
//!
//! The certifier's [`HbGraph`] records every
//! synchronization a concurrent executor enforces; given per-step
//! durations from a simulator, the longest-duration path through that
//! DAG is the *critical path*: the dependency chain no amount of extra
//! engines, streams, or devices can compress. Its length is therefore a
//! makespan **lower bound** for any schedule honouring the plan's
//! happens-before edges — `gpuflow profile` reports the path, and a
//! property test pins `length <= makespan` across every bundled
//! template (docs/profiling.md).
//!
//! Step order is a topological order of the DAG (edges only point
//! forward), so one forward sweep over the sealed graph's predecessor
//! rows computes the longest path; the reachability closure is not
//! needed.

use crate::hb::{EdgeKind, HbGraph};

/// Diagnostic codes for the profiler family (emitted by the
/// `gpuflow profile` tooling built on this module, catalogued in
/// `docs/diagnostics.md` via the master registry).
pub mod codes {
    /// Note: the what-if advisor's first-order estimate diverged from a
    /// replanned measurement by more than the CI tolerance.
    pub const ADVISOR_DIVERGENCE: &str = "GF0061";
}

/// The longest-duration dependency chain through a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Step indices along the path, in issue order.
    pub steps: Vec<usize>,
    /// Total duration of the steps on the path, seconds.
    pub length: f64,
}

/// The longest-duration path through the sealed graph `hb`, where
/// `durations[i]` is the time step `i` occupies its engine (0 for
/// instantaneous steps such as `Free`). Panics unless
/// `durations.len() == hb.len()`. Of two equally long paths into a step
/// the one through its first-added predecessor wins.
pub fn critical_path(hb: &HbGraph, durations: &[f64]) -> CriticalPath {
    critical_path_over(hb, durations, |_| true)
}

/// [`critical_path`] restricted to *dependency* edges — `Transfer` and
/// `Lifetime`, not same-lane `Program` order. Program edges encode a
/// resource's issue-order FIFO, which an out-of-order arbiter (the
/// cluster's backfilling shared bus) is free to relax; the path over
/// dependency edges alone is a makespan lower bound for **any** arbiter,
/// because every kept edge is a data or lifetime wait every executor
/// enforces.
pub fn dependency_critical_path(hb: &HbGraph, durations: &[f64]) -> CriticalPath {
    critical_path_over(hb, durations, |kind| kind != EdgeKind::Program)
}

/// The longest-duration path over the subgraph of `hb` whose edges
/// satisfy `include`. Dropping edges only weakens (never invalidates)
/// the lower bound.
pub fn critical_path_over(
    hb: &HbGraph,
    durations: &[f64],
    include: impl Fn(EdgeKind) -> bool,
) -> CriticalPath {
    assert_eq!(
        durations.len(),
        hb.len(),
        "one duration per happens-before node"
    );
    let n = hb.len();
    if n == 0 {
        return CriticalPath {
            steps: Vec::new(),
            length: 0.0,
        };
    }
    // dist[i] = longest-duration path ending at (and including) step i;
    // best_pred[i] reconstructs it.
    let mut dist = vec![0.0f64; n];
    let mut best_pred: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        let mut best = 0.0f64;
        for &(p, kind) in hb.preds(i) {
            let p = p as usize;
            if include(kind) && dist[p] > best {
                best = dist[p];
                best_pred[i] = Some(p);
            }
        }
        dist[i] = best + durations[i];
    }
    let mut tail = 0usize;
    for i in 1..n {
        if dist[i] > dist[tail] {
            tail = i;
        }
    }
    let mut steps = vec![tail];
    while let Some(p) = best_pred[*steps.last().unwrap()] {
        steps.push(p);
    }
    steps.reverse();
    CriticalPath {
        steps,
        length: dist[tail],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hb::tests::certifier_shaped_dag;
    use proptest::prelude::*;
    use proptest::TestRng;

    #[test]
    fn longest_path_wins_over_step_count() {
        // 0 -> 1 -> 3 (durations 1 + 1 + 1 = 3)
        // 0 -> 2 -> 3 with a heavy middle (1 + 5 + 1 = 7) must win.
        let mut hb = HbGraph::new(4);
        hb.add_edge(0, 1, EdgeKind::Program);
        hb.add_edge(1, 3, EdgeKind::Transfer);
        hb.add_edge(0, 2, EdgeKind::Program);
        hb.add_edge(2, 3, EdgeKind::Transfer);
        hb.seal();
        let cp = critical_path(&hb, &[1.0, 1.0, 5.0, 1.0]);
        assert_eq!(cp.steps, vec![0, 2, 3]);
        assert!((cp.length - 7.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_heavy_node_is_its_own_path() {
        let mut hb = HbGraph::new(3);
        hb.add_edge(0, 1, EdgeKind::Program);
        hb.seal();
        let cp = critical_path(&hb, &[1.0, 1.0, 9.0]);
        assert_eq!(cp.steps, vec![2]);
        assert!((cp.length - 9.0).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_steps_ride_along() {
        // A Free (duration 0) between two unit-duration steps neither
        // lengthens nor breaks the chain.
        let mut hb = HbGraph::new(3);
        hb.add_edge(0, 1, EdgeKind::Lifetime);
        hb.add_edge(1, 2, EdgeKind::Lifetime);
        hb.seal();
        let cp = critical_path(&hb, &[1.0, 0.0, 1.0]);
        assert_eq!(cp.steps, vec![0, 1, 2]);
        assert!((cp.length - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dependency_path_ignores_program_order() {
        // 0 -> 1 -> 2 by program order on one lane, but only 0 -> 2 is a
        // data dependency: an out-of-order arbiter could run 1 first, so
        // the dependency bound must skip 1.
        let mut hb = HbGraph::new(3);
        hb.add_edge(0, 1, EdgeKind::Program);
        hb.add_edge(1, 2, EdgeKind::Program);
        hb.add_edge(0, 2, EdgeKind::Transfer);
        hb.seal();
        let full = critical_path(&hb, &[1.0, 1.0, 1.0]);
        assert_eq!(full.steps, vec![0, 1, 2]);
        let dep = dependency_critical_path(&hb, &[1.0, 1.0, 1.0]);
        assert_eq!(dep.steps, vec![0, 2]);
        assert!((dep.length - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_reports_empty_path() {
        let hb = HbGraph::new(0);
        let cp = critical_path(&hb, &[]);
        assert!(cp.steps.is_empty());
        assert_eq!(cp.length, 0.0);
    }

    /// The per-step predecessor vectors the sweep once rebuilt from the
    /// edge list, kept as its oracle: the same longest-path recurrence,
    /// ties broken by the first-added predecessor.
    fn oracle(hb: &HbGraph, durations: &[f64], include: impl Fn(EdgeKind) -> bool) -> CriticalPath {
        let n = hb.len();
        if n == 0 {
            return CriticalPath {
                steps: Vec::new(),
                length: 0.0,
            };
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(from, to, kind) in hb.edges() {
            if include(kind) {
                preds[to].push(from);
            }
        }
        let mut dist = vec![0.0f64; n];
        let mut best_pred: Vec<Option<usize>> = vec![None; n];
        for i in 0..n {
            let mut best = 0.0f64;
            for &p in &preds[i] {
                if dist[p] > best {
                    best = dist[p];
                    best_pred[i] = Some(p);
                }
            }
            dist[i] = best + durations[i];
        }
        let mut tail = 0usize;
        for i in 1..n {
            if dist[i] > dist[tail] {
                tail = i;
            }
        }
        let mut steps = vec![tail];
        while let Some(p) = best_pred[*steps.last().unwrap()] {
            steps.push(p);
        }
        steps.reverse();
        CriticalPath {
            steps,
            length: dist[tail],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On certifier-shaped DAGs, with durations drawn from a few
        /// values so that equal-length paths tie, both edge filters give
        /// the oracle's steps and a bit-equal length.
        #[test]
        fn sweep_matches_the_predecessor_vector_oracle(seed in 0u64..u64::MAX) {
            let hb = certifier_shaped_dag(seed);
            let mut rng = TestRng::for_case(seed, 1);
            let durations: Vec<f64> = (0..hb.len())
                .map(|_| [0.0, 0.5, 1.0, 2.0][(rng.next_u64() % 4) as usize])
                .collect();
            let full = critical_path(&hb, &durations);
            let want = oracle(&hb, &durations, |_| true);
            prop_assert_eq!(&full.steps, &want.steps, "seed {}", seed);
            prop_assert_eq!(full.length.to_bits(), want.length.to_bits(), "seed {}", seed);
            let dep = dependency_critical_path(&hb, &durations);
            let want = oracle(&hb, &durations, |kind| kind != EdgeKind::Program);
            prop_assert_eq!(&dep.steps, &want.steps, "seed {}", seed);
            prop_assert_eq!(dep.length.to_bits(), want.length.to_bits(), "seed {}", seed);
        }
    }
}
