//! Objective minimization by iterative strengthening.
//!
//! Minimize `Σ cⱼ·litⱼ` (all `cⱼ ≥ 0`) subject to a [`PbFormula`]: solve,
//! and while satisfiable, constrain the objective to beat the incumbent and
//! re-solve. When the final solve proves UNSAT the incumbent is optimal —
//! the same loop MiniSAT+ (the paper's solver) performs.

use crate::builder::PbFormula;
use crate::constraint::{normalize, Cmp, NormalizeOutcome};
use crate::solver::{SolveResult, Solver};
use crate::types::{Lit, Var};
use std::time::{Duration, Instant};

/// Knobs for [`minimize`] and [`minimize_warm`].
#[derive(Debug, Clone, Copy)]
pub struct OptimizeOptions {
    /// Conflict budget per solver call (`None` = unbounded).
    pub max_conflicts_per_call: Option<u64>,
    /// Total conflict budget across all calls (`None` = unbounded).
    pub max_total_conflicts: Option<u64>,
    /// Wall-clock budget in milliseconds (`None` = unbounded). Checked
    /// between conflict slices, so the deadline can overshoot by one slice.
    pub max_millis: Option<u64>,
    /// A value the objective provably cannot go below. As soon as a model
    /// attains it the search stops with a proven optimum instead of adding
    /// one final (always-UNSAT) strengthening round.
    pub lower_bound: i64,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            max_conflicts_per_call: None,
            max_total_conflicts: Some(2_000_000),
            max_millis: None,
            lower_bound: 0,
        }
    }
}

/// A heuristic incumbent used to seed [`minimize_warm`].
///
/// `bound` must be the objective value of some *known-feasible* assignment:
/// the optimizer strengthens `objective ≤ bound − 1` before the first solve,
/// so a subsequent `Infeasible` means "nothing beats the incumbent" (the
/// incumbent itself is optimal), not that the formula is unsatisfiable.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Objective value of the known-feasible incumbent, if its value is
    /// comparable to the encoded objective.
    pub bound: Option<i64>,
    /// Initial branch polarities taken from the incumbent assignment; the
    /// solver's phase saving takes over after the first flip.
    pub phases: Vec<(Var, bool)>,
}

/// Aggregate search statistics for one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses deleted by database reduction.
    pub learnts_deleted: u64,
    /// Tombstoned clause slots reused for new learnt clauses.
    pub learnts_recycled: u64,
}

impl SearchStats {
    fn snapshot(s: &Solver) -> SearchStats {
        SearchStats {
            conflicts: s.conflicts,
            decisions: s.decisions,
            propagations: s.propagations,
            restarts: s.restarts,
            learnts_deleted: s.learnts_deleted,
            learnts_recycled: s.learnts_recycled,
        }
    }
}

/// Result of [`minimize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeOutcome {
    /// The formula itself is unsatisfiable.
    Infeasible,
    /// Optimum proven: best model and its objective value.
    Optimal {
        /// A model attaining the optimum.
        model: Vec<bool>,
        /// The optimal objective value.
        value: i64,
    },
    /// Budget ran out; best incumbent so far (if any).
    BudgetExhausted {
        /// Best model found before the budget ran out, if any.
        model: Option<Vec<bool>>,
        /// Its objective value (`i64::MAX` when no model was found).
        value: i64,
    },
}

impl OptimizeOutcome {
    /// The best model found, if any.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            OptimizeOutcome::Infeasible => None,
            OptimizeOutcome::Optimal { model, .. } => Some(model),
            OptimizeOutcome::BudgetExhausted { model, .. } => model.as_deref(),
        }
    }
}

/// Objective value of `model`.
pub fn objective_value(objective: &[(i64, Lit)], model: &[bool]) -> i64 {
    objective
        .iter()
        .filter(|(_, l)| l.eval(model[l.var().index()]))
        .map(|(c, _)| c)
        .sum()
}

/// Minimize `objective` subject to `formula`.
///
/// ```
/// use gpuflow_pbsat::{minimize, Cmp, OptimizeOptions, OptimizeOutcome, PbFormula};
///
/// // Cover weight >= 10 at minimum cost.
/// let mut f = PbFormula::new();
/// let items = f.new_vars(3);
/// f.add_linear(
///     &[(6, items[0].pos()), (5, items[1].pos()), (5, items[2].pos())],
///     Cmp::Ge,
///     10,
/// );
/// let cost = vec![(4, items[0].pos()), (3, items[1].pos()), (3, items[2].pos())];
/// match minimize(&f, &cost, OptimizeOptions::default()) {
///     OptimizeOutcome::Optimal { value, .. } => assert_eq!(value, 6),
///     other => panic!("{other:?}"),
/// }
/// ```
///
/// The loop is **incremental**: a single solver instance carries its
/// learnt clauses and variable activities across strengthening
/// iterations; each `objective ≤ best − 1` bound is added to the live
/// solver at decision level 0 (solving always returns there). MiniSAT+ —
/// the paper's solver — works the same way, and on the Fig. 6 formulation
/// this is several times faster than re-instantiating per bound.
pub fn minimize(
    formula: &PbFormula,
    objective: &[(i64, Lit)],
    opts: OptimizeOptions,
) -> OptimizeOutcome {
    minimize_warm(formula, objective, opts, None).0
}

/// Conflicts per slice when a wall-clock deadline is active: small enough
/// to check the clock regularly, large enough to amortize the restart.
const TIME_SLICE_CONFLICTS: u64 = 20_000;

// Add a normalized `objective <= bound` constraint to the live solver.
// Returns false when the constraint is unsatisfiable on its own or
// conflicts immediately at the top level.
fn strengthen(solver: &mut Solver, objective: &[(i64, Lit)], bound: i64) -> bool {
    for piece in normalize(objective, Cmp::Le, bound) {
        let ok = match piece {
            NormalizeOutcome::Trivial => true,
            NormalizeOutcome::Unsat => false,
            NormalizeOutcome::Clause(c) => solver.add_clause(&c),
            NormalizeOutcome::Linear(l) => solver.add_linear(l),
        };
        if !ok {
            return false;
        }
    }
    true
}

/// A progress notification emitted by [`minimize_warm_with`] as the
/// search advances, letting callers trace the anytime behaviour of the
/// strengthening loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveProgress {
    /// A new incumbent model was found.
    Incumbent {
        /// Objective value of the new incumbent.
        value: i64,
        /// Conflicts encountered when it was found.
        conflicts: u64,
        /// Branching decisions made when it was found.
        decisions: u64,
        /// Restarts performed when it was found.
        restarts: u64,
    },
}

/// [`minimize`] with an optional heuristic warm start, returning the search
/// statistics alongside the outcome.
///
/// When `warm` carries a `bound`, the search starts below it: the first
/// solve already looks for something strictly better than the incumbent.
/// **Caveat:** in that case `Infeasible` means "nothing beats the bound" —
/// the caller holds a feasible incumbent attaining it, so the incumbent is
/// the proven optimum. Pass `warm: None` (or `bound: None`) to keep the
/// plain `Infeasible` = unsatisfiable reading.
pub fn minimize_warm(
    formula: &PbFormula,
    objective: &[(i64, Lit)],
    opts: OptimizeOptions,
    warm: Option<&WarmStart>,
) -> (OptimizeOutcome, SearchStats) {
    minimize_warm_with(formula, objective, opts, warm, None)
}

/// [`minimize_warm`] with an optional progress callback, invoked from
/// inside the strengthening loop each time the incumbent improves.
pub fn minimize_warm_with(
    formula: &PbFormula,
    objective: &[(i64, Lit)],
    opts: OptimizeOptions,
    warm: Option<&WarmStart>,
    mut progress: Option<&mut dyn FnMut(SolveProgress)>,
) -> (OptimizeOutcome, SearchStats) {
    assert!(
        objective.iter().all(|&(c, _)| c >= 0),
        "objective coefficients must be non-negative"
    );
    let mut best: Option<(Vec<bool>, i64)> = None;
    let mut solver = formula.instantiate();
    let mut spent: u64 = 0;
    let mut already_spent = solver.conflicts;

    if let Some(w) = warm {
        for &(v, phase) in &w.phases {
            solver.set_phase(v, phase);
        }
        if let Some(bound) = w.bound {
            // Search strictly below the incumbent from the start.
            if !strengthen(&mut solver, objective, bound - 1) {
                return (OptimizeOutcome::Infeasible, SearchStats::snapshot(&solver));
            }
        }
    }
    let deadline = opts
        .max_millis
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let exhausted = |best: Option<(Vec<bool>, i64)>, solver: &Solver| {
        let stats = SearchStats::snapshot(solver);
        (
            OptimizeOutcome::BudgetExhausted {
                value: best.as_ref().map(|(_, v)| *v).unwrap_or(i64::MAX),
                model: best.map(|(m, _)| m),
            },
            stats,
        )
    };

    loop {
        // Budget for this call: the tighter of the per-call and remaining
        // total conflict caps, further sliced when a deadline is active so
        // the clock is checked regularly.
        let hard = match (opts.max_conflicts_per_call, opts.max_total_conflicts) {
            (Some(p), Some(t)) => Some(p.min(t.saturating_sub(spent))),
            (Some(p), None) => Some(p),
            (None, Some(t)) => Some(t.saturating_sub(spent)),
            (None, None) => None,
        };
        let (per_call, sliced) = match deadline {
            Some(_) => {
                let h = hard.unwrap_or(u64::MAX);
                (Some(h.min(TIME_SLICE_CONFLICTS)), TIME_SLICE_CONFLICTS < h)
            }
            None => (hard, false),
        };
        let result = solver.solve(per_call);
        spent += solver.conflicts - already_spent;
        already_spent = solver.conflicts;
        match result {
            SolveResult::Unsat => {
                let stats = SearchStats::snapshot(&solver);
                return match best {
                    None => (OptimizeOutcome::Infeasible, stats),
                    Some((model, value)) => (OptimizeOutcome::Optimal { model, value }, stats),
                };
            }
            SolveResult::Unknown => {
                // When only the time slice (not a caller cap) was binding
                // and the deadline has not passed, keep searching.
                let deadline_ok = deadline.is_none_or(|d| Instant::now() < d);
                if sliced && deadline_ok {
                    continue;
                }
                return exhausted(best, &solver);
            }
            SolveResult::Sat(model) => {
                let value = objective_value(objective, &model);
                best = Some((model, value));
                if let Some(cb) = progress.as_deref_mut() {
                    cb(SolveProgress::Incumbent {
                        value,
                        conflicts: solver.conflicts,
                        decisions: solver.decisions,
                        restarts: solver.restarts,
                    });
                }
                if value <= opts.lower_bound.max(0) {
                    // A model at the structural lower bound (or at zero,
                    // with non-negative coefficients) cannot be beaten.
                    let (model, value) = best.unwrap();
                    let stats = SearchStats::snapshot(&solver);
                    return (OptimizeOutcome::Optimal { model, value }, stats);
                }
                // Strengthen: objective ≤ value − 1, on the live solver.
                if !strengthen(&mut solver, objective, value - 1) {
                    let (model, value) = best.unwrap();
                    let stats = SearchStats::snapshot(&solver);
                    return (OptimizeOutcome::Optimal { model, value }, stats);
                }
            }
        }
        if let Some(t) = opts.max_total_conflicts {
            if spent >= t {
                return exhausted(best, &solver);
            }
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return exhausted(best, &solver);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_optimum_matches_dp() {
        // Choose items to cover weight ≥ 10 while minimizing cost.
        // items: (cost, weight): (5,4) (4,3) (3,3) (6,5) (2,2)
        let costs = [5i64, 4, 3, 6, 2];
        let weights = [4i64, 3, 3, 5, 2];
        let mut f = PbFormula::new();
        let xs = f.new_vars(5);
        let wterms: Vec<(i64, Lit)> = xs.iter().zip(weights).map(|(v, w)| (w, v.pos())).collect();
        f.add_linear(&wterms, Cmp::Ge, 10);
        let obj: Vec<(i64, Lit)> = xs.iter().zip(costs).map(|(v, c)| (c, v.pos())).collect();
        let out = minimize(&f, &obj, OptimizeOptions::default());

        // Brute-force optimum.
        let mut best = i64::MAX;
        for bits in 0u32..32 {
            let w: i64 = (0..5)
                .filter(|i| bits >> i & 1 == 1)
                .map(|i| weights[i])
                .sum();
            if w >= 10 {
                let c: i64 = (0..5)
                    .filter(|i| bits >> i & 1 == 1)
                    .map(|i| costs[i])
                    .sum();
                best = best.min(c);
            }
        }
        match out {
            OptimizeOutcome::Optimal { value, model } => {
                assert_eq!(value, best);
                assert_eq!(objective_value(&obj, &model), value);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infeasible_reported() {
        let mut f = PbFormula::new();
        let x = f.new_var();
        f.add_unit(x.pos());
        f.add_unit(x.neg());
        assert_eq!(
            minimize(&f, &[(1, x.pos())], OptimizeOptions::default()),
            OptimizeOutcome::Infeasible
        );
    }

    #[test]
    fn zero_objective_short_circuits() {
        let mut f = PbFormula::new();
        let xs = f.new_vars(3);
        f.add_clause(&[xs[0].pos(), xs[1].pos()]);
        // Objective only counts x2, which can be false.
        let out = minimize(&f, &[(7, xs[2].pos())], OptimizeOptions::default());
        match out {
            OptimizeOutcome::Optimal { value, model } => {
                assert_eq!(value, 0);
                assert!(!model[xs[2].index()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn weighted_cover_optimum() {
        // Cover constraint x0+x1 ≥ 1, x1+x2 ≥ 1, x2+x0 ≥ 1 with weights
        // 1, 10, 1: optimum picks x0 and x2 (cost 2), never x1.
        let mut f = PbFormula::new();
        let xs = f.new_vars(3);
        f.add_clause(&[xs[0].pos(), xs[1].pos()]);
        f.add_clause(&[xs[1].pos(), xs[2].pos()]);
        f.add_clause(&[xs[2].pos(), xs[0].pos()]);
        let obj = vec![(1, xs[0].pos()), (10, xs[1].pos()), (1, xs[2].pos())];
        match minimize(&f, &obj, OptimizeOptions::default()) {
            OptimizeOutcome::Optimal { value, model } => {
                assert_eq!(value, 2);
                assert!(model[xs[0].index()] && model[xs[2].index()] && !model[xs[1].index()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_keeps_incumbent() {
        // An easy-to-satisfy but large-ish instance with a 0 total budget:
        // the first solve may finish without conflicts (budget is about
        // conflicts, not decisions), so accept either outcome but require
        // consistency.
        let mut f = PbFormula::new();
        let xs = f.new_vars(6);
        for w in xs.windows(2) {
            f.add_clause(&[w[0].pos(), w[1].pos()]);
        }
        let obj: Vec<(i64, Lit)> = xs.iter().map(|v| (1, v.pos())).collect();
        let out = minimize(
            &f,
            &obj,
            OptimizeOptions {
                max_conflicts_per_call: Some(0),
                max_total_conflicts: Some(0),
                ..OptimizeOptions::default()
            },
        );
        match out {
            OptimizeOutcome::BudgetExhausted { .. } | OptimizeOutcome::Optimal { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_objective_rejected() {
        let mut f = PbFormula::new();
        let x = f.new_var();
        minimize(&f, &[(-1, x.pos())], OptimizeOptions::default());
    }

    #[test]
    fn warm_bound_at_optimum_proves_without_model() {
        // Incumbent value 6 is the true optimum of the doc-example cover:
        // strengthening to ≤ 5 makes the formula UNSAT, which the warm
        // reading maps back to "incumbent optimal".
        let mut f = PbFormula::new();
        let items = f.new_vars(3);
        f.add_linear(
            &[
                (6, items[0].pos()),
                (5, items[1].pos()),
                (5, items[2].pos()),
            ],
            Cmp::Ge,
            10,
        );
        let cost = vec![
            (4, items[0].pos()),
            (3, items[1].pos()),
            (3, items[2].pos()),
        ];
        let warm = WarmStart {
            bound: Some(6),
            phases: vec![(items[1], true), (items[2], true), (items[0], false)],
        };
        let (out, stats) = minimize_warm(&f, &cost, OptimizeOptions::default(), Some(&warm));
        assert_eq!(out, OptimizeOutcome::Infeasible);
        assert!(stats.conflicts < 1_000);
    }

    #[test]
    fn warm_bound_above_optimum_still_finds_it() {
        let mut f = PbFormula::new();
        let items = f.new_vars(3);
        f.add_linear(
            &[
                (6, items[0].pos()),
                (5, items[1].pos()),
                (5, items[2].pos()),
            ],
            Cmp::Ge,
            10,
        );
        let cost = vec![
            (4, items[0].pos()),
            (3, items[1].pos()),
            (3, items[2].pos()),
        ];
        let warm = WarmStart {
            bound: Some(7), // e.g. the {x0, x1} cover
            phases: vec![(items[0], true), (items[1], true)],
        };
        let (out, _) = minimize_warm(&f, &cost, OptimizeOptions::default(), Some(&warm));
        match out {
            OptimizeOutcome::Optimal { value, .. } => assert_eq!(value, 6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lower_bound_short_circuits_final_unsat_round() {
        // Minimum of x0+x1 subject to x0+x1 ≥ 1 is 1; telling the optimizer
        // that 1 is unbeatable lets it stop at the first model of value 1.
        let mut f = PbFormula::new();
        let xs = f.new_vars(2);
        f.add_clause(&[xs[0].pos(), xs[1].pos()]);
        let obj = vec![(1, xs[0].pos()), (1, xs[1].pos())];
        let opts = OptimizeOptions {
            lower_bound: 1,
            ..OptimizeOptions::default()
        };
        match minimize_warm(&f, &obj, opts, None).0 {
            OptimizeOutcome::Optimal { value, .. } => assert_eq!(value, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wall_clock_budget_returns_incumbent() {
        // A 0 ms deadline must still return whatever incumbent the sliced
        // search produced (possibly none) rather than spin forever.
        let mut f = PbFormula::new();
        let xs = f.new_vars(8);
        for w in xs.windows(2) {
            f.add_clause(&[w[0].pos(), w[1].pos()]);
        }
        let obj: Vec<(i64, Lit)> = xs.iter().map(|v| (1, v.pos())).collect();
        let opts = OptimizeOptions {
            max_millis: Some(0),
            max_total_conflicts: None,
            ..OptimizeOptions::default()
        };
        match minimize_warm(&f, &obj, opts, None).0 {
            OptimizeOutcome::BudgetExhausted { .. } | OptimizeOutcome::Optimal { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn progress_callback_sees_strictly_improving_incumbents() {
        let mut f = PbFormula::new();
        let xs = f.new_vars(6);
        for w in xs.windows(2) {
            f.add_clause(&[w[0].pos(), w[1].pos()]);
        }
        let obj: Vec<(i64, Lit)> = xs.iter().map(|v| (1, v.pos())).collect();
        let mut seen = Vec::new();
        let mut cb = |p: SolveProgress| {
            let SolveProgress::Incumbent { value, .. } = p;
            seen.push(value);
        };
        let (out, _) =
            minimize_warm_with(&f, &obj, OptimizeOptions::default(), None, Some(&mut cb));
        let value = match out {
            OptimizeOutcome::Optimal { value, .. } => value,
            other => panic!("{other:?}"),
        };
        assert!(!seen.is_empty(), "at least one incumbent must be reported");
        assert!(
            seen.windows(2).all(|w| w[1] < w[0]),
            "incumbents must strictly improve: {seen:?}"
        );
        assert_eq!(*seen.last().unwrap(), value);
    }

    #[test]
    fn stats_are_reported() {
        let mut f = PbFormula::new();
        let xs = f.new_vars(4);
        f.add_clause(&[xs[0].pos(), xs[1].pos()]);
        f.add_clause(&[xs[2].pos(), xs[3].pos()]);
        let obj: Vec<(i64, Lit)> = xs.iter().map(|v| (1, v.pos())).collect();
        let (out, stats) = minimize_warm(&f, &obj, OptimizeOptions::default(), None);
        assert!(matches!(out, OptimizeOutcome::Optimal { .. }));
        assert!(stats.decisions > 0 || stats.propagations > 0);
    }
}
