//! A convenient formula builder layered over the raw solver.
//!
//! [`PbFormula`] collects variables, clauses and linear constraints, then
//! instantiates fresh [`Solver`]s from them. The optimizer re-instantiates
//! the formula once per strengthening iteration, so the builder keeps the
//! canonical constraint store.

use crate::constraint::{normalize, Cmp, LinearConstraint, NormalizeOutcome};
use crate::solver::Solver;
use crate::types::{Lit, Var};

/// A pseudo-Boolean formula under construction.
#[derive(Debug, Default, Clone)]
pub struct PbFormula {
    nvars: usize,
    clauses: Vec<Vec<Lit>>,
    linears: Vec<LinearConstraint>,
    /// Set when some constraint normalized to `Unsat`.
    trivially_unsat: bool,
}

impl PbFormula {
    /// Empty formula.
    pub fn new() -> Self {
        PbFormula::default()
    }

    /// Fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.nvars as u32);
        self.nvars += 1;
        v
    }

    /// Fresh block of `n` variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.nvars
    }

    /// Number of stored clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of stored linear constraints.
    pub fn num_linears(&self) -> usize {
        self.linears.len()
    }

    /// The stored clauses (normalized).
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// The stored linear constraints (normalized to `≥` form).
    pub fn linears(&self) -> &[LinearConstraint] {
        &self.linears
    }

    /// Add a disjunction of literals.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if lits.is_empty() {
            self.trivially_unsat = true;
        } else {
            self.clauses.push(lits.to_vec());
        }
    }

    /// Add `Σ coefᵢ·litᵢ (cmp) rhs`.
    pub fn add_linear(&mut self, terms: &[(i64, Lit)], cmp: Cmp, rhs: i64) {
        for piece in normalize(terms, cmp, rhs) {
            match piece {
                NormalizeOutcome::Trivial => {}
                NormalizeOutcome::Unsat => self.trivially_unsat = true,
                NormalizeOutcome::Clause(c) => self.clauses.push(c),
                NormalizeOutcome::Linear(l) => self.linears.push(l),
            }
        }
    }

    /// Exactly one of `lits` is true.
    pub fn add_exactly_one(&mut self, lits: &[Lit]) {
        let terms: Vec<(i64, Lit)> = lits.iter().map(|&l| (1, l)).collect();
        self.add_linear(&terms, Cmp::Eq, 1);
    }

    /// Pin a literal true.
    pub fn add_unit(&mut self, l: Lit) {
        self.add_clause(&[l]);
    }

    /// Build a fresh solver loaded with this formula.
    pub fn instantiate(&self) -> Solver {
        let mut s = Solver::new(self.nvars);
        if self.trivially_unsat {
            s.add_clause(&[]);
            return s;
        }
        for c in &self.clauses {
            if !s.add_clause(c) {
                return s;
            }
        }
        for l in &self.linears {
            if !s.add_linear(l.clone()) {
                return s;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn builder_roundtrip() {
        let mut f = PbFormula::new();
        let xs = f.new_vars(3);
        f.add_exactly_one(&[xs[0].pos(), xs[1].pos(), xs[2].pos()]);
        f.add_unit(xs[1].neg());
        f.add_unit(xs[2].neg());
        let mut s = f.instantiate();
        match s.solve(None) {
            SolveResult::Sat(m) => assert_eq!(m, vec![true, false, false]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut f = PbFormula::new();
        f.add_clause(&[]);
        assert_eq!(f.instantiate().solve(None), SolveResult::Unsat);
    }

    #[test]
    fn counts() {
        let mut f = PbFormula::new();
        let xs = f.new_vars(4);
        assert_eq!(f.num_vars(), 4);
        f.add_clause(&[xs[0].pos()]);
        f.add_linear(
            &[(2, xs[1].pos()), (3, xs[2].pos()), (1, xs[3].pos())],
            Cmp::Le,
            3,
        );
        assert_eq!(f.num_clauses(), 1);
        assert_eq!(f.num_linears(), 1);
    }
}
