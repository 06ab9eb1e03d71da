//! The exact pseudo-Boolean formulation of offload and data-transfer
//! scheduling (paper §3.3.2, Fig. 5), solved with `gpuflow-pbsat`.
//!
//! The formulation works at **offload-unit** granularity (the paper's
//! operators are our units; one unit executes per time step `t = 1..=N`):
//!
//! * `x[u][t]` — unit `u` executes at step `t`;
//! * `g[j][t]` / `c[j][t]` — data `j` is in GPU / CPU memory at step `t`;
//! * `cg[j][t]` / `cc[j][t]` — data `j` is copied to the GPU / CPU at `t`
//!   (`cc` extends to `t = N+1` so outputs of the last unit can drain);
//! * `done[u][t]`, plus liveness constraints — execution bookkeeping.
//!
//! The objective minimizes `Σ (cg + cc) · D_j`, the paper's total transfer
//! volume. Passing a `fixed_order` pins the `x` variables, which is the
//! paper's `O(NM)` special case: "When the operator schedule is known, the
//! number of constraints in the data transfer scheduling problem scale as
//! O(NM)" — this mode computes the 15- and 8-unit numbers of Fig. 3.
//!
//! Two corrections to the published formulation are applied (its Fig. 5 is
//! loose on these, which would let a solver "materialize" temporaries out
//! of thin air):
//!
//! 1. `c[j][0] = 1` only for data that genuinely starts on the host
//!    (inputs and constants), not for temporaries;
//! 2. copies require a source: `cg[j][t] → c[j][t-1]` and
//!    `cc[j][t] → g[j][t-1]`.
//!
//! The raw constraint count scales as `O(N²·M)` in the free-order case, so
//! — exactly as the paper reports — the *unpruned* method is only practical
//! for small templates. Three scaling measures (see `docs/exact-scaling.md`)
//! push the boundary out without changing what is proven:
//!
//! * **Window pruning**: ASAP/ALAP step windows for every unit (from the
//!   precedence DAG) and liveness windows for every `g/c/cg/cc` variable
//!   (from producer/consumer windows) fix all out-of-window variables to
//!   constants at encode time, shrinking the formula to its reachable core
//!   while preserving the optimum.
//! * **Heuristic warm start**: the depth-first + Belady plan seeds the
//!   incumbent (`objective ≤ heuristic − 1` before the first solve) and the
//!   solver's initial phases; a structural lower bound (unavoidable input
//!   uploads + output downloads) lets provably-optimal heuristic plans
//!   return without any search.
//! * **Anytime solving**: conflict and wall-clock budgets return the best
//!   incumbent with `optimal: false` plus search statistics instead of
//!   failing outright.
//!
//! [`PbExactOptions::max_ops`] still bounds the accepted problem size.

// Index-style loops mirror the paper's constraint numbering; iterator
// rewrites would obscure the correspondence with Fig. 5.
#![allow(clippy::needless_range_loop)]

use gpuflow_graph::{DataId, DataKind, Graph, FLOAT_BYTES};
use gpuflow_pbsat::{
    minimize_warm_with, Cmp, Lit, OptimizeOptions, OptimizeOutcome, PbFormula, SolveProgress,
    WarmStart,
};
use gpuflow_trace::{kv, Tracer};

use crate::error::FrameworkError;
use crate::opschedule::{schedule_units, OpScheduler};
use crate::partition::OffloadUnit;
use crate::plan::{validate_plan, ExecutionPlan, Step};
use crate::xfer::{schedule_transfers, EvictionPolicy, XferOptions};

/// What the optimizer minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ObjectiveKind {
    /// Every transferred float counts — the paper's evaluation setting
    /// (its GPUs could not overlap transfers with computation).
    #[default]
    TotalTransfers,
    /// Only *synchronous* uploads count: "changing the objective function
    /// to count only those transfers that involve data needed for the
    /// current computation" (§3.3.2) — prefetched uploads and deferred
    /// downloads are hidden behind kernels by the async copy engines.
    SynchronousTransfers,
    /// Overlap-aware exposure: synchronous uploads **plus** downloads in
    /// the tail drain slot `N+1`, where no kernel remains to hide them.
    /// This is the PB counterpart of the stream scheduler's cost model
    /// (`core::streams`): a plan with zero exposed transfers overlaps
    /// every byte it moves, so minimizing exposure bounds from below the
    /// transfer time any multi-stream schedule must still pay on the
    /// critical path.
    ExposedTransfers,
}

/// Options for [`pb_exact_plan`].
///
/// `PartialEq`/`Eq`/`Hash` make the struct usable inside plan-cache keys
/// (`gpuflow-serve`): two option sets compare equal exactly when every
/// budget and switch matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PbExactOptions {
    /// Refuse problems with more offload units than this (the paper's
    /// "practically infeasible" boundary, pushed out by window pruning).
    pub max_ops: usize,
    /// Total conflict budget handed to the PB optimizer. Exhausting it
    /// returns the best incumbent with `optimal: false` (anytime mode).
    pub max_conflicts: u64,
    /// Optional wall-clock budget in milliseconds (anytime mode).
    pub max_millis: Option<u64>,
    /// Fix variables outside their precedence/liveness windows to
    /// constants at encode time. Optimum-preserving; disable only for
    /// ablation against the full Fig. 5 encoding.
    pub prune: bool,
    /// Seed the optimizer with the depth-first + Belady heuristic plan:
    /// incumbent bound, initial solver phases, and a structural
    /// lower-bound early exit.
    pub warm_start: bool,
    /// Which transfers the objective charges for.
    pub objective: ObjectiveKind,
}

impl Default for PbExactOptions {
    fn default() -> Self {
        PbExactOptions {
            max_ops: 40,
            max_conflicts: 70_000,
            max_millis: None,
            prune: true,
            warm_start: true,
            objective: ObjectiveKind::TotalTransfers,
        }
    }
}

/// Formula-size and search statistics for one exact solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PbExactStats {
    /// Variables in the full (unpruned) Fig. 5 encoding.
    pub vars_full: usize,
    /// Clauses in the full encoding.
    pub clauses_full: usize,
    /// Linear constraints in the full encoding.
    pub linears_full: usize,
    /// Variables in the window-pruned encoding.
    pub vars_pruned: usize,
    /// Clauses in the window-pruned encoding.
    pub clauses_pruned: usize,
    /// Linear constraints in the window-pruned encoding.
    pub linears_pruned: usize,
    /// Solver conflicts spent.
    pub conflicts: u64,
    /// Solver decisions made.
    pub decisions: u64,
    /// Solver propagations performed.
    pub propagations: u64,
    /// Solver restarts performed.
    pub restarts: u64,
    /// Transfer floats of the heuristic warm-start plan, when one exists.
    pub heuristic_floats: Option<u64>,
    /// Structural lower bound: unavoidable input uploads + output
    /// downloads, in floats (total-transfer objective).
    pub lower_bound_floats: u64,
    /// True when the solve was seeded with the heuristic incumbent.
    pub warm_started: bool,
    /// True when the window-pruned encoding was the one solved.
    pub pruned: bool,
}

/// Result of the exact scheduler.
#[derive(Debug, Clone)]
pub struct PbExactOutcome {
    /// The extracted execution plan.
    pub plan: ExecutionPlan,
    /// Its total transfer volume in floats (the proven objective value
    /// when `optimal`).
    pub transfer_floats: u64,
    /// True when the solver proved optimality.
    pub optimal: bool,
    /// Formula-size and search statistics.
    pub stats: PbExactStats,
}

/// Constant-or-variable slot for one encoding position. Window pruning
/// replaces out-of-window variables with `F`/`T` constants; the emitters
/// below fold constants away, so one constraint body serves both the full
/// and the pruned encodings.
#[derive(Debug, Clone, Copy)]
enum S {
    /// Constant false.
    F,
    /// Constant true.
    T,
    /// A live solver variable.
    V(Lit),
}

impl S {
    fn neg(self) -> S {
        match self {
            S::F => S::T,
            S::T => S::F,
            S::V(l) => S::V(!l),
        }
    }
}

fn slot(f: &mut PbFormula, live: bool) -> S {
    if live {
        S::V(f.new_var().pos())
    } else {
        S::F
    }
}

/// Emit a clause over slots: satisfied clauses (any `T`) vanish, constant
/// false literals drop out. An all-`F` clause marks the formula UNSAT.
fn s_clause(f: &mut PbFormula, slots: &[S]) {
    let mut lits = Vec::with_capacity(slots.len());
    for &s in slots {
        match s {
            S::T => return,
            S::F => {}
            S::V(l) => lits.push(l),
        }
    }
    f.add_clause(&lits);
}

fn s_unit(f: &mut PbFormula, s: S) {
    s_clause(f, &[s]);
}

fn s_implies(f: &mut PbFormula, a: S, b: S) {
    s_clause(f, &[a.neg(), b]);
}

/// Exactly one of `slots` is true, after constant folding.
fn s_exactly_one(f: &mut PbFormula, slots: &[S]) {
    let mut lits = Vec::new();
    let mut trues = 0usize;
    for &s in slots {
        match s {
            S::T => trues += 1,
            S::F => {}
            S::V(l) => lits.push(l),
        }
    }
    match trues {
        0 if lits.is_empty() => f.add_clause(&[]), // no candidate left
        0 => f.add_exactly_one(&lits),
        1 => {
            for l in lits {
                f.add_unit(!l);
            }
        }
        _ => f.add_clause(&[]), // two constants true: contradictory
    }
}

/// `Σ coefᵢ·slotᵢ ≤ rhs` with constants folded into the bound.
fn s_linear_le(f: &mut PbFormula, terms: &[(i64, S)], mut rhs: i64) {
    let mut lin = Vec::with_capacity(terms.len());
    for &(a, s) in terms {
        match s {
            S::T => rhs -= a,
            S::F => {}
            S::V(l) => lin.push((a, l)),
        }
    }
    f.add_linear(&lin, Cmp::Le, rhs);
}

/// ASAP/ALAP step windows from the unit-level precedence DAG:
/// `est[u] = |ancestors(u)| + 1` and `lst[u] = n − |descendants(u)|`
/// (1-based steps). Every precedence-respecting schedule places `u`
/// inside `[est[u], lst[u]]`, and every step keeps at least one
/// candidate unit (any topological order witnesses both).
fn unit_windows(
    n: usize,
    ext_inputs: &[Vec<DataId>],
    owner: &[Option<usize>],
) -> (Vec<usize>, Vec<usize>) {
    let words = n.div_ceil(64);
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for u2 in 0..n {
        for inp in &ext_inputs[u2] {
            if let Some(u1) = owner[inp.index()] {
                if !preds[u2].contains(&u1) {
                    preds[u2].push(u1);
                    succs[u1].push(u2);
                    indeg[u2] += 1;
                }
            }
        }
    }
    // Kahn traversal accumulating ancestor bitsets along edges.
    let mut anc: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
    let mut queue: Vec<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let mut src = anc[u].clone();
        src[u / 64] |= 1u64 << (u % 64);
        for k in 0..succs[u].len() {
            let v = succs[u][k];
            for (dst, &s) in anc[v].iter_mut().zip(src.iter()) {
                *dst |= s;
            }
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    if queue.len() != n {
        // Defensive: a cyclic unit graph gets trivial (full) windows.
        return (vec![1; n], vec![n; n]);
    }
    let mut est = vec![0usize; n];
    let mut desc = vec![0usize; n];
    for u in 0..n {
        let cnt: u32 = anc[u].iter().map(|w| w.count_ones()).sum();
        est[u] = cnt as usize + 1;
        for w in 0..words {
            let mut bits = anc[u][w];
            while bits != 0 {
                desc[w * 64 + bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
    }
    let lst: Vec<usize> = (0..n).map(|u| n - desc[u]).collect();
    (est, lst)
}

/// Shared inputs of the encoder.
struct EncCtx<'a> {
    g: &'a Graph,
    n: usize,
    j: usize,
    mem_floats: i64,
    sizes: &'a [i64],
    ext_inputs: &'a [Vec<DataId>],
    outputs: &'a [Vec<DataId>],
    owner: &'a [Option<usize>],
    consumers: &'a [Vec<usize>],
    est: &'a [usize],
    lst: &'a [usize],
    objective_kind: ObjectiveKind,
    pinned: Option<&'a [usize]>,
}

/// One built encoding: the formula, its slot arrays, and the objective.
struct Encoded {
    f: PbFormula,
    x: Vec<Vec<S>>,    // x[u][t-1], t = 1..=n
    gv: Vec<Vec<S>>,   // g[j][t], t = 0..=n
    cv: Vec<Vec<S>>,   // c[j][t], t = 0..=n+1
    cg: Vec<Vec<S>>,   // cg[j][t-1], t = 1..=n
    cc: Vec<Vec<S>>,   // cc[j][t-1], t = 1..=n+1
    done: Vec<Vec<S>>, // done[u][t], t = 0..=n
    objective: Vec<(i64, Lit)>,
}

/// Build the Fig. 5 formulation. With `prune` set, every variable outside
/// its precedence/liveness window becomes a constant slot (the derivations
/// and optimum-preservation arguments are in `docs/exact-scaling.md`);
/// without it every slot is live, reproducing the full published encoding.
fn encode(cx: &EncCtx<'_>, prune: bool) -> Encoded {
    let (n, j) = (cx.n, cx.j);
    let mut f = PbFormula::new();

    // --- Variable slots. ---
    let mut x: Vec<Vec<S>> = Vec::with_capacity(n);
    let mut done: Vec<Vec<S>> = Vec::with_capacity(n);
    for u in 0..n {
        let mut xrow = Vec::with_capacity(n);
        for t in 1..=n {
            xrow.push(slot(&mut f, !prune || (cx.est[u] <= t && t <= cx.lst[u])));
        }
        x.push(xrow);
        let mut drow = Vec::with_capacity(n + 1);
        for t in 0..=n {
            // `done[u][t]` is decided outside [est, lst): exactly-one over
            // the x window entails execution by lst[u].
            drow.push(if !prune {
                S::V(f.new_var().pos())
            } else if t < cx.est[u] {
                S::F
            } else if t >= cx.lst[u] {
                S::T
            } else {
                S::V(f.new_var().pos())
            });
        }
        done.push(drow);
    }
    let mut gv: Vec<Vec<S>> = Vec::with_capacity(j);
    let mut cv: Vec<Vec<S>> = Vec::with_capacity(j);
    let mut cg: Vec<Vec<S>> = Vec::with_capacity(j);
    let mut cc: Vec<Vec<S>> = Vec::with_capacity(j);
    for dj in 0..j {
        let kind = cx.g.data(DataId(dj as u32)).kind;
        let is_output = kind == DataKind::Output;
        let prod = cx.owner[dj];
        let cons = &cx.consumers[dj];
        let minc = cons.iter().map(|&u| cx.est[u]).min();
        let maxc = cons.iter().map(|&u| cx.lst[u]).max();
        // The host's copy of an unproduced datum can never be invalidated,
        // so it never pays to discard it: pin the whole `c` row true.
        let host_always = prod.is_none() && kind.starts_on_cpu();

        // g[j][t] can be true only in [gs, ge]: nothing exists before its
        // producer's earliest step (or one step before its first possible
        // consumer, the latest prefetch that still serves it), and keeping
        // residency past the last possible use never helps (Free is free).
        let (gs, ge) = match prod {
            Some(p) => (
                cx.est[p],
                if is_output {
                    n
                } else {
                    maxc.unwrap_or(0).max(cx.lst[p])
                },
            ),
            None => match (minc, maxc) {
                (Some(mn), Some(mx)) => {
                    (mn.saturating_sub(1).max(1), if is_output { n } else { mx })
                }
                _ => (1, 0), // dead and unproduced: never on the GPU
            },
        };
        let mut grow = Vec::with_capacity(n + 1);
        for t in 0..=n {
            grow.push(slot(&mut f, !prune || (t >= 1 && gs <= t && t <= ge)));
        }
        gv.push(grow);

        // Uploads serve a future consumer: latest-prefetch..last-use for
        // host data; re-uploads of produced data additionally need a host
        // copy first (production → download → upload takes two steps).
        let (cgs, cge) = match (prod, maxc) {
            (_, None) => (1, 0),
            (Some(p), Some(mx)) => (cx.est[p] + 2, mx),
            (None, Some(mx)) => (minc.unwrap_or(1).saturating_sub(1).max(1), mx),
        };
        let mut cgrow = Vec::with_capacity(n);
        for t in 1..=n {
            cgrow.push(slot(&mut f, !prune || (cgs <= t && t <= cge)));
        }
        cg.push(cgrow);

        // Downloads need the datum on the GPU (so after production) and
        // only pay off for outputs (until the final drain) or to enable a
        // re-upload / host-side liveness before the last consumer.
        let (ccs, cce) = match prod {
            None => (1, 0), // host keeps it, or unreachable anyway
            Some(p) => {
                if is_output {
                    (cx.est[p] + 1, n + 1)
                } else {
                    match maxc {
                        Some(mx) => (cx.est[p] + 1, mx),
                        None => (1, 0), // dead temporary: never download
                    }
                }
            }
        };
        let mut ccrow = Vec::with_capacity(n + 1);
        for t in 1..=n + 1 {
            ccrow.push(slot(&mut f, !prune || (ccs <= t && t <= cce)));
        }
        cc.push(ccrow);

        // Host residency mirrors the download window.
        let mut cvrow = Vec::with_capacity(n + 2);
        for t in 0..=n + 1 {
            cvrow.push(if !prune {
                S::V(f.new_var().pos())
            } else if host_always {
                S::T
            } else {
                match prod {
                    None => S::F,
                    Some(p) => {
                        let end = if is_output { n + 1 } else { maxc.unwrap_or(0) };
                        if t > cx.est[p] && t <= end {
                            S::V(f.new_var().pos())
                        } else {
                            S::F
                        }
                    }
                }
            });
        }
        cv.push(cvrow);
    }

    // --- Constraints (numbering follows Fig. 5 / the original port). ---

    // Pin the order if given.
    if let Some(ord) = cx.pinned {
        for (t, &u) in ord.iter().enumerate() {
            s_unit(&mut f, x[u][t]);
        }
    }

    // (1) one unit per step; (2) each unit exactly once.
    for t in 1..=n {
        let col: Vec<S> = (0..n).map(|u| x[u][t - 1]).collect();
        s_exactly_one(&mut f, &col);
    }
    for u in 0..n {
        s_exactly_one(&mut f, &x[u]);
    }

    // (14, 15) done bookkeeping.
    for u in 0..n {
        s_unit(&mut f, done[u][0].neg());
        for t in 1..=n {
            s_implies(&mut f, x[u][t - 1], done[u][t]);
            s_implies(&mut f, done[u][t - 1], done[u][t]);
            s_clause(&mut f, &[done[u][t].neg(), x[u][t - 1], done[u][t - 1]]);
        }
    }

    // (3) precedence via done: a unit can run at t only if the producers
    // of all its external inputs are done by t-1.
    for u2 in 0..n {
        for &inp in &cx.ext_inputs[u2] {
            if let Some(u1) = cx.owner[inp.index()] {
                s_unit(&mut f, x[u2][0].neg()); // cannot be the first step
                for t in 2..=n {
                    s_implies(&mut f, x[u2][t - 1], done[u1][t - 1]);
                }
            }
        }
    }

    // (4) memory capacity at every step.
    for t in 1..=n {
        let terms: Vec<(i64, S)> = (0..j).map(|dj| (cx.sizes[dj], gv[dj][t])).collect();
        s_linear_le(&mut f, &terms, cx.mem_floats);
    }

    // (5-8) GPU residency, copies, persistence.
    for u in 0..n {
        for t in 1..=n {
            for d in cx.ext_inputs[u].iter().chain(cx.outputs[u].iter()) {
                s_implies(&mut f, x[u][t - 1], gv[d.index()][t]); // (5)
            }
            for d in &cx.ext_inputs[u] {
                // (6) x ∧ ¬g[t-1] → cg[t]
                s_clause(
                    &mut f,
                    &[
                        x[u][t - 1].neg(),
                        gv[d.index()][t - 1],
                        cg[d.index()][t - 1],
                    ],
                );
            }
        }
    }
    for dj in 0..j {
        for t in 1..=n {
            s_implies(&mut f, cg[dj][t - 1], gv[dj][t]); // (7)
            s_implies(&mut f, cg[dj][t - 1], cv[dj][t - 1]); // upload needs a host copy
            s_clause(&mut f, &[cg[dj][t - 1].neg(), gv[dj][t - 1].neg()]); // no redundant uploads
                                                                           // (8) g[t] → g[t-1] ∨ cg[t] ∨ produced-at-t
            let mut cl = vec![gv[dj][t].neg(), gv[dj][t - 1], cg[dj][t - 1]];
            if let Some(u) = cx.owner[dj] {
                cl.push(x[u][t - 1]);
            }
            s_clause(&mut f, &cl);
        }
        for t in 1..=n + 1 {
            s_implies(&mut f, cc[dj][t - 1], gv[dj][t - 1]); // download needs GPU presence
            s_clause(&mut f, &[cc[dj][t - 1].neg(), cv[dj][t - 1].neg()]); // no redundant downloads
        }
    }

    // (9) CPU copy invalidation on production; (10) CPU persistence.
    for dj in 0..j {
        if let Some(u) = cx.owner[dj] {
            for t in 1..=n {
                // x[u][t] ∧ ¬cc[t+1] → ¬c[t+1]
                s_clause(&mut f, &[x[u][t - 1].neg(), cc[dj][t], cv[dj][t + 1].neg()]);
            }
        }
        for t in 0..=n {
            // c[t+1] → c[t] ∨ cc[t+1]
            s_clause(&mut f, &[cv[dj][t + 1].neg(), cv[dj][t], cc[dj][t]]);
        }
    }

    // (11, 12, 13) boundary conditions (constant slots absorb these in
    // the pruned encoding).
    for dj in 0..j {
        let kind = cx.g.data(DataId(dj as u32)).kind;
        if kind.starts_on_cpu() {
            s_unit(&mut f, cv[dj][0]);
        } else {
            s_unit(&mut f, cv[dj][0].neg());
        }
        s_unit(&mut f, gv[dj][0].neg());
        if kind == DataKind::Output {
            s_unit(&mut f, cv[dj][n + 1]);
        }
    }

    // (16-19) liveness: data that is produced and still has pending
    // consumers must exist somewhere.
    for dj in 0..j {
        let kind = cx.g.data(DataId(dj as u32)).kind;
        let producer = cx.owner[dj];
        if kind == DataKind::Output {
            if let Some(u) = producer {
                for t in 1..=n {
                    s_clause(&mut f, &[done[u][t].neg(), cv[dj][t], gv[dj][t]]);
                }
            }
            continue;
        }
        if cx.consumers[dj].is_empty() {
            continue;
        }
        for t in 1..=n {
            for &u in &cx.consumers[dj] {
                let mut cl = vec![done[u][t], cv[dj][t], gv[dj][t]];
                if let Some(p) = producer {
                    cl.insert(0, done[p][t].neg());
                }
                s_clause(&mut f, &cl);
            }
        }
    }

    // --- Objective. ---
    let mut objective: Vec<(i64, Lit)> = Vec::new();
    match cx.objective_kind {
        ObjectiveKind::TotalTransfers => {
            for dj in 0..j {
                for t in 0..n {
                    if let S::V(l) = cg[dj][t] {
                        objective.push((cx.sizes[dj], l));
                    }
                }
                for t in 0..=n {
                    if let S::V(l) = cc[dj][t] {
                        objective.push((cx.sizes[dj], l));
                    }
                }
            }
        }
        ObjectiveKind::SynchronousTransfers | ObjectiveKind::ExposedTransfers => {
            // z[j][t] ⇐ cg[j][t] ∧ (some consumer of j executes at t): an
            // upload arriving exactly when it is consumed cannot be
            // hidden. Prefetches and in-schedule downloads overlap with
            // kernels.
            for dj in 0..j {
                if cx.consumers[dj].is_empty() {
                    continue;
                }
                for t in 1..=n {
                    let cgl = match cg[dj][t - 1] {
                        S::V(l) => Some(l),
                        _ => None,
                    };
                    let users: Vec<Lit> = cx.consumers[dj]
                        .iter()
                        .filter_map(|&u| match x[u][t - 1] {
                            S::V(l) => Some(l),
                            _ => None,
                        })
                        .collect();
                    // The pruned encoding only materializes z where an
                    // unhidable upload is possible at all.
                    if prune && (cgl.is_none() || users.is_empty()) {
                        continue;
                    }
                    let z = f.new_var().pos();
                    if let Some(cgl) = cgl {
                        for &xu in &users {
                            f.add_clause(&[!cgl, !xu, z]);
                        }
                    }
                    objective.push((cx.sizes[dj], z));
                }
            }
            if cx.objective_kind == ObjectiveKind::ExposedTransfers {
                // Tail-drain downloads (t = N+1) run after the last
                // kernel: nothing remains to hide them.
                for dj in 0..j {
                    if let S::V(l) = cc[dj][n] {
                        objective.push((cx.sizes[dj], l));
                    }
                }
            }
        }
    }

    Encoded {
        f,
        x,
        gv,
        cv,
        cg,
        cc,
        done,
        objective,
    }
}

/// The paper's heuristic pipeline (depth-first order unless pinned, Belady
/// transfers) as a feasible incumbent: order, plan and transfer floats.
fn heuristic_incumbent(
    g: &Graph,
    units: &[OffloadUnit],
    memory_bytes: u64,
    fixed_order: Option<&[usize]>,
) -> Option<(Vec<usize>, ExecutionPlan, u64)> {
    let order: Vec<usize> = match fixed_order {
        Some(o) => o.to_vec(),
        None => schedule_units(g, units, OpScheduler::DepthFirst),
    };
    let plan = schedule_transfers(
        g,
        units,
        &order,
        XferOptions {
            memory_bytes,
            policy: EvictionPolicy::Belady,
            eager_free: true,
        },
    )
    .ok()?;
    validate_plan(g, &plan, memory_bytes).ok()?;
    let floats = plan.stats(g).total_floats();
    Some((order, plan, floats))
}

/// Translate the heuristic plan into initial phases for every live
/// variable of `enc`. Approximate where the plan's intra-step ordering
/// differs from the step semantics — phases are hints, not constraints.
fn warm_phases(
    g: &Graph,
    units: &[OffloadUnit],
    enc: &Encoded,
    order: &[usize],
    plan: &ExecutionPlan,
) -> Vec<(gpuflow_pbsat::Var, bool)> {
    let n = units.len();
    let j = g.num_data();
    let mut launch_step = vec![0usize; n]; // 1-based
    for (pos, &u) in order.iter().enumerate() {
        launch_step[u] = pos + 1;
    }
    let mut on_gpu = vec![false; j];
    let mut on_cpu: Vec<bool> = (0..j)
        .map(|dj| g.data(DataId(dj as u32)).kind.starts_on_cpu())
        .collect();
    let mut gv_at = vec![vec![false; j]; n + 1]; // [t][dj], t = 0..=n
    let mut cv_at = vec![vec![false; j]; n + 2]; // t = 0..=n+1
    let mut cg_at = vec![vec![false; j]; n + 1]; // t = 1..=n
    let mut cc_at = vec![vec![false; j]; n + 2]; // t = 1..=n+1
    cv_at[0].clone_from(&on_cpu);
    let mut t = 1usize;
    for step in &plan.steps {
        match *step {
            Step::CopyOut { data: d, .. } => {
                cc_at[t.min(n + 1)][d.index()] = true;
                on_cpu[d.index()] = true;
            }
            Step::CopyIn { data: d, .. } => {
                cg_at[t.min(n)][d.index()] = true;
                on_gpu[d.index()] = true;
            }
            Step::Free { data: d, .. } => on_gpu[d.index()] = false,
            Step::Launch(u) => {
                for d in units[u].outputs(g) {
                    on_gpu[d.index()] = true;
                }
                if t <= n {
                    gv_at[t].clone_from(&on_gpu);
                    cv_at[t].clone_from(&on_cpu);
                }
                t += 1;
            }
        }
    }
    cv_at[n + 1].clone_from(&on_cpu);

    let mut phases: Vec<(gpuflow_pbsat::Var, bool)> = Vec::new();
    let mut push = |s: S, val: bool| {
        if let S::V(l) = s {
            phases.push((l.var(), if l.is_neg() { !val } else { val }));
        }
    };
    for u in 0..n {
        for tt in 1..=n {
            push(enc.x[u][tt - 1], launch_step[u] == tt);
        }
        for tt in 0..=n {
            push(enc.done[u][tt], launch_step[u] != 0 && launch_step[u] <= tt);
        }
    }
    for dj in 0..j {
        for tt in 0..=n {
            push(enc.gv[dj][tt], gv_at[tt][dj]);
        }
        for tt in 0..=n + 1 {
            push(enc.cv[dj][tt], cv_at[tt][dj]);
        }
        for tt in 1..=n {
            push(enc.cg[dj][tt - 1], cg_at[tt][dj]);
        }
        for tt in 1..=n + 1 {
            push(enc.cc[dj][tt - 1], cc_at[tt][dj]);
        }
    }
    phases
}

/// Structural lower bound on total transfer floats: every host-resident
/// datum some unit consumes must be uploaded at least once, and every
/// produced output downloaded at least once.
fn structural_lower_bound(g: &Graph, owner: &[Option<usize>], consumers: &[Vec<usize>]) -> u64 {
    let mut lb = 0u64;
    for dj in 0..g.num_data() {
        let info = g.data(DataId(dj as u32));
        if info.kind.starts_on_cpu() && owner[dj].is_none() && !consumers[dj].is_empty() {
            lb += info.len();
        }
        if info.kind == DataKind::Output && owner[dj].is_some() {
            lb += info.len();
        }
    }
    lb
}

/// Count a plan's *exposed* transfer floats under the slot semantics of
/// [`ObjectiveKind::ExposedTransfers`]: uploads staged in the same slot as
/// the launch that consumes them (nothing to hide behind), plus downloads
/// issued after the final launch (the tail drain). This recomputes, from
/// an extracted plan, exactly the objective value the PB solver proved —
/// and gives the heuristic stream scheduler a comparable exposure number.
pub fn exposed_transfer_floats(g: &Graph, plan: &ExecutionPlan) -> u64 {
    let n = plan
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Launch(_)))
        .count();
    // Slot of each datum's most recent upload: `launches_seen + 1` is the
    // slot of the next launch, the kernel the upload runs concurrently
    // with.
    let mut upload_slot: Vec<Option<usize>> = vec![None; g.num_data()];
    let mut launches_seen = 0usize;
    let mut exposed = 0u64;
    for step in &plan.steps {
        match *step {
            Step::CopyIn { data: d, .. } => upload_slot[d.index()] = Some(launches_seen + 1),
            Step::Launch(u) => {
                launches_seen += 1;
                for d in plan.units[u].external_inputs(g) {
                    if upload_slot[d.index()] == Some(launches_seen) {
                        exposed += g.data(d).len();
                    }
                }
            }
            Step::CopyOut { data: d, .. } => {
                if launches_seen >= n {
                    exposed += g.data(d).len();
                }
            }
            Step::Free { .. } => {}
        }
    }
    exposed
}

/// Solve the Fig. 5 formulation over `units` with `memory_bytes` of device
/// memory. `fixed_order` (indices into `units`) pins the execution order,
/// leaving only data transfers to optimize.
pub fn pb_exact_plan(
    g: &Graph,
    units: &[OffloadUnit],
    memory_bytes: u64,
    opts: PbExactOptions,
    fixed_order: Option<&[usize]>,
) -> Result<PbExactOutcome, FrameworkError> {
    pb_exact_plan_traced(
        g,
        units,
        memory_bytes,
        opts,
        fixed_order,
        &mut Tracer::disabled(),
    )
}

/// [`pb_exact_plan`] with tracing: emits encode-size spans (full vs pruned
/// formula, pruning ratio), solver incumbent/progress events with conflict
/// counts, and the final bound gap onto `tracer`, and mirrors the search
/// statistics into its metrics registry (single bookkeeping source: the
/// same [`gpuflow_pbsat::SearchStats`] that fills [`PbExactStats`]).
pub fn pb_exact_plan_traced(
    g: &Graph,
    units: &[OffloadUnit],
    memory_bytes: u64,
    opts: PbExactOptions,
    fixed_order: Option<&[usize]>,
    tracer: &mut Tracer,
) -> Result<PbExactOutcome, FrameworkError> {
    let n = units.len();
    let j = g.num_data();
    if n == 0 {
        return Ok(PbExactOutcome {
            plan: ExecutionPlan::single_device(Vec::new(), Vec::new()),
            transfer_floats: 0,
            optimal: true,
            stats: PbExactStats::default(),
        });
    }
    if n > opts.max_ops {
        return Err(FrameworkError::PbBudgetExhausted);
    }
    if let Some(ord) = fixed_order {
        assert_eq!(ord.len(), n, "fixed order must cover every unit");
    }
    let mem_floats = (memory_bytes / FLOAT_BYTES) as i64;
    let sizes: Vec<i64> = g.data_ids().map(|d| g.data(d).len() as i64).collect();

    // Unit-level dataflow.
    let ext_inputs: Vec<Vec<_>> = units
        .iter()
        .map(|u| u.external_inputs(g).collect())
        .collect();
    let outputs: Vec<Vec<DataId>> = units.iter().map(|u| u.outputs(g).collect()).collect();
    let mut owner: Vec<Option<usize>> = vec![None; j];
    for (u, outs) in outputs.iter().enumerate() {
        for &d in outs {
            owner[d.index()] = Some(u);
        }
    }
    // Units consuming each data structure externally.
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); j];
    for (u, ins) in ext_inputs.iter().enumerate() {
        for &d in ins {
            consumers[d.index()].push(u);
        }
    }

    // ASAP/ALAP windows; a pinned order collapses them to singletons.
    let (est, lst) = match fixed_order {
        Some(ord) => {
            let mut e = vec![0usize; n];
            for (pos, &u) in ord.iter().enumerate() {
                e[u] = pos + 1;
            }
            (e.clone(), e)
        }
        None => unit_windows(n, &ext_inputs, &owner),
    };

    let cx = EncCtx {
        g,
        n,
        j,
        mem_floats,
        sizes: &sizes,
        ext_inputs: &ext_inputs,
        outputs: &outputs,
        owner: &owner,
        consumers: &consumers,
        est: &est,
        lst: &lst,
        objective_kind: opts.objective,
        pinned: fixed_order,
    };
    // Both encodings are built (encoding is cheap next to solving) so the
    // size reduction is always measurable in the reported stats.
    let tok = tracer.begin("solver", "pb-encode");
    let full = encode(&cx, false);
    let pruned = encode(&cx, true);
    let mut stats = PbExactStats {
        vars_full: full.f.num_vars(),
        clauses_full: full.f.num_clauses(),
        linears_full: full.f.num_linears(),
        vars_pruned: pruned.f.num_vars(),
        clauses_pruned: pruned.f.num_clauses(),
        linears_pruned: pruned.f.num_linears(),
        pruned: opts.prune,
        ..PbExactStats::default()
    };
    tracer.end_with(
        tok,
        vec![
            kv("vars_full", stats.vars_full),
            kv("clauses_full", stats.clauses_full),
            kv("vars_pruned", stats.vars_pruned),
            kv("clauses_pruned", stats.clauses_pruned),
            kv(
                "var_pruning_ratio",
                stats.vars_pruned as f64 / stats.vars_full.max(1) as f64,
            ),
        ],
    );
    tracer
        .metrics()
        .set("exact.vars_full", stats.vars_full as u64);
    tracer
        .metrics()
        .set("exact.vars_pruned", stats.vars_pruned as u64);
    let enc = if opts.prune { &pruned } else { &full };

    // Heuristic incumbent: warm start, lower-bound early exit, and the
    // anytime fallback when the budget expires without any model.
    let heuristic = heuristic_incumbent(g, units, memory_bytes, fixed_order);
    let lb = structural_lower_bound(g, &owner, &consumers);
    stats.lower_bound_floats = lb;
    stats.heuristic_floats = heuristic.as_ref().map(|(_, _, fl)| *fl);
    let total_objective = opts.objective == ObjectiveKind::TotalTransfers;
    if opts.warm_start && total_objective {
        if let Some((_, plan, floats)) = &heuristic {
            if *floats <= lb {
                // The heuristic meets the structural lower bound: it is
                // proven optimal without touching the solver.
                stats.warm_started = true;
                tracer.instant(
                    "solver",
                    "lower-bound-proof",
                    vec![kv("floats", *floats), kv("lower_bound", lb)],
                );
                tracer.metrics().set("exact.bound_gap_floats", 0);
                return Ok(PbExactOutcome {
                    plan: plan.clone(),
                    transfer_floats: *floats,
                    optimal: true,
                    stats,
                });
            }
        }
    }
    let warm = match &heuristic {
        Some((order, plan, floats)) if opts.warm_start => Some(WarmStart {
            // The heuristic's synchronous-transfer cost is unknown, so the
            // bound only applies to the total-transfer objective; phases
            // still help either way.
            bound: total_objective.then_some(*floats as i64),
            phases: warm_phases(g, units, enc, order, plan),
        }),
        _ => None,
    };
    let warm_bound = warm.as_ref().is_some_and(|w| w.bound.is_some());
    stats.warm_started = warm.is_some();
    if let Some(w) = &warm {
        tracer.instant(
            "solver",
            "warm-start",
            vec![
                kv("bound", w.bound.unwrap_or(-1)),
                kv("phases", w.phases.len()),
                kv("lower_bound", lb),
            ],
        );
    }

    let tok = tracer.begin("solver", "pb-solve");
    let mut incumbents = 0u64;
    let mut progress = |p: SolveProgress| {
        let SolveProgress::Incumbent {
            value,
            conflicts,
            decisions,
            restarts,
        } = p;
        incumbents += 1;
        tracer.instant(
            "solver",
            "incumbent",
            vec![
                kv("value", value),
                kv("conflicts", conflicts),
                kv("decisions", decisions),
                kv("restarts", restarts),
            ],
        );
        tracer.counter("pb-objective", vec![kv("value", value)]);
    };
    let (outcome, search) = minimize_warm_with(
        &enc.f,
        &enc.objective,
        OptimizeOptions {
            max_conflicts_per_call: None,
            max_total_conflicts: Some(opts.max_conflicts),
            max_millis: opts.max_millis,
            lower_bound: if total_objective { lb as i64 } else { 0 },
        },
        warm.as_ref(),
        Some(&mut progress),
    );
    stats.conflicts = search.conflicts;
    stats.decisions = search.decisions;
    stats.propagations = search.propagations;
    stats.restarts = search.restarts;
    tracer.end_with(
        tok,
        vec![
            kv("conflicts", search.conflicts),
            kv("decisions", search.decisions),
            kv("propagations", search.propagations),
            kv("restarts", search.restarts),
            kv("incumbents", incumbents),
        ],
    );
    // Single bookkeeping source: the same `SearchStats` that fills
    // `PbExactStats` feeds the metrics the trace reconciles against.
    tracer.metrics().set("exact.conflicts", search.conflicts);
    tracer.metrics().set("exact.decisions", search.decisions);
    tracer.metrics().set("exact.restarts", search.restarts);
    tracer.metrics().set("exact.incumbents", incumbents);

    let (model, value, optimal) = match outcome {
        OptimizeOutcome::Infeasible if warm_bound => {
            // UNSAT under `objective ≤ heuristic − 1`: nothing beats the
            // (feasible, validated) incumbent, so it is the optimum.
            let (_, plan, floats) = heuristic.expect("warm bound implies an incumbent");
            tracer.instant(
                "solver",
                "incumbent-proven-optimal",
                vec![kv("floats", floats), kv("lower_bound", lb)],
            );
            tracer.metrics().set("exact.bound_gap_floats", 0);
            return Ok(PbExactOutcome {
                plan,
                transfer_floats: floats,
                optimal: true,
                stats,
            });
        }
        OptimizeOutcome::Infeasible => return Err(FrameworkError::PbInfeasible),
        OptimizeOutcome::Optimal { model, value } => (model, value, true),
        OptimizeOutcome::BudgetExhausted {
            model: Some(m),
            value,
        } => (m, value, false),
        OptimizeOutcome::BudgetExhausted { model: None, .. } if heuristic.is_some() => {
            // Anytime fallback: the budget is gone and the solver found no
            // model; hand back the heuristic plan, unproven.
            let (_, plan, floats) = heuristic.expect("guard checked");
            tracer.instant(
                "solver",
                "budget-exhausted",
                vec![kv("fallback_floats", floats), kv("lower_bound", lb)],
            );
            tracer
                .metrics()
                .set("exact.bound_gap_floats", floats.saturating_sub(lb));
            return Ok(PbExactOutcome {
                plan,
                transfer_floats: floats,
                optimal: false,
                stats,
            });
        }
        OptimizeOutcome::BudgetExhausted { model: None, .. } => {
            return Err(FrameworkError::PbBudgetExhausted)
        }
    };
    let gap = if total_objective {
        (value - lb as i64).max(0) as u64
    } else {
        value.max(0) as u64
    };
    tracer.instant(
        "solver",
        "final-bound",
        vec![
            kv("value", value),
            kv("lower_bound", lb),
            kv("gap", gap),
            kv("optimal", optimal),
        ],
    );
    tracer.metrics().set("exact.bound_gap_floats", gap);

    // --- Extract the plan. ---
    let tv = |s: S| match s {
        S::F => false,
        S::T => true,
        S::V(l) => l.eval(model[l.var().index()]),
    };
    let mut steps = Vec::new();
    for t in 1..=n {
        for dj in 0..j {
            if tv(enc.cc[dj][t - 1]) {
                steps.push(Step::CopyOut {
                    device: 0,
                    data: DataId(dj as u32),
                });
            }
        }
        for dj in 0..j {
            if tv(enc.gv[dj][t - 1]) && !tv(enc.gv[dj][t]) {
                steps.push(Step::Free {
                    device: 0,
                    data: DataId(dj as u32),
                });
            }
        }
        for dj in 0..j {
            if tv(enc.cg[dj][t - 1]) {
                steps.push(Step::CopyIn {
                    device: 0,
                    data: DataId(dj as u32),
                });
            }
        }
        let u = (0..n)
            .find(|&u| tv(enc.x[u][t - 1]))
            .expect("one unit per step");
        steps.push(Step::Launch(u));
    }
    // Drain after the last step.
    for dj in 0..j {
        if tv(enc.cc[dj][n]) {
            steps.push(Step::CopyOut {
                device: 0,
                data: DataId(dj as u32),
            });
        }
    }
    for dj in 0..j {
        if tv(enc.gv[dj][n]) {
            steps.push(Step::Free {
                device: 0,
                data: DataId(dj as u32),
            });
        }
    }

    let plan = ExecutionPlan::single_device(units.to_vec(), steps);
    #[cfg(debug_assertions)]
    crate::plan::debug_check_plan(g, &plan, &[memory_bytes], "pb_exact_plan");
    Ok(PbExactOutcome {
        plan,
        transfer_floats: value as u64,
        optimal,
        stats,
    })
}

/// Convenience wrapper: one operator per unit, free order.
pub fn pb_exact_plan_ops(
    g: &Graph,
    memory_bytes: u64,
    opts: PbExactOptions,
) -> Result<PbExactOutcome, FrameworkError> {
    let units: Vec<OffloadUnit> = gpuflow_graph::topo_sort(g)
        .map_err(|e| FrameworkError::InvalidGraph(e.to_string()))?
        .into_iter()
        .map(|o| OffloadUnit { ops: vec![o] })
        .collect();
    pb_exact_plan(g, &units, memory_bytes, opts, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{
        fig3_graph, fig3_memory_bytes, fig3_schedule_a, fig3_schedule_b, fig3_units,
        floats_to_units,
    };
    use crate::plan::validate_plan;
    use gpuflow_graph::OpKind;

    #[test]
    fn tiny_chain_optimum_is_io_only() {
        // in -> t0 -> mid -> t1 -> out with ample memory: transfers are
        // exactly input + output.
        let mut g = Graph::new();
        let a = g.add("in", 4, 4, DataKind::Input);
        let m = g.add("mid", 4, 4, DataKind::Temporary);
        let o = g.add("out", 4, 4, DataKind::Output);
        g.add_op("t0", OpKind::Tanh, vec![a], m).unwrap();
        g.add_op("t1", OpKind::Tanh, vec![m], o).unwrap();
        let out = pb_exact_plan_ops(&g, 1 << 20, PbExactOptions::default()).unwrap();
        assert!(out.optimal);
        assert_eq!(out.transfer_floats, 32);
        validate_plan(&g, &out.plan, 1 << 20).unwrap();
        assert_eq!(out.plan.stats(&g).total_floats(), 32);
    }

    #[test]
    fn tight_memory_forces_round_trip() {
        // Diamond with a 2-unit input: a -> (l, r) -> join; memory of 3
        // units forces one temporary (and the input) off the device.
        let mut g = Graph::new();
        let a = g.add("a", 2, 16, DataKind::Input);
        let l = g.add("l", 1, 16, DataKind::Temporary);
        let r = g.add("r", 1, 16, DataKind::Temporary);
        let o = g.add("o", 1, 16, DataKind::Output);
        let top = OpKind::GatherRows {
            arity: 1,
            row_off: 0,
            rows: 1,
        };
        let bot = OpKind::GatherRows {
            arity: 1,
            row_off: 1,
            rows: 1,
        };
        g.add_op("tl", top, vec![a], l).unwrap();
        g.add_op("tr", bot, vec![a], r).unwrap();
        g.add_op("j", OpKind::EwAdd { arity: 2 }, vec![l, r], o)
            .unwrap();
        let mem = 3 * 16 * 4; // 3 one-row units
        let out = pb_exact_plan_ops(&g, mem, PbExactOptions::default()).unwrap();
        assert!(out.optimal);
        validate_plan(&g, &out.plan, mem).unwrap();
        // a in (32) + one temp out (16) + that temp back in (16) + o out
        // (16) = 80 floats.
        assert_eq!(out.transfer_floats, 80, "\n{}", out.plan.render(&g));
        assert_eq!(out.plan.stats(&g).total_floats(), out.transfer_floats);
    }

    #[test]
    fn fig6_free_order_optimum_is_8_units() {
        let g = fig3_graph();
        let units = fig3_units(&g);
        let out = pb_exact_plan(
            &g,
            &units,
            fig3_memory_bytes(),
            PbExactOptions::default(),
            None,
        )
        .unwrap();
        assert!(out.optimal, "solver must prove optimality");
        validate_plan(&g, &out.plan, fig3_memory_bytes()).unwrap();
        assert_eq!(
            floats_to_units(out.transfer_floats),
            8.0,
            "paper Fig. 6: optimal schedule moves 8 units\n{}",
            out.plan.render(&g)
        );
        assert_eq!(out.plan.stats(&g).total_floats(), out.transfer_floats);
    }

    #[test]
    fn fig3_fixed_order_a_is_15_units() {
        let g = fig3_graph();
        let units = fig3_units(&g);
        let order = fig3_schedule_a(&g, &units);
        let out = pb_exact_plan(
            &g,
            &units,
            fig3_memory_bytes(),
            PbExactOptions::default(),
            Some(&order),
        )
        .unwrap();
        assert!(out.optimal);
        validate_plan(&g, &out.plan, fig3_memory_bytes()).unwrap();
        assert_eq!(
            floats_to_units(out.transfer_floats),
            15.0,
            "paper Fig. 3(a)\n{}",
            out.plan.render(&g)
        );
    }

    #[test]
    fn fig3_fixed_order_b_is_8_units() {
        let g = fig3_graph();
        let units = fig3_units(&g);
        let order = fig3_schedule_b(&g, &units);
        let out = pb_exact_plan(
            &g,
            &units,
            fig3_memory_bytes(),
            PbExactOptions::default(),
            Some(&order),
        )
        .unwrap();
        assert!(out.optimal);
        assert_eq!(
            floats_to_units(out.transfer_floats),
            8.0,
            "paper Fig. 3(b)\n{}",
            out.plan.render(&g)
        );
    }

    /// §3.3.2's async-transfer objective on the Fig. 3 example. Downloads
    /// all defer and most uploads prefetch, but two cannot be hidden: the
    /// image feeds the very first step (nothing to hide behind), and the
    /// 5-unit memory is completely full during the step before the one
    /// re-upload, leaving no room to prefetch it. Optimal synchronous
    /// traffic: Im (2 units) + 1 unit = 3 units, down from the serial
    /// optimum of 8.
    #[test]
    fn overlap_objective_drops_fig3_to_three_units() {
        let g = fig3_graph();
        let units = fig3_units(&g);
        let opts = PbExactOptions {
            objective: super::ObjectiveKind::SynchronousTransfers,
            ..PbExactOptions::default()
        };
        let out = pb_exact_plan(&g, &units, fig3_memory_bytes(), opts, None).unwrap();
        assert!(out.optimal);
        assert_eq!(
            floats_to_units(out.transfer_floats),
            3.0,
            "synchronous-only optimum\n{}",
            out.plan.render(&g)
        );
        // The plan still physically moves at least the serial optimum's
        // data (8 units): hiding is about *when*, not *whether*.
        validate_plan(&g, &out.plan, fig3_memory_bytes()).unwrap();
        assert!(floats_to_units(out.plan.stats(&g).total_floats()) >= 8.0);
    }

    /// The overlap-aware exposure objective on Fig. 3: exposed traffic is
    /// the synchronous uploads plus whatever must drain after the last
    /// kernel. The extracted plan's recomputed exposure must equal the
    /// proven objective value exactly (one bookkeeping source), and
    /// exposure can never undercut the synchronous-upload optimum it
    /// contains.
    #[test]
    fn exposed_objective_reconciles_with_extracted_plan() {
        let g = fig3_graph();
        let units = fig3_units(&g);
        let opts = PbExactOptions {
            objective: super::ObjectiveKind::ExposedTransfers,
            ..PbExactOptions::default()
        };
        let out = pb_exact_plan(&g, &units, fig3_memory_bytes(), opts, None).unwrap();
        assert!(out.optimal);
        validate_plan(&g, &out.plan, fig3_memory_bytes()).unwrap();
        assert_eq!(
            exposed_transfer_floats(&g, &out.plan),
            out.transfer_floats,
            "recount of the extracted plan must match the proven value\n{}",
            out.plan.render(&g)
        );
        let sync = pb_exact_plan(
            &g,
            &units,
            fig3_memory_bytes(),
            PbExactOptions {
                objective: super::ObjectiveKind::SynchronousTransfers,
                ..PbExactOptions::default()
            },
            None,
        )
        .unwrap();
        assert!(
            out.transfer_floats >= sync.transfer_floats,
            "exposure ({}) includes the synchronous uploads ({})",
            out.transfer_floats,
            sync.transfer_floats
        );
    }

    /// The heuristic stream scheduler's plan on Fig. 3, measured by the
    /// same exposure metric, cannot beat the PB-proven optimum — and the
    /// solver thereby certifies how close the list scheduler gets.
    #[test]
    fn heuristic_stream_plan_exposure_is_bounded_by_pb_optimum() {
        use crate::streams::schedule_streamed;
        use gpuflow_sim::device::tesla_c870;
        let g = fig3_graph();
        let units = fig3_units(&g);
        let opts = PbExactOptions {
            objective: super::ObjectiveKind::ExposedTransfers,
            ..PbExactOptions::default()
        };
        let out = pb_exact_plan(&g, &units, fig3_memory_bytes(), opts, None).unwrap();
        assert!(out.optimal);
        let dev = tesla_c870().with_memory(fig3_memory_bytes());
        for k in [1, 2, 4] {
            let plan = schedule_streamed(
                &g,
                &units,
                &dev,
                k,
                XferOptions {
                    memory_bytes: fig3_memory_bytes(),
                    policy: EvictionPolicy::Belady,
                    eager_free: true,
                },
            )
            .unwrap();
            assert!(
                exposed_transfer_floats(&g, &plan) >= out.transfer_floats,
                "streams={k}: heuristic exposure beats the proven optimum"
            );
        }
    }

    #[test]
    fn infeasible_memory_reported() {
        let g = fig3_graph();
        let units = fig3_units(&g);
        // max needs 5 units simultaneously; 4 are not enough for any
        // schedule.
        let err =
            pb_exact_plan(&g, &units, 4 * 256 * 4, PbExactOptions::default(), None).unwrap_err();
        assert!(matches!(err, FrameworkError::PbInfeasible));
    }

    #[test]
    fn large_graphs_rejected() {
        let mut g = Graph::new();
        let mut prev = g.add("in", 2, 2, DataKind::Input);
        for i in 0..48 {
            let kind = if i == 47 {
                DataKind::Output
            } else {
                DataKind::Temporary
            };
            let next = g.add(format!("d{i}"), 2, 2, kind);
            g.add_op(format!("t{i}"), OpKind::Tanh, vec![prev], next)
                .unwrap();
            prev = next;
        }
        let err = pb_exact_plan_ops(&g, 1 << 20, PbExactOptions::default()).unwrap_err();
        assert!(matches!(err, FrameworkError::PbBudgetExhausted));
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = Graph::new();
        let out = pb_exact_plan(&g, &[], 1024, PbExactOptions::default(), None).unwrap();
        assert!(out.optimal);
        assert!(out.plan.steps.is_empty());
    }

    #[test]
    fn pruned_formula_is_smaller_than_full() {
        let g = fig3_graph();
        let units = fig3_units(&g);
        let out = pb_exact_plan(
            &g,
            &units,
            fig3_memory_bytes(),
            PbExactOptions::default(),
            None,
        )
        .unwrap();
        let s = out.stats;
        assert!(
            s.vars_pruned < s.vars_full,
            "window pruning must remove variables ({} vs {})",
            s.vars_pruned,
            s.vars_full
        );
        assert!(
            s.clauses_pruned < s.clauses_full,
            "window pruning must remove clauses ({} vs {})",
            s.clauses_pruned,
            s.clauses_full
        );
        assert!(s.pruned);
    }

    #[test]
    fn full_encoding_still_proves_fig6() {
        // `prune: false, warm_start: false` is the original cold path; it
        // must agree with the pruned result.
        let g = fig3_graph();
        let units = fig3_units(&g);
        let opts = PbExactOptions {
            prune: false,
            warm_start: false,
            ..PbExactOptions::default()
        };
        let out = pb_exact_plan(&g, &units, fig3_memory_bytes(), opts, None).unwrap();
        assert!(out.optimal);
        assert_eq!(floats_to_units(out.transfer_floats), 8.0);
        assert!(!out.stats.warm_started);
        assert!(!out.stats.pruned);
    }

    #[test]
    fn chain_of_32_ops_proves_optimal_via_lower_bound() {
        // The raised `max_ops` admits a 32-op chain; with ample memory the
        // heuristic already meets the structural lower bound (input +
        // output), so optimality is proven without any solver search.
        let mut g = Graph::new();
        let mut prev = g.add("in", 2, 2, DataKind::Input);
        for i in 0..32 {
            let kind = if i == 31 {
                DataKind::Output
            } else {
                DataKind::Temporary
            };
            let next = g.add(format!("d{i}"), 2, 2, kind);
            g.add_op(format!("t{i}"), OpKind::Tanh, vec![prev], next)
                .unwrap();
            prev = next;
        }
        let out = pb_exact_plan_ops(&g, 1 << 20, PbExactOptions::default()).unwrap();
        assert!(out.optimal, "lower-bound early exit proves optimality");
        assert_eq!(out.transfer_floats, 8, "input (4) + output (4) floats");
        assert_eq!(out.stats.conflicts, 0, "no search was needed");
        assert_eq!(out.stats.heuristic_floats, Some(8));
        assert_eq!(out.stats.lower_bound_floats, 8);
        validate_plan(&g, &out.plan, 1 << 20).unwrap();
    }

    #[test]
    fn exhausted_budget_falls_back_to_heuristic_plan() {
        // Zero conflict budget on the tight diamond: the solver cannot
        // finish, so the anytime path hands back a valid (heuristic or
        // incumbent) plan flagged non-optimal.
        let mut g = Graph::new();
        let a = g.add("a", 2, 16, DataKind::Input);
        let l = g.add("l", 1, 16, DataKind::Temporary);
        let r = g.add("r", 1, 16, DataKind::Temporary);
        let o = g.add("o", 1, 16, DataKind::Output);
        let top = OpKind::GatherRows {
            arity: 1,
            row_off: 0,
            rows: 1,
        };
        let bot = OpKind::GatherRows {
            arity: 1,
            row_off: 1,
            rows: 1,
        };
        g.add_op("tl", top, vec![a], l).unwrap();
        g.add_op("tr", bot, vec![a], r).unwrap();
        g.add_op("j", OpKind::EwAdd { arity: 2 }, vec![l, r], o)
            .unwrap();
        let mem = 3 * 16 * 4;
        let opts = PbExactOptions {
            max_conflicts: 0,
            warm_start: false,
            ..PbExactOptions::default()
        };
        let out = pb_exact_plan_ops(&g, mem, opts).unwrap();
        assert!(!out.optimal, "zero budget cannot prove optimality");
        // Whatever was returned is feasible and no better than the true
        // optimum of 80 floats.
        validate_plan(&g, &out.plan, mem).unwrap();
        assert!(out.transfer_floats >= 80);
        assert_eq!(out.stats.heuristic_floats, Some(80));
    }

    #[test]
    fn warm_start_proves_tight_diamond_optimal() {
        // Same diamond, default options: the Belady heuristic already
        // achieves the 80-float optimum, so the solver only has to prove
        // `objective ≤ 79` UNSAT (or find an equal model).
        let mut g = Graph::new();
        let a = g.add("a", 2, 16, DataKind::Input);
        let l = g.add("l", 1, 16, DataKind::Temporary);
        let r = g.add("r", 1, 16, DataKind::Temporary);
        let o = g.add("o", 1, 16, DataKind::Output);
        let top = OpKind::GatherRows {
            arity: 1,
            row_off: 0,
            rows: 1,
        };
        let bot = OpKind::GatherRows {
            arity: 1,
            row_off: 1,
            rows: 1,
        };
        g.add_op("tl", top, vec![a], l).unwrap();
        g.add_op("tr", bot, vec![a], r).unwrap();
        g.add_op("j", OpKind::EwAdd { arity: 2 }, vec![l, r], o)
            .unwrap();
        let mem = 3 * 16 * 4;
        let out = pb_exact_plan_ops(&g, mem, PbExactOptions::default()).unwrap();
        assert!(out.optimal);
        assert_eq!(out.transfer_floats, 80);
        assert!(out.stats.warm_started);
    }

    #[test]
    fn unit_windows_match_chain_and_diamond() {
        // Chain a->b: est/lst are singletons. Diamond: the two middle
        // units share the [2, 3] window.
        let mut g = Graph::new();
        let a = g.add("a", 2, 16, DataKind::Input);
        let l = g.add("l", 1, 16, DataKind::Temporary);
        let r = g.add("r", 1, 16, DataKind::Temporary);
        let o = g.add("o", 1, 16, DataKind::Output);
        let top = OpKind::GatherRows {
            arity: 1,
            row_off: 0,
            rows: 1,
        };
        let bot = OpKind::GatherRows {
            arity: 1,
            row_off: 1,
            rows: 1,
        };
        g.add_op("tl", top, vec![a], l).unwrap();
        g.add_op("tr", bot, vec![a], r).unwrap();
        g.add_op("j", OpKind::EwAdd { arity: 2 }, vec![l, r], o)
            .unwrap();
        let units: Vec<OffloadUnit> = gpuflow_graph::topo_sort(&g)
            .unwrap()
            .into_iter()
            .map(|op| OffloadUnit { ops: vec![op] })
            .collect();
        let ext_inputs: Vec<Vec<DataId>> = units
            .iter()
            .map(|u| u.external_inputs(&g).collect())
            .collect();
        let outputs: Vec<Vec<DataId>> = units.iter().map(|u| u.outputs(&g).collect()).collect();
        let mut owner: Vec<Option<usize>> = vec![None; g.num_data()];
        for (u, outs) in outputs.iter().enumerate() {
            for &d in outs {
                owner[d.index()] = Some(u);
            }
        }
        let (est, lst) = unit_windows(units.len(), &ext_inputs, &owner);
        // tl and tr are interchangeable in steps 1..=2; j is pinned last.
        assert_eq!(est, vec![1, 1, 3]);
        assert_eq!(lst, vec![2, 2, 3]);
    }
}
