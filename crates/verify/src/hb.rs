//! The happens-before DAG over plan steps.
//!
//! Nodes are step indices of a (possibly multi-device) plan; edges are the
//! *synchronizations a concurrent executor actually enforces* — nothing
//! more. Three edge kinds exist (see [`EdgeKind`]):
//!
//! * **Program** — issue order between consecutive steps on one engine
//!   lane (a DMA channel or one device's compute engine). Steps on
//!   *different* lanes are not ordered by their position in the plan.
//! * **Transfer** — completion of the step that made a datum available
//!   (`device_ready`/`host_ready` in the simulator): the upload or
//!   producing launch a read waits for, the staging `CopyOut` an
//!   inter-device `CopyIn` waits for.
//! * **Lifetime** — allocation-lifetime ordering around a `Free`: every
//!   earlier access of the freed buffer must retire before the free
//!   commits, and later allocations on the device wait for the committed
//!   free horizon.
//!
//! Because every edge points from an earlier-issued step to a later one,
//! the issue order is a topological order and the graph is a DAG by
//! construction. [`HbGraph::seal`] does not materialise the reachability
//! closure (`n²` bits). It uses the shape the certifier actually builds: a
//! handful of totally ordered **chains** — maximal runs of `Program` edges,
//! i.e. the engine lanes — joined by cross edges. The steps of one chain
//! that reach a step `b` are always a *prefix* of that chain (consecutive
//! members are joined by an edge, so reaching a later member implies
//! reaching every earlier one), and one integer per chain describes a
//! prefix. `seal` therefore stores one **lane clock** per step — `chains`
//! integers — and [`HbGraph::happens_before`] is one comparison, exact,
//! in `O(n · chains)` memory. Steps with no `Program` edge at all (`Free`,
//! which runs on no engine) are *off-chain*: a query from one walks its
//! few outgoing edges to the first on-chain steps and asks the clocks
//! there.

/// Why a happens-before edge exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Issue order between consecutive steps on the same engine lane.
    Program,
    /// Completion of the transfer/kernel that made the accessed datum
    /// available.
    Transfer,
    /// Allocation-lifetime ordering around a `Free`.
    Lifetime,
}

/// Per-kind edge tallies of a sealed graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeCounts {
    /// Program-order edges.
    pub program: usize,
    /// Transfer-completion edges.
    pub transfer: usize,
    /// Allocation-lifetime edges.
    pub lifetime: usize,
}

impl EdgeCounts {
    /// All edges.
    pub fn total(&self) -> usize {
        self.program + self.transfer + self.lifetime
    }
}

/// Chain id of a step no `Program` edge touches.
const OFF_CHAIN: u32 = u32::MAX;

/// The happens-before DAG. Build with [`HbGraph::add_edge`], then call
/// [`HbGraph::seal`] once before any reachability query.
#[derive(Debug, Clone)]
pub struct HbGraph {
    n: usize,
    edges: Vec<(usize, usize, EdgeKind)>,
    preds: Vec<Vec<usize>>,
    /// Chain of each step ([`OFF_CHAIN`] for none).
    chain: Vec<u32>,
    /// Position of each on-chain step within its chain; for an off-chain
    /// step, where its run of edges starts in `off_succ`.
    pos: Vec<u32>,
    /// Number of chains: the row width of `clock`.
    chains: usize,
    /// Lane clocks, `n` rows of `chains`: `clock[b * chains + c]` is how
    /// many leading steps of chain `c` have a path to `b`.
    clock: Vec<u32>,
    /// Outgoing edges `(from, to)` of the off-chain steps, sorted.
    off_succ: Vec<(u32, u32)>,
    sealed: bool,
}

impl HbGraph {
    /// An edge-less graph over `n` step nodes.
    pub fn new(n: usize) -> HbGraph {
        assert!(
            n < u32::MAX as usize,
            "{n} steps overflow the u32 lane clocks"
        );
        HbGraph {
            n,
            edges: Vec::new(),
            preds: vec![Vec::new(); n],
            chain: Vec::new(),
            pos: Vec::new(),
            chains: 0,
            clock: Vec::new(),
            off_succ: Vec::new(),
            sealed: false,
        }
    }

    /// Number of step nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Add the edge `from -> to`. Edges must respect issue order
    /// (`from < to`), which keeps the graph acyclic by construction;
    /// duplicate edges are ignored regardless of kind.
    pub fn add_edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        assert!(!self.sealed, "HbGraph is sealed");
        assert!(from < to && to < self.n, "edge {from}->{to} out of order");
        if self.preds[to].contains(&from) {
            return;
        }
        self.preds[to].push(from);
        self.edges.push((from, to, kind));
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[(usize, usize, EdgeKind)] {
        &self.edges
    }

    /// Per-kind edge tallies.
    pub fn edge_counts(&self) -> EdgeCounts {
        let mut c = EdgeCounts::default();
        for &(_, _, kind) in &self.edges {
            match kind {
                EdgeKind::Program => c.program += 1,
                EdgeKind::Transfer => c.transfer += 1,
                EdgeKind::Lifetime => c.lifetime += 1,
            }
        }
        c
    }

    /// Direct predecessors of `step`.
    pub fn preds(&self, step: usize) -> &[usize] {
        &self.preds[step]
    }

    /// Derive the chains from the `Program` edges and compute every
    /// step's lane clock. Issue order is a topological order (edges only
    /// point forward), so one forward sweep taking the maximum over
    /// predecessor clocks suffices.
    pub fn seal(&mut self) {
        self.assign_chains();
        let k = self.chains;
        self.clock = vec![0; self.n * k];
        for b in 0..self.n {
            // Split so row `a` (a < b) can be read while writing row `b`.
            let (done, rest) = self.clock.split_at_mut(b * k);
            let row = &mut rest[..k];
            for &a in &self.preds[b] {
                for (w, &src) in row.iter_mut().zip(&done[a * k..(a + 1) * k]) {
                    *w = (*w).max(src);
                }
                if self.chain[a] != OFF_CHAIN {
                    let own = &mut row[self.chain[a] as usize];
                    *own = (*own).max(self.pos[a] + 1);
                }
            }
        }
        self.off_succ = self
            .edges
            .iter()
            .filter(|&&(a, _, _)| self.chain[a] == OFF_CHAIN)
            .map(|&(a, b, _)| (a as u32, b as u32))
            .collect();
        self.off_succ.sort_unstable();
        // Backwards, so each step ends on the first edge of its run. A
        // step with no outgoing edge keeps 0, where no run is its own.
        for (i, &(a, _)) in self.off_succ.iter().enumerate().rev() {
            self.pos[a as usize] = i as u32;
        }
        self.sealed = true;
    }

    /// A step joins the chain of a `Program` predecessor that is still
    /// that chain's tail, otherwise it opens a new chain; so consecutive
    /// members of a chain are always joined by an edge. Steps no `Program`
    /// edge touches stay [`OFF_CHAIN`].
    fn assign_chains(&mut self) {
        let mut program: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter(|&&(_, _, kind)| kind == EdgeKind::Program)
            .map(|&(a, b, _)| (a, b))
            .collect();
        // Group by target in issue order. Stable, so the first-added
        // predecessor is tried first; the certifier adds edges in target
        // order already.
        program.sort_by_key(|&(_, b)| b);
        self.chain = vec![OFF_CHAIN; self.n];
        self.pos = vec![0; self.n];
        let mut tails: Vec<usize> = Vec::new();
        for into_b in program.chunk_by(|x, y| x.1 == y.1) {
            for &(a, _) in into_b {
                // Edges into `a` were grouped earlier (`a < b`): still
                // chainless means `a` heads a chain.
                if self.chain[a] == OFF_CHAIN {
                    self.chain[a] = tails.len() as u32;
                    tails.push(a);
                }
            }
            let b = into_b[0].1;
            let tail_pred = into_b
                .iter()
                .map(|&(a, _)| a)
                .find(|&a| tails[self.chain[a] as usize] == a);
            match tail_pred {
                Some(a) => {
                    self.chain[b] = self.chain[a];
                    self.pos[b] = self.pos[a] + 1;
                    tails[self.chain[b] as usize] = b;
                }
                None => {
                    self.chain[b] = tails.len() as u32;
                    tails.push(b);
                }
            }
        }
        self.chains = tails.len();
    }

    /// `happens_before(a, b)` for an on-chain `a`: the prefix of `a`'s
    /// chain that reaches `b` extends past `a`.
    fn prefix_covers(&self, a: usize, b: usize) -> bool {
        self.clock[b * self.chains + self.chain[a] as usize] > self.pos[a]
    }

    /// Targets of the edges leaving the off-chain step `a`.
    fn off_chain_succs(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        self.off_succ[self.pos[a] as usize..]
            .iter()
            .take_while(move |&&(f, _)| f as usize == a)
            .map(|&(_, t)| t as usize)
    }

    /// True when step `a` happens-before step `b` (a path `a -> b`
    /// exists). Reflexively false: a step does not happen-before itself.
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        assert!(self.sealed, "call seal() before reachability queries");
        if a >= b {
            // Edges only point forward.
            return false;
        }
        if self.chain[a] != OFF_CHAIN {
            return self.prefix_covers(a, b);
        }
        // Walk forward from `a` over off-chain steps; the first on-chain
        // step on each path answers from its clock. `walk` is both the
        // work list and the visited list.
        let mut walk = vec![a];
        let mut next = 0;
        while let Some(&x) = walk.get(next) {
            next += 1;
            for s in self.off_chain_succs(x) {
                if s == b {
                    return true;
                }
                if s > b {
                    continue;
                }
                if self.chain[s] != OFF_CHAIN {
                    if self.prefix_covers(s, b) {
                        return true;
                    }
                } else if !walk.contains(&s) {
                    walk.push(s);
                }
            }
        }
        false
    }

    /// True when `a` and `b` are ordered in either direction (or equal).
    pub fn ordered(&self, a: usize, b: usize) -> bool {
        a == b || self.happens_before(a, b) || self.happens_before(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    #[test]
    fn reachability_is_transitive_and_directional() {
        // 0 -> 1 -> 3, 2 isolated.
        let mut hb = HbGraph::new(4);
        hb.add_edge(0, 1, EdgeKind::Program);
        hb.add_edge(1, 3, EdgeKind::Transfer);
        hb.seal();
        assert!(hb.happens_before(0, 1));
        assert!(hb.happens_before(0, 3), "transitive");
        assert!(!hb.happens_before(3, 0), "directional");
        assert!(!hb.happens_before(0, 2));
        assert!(!hb.ordered(2, 3));
        assert!(hb.ordered(3, 0));
        assert!(hb.ordered(1, 1), "reflexively ordered");
        assert!(!hb.happens_before(1, 1), "but not happens-before");
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut hb = HbGraph::new(2);
        hb.add_edge(0, 1, EdgeKind::Program);
        hb.add_edge(0, 1, EdgeKind::Lifetime);
        assert_eq!(hb.edges().len(), 1);
        assert_eq!(hb.edge_counts().total(), 1);
    }

    #[test]
    fn edge_counts_tally_by_kind() {
        let mut hb = HbGraph::new(4);
        hb.add_edge(0, 1, EdgeKind::Program);
        hb.add_edge(1, 2, EdgeKind::Transfer);
        hb.add_edge(2, 3, EdgeKind::Lifetime);
        hb.add_edge(0, 3, EdgeKind::Lifetime);
        let c = hb.edge_counts();
        assert_eq!((c.program, c.transfer, c.lifetime), (1, 1, 2));
        assert_eq!(c.total(), 4);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn backward_edges_are_rejected() {
        let mut hb = HbGraph::new(2);
        hb.add_edge(1, 0, EdgeKind::Program);
    }

    #[test]
    fn wide_graphs_cross_word_boundaries() {
        // A 130-node chain exercises multi-word bitset rows.
        let mut hb = HbGraph::new(130);
        for i in 0..129 {
            hb.add_edge(i, i + 1, EdgeKind::Program);
        }
        hb.seal();
        assert!(hb.happens_before(0, 129));
        assert!(hb.happens_before(63, 64));
        assert!(hb.happens_before(64, 127));
        assert!(!hb.happens_before(129, 0));
        assert_matches_dense(&hb);
    }

    /// The representation the lane clocks replaced, kept as their oracle:
    /// the full reachability closure as `n` bitset rows of `n` bits, row
    /// `b` holding every `a` with a path `a -> b`.
    fn dense_closure(hb: &HbGraph) -> Vec<Vec<u64>> {
        let n = hb.len();
        let mut reach = vec![vec![0u64; n.div_ceil(64)]; n];
        for b in 0..n {
            let (done, rest) = reach.split_at_mut(b);
            let row = &mut rest[0];
            for &a in hb.preds(b) {
                row[a / 64] |= 1u64 << (a % 64);
                for (w, &src) in row.iter_mut().zip(done[a].iter()) {
                    *w |= src;
                }
            }
        }
        reach
    }

    /// The first ordered pair `(a, b)` the lane clocks and the dense
    /// closure answer differently.
    fn first_mismatch(hb: &HbGraph) -> Option<(usize, usize)> {
        let reach = dense_closure(hb);
        (0..hb.len())
            .flat_map(|b| (0..hb.len()).map(move |a| (a, b)))
            .find(|&(a, b)| hb.happens_before(a, b) != ((reach[b][a / 64] >> (a % 64)) & 1 == 1))
    }

    fn assert_matches_dense(hb: &HbGraph) {
        assert_eq!(first_mismatch(hb), None, "happens_before(a, b) disagrees");
    }

    #[test]
    fn graph_without_program_edges_is_all_off_chain() {
        // 0 -> 1 -> 3 -> 5 and 2 -> 3, every edge a cross edge; 4 isolated.
        let mut hb = HbGraph::new(6);
        hb.add_edge(0, 1, EdgeKind::Transfer);
        hb.add_edge(1, 3, EdgeKind::Lifetime);
        hb.add_edge(2, 3, EdgeKind::Transfer);
        hb.add_edge(3, 5, EdgeKind::Lifetime);
        hb.seal();
        assert_eq!(hb.chains, 0);
        assert!(hb.happens_before(0, 5));
        assert!(hb.happens_before(2, 5));
        assert!(!hb.ordered(0, 2));
        assert!(!hb.ordered(4, 5));
        assert_matches_dense(&hb);
    }

    #[test]
    fn second_program_successor_opens_its_own_chain() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 4 in program order, 1 -> 4 across.
        let mut hb = HbGraph::new(5);
        hb.add_edge(0, 1, EdgeKind::Program);
        hb.add_edge(0, 2, EdgeKind::Program);
        hb.add_edge(1, 3, EdgeKind::Program);
        hb.add_edge(2, 4, EdgeKind::Program);
        hb.add_edge(1, 4, EdgeKind::Transfer);
        hb.seal();
        assert_eq!(hb.chains, 2);
        assert_eq!(hb.chain[0], hb.chain[1], "the first successor joins");
        assert_ne!(hb.chain[0], hb.chain[2], "the second opens a chain");
        assert_eq!((hb.pos[2], hb.pos[4]), (0, 1));
        assert!(hb.happens_before(0, 3) && hb.happens_before(0, 4));
        assert!(hb.happens_before(1, 4));
        assert!(!hb.ordered(1, 2));
        assert!(!hb.ordered(2, 3));
        assert!(!hb.ordered(3, 4));
        assert_matches_dense(&hb);
    }

    #[test]
    fn off_chain_paths_run_through_other_off_chain_steps() {
        // `Free`-like steps 0 -> 1 -> 2 linked only by lifetime edges,
        // reaching the program chain 3 -> 5 -> 6 at 5; 4 is a `Free`
        // nothing orders.
        let mut hb = HbGraph::new(7);
        hb.add_edge(0, 1, EdgeKind::Lifetime);
        hb.add_edge(1, 2, EdgeKind::Lifetime);
        hb.add_edge(0, 2, EdgeKind::Lifetime);
        hb.add_edge(3, 5, EdgeKind::Program);
        hb.add_edge(5, 6, EdgeKind::Program);
        hb.add_edge(2, 5, EdgeKind::Lifetime);
        hb.seal();
        assert!(hb.happens_before(0, 2), "off-chain to off-chain");
        assert!(hb.happens_before(0, 6), "and on through the chain");
        assert!(!hb.happens_before(0, 3));
        assert!(!hb.ordered(0, 4), "two unordered off-chain steps");
        assert!(!hb.ordered(2, 4));
        assert_matches_dense(&hb);
    }

    #[test]
    fn later_step_never_happens_before_an_earlier_one() {
        // Row 0 of the clocks says nothing reaches step 0, and a query
        // against the issue order must not consult any row to say so.
        let mut hb = HbGraph::new(4);
        hb.add_edge(0, 1, EdgeKind::Program);
        hb.add_edge(1, 3, EdgeKind::Program);
        hb.add_edge(2, 3, EdgeKind::Lifetime);
        hb.seal();
        hb.clock.clear();
        for a in 0..4 {
            for b in 0..=a {
                assert!(!hb.happens_before(a, b), "({a}, {b})");
            }
        }
    }

    /// A DAG built the way the certifier builds them, as a pure function
    /// of `seed`: up to five `Program` chains interleaved in issue order,
    /// off-chain steps in between, random forward `Transfer`/`Lifetime`
    /// cross edges into and out of both, duplicates included. Replay a
    /// failing seed with `assert_matches_dense(&certifier_shaped_dag(seed))`.
    fn certifier_shaped_dag(seed: u64) -> HbGraph {
        let mut rng = TestRng::for_case(seed, 0);
        let mut pick = |n: usize| (rng.next_u64() as usize) % n;
        let n = 2 + pick(199);
        let lanes = 1 + pick(5);
        let max_cross = pick(4);
        let mut hb = HbGraph::new(n);
        let mut last: Vec<Option<usize>> = vec![None; lanes];
        for i in 0..n {
            let crosses = pick(max_cross + 1).min(i);
            let mut into_i: Vec<(usize, EdgeKind)> = (0..crosses)
                .map(|_| (pick(i), [EdgeKind::Transfer, EdgeKind::Lifetime][pick(2)]))
                .collect();
            // Lane `lanes` is the host pseudo-lane: no program order.
            let lane = pick(lanes + 1);
            if lane < lanes {
                if let Some(p) = last[lane].replace(i) {
                    // Last half the time, so a duplicate cross edge can
                    // swallow the program edge and break the chain there.
                    let at = [0, into_i.len()][pick(2)];
                    into_i.insert(at, (p, EdgeKind::Program));
                }
            }
            for (a, kind) in into_i {
                hb.add_edge(a, i, kind);
            }
        }
        hb.seal();
        hb
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Differential oracle: on certifier-shaped DAGs every ordered
        /// pair answers the same under the lane clocks and the dense
        /// closure. A failure names the seed and the pair.
        #[test]
        fn lane_clocks_match_the_dense_closure(seed in 0u64..u64::MAX) {
            let hb = certifier_shaped_dag(seed);
            let mismatch = first_mismatch(&hb);
            prop_assert!(mismatch.is_none(), "seed {}: pair {:?}", seed, mismatch);
        }
    }
}
