//! Offload-unit identification (§3.1).
//!
//! An **offload unit** is a sub-graph that is atomically offloaded onto the
//! GPU: all its external inputs must be resident before it starts, and its
//! outputs become available when it finishes. Coarser units reduce host↔GPU
//! synchronization, but their memory footprint grows and must still fit.
//!
//! The paper's implementation takes each operator as its own unit
//! ([`PartitionPolicy::PerOperator`]); [`PartitionPolicy::GreedyFuse`]
//! implements the coarsening the paper describes as the design trade-off,
//! for the ablation study: it greedily merges single-consumer producer →
//! consumer chains while the merged working set fits the budget.

use gpuflow_graph::{DataId, Graph, OpId};

/// How to group operators into offload units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionPolicy {
    /// One operator per unit (the paper's choice).
    PerOperator,
    /// Greedily fuse linear producer→consumer chains subject to the memory
    /// budget.
    GreedyFuse,
}

/// A group of operators offloaded atomically, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffloadUnit {
    /// The operators of the unit, in a valid intra-unit order.
    pub ops: Vec<OpId>,
}

impl OffloadUnit {
    /// External inputs: data read by the unit but not produced inside it,
    /// each once, in the order the unit first reads them. Both tests scan
    /// the unit's own ops, so nothing is collected.
    pub fn external_inputs<'a>(&'a self, g: &'a Graph) -> impl Iterator<Item = DataId> + 'a {
        self.ops.iter().enumerate().flat_map(move |(i, &o)| {
            let inputs = &g.op(o).inputs;
            inputs.iter().enumerate().filter_map(move |(j, &d)| {
                let produced = g.producer(d).is_some_and(|p| self.ops.contains(&p));
                let seen = inputs[..j].contains(&d)
                    || self.ops[..i].iter().any(|&p| g.op(p).inputs.contains(&d));
                (!produced && !seen).then_some(d)
            })
        })
    }

    /// All data produced by the unit.
    pub fn outputs<'a>(&'a self, g: &'a Graph) -> impl Iterator<Item = DataId> + 'a {
        self.ops
            .iter()
            .flat_map(|&o| g.op(o).outputs.iter().copied())
    }

    /// Working set in bytes: every data structure touched by the unit,
    /// its external inputs and everything it produces (data is
    /// single-assignment, so the two never overlap).
    pub fn footprint_bytes(&self, g: &Graph) -> u64 {
        let touched = self.external_inputs(g).chain(self.outputs(g));
        touched.map(|d| g.data(d).bytes()).sum()
    }
}

/// Partition the graph's operators into offload units.
///
/// Units are returned in a valid topological order (unit *i* never depends
/// on unit *j > i*).
pub fn partition_offload_units(
    g: &Graph,
    policy: PartitionPolicy,
    budget_bytes: u64,
) -> Vec<OffloadUnit> {
    let order = gpuflow_graph::topo_sort(g).expect("graph must be acyclic");
    match policy {
        PartitionPolicy::PerOperator => order
            .into_iter()
            .map(|o| OffloadUnit { ops: vec![o] })
            .collect(),
        PartitionPolicy::GreedyFuse => greedy_fuse(g, &order, budget_bytes),
    }
}

/// Fuse `p → c` chains where `c` is the sole consumer of `p`'s output, the
/// output is a temporary, and the merged working set fits.
fn greedy_fuse(g: &Graph, order: &[OpId], budget_bytes: u64) -> Vec<OffloadUnit> {
    // Union-find over ops.
    let n = g.num_ops();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }

    // Tentatively fuse op with its unique consumer when legal.
    for &o in order {
        let out = g.op(o).outputs[0];
        let consumers = g.consumers(out);
        if consumers.len() != 1 {
            continue;
        }
        if g.data(out).kind != gpuflow_graph::DataKind::Temporary {
            continue; // outputs the host needs must cross unit boundaries
        }
        let c = consumers[0];
        let (ra, rb) = (find(&mut parent, o.index()), find(&mut parent, c.index()));
        if ra == rb {
            continue;
        }
        // Footprint check on the union.
        let merged: Vec<OpId> = order
            .iter()
            .copied()
            .filter(|&x| {
                let r = find(&mut parent, x.index());
                r == ra || r == rb
            })
            .collect();
        let fp = OffloadUnit { ops: merged }.footprint_bytes(g);
        if fp <= budget_bytes {
            let target = ra.min(rb);
            parent[ra] = target;
            parent[rb] = target;
        }
    }

    // One unit per root, numbered in the topological position of its
    // first member; each keeps its members in that order.
    let mut unit_of = vec![usize::MAX; n];
    let mut units: Vec<OffloadUnit> = Vec::new();
    for &o in order {
        let r = find(&mut parent, o.index());
        if unit_of[r] == usize::MAX {
            unit_of[r] = units.len();
            units.push(OffloadUnit { ops: Vec::new() });
        }
        units[unit_of[r]].ops.push(o);
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_graph::{DataKind, OpKind};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The hash-set formulation [`OffloadUnit::external_inputs`] replaced:
    /// the oracle for its set and its order.
    fn external_inputs_oracle(unit: &OffloadUnit, g: &Graph) -> Vec<DataId> {
        let produced: HashSet<DataId> = unit
            .ops
            .iter()
            .flat_map(|&o| g.op(o).outputs.iter().copied())
            .collect();
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for &o in &unit.ops {
            for &d in &g.op(o).inputs {
                if !produced.contains(&d) && seen.insert(d) {
                    out.push(d);
                }
            }
        }
        out
    }

    /// A random DAG over two inputs whose operators read one to three
    /// earlier structures, repeats allowed, and usually the one just
    /// produced — so greedy fusion builds multi-op units whose operators
    /// re-read shared inputs. Unread results become outputs.
    fn random_dag(rng: &mut proptest::TestRng, ops: usize) -> Graph {
        let mut reads: Vec<Vec<usize>> = Vec::new();
        for k in 0..ops {
            let available = 2 + k;
            let mut r: Vec<usize> = (0..rng.next_u64() % 3)
                .map(|_| (rng.next_u64() % available as u64) as usize)
                .collect();
            if !rng.next_u64().is_multiple_of(4) {
                r.insert(
                    (rng.next_u64() % (r.len() as u64 + 1)) as usize,
                    available - 1,
                );
            }
            if r.is_empty() {
                r.push(available - 1);
            }
            reads.push(r);
        }
        let mut g = Graph::new();
        let mut data = vec![
            g.add("in0", 8, 8, DataKind::Input),
            g.add("in1", 8, 8, DataKind::Input),
        ];
        for (k, r) in reads.iter().enumerate() {
            let read_later = reads[k + 1..].iter().any(|r| r.contains(&(k + 2)));
            let kind = if read_later {
                DataKind::Temporary
            } else {
                DataKind::Output
            };
            let out = g.add(format!("d{k}"), 8, 8, kind);
            let inputs: Vec<DataId> = r.iter().map(|&i| data[i]).collect();
            let op = match inputs.len() {
                1 => OpKind::Tanh,
                n => OpKind::EwAdd { arity: n as u8 },
            };
            g.add_op(format!("op{k}"), op, inputs, out).unwrap();
            data.push(out);
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The scan yields exactly the oracle's inputs, in its order, for
        /// every greedily fused unit under a range of budgets.
        #[test]
        fn external_inputs_match_the_hash_set_oracle(
            seed in 0u64..1_000_000,
            ops in 1usize..48,
            structures in 3u64..12,
        ) {
            let mut rng = proptest::TestRng::for_case(seed, 0);
            let g = random_dag(&mut rng, ops);
            let budget = structures * 8 * 8 * gpuflow_graph::FLOAT_BYTES;
            for unit in partition_offload_units(&g, PartitionPolicy::GreedyFuse, budget) {
                let got: Vec<DataId> = unit.external_inputs(&g).collect();
                prop_assert_eq!(got, external_inputs_oracle(&unit, &g));
            }
        }
    }

    #[test]
    fn random_dags_fuse_units_that_reread_inputs() {
        // The property above is only as strong as its units: some must
        // span several ops and read one external input more than once.
        let mut rereads = 0;
        for seed in 0..16 {
            let mut rng = proptest::TestRng::for_case(seed, 0);
            let g = random_dag(&mut rng, 32);
            for unit in partition_offload_units(&g, PartitionPolicy::GreedyFuse, u64::MAX) {
                let reads = |d| {
                    let all = unit.ops.iter().flat_map(|&o| &g.op(o).inputs);
                    all.filter(|&&x| x == d).count()
                };
                if unit.ops.len() > 1 && unit.external_inputs(&g).any(|d| reads(d) > 1) {
                    rereads += 1;
                }
            }
        }
        assert!(rereads > 0, "no fused unit re-read an input");
    }

    fn chain(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut prev = g.add("in", 8, 8, DataKind::Input);
        for i in 0..n {
            let kind = if i + 1 == n {
                DataKind::Output
            } else {
                DataKind::Temporary
            };
            let next = g.add(format!("d{i}"), 8, 8, kind);
            g.add_op(format!("t{i}"), OpKind::Tanh, vec![prev], next)
                .unwrap();
            prev = next;
        }
        g
    }

    #[test]
    fn per_operator_is_singletons() {
        let g = chain(4);
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        assert_eq!(units.len(), 4);
        assert!(units.iter().all(|u| u.ops.len() == 1));
    }

    #[test]
    fn greedy_fuse_merges_chains_under_budget() {
        let g = chain(4);
        let units = partition_offload_units(&g, PartitionPolicy::GreedyFuse, u64::MAX);
        assert_eq!(units.len(), 1, "a pure chain fuses fully: {units:?}");
        assert_eq!(units[0].ops.len(), 4);
    }

    #[test]
    fn greedy_fuse_respects_budget() {
        let g = chain(4);
        // Budget fits exactly one op's working set (2 × 64 floats), so no
        // fusion is possible (fused units need ≥ 3 structures).
        let units = partition_offload_units(&g, PartitionPolicy::GreedyFuse, 2 * 64 * 4);
        assert_eq!(units.len(), 4);
    }

    #[test]
    fn unit_boundary_analysis() {
        let g = chain(3);
        let unit = OffloadUnit {
            ops: vec![gpuflow_graph::OpId(0), gpuflow_graph::OpId(1)],
        };
        let ext: Vec<_> = unit.external_inputs(&g).collect();
        assert_eq!(ext.len(), 1);
        assert_eq!(g.data(ext[0]).name, "in");
        let outs: Vec<DataId> = unit.outputs(&g).collect();
        assert_eq!(outs.len(), 2);
        // Working set: in, d0, d1.
        assert_eq!(unit.footprint_bytes(&g), 3 * 64 * 4);
    }

    #[test]
    fn fuse_stops_at_fan_out() {
        // a -> t0 -> x; x feeds two consumers; the diamond join cannot be
        // fused through the multi-consumer edge.
        let mut g = Graph::new();
        let a = g.add("a", 8, 8, DataKind::Input);
        let x = g.add("x", 8, 8, DataKind::Temporary);
        let l = g.add("l", 8, 8, DataKind::Temporary);
        let r = g.add("r", 8, 8, DataKind::Temporary);
        let out = g.add("o", 8, 8, DataKind::Output);
        g.add_op("t0", OpKind::Tanh, vec![a], x).unwrap();
        g.add_op("tl", OpKind::Tanh, vec![x], l).unwrap();
        g.add_op("tr", OpKind::Tanh, vec![x], r).unwrap();
        g.add_op("j", OpKind::EwAdd { arity: 2 }, vec![l, r], out)
            .unwrap();
        let units = partition_offload_units(&g, PartitionPolicy::GreedyFuse, u64::MAX);
        // t0 cannot fuse forward (x has 2 consumers); tl and tr each have a
        // single consumer j, so both fuse into j's unit.
        assert_eq!(units.len(), 2);
        let sizes: Vec<usize> = units.iter().map(|u| u.ops.len()).collect();
        assert!(sizes.contains(&1) && sizes.contains(&3), "{sizes:?}");
    }

    #[test]
    fn output_producing_ops_not_fused_forward() {
        // Producer writes an Output-kind structure consumed downstream; the
        // host needs it, so the edge must not fuse.
        let mut g = Graph::new();
        let a = g.add("a", 8, 8, DataKind::Input);
        let x = g.add("x", 8, 8, DataKind::Output);
        let y = g.add("y", 8, 8, DataKind::Output);
        g.add_op("t0", OpKind::Tanh, vec![a], x).unwrap();
        g.add_op("t1", OpKind::Tanh, vec![x], y).unwrap();
        let units = partition_offload_units(&g, PartitionPolicy::GreedyFuse, u64::MAX);
        assert_eq!(units.len(), 2);
    }
}
