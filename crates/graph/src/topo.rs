//! Topological ordering of operator graphs (Kahn's algorithm).

use crate::{Graph, OpId};

/// Error from [`topo_sort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoError {
    /// The graph contains a dependency cycle.
    Cycle,
}

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "operator graph contains a cycle")
    }
}

impl std::error::Error for TopoError {}

/// Return the operators in a topological order (every operator appears
/// after the producers of all its inputs). Ties are broken by insertion
/// order, so a graph built in execution order round-trips unchanged.
pub fn topo_sort(g: &Graph) -> Result<Vec<OpId>, TopoError> {
    let n = g.num_ops();
    let mut indegree = vec![0usize; n];
    for o in g.op_ids() {
        for &inp in &g.op(o).inputs {
            if g.producer(inp).is_some() {
                indegree[o.index()] += 1;
            }
        }
    }
    // Min-heap on op index keeps insertion order among ready ops.
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| std::cmp::Reverse(i as u32))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(i)) = ready.pop() {
        let o = OpId(i);
        order.push(o);
        for &out in &g.op(o).outputs {
            for &c in g.consumers(out) {
                indegree[c.index()] -= 1;
                if indegree[c.index()] == 0 {
                    ready.push(std::cmp::Reverse(c.0));
                }
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err(TopoError::Cycle)
    }
}

/// Verify that `order` is a permutation of all ops that respects data
/// dependencies. Used by plan validation and by tests.
pub fn is_valid_order(g: &Graph, order: &[OpId]) -> bool {
    if order.len() != g.num_ops() {
        return false;
    }
    let mut pos = vec![usize::MAX; g.num_ops()];
    for (t, &o) in order.iter().enumerate() {
        if o.index() >= g.num_ops() || pos[o.index()] != usize::MAX {
            return false;
        }
        pos[o.index()] = t;
    }
    for o in g.op_ids() {
        for &inp in &g.op(o).inputs {
            if let Some(p) = g.producer(inp) {
                if pos[p.index()] >= pos[o.index()] {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataKind, OpKind};

    fn chain(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut prev = g.add("in", 4, 4, DataKind::Input);
        for i in 0..n {
            let kind = if i + 1 == n {
                DataKind::Output
            } else {
                DataKind::Temporary
            };
            let next = g.add(format!("d{i}"), 4, 4, kind);
            g.add_op(format!("t{i}"), OpKind::Tanh, vec![prev], next)
                .unwrap();
            prev = next;
        }
        g
    }

    #[test]
    fn chain_topo_is_identity() {
        let g = chain(5);
        let order = topo_sort(&g).unwrap();
        assert_eq!(order, (0..5).map(OpId).collect::<Vec<_>>());
        assert!(is_valid_order(&g, &order));
    }

    #[test]
    fn diamond_topo() {
        let mut g = Graph::new();
        let a = g.add("a", 4, 4, DataKind::Input);
        let b = g.add("b", 4, 4, DataKind::Temporary);
        let c = g.add("c", 4, 4, DataKind::Temporary);
        let d = g.add("d", 4, 4, DataKind::Output);
        g.add_op("l", OpKind::Tanh, vec![a], b).unwrap();
        g.add_op("r", OpKind::Tanh, vec![a], c).unwrap();
        g.add_op("j", OpKind::EwAdd { arity: 2 }, vec![b, c], d)
            .unwrap();
        let order = topo_sort(&g).unwrap();
        assert_eq!(order.last(), Some(&OpId(2)));
        assert!(is_valid_order(&g, &order));
    }

    #[test]
    fn invalid_orders_detected() {
        let g = chain(3);
        assert!(!is_valid_order(&g, &[OpId(2), OpId(1), OpId(0)]));
        assert!(!is_valid_order(&g, &[OpId(0), OpId(1)])); // wrong length
        assert!(!is_valid_order(&g, &[OpId(0), OpId(0), OpId(1)])); // dup
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert!(topo_sort(&g).unwrap().is_empty());
        assert!(is_valid_order(&g, &[]));
    }
}
