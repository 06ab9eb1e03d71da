//! Content-addressed cache keys for compiled plans.
//!
//! A plan is fully determined by three inputs: the request graph's
//! structure (its [`canonical_hash`]), the normalized
//! [`CompileOptions`] (total `Eq`/`Hash`, float margin by bit pattern),
//! and the target cluster. The cluster enters the key as a stable
//! fingerprint over every field of every [`DeviceSpec`] — two clusters
//! fingerprint equal exactly when the planner would treat them
//! identically.
//!
//! The secondary [`SkeletonKey`] drops data sizes from the graph
//! component ([`skeleton_hash`]); the cache uses it to find a cached
//! plan for the *same template at a different size* and attempt an
//! incremental recompile.

use gpuflow_core::CompileOptions;
use gpuflow_graph::canon::mix;
use gpuflow_graph::{canonical_hash, skeleton_hash, Graph};
use gpuflow_multi::Cluster;
use gpuflow_sim::device::DeviceSpec;

/// Stable fingerprint of one device specification.
///
/// Every field the planner or simulator reads participates, floats by bit
/// pattern; the marketing name participates too so distinct presets with
/// coincidentally equal numbers stay distinct in logs.
pub fn device_fingerprint(dev: &DeviceSpec) -> u64 {
    let mut h = 0x6465_7669_6365u64;
    for b in dev.name.bytes() {
        h = mix(h, b as u64);
    }
    h = mix(h, dev.memory_bytes);
    h = mix(h, dev.cores as u64);
    h = mix(h, dev.clock_ghz.to_bits());
    h = mix(h, dev.internal_bw.to_bits());
    h = mix(h, dev.pcie_bw.to_bits());
    h = mix(h, dev.transfer_latency_s.to_bits());
    h = mix(h, dev.launch_overhead_s.to_bits());
    h = mix(h, dev.flops_efficiency.to_bits());
    h = mix(h, dev.mem_efficiency.to_bits());
    h
}

/// Stable fingerprint of a whole cluster: the ordered device
/// fingerprints. (Device order matters — band ownership is positional.)
/// The shared bus is derived from the members, so it needs no separate
/// contribution.
pub fn cluster_fingerprint(cluster: &Cluster) -> u64 {
    let mut h = mix(0x0063_6C75_7374_6572, cluster.len() as u64);
    for dev in &cluster.devices {
        h = mix(h, device_fingerprint(dev));
    }
    h
}

/// Primary cache key: exact graph structure + options + cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`canonical_hash`] of the request graph.
    pub graph_hash: u64,
    /// Normalized compile options (total `Eq`/`Hash`).
    pub options: CompileOptions,
    /// [`cluster_fingerprint`] of the target cluster.
    pub cluster_fp: u64,
}

/// Secondary index key: size-insensitive graph skeleton + options +
/// cluster. Maps to the most recently inserted [`PlanKey`] sharing the
/// skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SkeletonKey {
    /// [`skeleton_hash`] of the request graph.
    pub skeleton: u64,
    /// Normalized compile options.
    pub options: CompileOptions,
    /// [`cluster_fingerprint`] of the target cluster.
    pub cluster_fp: u64,
}

impl PlanKey {
    /// Build the primary and secondary keys for one request.
    pub fn for_request(
        g: &Graph,
        options: CompileOptions,
        cluster: &Cluster,
    ) -> (PlanKey, SkeletonKey) {
        let cluster_fp = cluster_fingerprint(cluster);
        (
            PlanKey {
                graph_hash: canonical_hash(g),
                options,
                cluster_fp,
            },
            SkeletonKey {
                skeleton: skeleton_hash(g),
                options,
                cluster_fp,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_sim::device::{modern, tesla_c870};

    #[test]
    fn device_fingerprints_distinguish_presets_and_memory() {
        assert_ne!(
            device_fingerprint(&modern()),
            device_fingerprint(&tesla_c870())
        );
        let small = modern().with_memory(1 << 20);
        assert_ne!(device_fingerprint(&modern()), device_fingerprint(&small));
        assert_eq!(device_fingerprint(&modern()), device_fingerprint(&modern()));
    }

    #[test]
    fn cluster_fingerprint_is_positional() {
        let a = Cluster::new(vec![modern(), tesla_c870()]);
        let b = Cluster::new(vec![tesla_c870(), modern()]);
        assert_ne!(cluster_fingerprint(&a), cluster_fingerprint(&b));
        let c2 = Cluster::homogeneous(modern(), 2);
        let c3 = Cluster::homogeneous(modern(), 3);
        assert_ne!(cluster_fingerprint(&c2), cluster_fingerprint(&c3));
    }
}
