//! The caching planner: exact hit, incremental recompile, or full compile.
//!
//! Request resolution order:
//!
//! 1. **Exact hit** — the [`PlanKey`] is resident: return the cached plan
//!    unchanged. A hit is byte-identical to a fresh compile of the same
//!    request (property-tested in `tests/cache_properties.rs`), because
//!    every pipeline pass is a deterministic function of (graph, options,
//!    device).
//! 2. **Incremental recompile** — a plan for the same template *skeleton*
//!    (same structure, different data sizes) is resident: re-run only the
//!    cheap shape-dependent passes — operator splitting and plan
//!    validation (footprint/residency analysis + hazard certification) —
//!    and reuse the cached schedule verbatim. The expensive passes
//!    (partitioning, operator scheduling, Belady transfer scheduling or
//!    the exact PB solve) are skipped. If the new sizes split differently
//!    or the reused schedule fails validation, fall through to 3.
//! 3. **Full compile** — the single-device [`Framework`] pipeline or
//!    [`compile_multi`] for clusters, then insert under both keys.
//!
//! The incremental path only applies to single-device plans: multi-device
//! schedules embed band ownership decisions that shift with sizes, so a
//! skeleton match is not evidence the sharding still holds.

use std::sync::Arc;

use gpuflow_core::{split_graph, CompileOptions, CompiledTemplate, Framework};
use gpuflow_graph::Graph;
use gpuflow_multi::{compile_multi, Cluster};

use crate::cache::PlanCache;
use crate::key::PlanKey;

/// How the cache participated in planning one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Exact key hit: no compilation work at all.
    Hit,
    /// Skeleton hit: split + validate re-ran, schedule reused.
    Incremental,
    /// Full compilation.
    Miss,
}

impl CacheOutcome {
    /// Wire-format label (`hit`, `incremental`, `miss`).
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Incremental => "incremental",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// A planned request, ready for admission and execution.
pub struct PlannedRequest {
    /// The compiled plan (shared with the cache), certified by
    /// construction; its per-device peaks are the admission controller's
    /// input.
    pub plan: Arc<CompiledTemplate>,
    /// How the cache participated.
    pub cache: CacheOutcome,
    /// Canonical hash of the request graph (response `graph_hash`).
    pub graph_hash: u64,
    /// The primary cache key the plan is resident under. The server's
    /// source-text memo stores this so repeat named requests can probe
    /// the cache without rebuilding or re-hashing the graph.
    pub key: PlanKey,
}

/// Plan `g` for `cluster` under `options`, consulting and updating `cache`.
pub fn plan_request(
    cache: &mut PlanCache,
    cluster: &Cluster,
    options: CompileOptions,
    g: &Graph,
) -> Result<PlannedRequest, String> {
    let (key, skel) = PlanKey::for_request(g, options, cluster);

    if let Some(plan) = cache.probe(&key) {
        return Ok(PlannedRequest {
            plan,
            cache: CacheOutcome::Hit,
            graph_hash: key.graph_hash,
            key,
        });
    }

    // Incremental fast path: same skeleton, new sizes, single device.
    if cluster.len() == 1 {
        if let Some(cached) = cache.skeleton_probe(&skel) {
            if let Some(plan) = try_incremental(&cached, cluster, options, g) {
                cache.insert(key, skel, Arc::clone(&plan));
                return Ok(PlannedRequest {
                    plan,
                    cache: CacheOutcome::Incremental,
                    graph_hash: key.graph_hash,
                    key,
                });
            }
        }
    }

    // Either compile rejects a plan the concurrency certifier does not
    // prove race-free.
    let compiled = if cluster.len() == 1 {
        Framework::new(cluster.devices[0].clone())
            .with_options(options)
            .compile(g)
    } else {
        compile_multi(g, cluster, options.memory_margin)
    };
    let plan = Arc::new(compiled.map_err(|e| e.to_string())?);
    cache.insert(key, skel, Arc::clone(&plan));
    Ok(PlannedRequest {
        plan,
        cache: CacheOutcome::Miss,
        graph_hash: key.graph_hash,
        key,
    })
}

/// Attempt the incremental recompile: re-split the new graph, require the
/// split to be structurally identical to the cached one, then revalidate
/// the cached schedule against the new shapes. Any mismatch returns
/// `None` and the caller falls back to a full compile.
fn try_incremental(
    cached: &CompiledTemplate,
    cluster: &Cluster,
    options: CompileOptions,
    g: &Graph,
) -> Option<Arc<CompiledTemplate>> {
    let device = cluster.devices[0].clone();
    let budget = device.plannable_memory(options.memory_margin);
    let split = split_graph(g, budget).ok()?;
    let structurally_same = split.parts == cached.split.parts
        && split.graph.num_ops() == cached.split.graph.num_ops()
        && split.graph.num_data() == cached.split.graph.num_data();
    if !structurally_same {
        return None;
    }
    // The schedule reuse gate: full footprint/residency analysis and the
    // hazard certificate against the *new* shapes; the statistics (and so
    // the peak) come from that same walk.
    cached
        .reuse_schedule(split, device, budget)
        .ok()
        .map(Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::resolve_named;
    use gpuflow_sim::device::modern;

    #[test]
    fn miss_then_hit_then_incremental() {
        let cluster = Cluster::homogeneous(modern(), 1);
        let mut cache = PlanCache::new(8);
        let opts = CompileOptions::default();
        let g = resolve_named("edge:128x128,k=5,o=2").unwrap();
        let first = plan_request(&mut cache, &cluster, opts, &g).unwrap();
        assert_eq!(first.cache, CacheOutcome::Miss);
        let second = plan_request(&mut cache, &cluster, opts, &g).unwrap();
        assert_eq!(second.cache, CacheOutcome::Hit);
        assert_eq!(second.plan.plan.steps, first.plan.plan.steps);
        // Same template, new size: the schedule skeleton is reused.
        let g2 = resolve_named("edge:160x160,k=5,o=2").unwrap();
        let third = plan_request(&mut cache, &cluster, opts, &g2).unwrap();
        assert_eq!(third.cache, CacheOutcome::Incremental);
        assert_eq!(third.plan.plan.steps, first.plan.plan.steps);
        // … shared with the skeleton parent, not copied.
        assert!(Arc::ptr_eq(&first.plan.plan, &third.plan.plan));
        // And the resized entry is now an exact hit.
        let fourth = plan_request(&mut cache, &cluster, opts, &g2).unwrap();
        assert_eq!(fourth.cache, CacheOutcome::Hit);
    }

    #[test]
    fn different_options_never_share_entries() {
        let cluster = Cluster::homogeneous(modern(), 1);
        let mut cache = PlanCache::new(8);
        let g = resolve_named("fig3").unwrap();
        let a = plan_request(&mut cache, &cluster, CompileOptions::default(), &g).unwrap();
        assert_eq!(a.cache, CacheOutcome::Miss);
        let other = CompileOptions {
            memory_margin: 0.2,
            ..CompileOptions::default()
        };
        // Different margin: not a hit, and not an incremental reuse either
        // (the skeleton key embeds the options).
        let b = plan_request(&mut cache, &cluster, other, &g).unwrap();
        assert_eq!(b.cache, CacheOutcome::Miss);
    }

    #[test]
    fn multi_device_requests_compile_and_report_per_device_peaks() {
        let cluster = Cluster::homogeneous(modern(), 2);
        let mut cache = PlanCache::new(8);
        let g = resolve_named("edge:256x256,k=5,o=2").unwrap();
        let planned = plan_request(&mut cache, &cluster, CompileOptions::default(), &g).unwrap();
        assert_eq!(planned.cache, CacheOutcome::Miss);
        assert_eq!(planned.plan.peak_per_device().len(), 2);
        let again = plan_request(&mut cache, &cluster, CompileOptions::default(), &g).unwrap();
        assert_eq!(again.cache, CacheOutcome::Hit);
    }
}
