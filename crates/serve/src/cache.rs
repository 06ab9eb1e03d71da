//! The content-addressed plan cache.
//!
//! Maps [`PlanKey`]s (canonical graph hash × normalized options × cluster
//! fingerprint) to compiled plans, with:
//!
//! * **LRU eviction** at a fixed entry capacity — plans are small compared
//!   to the compile cost they amortize, so the cache optimizes for hit
//!   rate under Zipf-ish template popularity, not bytes;
//! * a **skeleton index** from [`SkeletonKey`]s (size-insensitive hash) to
//!   the most recent entry sharing the skeleton, which powers the
//!   incremental-recompile fast path in [`crate::planner`];
//! * an **integrity sweep** ([`PlanCache::verify_integrity`]) re-running
//!   plan validation over every resident entry, used by the chaos soak to
//!   prove fault storms never corrupt cached state.

use std::collections::HashMap;
use std::sync::Arc;

use gpuflow_core::CompiledTemplate;

use crate::key::{PlanKey, SkeletonKey};

struct CacheEntry {
    /// The compiled template: one device's or a cluster's, certified by
    /// construction, with its per-device peaks (the admission
    /// controller's input) from the walk that checked it.
    plan: Arc<CompiledTemplate>,
    skeleton: SkeletonKey,
    last_used: u64,
}

/// LRU plan cache with a size-insensitive secondary index.
pub struct PlanCache {
    capacity: usize,
    entries: HashMap<PlanKey, CacheEntry>,
    skeleton_index: HashMap<SkeletonKey, PlanKey>,
    tick: u64,
    evictions: u64,
}

impl PlanCache {
    /// Cache holding at most `capacity` plans (≥ 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            skeleton_index: HashMap::new(),
            tick: 0,
            evictions: 0,
        }
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Exact-key lookup. Bumps recency.
    pub fn probe(&mut self, key: &PlanKey) -> Option<Arc<CompiledTemplate>> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.get_mut(key)?;
        e.last_used = tick;
        Some(Arc::clone(&e.plan))
    }

    /// Skeleton lookup: a cached plan for the same template structure at
    /// (possibly) different data sizes. Does not bump recency — only a
    /// successful incremental recompile, which re-inserts under the new
    /// exact key, counts as a use.
    pub fn skeleton_probe(&self, key: &SkeletonKey) -> Option<Arc<CompiledTemplate>> {
        let plan_key = self.skeleton_index.get(key)?;
        self.entries.get(plan_key).map(|e| Arc::clone(&e.plan))
    }

    /// Insert (or replace) an entry, evicting the least-recently-used
    /// entry if at capacity.
    pub fn insert(&mut self, key: PlanKey, skeleton: SkeletonKey, plan: Arc<CompiledTemplate>) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some((&lru_key, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.remove(&lru_key);
                self.evictions += 1;
            }
        }
        self.skeleton_index.insert(skeleton, key);
        self.entries.insert(
            key,
            CacheEntry {
                plan,
                skeleton,
                last_used: self.tick,
            },
        );
    }

    /// All resident keys, least-recently-used first. The journal
    /// compactor replays these through the recipe map so the rewritten
    /// journal reproduces both residency *and* LRU order on restart.
    pub fn keys_by_recency(&self) -> Vec<PlanKey> {
        let mut keyed: Vec<(u64, PlanKey)> = self
            .entries
            .iter()
            .map(|(k, e)| (e.last_used, *k))
            .collect();
        keyed.sort_by_key(|(t, _)| *t);
        keyed.into_iter().map(|(_, k)| k).collect()
    }

    fn remove(&mut self, key: &PlanKey) {
        if let Some(e) = self.entries.remove(key) {
            // Only drop the skeleton alias if it still points here (a
            // newer same-skeleton entry may have overwritten it).
            if self.skeleton_index.get(&e.skeleton) == Some(key) {
                self.skeleton_index.remove(&e.skeleton);
            }
        }
    }

    /// Re-check every resident plan against its own split graph and the
    /// per-device budgets it was scheduled for: the residency analysis and
    /// the concurrency certificate. Returns the number of entries checked;
    /// any corruption is an `Err` naming the offending key.
    pub fn verify_integrity(&self) -> Result<usize, String> {
        for (key, e) in &self.entries {
            let t = &e.plan;
            let budgets: Vec<u64> = t
                .devices
                .iter()
                .map(|d| d.plannable_memory(key.options.memory_margin))
                .collect();
            let (analysis, certificate) = t.plan.check_devices(&t.split.graph, &budgets);
            if let Some(d) = analysis.first_error().or(certificate.first_error()) {
                return Err(format!("cache entry {:#x}: {}", key.graph_hash, d.message));
            }
        }
        Ok(self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_core::{CompileOptions, Framework};
    use gpuflow_multi::Cluster;
    use gpuflow_sim::device::modern;

    fn key_for(spec: &str, cluster: &Cluster) -> (PlanKey, SkeletonKey, Arc<CompiledTemplate>) {
        let g = crate::source::resolve_named(spec).unwrap();
        let (key, skel) = PlanKey::for_request(&g, CompileOptions::default(), cluster);
        let t = Framework::new(cluster.devices[0].clone())
            .compile(&g)
            .unwrap();
        (key, skel, Arc::new(t))
    }

    #[test]
    fn probe_hits_after_insert_and_lru_evicts() {
        let cluster = Cluster::homogeneous(modern(), 1);
        let mut cache = PlanCache::new(2);
        let (k1, s1, p1) = key_for("edge:64x64,k=5,o=2", &cluster);
        let (k2, s2, p2) = key_for("edge:96x96,k=5,o=2", &cluster);
        let (k3, s3, p3) = key_for("fig3", &cluster);
        assert!(cache.probe(&k1).is_none());
        cache.insert(k1, s1, p1);
        cache.insert(k2, s2, p2);
        assert!(cache.probe(&k1).is_some()); // k1 now most recent
        cache.insert(k3, s3, p3); // evicts k2
        assert_eq!(cache.evictions(), 1);
        assert!(cache.probe(&k1).is_some());
        assert!(cache.probe(&k2).is_none());
        assert!(cache.probe(&k3).is_some());
        assert_eq!(cache.verify_integrity().unwrap(), 2);
    }

    #[test]
    fn skeleton_probe_finds_resized_template() {
        let cluster = Cluster::homogeneous(modern(), 1);
        let mut cache = PlanCache::new(4);
        let (k1, s1, p1) = key_for("edge:64x64,k=5,o=2", &cluster);
        cache.insert(k1, s1, p1);
        // Same template at a different size: exact key differs, skeleton
        // matches.
        let g2 = crate::source::resolve_named("edge:96x96,k=5,o=2").unwrap();
        let (k2, s2) = PlanKey::for_request(&g2, CompileOptions::default(), &cluster);
        assert_ne!(k1, k2);
        assert_eq!(s1, s2);
        assert!(cache.probe(&k2).is_none());
        assert!(cache.skeleton_probe(&s2).is_some());
        // A different kernel size is also just a size change (the kernel
        // is a constant data structure; Conv2d itself is unparameterized),
        // so it still skeleton-matches …
        let g3 = crate::source::resolve_named("edge:64x64,k=7,o=2").unwrap();
        let (_, s3) = PlanKey::for_request(&g3, CompileOptions::default(), &cluster);
        assert!(cache.skeleton_probe(&s3).is_some());
        // … while a different orientation count changes the op structure
        // and misses.
        let g4 = crate::source::resolve_named("edge:64x64,k=5,o=4").unwrap();
        let (_, s4) = PlanKey::for_request(&g4, CompileOptions::default(), &cluster);
        assert!(cache.skeleton_probe(&s4).is_none());
    }
}
