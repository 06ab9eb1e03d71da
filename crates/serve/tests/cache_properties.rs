//! Property tests for the serving plan cache.
//!
//! The load-bearing guarantee: **a cache hit is indistinguishable from a
//! fresh compile**. For a random template × random compile options, the
//! plan served from the cache must serialize to byte-identical codegen
//! JSON as a from-scratch compile of the same request. This holds because
//! every pipeline pass is a deterministic function of (graph, options,
//! device) — the cache only memoizes, never approximates.
//!
//! Also covered: the incremental path produces plans that pass full
//! validation, and LRU eviction under churn never corrupts surviving
//! entries.

use gpuflow_codegen::plan_to_json;
use gpuflow_core::{CompileOptions, EvictionPolicy, Framework, OpScheduler};
use gpuflow_multi::Cluster;
use gpuflow_serve::planner::{plan_request, CacheOutcome};
use gpuflow_serve::source::resolve_named;
use gpuflow_serve::PlanCache;
use gpuflow_sim::device::modern;
use proptest::prelude::*;

/// The template pool: distinct structures and sizes, all single-device
/// compilable on the modern preset.
fn template(idx: u64, size_step: u64) -> String {
    let s = 64 + 32 * (size_step % 4); // 64..160
    match idx % 5 {
        0 => "fig3".to_string(),
        1 => format!("edge:{s}x{s},k=5,o=2"),
        2 => format!("edge:{s}x{s},k=5,o=4"),
        3 => format!("cnn-small:{s}x{s}"),
        _ => format!("edge:{s}x{s},k=7,o=2"),
    }
}

fn options(margin_step: u64, sched: u64, evict: u64) -> CompileOptions {
    CompileOptions {
        memory_margin: [0.0, 0.05, 0.15][(margin_step % 3) as usize],
        scheduler: if sched.is_multiple_of(2) {
            OpScheduler::DepthFirst
        } else {
            OpScheduler::SourceDepthFirst
        },
        eviction: if evict.is_multiple_of(2) {
            EvictionPolicy::Belady
        } else {
            EvictionPolicy::Lru
        },
        ..CompileOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A cache hit serializes byte-identically to a fresh compile of the
    /// same (graph, options, device) request.
    #[test]
    fn cache_hit_is_byte_identical_to_fresh_compile(
        t_idx in 0u64..5,
        size_step in 0u64..4,
        margin_step in 0u64..3,
        sched in 0u64..2,
        evict in 0u64..2,
    ) {
        let spec = template(t_idx, size_step);
        let g = resolve_named(&spec).unwrap();
        let opts = options(margin_step, sched, evict);
        let cluster = Cluster::homogeneous(modern(), 1);

        let mut cache = PlanCache::new(8);
        let first = plan_request(&mut cache, &cluster, opts, &g).unwrap();
        prop_assert_eq!(first.cache, CacheOutcome::Miss);
        let served = plan_request(&mut cache, &cluster, opts, &g).unwrap();
        prop_assert_eq!(served.cache, CacheOutcome::Hit);

        // The reference compile bypasses the cache entirely.
        let fresh = Framework::new(modern())
            .with_options(opts)
            .compile(&g)
            .unwrap();
        let fresh_json = plan_to_json(&fresh.split.graph, &fresh.plan, &spec).unwrap();
        let served_json = plan_to_json(&served.plan.split.graph, &served.plan.plan, &spec).unwrap();
        prop_assert_eq!(served_json, fresh_json);
        prop_assert_eq!(served.plan.peak_per_device(), &[fresh.stats().peak_bytes][..]);
    }

    /// Incremental recompiles keep the cache valid: after a resize chain,
    /// every resident entry still passes full plan validation.
    #[test]
    fn incremental_chain_preserves_integrity(
        margin_step in 0u64..3,
        sizes in proptest::collection::vec(0u64..6, 1..5),
    ) {
        let cluster = Cluster::homogeneous(modern(), 1);
        let opts = options(margin_step, 0, 0);
        let mut cache = PlanCache::new(8);
        for step in sizes {
            let s = 96 + 16 * step;
            let g = resolve_named(&format!("edge:{s}x{s},k=5,o=2")).unwrap();
            let planned = plan_request(&mut cache, &cluster, opts, &g).unwrap();
            // Whatever path it took, the served plan must be valid for
            // *these* sizes.
            let t = &planned.plan;
            let budget = t.devices[0].plannable_memory(opts.memory_margin);
            gpuflow_core::validate_plan(&t.split.graph, &t.plan, budget).unwrap();
        }
        prop_assert!(cache.verify_integrity().is_ok());
    }

    /// LRU churn past capacity never corrupts survivors.
    #[test]
    fn eviction_churn_keeps_survivors_valid(
        picks in proptest::collection::vec((0u64..5, 0u64..4), 6..14),
    ) {
        let cluster = Cluster::homogeneous(modern(), 1);
        let opts = CompileOptions::default();
        let mut cache = PlanCache::new(3);
        for (t_idx, size_step) in picks {
            let g = resolve_named(&template(t_idx, size_step)).unwrap();
            plan_request(&mut cache, &cluster, opts, &g).unwrap();
            prop_assert!(cache.len() <= 3);
        }
        prop_assert!(cache.verify_integrity().is_ok());
    }
}
