//! Property tests for the stream-aware list scheduler (`gpuflow-streams`,
//! see `docs/streams.md`).
//!
//! Invariants pinned here, across the bundled templates (fig3, edge
//! detection, small CNN), every eviction policy, and stream counts
//! {1, 2, 4}:
//!
//! 1. **Makespan bounds.** The overlapped makespan of every compiled plan
//!    sits between the engine-occupancy lower bound (`max` of any single
//!    engine's busy time) and the fully serialized makespan.
//! 2. **Monotonicity in streams.** The list scheduler's issue order does
//!    not depend on `k`, so adding streams to the same step sequence can
//!    only relax launch start times: makespan is non-increasing in `k`.
//! 3. **Certification.** Every stream plan earns the GF005x concurrency
//!    certificate under the multi-stream lane model, and the dynamic
//!    sanitizer (run inside `overlapped_trace` in debug builds) agrees.
//! 4. **`streams = 1` is the serial planner.** Compiling with one stream
//!    is byte-identical to the default pipeline — same steps, no
//!    annotation — for every operator scheduler.
//! 5. **Functional equivalence.** Stream plans compute exactly what the
//!    reference evaluator computes.

use gpuflow_core::examples::fig3_graph;
use gpuflow_core::xfer::XferOptions;
use gpuflow_core::{
    overlapped_makespan, schedule_streamed, CompileOptions, EvictionPolicy, Framework, OpScheduler,
};
use gpuflow_core::{partition_offload_units, PartitionPolicy};
use gpuflow_graph::Graph;
use gpuflow_ops::reference_eval;
use gpuflow_sim::device::tesla_c870;
use gpuflow_sim::DeviceSpec;
use gpuflow_templates::data::default_bindings;
use gpuflow_templates::{cnn, edge};

const EPS: f64 = 1e-9;

/// The template/device matrix the scheduler must behave on. The tight
/// variants force operator splitting, so stream plans also cover split
/// graphs with eviction pressure.
fn bundled_cases() -> Vec<(&'static str, Graph, DeviceSpec)> {
    vec![
        ("fig3", fig3_graph(), tesla_c870()),
        (
            "edge",
            edge::find_edges(256, 256, 5, 2, edge::CombineOp::Max).graph,
            tesla_c870(),
        ),
        (
            "edge-tight",
            edge::find_edges(256, 256, 5, 2, edge::CombineOp::Max).graph,
            tesla_c870().with_memory(2 << 20),
        ),
        ("cnn-small", cnn::small_cnn(128, 128).graph, tesla_c870()),
    ]
}

#[test]
fn stream_makespan_is_bounded_and_certified_everywhere() {
    for (name, g, dev) in bundled_cases() {
        for eviction in [
            EvictionPolicy::Belady,
            EvictionPolicy::LatestUse,
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
        ] {
            for k in [1usize, 2, 4] {
                let compiled = Framework::new(dev.clone())
                    .with_options(CompileOptions {
                        streams: k,
                        eviction,
                        ..CompileOptions::default()
                    })
                    .compile_adaptive(&g)
                    .unwrap_or_else(|e| panic!("{name}/{eviction:?}/k={k}: {e}"));
                let tag = format!("{name}/{eviction:?}/k={k}");
                match (&compiled.plan.streams, k) {
                    (None, 1) => {}
                    (Some(ann), k) if k > 1 => {
                        assert_eq!(ann.num_streams, k, "{tag}");
                        assert_eq!(ann.unit_stream.len(), compiled.plan.units.len(), "{tag}");
                        assert!(ann.unit_stream.iter().all(|&s| s < k), "{tag}");
                    }
                    other => panic!("{tag}: unexpected annotation {:?}", other.0.is_some()),
                }
                let cert = compiled.plan.certify(&compiled.split.graph);
                assert!(cert.certified(), "{tag}: {:?}", cert.first_error());
                // In debug builds `overlapped_makespan` additionally runs
                // the dynamic happens-before sanitizer over the plan.
                let o = overlapped_makespan(&compiled.split.graph, &compiled.plan, &dev);
                assert!(
                    o.busy_lower_bound() <= o.makespan + EPS,
                    "{tag}: occupancy bound {:.6} above makespan {:.6}",
                    o.busy_lower_bound(),
                    o.makespan
                );
                assert!(
                    o.makespan <= o.serial_time + EPS,
                    "{tag}: makespan {:.6} above serial {:.6}",
                    o.makespan,
                    o.serial_time
                );
                // One busy clock per stream; with the two transfer
                // channels they partition the serial time.
                assert_eq!(o.compute_busy.len(), if k > 1 { k } else { 1 }, "{tag}");
                let busy = o.copy_busy() + o.compute_total();
                assert!((busy - o.serial_time).abs() < EPS, "{tag}");
            }
        }
    }
}

#[test]
fn makespan_is_non_increasing_in_stream_count() {
    // The list scheduler's issue order is independent of `k` (priorities
    // consult the DAG and the cost model only), so plans for different `k`
    // share their step sequence and extra streams can only relax starts.
    for (name, g, dev) in bundled_cases() {
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let xfer = XferOptions {
            memory_bytes: dev.memory_bytes,
            policy: EvictionPolicy::Belady,
            eager_free: true,
        };
        let mut prev: Option<f64> = None;
        let mut steps1 = None;
        for k in [1usize, 2, 4] {
            let plan = match schedule_streamed(&g, &units, &dev, k, xfer) {
                Ok(p) => p,
                // Tight devices can make the unsplit graph unschedulable;
                // the bounded-makespan test covers those via the adaptive
                // pipeline.
                Err(_) => return,
            };
            match &steps1 {
                None => steps1 = Some(plan.steps.clone()),
                Some(s) => assert_eq!(s, &plan.steps, "{name}/k={k}: issue order changed"),
            }
            let o = overlapped_makespan(&g, &plan, &dev);
            if let Some(p) = prev {
                assert!(
                    o.makespan <= p + EPS,
                    "{name}/k={k}: makespan grew from {:.6} to {:.6}",
                    p,
                    o.makespan
                );
            }
            prev = Some(o.makespan);
        }
    }
}

#[test]
fn streams_1_compiles_byte_identically_for_every_scheduler() {
    for (name, g, dev) in bundled_cases() {
        for sched in [
            OpScheduler::DepthFirst,
            OpScheduler::SourceDepthFirst,
            OpScheduler::BreadthFirst,
            OpScheduler::InsertionOrder,
        ] {
            let with_flag = Framework::new(dev.clone())
                .with_options(CompileOptions {
                    streams: 1,
                    scheduler: sched,
                    ..CompileOptions::default()
                })
                .compile_adaptive(&g)
                .unwrap_or_else(|e| panic!("{name}/{sched:?}: {e}"));
            let default = Framework::new(dev.clone())
                .with_options(CompileOptions {
                    scheduler: sched,
                    ..CompileOptions::default()
                })
                .compile_adaptive(&g)
                .unwrap_or_else(|e| panic!("{name}/{sched:?}: {e}"));
            assert_eq!(
                with_flag.plan.steps, default.plan.steps,
                "{name}/{sched:?}: steps diverged at streams=1"
            );
            assert!(with_flag.plan.streams.is_none(), "{name}/{sched:?}");
            assert!(default.plan.streams.is_none(), "{name}/{sched:?}");
        }
    }
}

#[test]
fn stream_plans_compute_the_reference_answer() {
    for (name, g, dev) in bundled_cases() {
        let compiled = Framework::new(dev.clone())
            .with_options(CompileOptions {
                streams: 2,
                ..CompileOptions::default()
            })
            .compile_adaptive(&g)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let bindings = default_bindings(&g);
        let run = compiled
            .run_functional(&bindings)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let reference = reference_eval(&g, &bindings).unwrap();
        for (d, t) in &run.outputs {
            assert_eq!(t, &reference[d], "{name}: output {} diverged", d.index());
        }
    }
}

#[test]
fn stream_compilation_is_deterministic() {
    for (name, g, dev) in bundled_cases() {
        let compile = || {
            Framework::new(dev.clone())
                .with_options(CompileOptions {
                    streams: 4,
                    ..CompileOptions::default()
                })
                .compile_adaptive(&g)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let (a, b) = (compile(), compile());
        assert_eq!(a.plan.steps, b.plan.steps, "{name}");
        assert_eq!(a.plan.streams, b.plan.streams, "{name}");
    }
}
