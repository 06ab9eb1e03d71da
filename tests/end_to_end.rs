//! Cross-crate integration tests: templates → framework → simulator →
//! functional verification against the reference evaluator, plus code
//! generation round-trips.

use std::collections::HashMap;

use gpuflow::codegen::{generate_cuda, plan_to_json};
use gpuflow::core::{
    baseline_plan, CompileOptions, EvictionPolicy, Framework, Machine, OpScheduler,
    PartitionPolicy, PbExactOptions, ResilientExecutor,
};
use gpuflow::graph::DataId;
use gpuflow::ops::{reference_eval, Tensor};
use gpuflow::sim::device::{geforce_8800_gtx, tesla_c870};
use gpuflow::templates::cnn::{small_cnn, CnnBuilder};
use gpuflow::templates::data::default_bindings;
use gpuflow::templates::edge::{find_edges, CombineOp};

fn check_against_reference(
    g: &gpuflow::graph::Graph,
    outputs: &HashMap<DataId, Tensor>,
    bindings: &HashMap<DataId, Tensor>,
) {
    let reference = reference_eval(g, bindings).expect("reference evaluates");
    assert_eq!(outputs.len(), reference.len());
    for (d, t) in outputs {
        assert_eq!(t, &reference[d], "output {} differs", g.data(*d).name);
    }
}

#[test]
fn edge_template_across_memory_sizes() {
    // The same template, executed under progressively harsher memory
    // constraints, must always match the unconstrained reference.
    let t = find_edges(200, 160, 9, 4, CombineOp::Max);
    let bindings = default_bindings(&t.graph);
    for mem_kib in [10_000u64, 600, 360, 240] {
        let dev = tesla_c870().with_memory(mem_kib << 10);
        let compiled = Framework::new(dev)
            .compile_adaptive(&t.graph)
            .unwrap_or_else(|e| panic!("compile at {mem_kib} KiB: {e}"));
        let out = compiled.run_functional(&bindings).unwrap();
        check_against_reference(&t.graph, &out.outputs, &bindings);
        assert!(out.peak_device_bytes <= mem_kib << 10);
    }
}

#[test]
fn edge_template_with_eight_orientations_and_maxabs() {
    let t = find_edges(128, 128, 16, 8, CombineOp::MaxAbs);
    let bindings = default_bindings(&t.graph);
    let dev = geforce_8800_gtx().with_memory(400 << 10);
    let compiled = Framework::new(dev).compile_adaptive(&t.graph).unwrap();
    assert!(compiled.split.parts >= 2);
    let out = compiled.run_functional(&bindings).unwrap();
    check_against_reference(&t.graph, &out.outputs, &bindings);
}

#[test]
fn cnn_functional_equivalence_under_split() {
    let cnn = CnnBuilder::new(2, 40, 36)
        .spatial_convolution(3, 5)
        .tanh()
        .spatial_subsample(2)
        .spatial_convolution(2, 3)
        .tanh()
        .build();
    let bindings = default_bindings(&cnn.graph);
    // 64 KiB: small enough to force splitting of the first conv layer
    // (40x36 planes are ~5.6 KiB each; layer working sets are several).
    let dev = tesla_c870().with_memory(64 << 10);
    let compiled = Framework::new(dev).compile_adaptive(&cnn.graph).unwrap();
    let out = compiled.run_functional(&bindings).unwrap();
    check_against_reference(&cnn.graph, &out.outputs, &bindings);
}

#[test]
fn small_cnn_is_correct_and_beats_baseline() {
    let cnn = small_cnn(60, 80);
    let bindings = default_bindings(&cnn.graph);
    let dev = tesla_c870().with_memory(1 << 20);
    let compiled = Framework::new(dev.clone())
        .compile_adaptive(&cnn.graph)
        .unwrap();
    let out = compiled.run_functional(&bindings).unwrap();
    check_against_reference(&cnn.graph, &out.outputs, &bindings);

    let base = baseline_plan(&cnn.graph, dev.memory_bytes).unwrap();
    let base_out = ResilientExecutor::quiet(&cnn.graph, &base, &Machine::single(&dev))
        .run_analytic()
        .unwrap()
        .exec;
    assert!(
        out.transfer_floats() * 5 < base_out.transfer_floats(),
        "optimized {} vs baseline {}",
        out.transfer_floats(),
        base_out.transfer_floats()
    );
    assert!(out.total_time() < base_out.total_time());
}

#[test]
fn every_scheduler_and_policy_is_functionally_correct() {
    let t = find_edges(96, 96, 5, 4, CombineOp::Add);
    let bindings = default_bindings(&t.graph);
    let dev = tesla_c870().with_memory(256 << 10);
    for scheduler in [
        OpScheduler::DepthFirst,
        OpScheduler::SourceDepthFirst,
        OpScheduler::BreadthFirst,
        OpScheduler::InsertionOrder,
    ] {
        for eviction in [
            EvictionPolicy::Belady,
            EvictionPolicy::LatestUse,
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
        ] {
            for eager_free in [true, false] {
                let opts = CompileOptions {
                    scheduler,
                    eviction,
                    eager_free,
                    memory_margin: 0.2,
                    ..CompileOptions::default()
                };
                let compiled = Framework::new(dev.clone())
                    .with_options(opts)
                    .compile(&t.graph)
                    .unwrap_or_else(|e| panic!("{scheduler:?}/{eviction:?}: {e}"));
                let out = compiled
                    .run_functional(&bindings)
                    .unwrap_or_else(|e| panic!("{scheduler:?}/{eviction:?}: {e}"));
                check_against_reference(&t.graph, &out.outputs, &bindings);
            }
        }
    }
}

#[test]
fn greedy_fusion_is_functionally_correct() {
    let t = find_edges(100, 100, 7, 4, CombineOp::Max);
    let bindings = default_bindings(&t.graph);
    let dev = tesla_c870();
    let opts = CompileOptions {
        partition: PartitionPolicy::GreedyFuse,
        ..CompileOptions::default()
    };
    let compiled = Framework::new(dev)
        .with_options(opts)
        .compile(&t.graph)
        .unwrap();
    // Fusion reduces launch count.
    assert!(compiled.plan.units.len() < t.graph.num_ops());
    let out = compiled.run_functional(&bindings).unwrap();
    check_against_reference(&t.graph, &out.outputs, &bindings);
}

#[test]
fn exact_pb_compilation_end_to_end() {
    let t = find_edges(64, 64, 5, 4, CombineOp::Max);
    let bindings = default_bindings(&t.graph);
    // Memory that holds ~2.5 edge maps: forces real scheduling decisions.
    let mem = 45_000u64;
    let dev = tesla_c870().with_memory(mem);
    let opts = CompileOptions {
        exact: Some(PbExactOptions::default()),
        memory_margin: 0.1,
        ..CompileOptions::default()
    };
    let exact = Framework::new(dev.clone())
        .with_options(opts)
        .compile(&t.graph)
        .unwrap();
    assert!(exact.exact_optimal);
    let out = exact.run_functional(&bindings).unwrap();
    check_against_reference(&t.graph, &out.outputs, &bindings);

    // The heuristic plan must not beat the proven optimum.
    let heur = Framework::new(dev)
        .with_options(CompileOptions {
            memory_margin: 0.1,
            ..CompileOptions::default()
        })
        .compile(&t.graph)
        .unwrap();
    assert!(exact.stats().total_floats() <= heur.stats().total_floats());
}

#[test]
fn codegen_round_trip_for_compiled_template() {
    let t = find_edges(120, 120, 9, 4, CombineOp::Max);
    let dev = tesla_c870().with_memory(300 << 10);
    let compiled = Framework::new(dev).compile_adaptive(&t.graph).unwrap();
    let g = &compiled.split.graph;

    let cuda = generate_cuda(g, &compiled.plan, "edge120").unwrap();
    let stats = compiled.stats();
    assert_eq!(
        cuda.matches("cudaMemcpyHostToDevice").count() as u64,
        stats.copies_in
    );
    assert_eq!(
        cuda.matches("cudaMemcpyDeviceToHost").count() as u64,
        stats.copies_out
    );
    assert_eq!(cuda.matches('{').count(), cuda.matches('}').count());

    let json = plan_to_json(g, &compiled.plan, "edge120").unwrap();
    let doc = gpuflow_minijson::parse(&json).unwrap();
    assert_eq!(doc["template"], "edge120");
    assert_eq!(
        doc["total_transfer_floats"].as_u64().unwrap(),
        stats.total_floats()
    );
    assert_eq!(
        doc["steps"].as_array().unwrap().len(),
        compiled.plan.steps.len()
    );
}

#[test]
fn stencil_chain_splits_with_halo_exchanges() {
    // Conv -> conv chains force the splitter to insert GatherRows halo
    // exchanges between bands; the result must still be bit-exact.
    use gpuflow::templates::stencil::{diffusion_kernel, heat_diffusion, hot_spot};
    let t = heat_diffusion(96, 4);
    let mut bindings = HashMap::new();
    bindings.insert(t.field, hot_spot(96));
    bindings.insert(t.kernel, diffusion_kernel(0.2));
    // ~36 KiB field; 24 KiB device forces splitting.
    let dev = tesla_c870().with_memory(24 << 10);
    let compiled = Framework::new(dev).compile_adaptive(&t.graph).unwrap();
    assert!(compiled.split.parts >= 2);
    let gathers = compiled
        .split
        .graph
        .op_ids()
        .filter(|&o| {
            matches!(
                compiled.split.graph.op(o).kind,
                gpuflow::graph::OpKind::GatherRows { .. }
            )
        })
        .count();
    assert!(gathers > 0, "halo exchanges expected between split sweeps");
    let out = compiled.run_functional(&bindings).unwrap();
    check_against_reference(&t.graph, &out.outputs, &bindings);
}

#[test]
fn gemm_chain_splits_by_broadcasting_factors() {
    use gpuflow::templates::gemm::matmul_chain;
    let t = matmul_chain(256, &[128, 96, 64]);
    let mut bindings = HashMap::new();
    bindings.insert(
        t.a,
        Tensor::from_fn(256, 128, |r, c| ((r + 3 * c) % 11) as f32 - 5.0),
    );
    bindings.insert(
        t.factors[0],
        Tensor::from_fn(128, 96, |r, c| ((r * c) % 7) as f32 - 3.0),
    );
    bindings.insert(
        t.factors[1],
        Tensor::from_fn(96, 64, |r, c| ((r + c) % 5) as f32 - 2.0),
    );
    // Total data ~ 125k floats = 500 KB; 128 KiB forces row-banding.
    let dev = tesla_c870().with_memory(128 << 10);
    let compiled = Framework::new(dev).compile_adaptive(&t.graph).unwrap();
    assert!(compiled.split.parts >= 2);
    // Every split matmul piece still reads its full B factor.
    for o in compiled.split.graph.op_ids() {
        let node = compiled.split.graph.op(o);
        if node.kind == gpuflow::graph::OpKind::MatMul {
            let b_rows = compiled.split.graph.data(node.inputs[1]).rows;
            assert!(b_rows == 128 || b_rows == 96, "B must be broadcast whole");
        }
    }
    let out = compiled.run_functional(&bindings).unwrap();
    check_against_reference(&t.graph, &out.outputs, &bindings);
}

#[test]
fn devices_differ_only_in_memory_pressure() {
    // On a workload that fits both devices, the two platforms produce
    // identical plans (they differ only in memory, like the paper's).
    let t = find_edges(500, 500, 16, 4, CombineOp::Max);
    let a = Framework::new(tesla_c870()).compile(&t.graph).unwrap();
    let b = Framework::new(geforce_8800_gtx())
        .compile(&t.graph)
        .unwrap();
    assert_eq!(a.stats(), b.stats());
    // On a workload exceeding the smaller card, plans diverge.
    let big = find_edges(7000, 7000, 16, 4, CombineOp::Max);
    let a = Framework::new(tesla_c870()).compile(&big.graph).unwrap();
    let b = Framework::new(geforce_8800_gtx())
        .compile(&big.graph)
        .unwrap();
    assert_eq!(a.split.parts, 1, "fits the 1.5 GB card whole");
    assert!(b.split.parts >= 2, "must split on the 768 MB card");
}
