//! Plan-walk benchmarks: analytic plan walking at CNN scale, functional
//! execution (real kernels) on a mid-size edge template, and the baseline
//! for contrast.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gpuflow_core::{baseline_plan, Framework, Machine, ResilientExecutor};
use gpuflow_sim::device::tesla_c870;
use gpuflow_templates::cnn::small_cnn;
use gpuflow_templates::data::default_bindings;
use gpuflow_templates::edge::{find_edges, CombineOp};

fn bench_execution(c: &mut Criterion) {
    let dev = tesla_c870();

    // Analytic: walk the small-CNN plan (1568 kernels) without data.
    let cnn = small_cnn(480, 640).graph;
    let compiled = Framework::new(dev.clone()).compile(&cnn).unwrap();
    c.bench_function("analytic exec small CNN 640x480", |b| {
        b.iter(|| black_box(&compiled).run_analytic().unwrap())
    });

    let base = baseline_plan(&cnn, dev.memory_bytes).unwrap();
    c.bench_function("analytic exec small CNN baseline", |b| {
        b.iter(|| {
            ResilientExecutor::quiet(black_box(&cnn), &base, &Machine::single(&dev))
                .run_analytic()
                .unwrap()
        })
    });

    // Functional: real kernels on a 256x256 edge template under splitting.
    let t = find_edges(256, 256, 9, 4, CombineOp::Max);
    let small_dev = dev.with_memory(512 << 10);
    let compiled_split = Framework::new(small_dev)
        .compile_adaptive(&t.graph)
        .unwrap();
    let bindings = default_bindings(&t.graph);
    c.bench_function("functional exec edge 256^2 (split)", |b| {
        b.iter(|| compiled_split.run_functional(black_box(&bindings)).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_execution
}
criterion_main!(benches);
