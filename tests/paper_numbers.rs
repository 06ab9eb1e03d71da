//! The paper's headline numbers, asserted as integration tests. Each test
//! names the table or figure it pins down; EXPERIMENTS.md documents the
//! deltas for the quantities that cannot match exactly.

use gpuflow::core::examples::{
    fig3_graph, fig3_memory_bytes, fig3_schedule_a, fig3_schedule_b, fig3_units, floats_to_units,
};
use gpuflow::core::opschedule::{schedule_units, OpScheduler};
use gpuflow::core::pbexact::{pb_exact_plan, PbExactOptions};
use gpuflow::core::split::op_parts_needed;
use gpuflow::core::xfer::{schedule_transfers, EvictionPolicy, XferOptions};
use gpuflow::core::{baseline_plan, Framework};
use gpuflow::graph::FLOAT_BYTES;
use gpuflow::sim::device::{geforce_8800_gtx, tesla_c870};
use gpuflow::sim::{kernel_time, timing::Work, transfer_time};
use gpuflow::templates::edge::{find_edges, CombineOp};

/// Fig. 1(c): the Tesla C870 feasibility boundaries at 150 / 166.67 / 750 /
/// 1500 MB of input image.
#[test]
fn fig1c_region_boundaries() {
    let mem = tesla_c870().memory_bytes as f64;
    let mb = (1u64 << 20) as f64;
    // The 8-orientation template: total 10x, max 9x, conv 2x, image 1x.
    let t = find_edges(4000, 4000, 16, 8, CombineOp::Max);
    let img = (4000.0f64 * 4000.0) * 4.0;
    let total = (t.graph.total_data_floats() * FLOAT_BYTES) as f64;
    let maxf = (t.combine_footprint_floats() * FLOAT_BYTES) as f64;
    let convf = (t.conv_footprint_floats() * FLOAT_BYTES) as f64;
    assert!(
        (total / img - 10.0).abs() < 0.25,
        "total/img {}",
        total / img
    );
    assert!((maxf / img - 9.0).abs() < 0.25, "max/img {}", maxf / img);
    assert!((convf / img - 2.0).abs() < 0.1, "conv/img {}", convf / img);
    // Boundaries implied by the ratios.
    assert!((mem / 10.0 / mb - 150.0).abs() < 1.0);
    assert!((mem / 9.0 / mb - 166.67).abs() < 1.0);
    assert!((mem / 2.0 / mb - 750.0).abs() < 1.0);
    assert!((mem / mb - 1500.0).abs() < 1.0);
}

/// Fig. 1(c) dynamics: the split factor grows monotonically with image
/// size once operators stop fitting.
#[test]
fn fig1c_split_parts_grow_with_size() {
    let mem = tesla_c870().memory_bytes;
    let mut last = 0u64;
    for n in [4000usize, 8000, 16000, 24000] {
        let t = find_edges(n, n, 16, 8, CombineOp::Max);
        let parts = t
            .graph
            .op_ids()
            .map(|o| op_parts_needed(&t.graph, o, mem).unwrap() as u64)
            .max()
            .unwrap();
        assert!(parts >= last, "n={n}: {parts} < {last}");
        last = parts;
    }
    assert!(last >= 8, "24000^2 should need many bands, got {last}");
}

/// Fig. 2: transfer share ~75% at kernel 2, ~30% at kernel 20, strictly
/// decreasing in between.
#[test]
fn fig2_transfer_share_band() {
    let dev = tesla_c870();
    let share = |k: u64| {
        let n = 8000u64;
        let out = (n - k + 1) * (n - k + 1);
        let compute = kernel_time(
            &dev,
            Work {
                flops: out * k * k * 2,
                bytes: (n * n + out) * 4,
            },
        );
        let xfer = transfer_time(&dev, n * n * 4) + transfer_time(&dev, out * 4);
        xfer / (xfer + compute)
    };
    assert!((0.6..=0.85).contains(&share(2)), "k=2: {}", share(2));
    assert!((0.2..=0.4).contains(&share(20)), "k=20: {}", share(20));
    let mut prev = 1.0;
    for k in (2..=20).step_by(2) {
        let s = share(k);
        assert!(s < prev);
        prev = s;
    }
}

/// Fig. 3: schedule (a) costs 15 units, schedule (b) costs 8 — via the
/// greedy heuristic, matching the paper exactly.
#[test]
fn fig3_fifteen_vs_eight() {
    let g = fig3_graph();
    let units = fig3_units(&g);
    let opts = XferOptions {
        memory_bytes: fig3_memory_bytes(),
        policy: EvictionPolicy::Belady,
        eager_free: true,
    };
    let a = schedule_transfers(&g, &units, &fig3_schedule_a(&g, &units), opts).unwrap();
    let b = schedule_transfers(&g, &units, &fig3_schedule_b(&g, &units), opts).unwrap();
    assert_eq!(floats_to_units(a.stats(&g).total_floats()), 15.0);
    assert_eq!(floats_to_units(b.stats(&g).total_floats()), 8.0);
}

/// §3.3.1: the paper's depth-first heuristic finds the optimal order for
/// the Fig. 3 example by itself.
#[test]
fn dfs_heuristic_finds_schedule_b() {
    let g = fig3_graph();
    let units = fig3_units(&g);
    let order = schedule_units(&g, &units, OpScheduler::DepthFirst);
    assert_eq!(order, fig3_schedule_b(&g, &units));
}

/// Fig. 6: the pseudo-Boolean optimum is 8 units and the solver proves it.
#[test]
fn fig6_pb_optimum_is_eight() {
    let g = fig3_graph();
    let units = fig3_units(&g);
    let out = pb_exact_plan(
        &g,
        &units,
        fig3_memory_bytes(),
        PbExactOptions::default(),
        None,
    )
    .unwrap();
    assert!(out.optimal);
    assert_eq!(floats_to_units(out.transfer_floats), 8.0);
}

/// Table 1, row 1: edge 1000x1000 — baseline ≈ 13M floats, optimized =
/// the I/O lower bound ≈ 2M floats, on both devices (the paper's exact
/// pattern; our absolute values are ~1.5% lower from valid-convolution
/// shrinkage).
#[test]
fn table1_edge_1000_pattern() {
    let t = find_edges(1000, 1000, 16, 4, CombineOp::Max);
    let lower = t.graph.io_lower_bound_floats();
    assert!((lower as f64 - 2_000_512.0).abs() / 2_000_512.0 < 0.03);

    let base = baseline_plan(&t.graph, tesla_c870().memory_bytes).unwrap();
    let base_floats = base.stats(&t.graph).total_floats();
    assert!((base_floats as f64 - 13_000_512.0).abs() / 13_000_512.0 < 0.03);

    for dev in [tesla_c870(), geforce_8800_gtx()] {
        let compiled = Framework::new(dev).compile(&t.graph).unwrap();
        assert_eq!(compiled.stats().total_floats(), lower);
    }
}

/// Table 1, row 2: edge 10000x10000 — the baseline is infeasible on both
/// devices (the max operator alone exceeds memory), while the framework
/// still runs.
#[test]
fn table1_edge_10000_baseline_na() {
    let t = find_edges(10000, 10000, 16, 4, CombineOp::Max);
    for dev in [tesla_c870(), geforce_8800_gtx()] {
        assert!(baseline_plan(&t.graph, dev.memory_bytes).is_err());
        let compiled = Framework::new(dev).compile(&t.graph).unwrap();
        assert!(compiled.split.parts >= 2);
        // Optimized transfers stay within ~2.1x of the lower bound (the
        // paper reports exactly 2x).
        let ratio = compiled.stats().total_floats() as f64 / t.graph.io_lower_bound_floats() as f64;
        assert!(ratio < 2.1, "ratio {ratio}");
    }
}

/// Table 2 shape: the framework beats the baseline on simulated time for
/// every feasible configuration, within the paper's 1.7–7.8x band or
/// better.
#[test]
fn table2_speedups_in_band() {
    use gpuflow::core::{Machine, ResilientExecutor};
    let dev = tesla_c870();
    for (n, k) in [(1000usize, 16usize), (3000, 16)] {
        let t = find_edges(n, n, k, 4, CombineOp::Max);
        let base = baseline_plan(&t.graph, dev.memory_bytes).unwrap();
        let base_t = ResilientExecutor::quiet(&t.graph, &base, &Machine::single(&dev))
            .run_analytic()
            .unwrap()
            .exec
            .total_time();
        let compiled = Framework::new(dev.clone()).compile(&t.graph).unwrap();
        let opt_t = compiled.run_analytic().unwrap().total_time();
        let speedup = base_t / opt_t;
        assert!(
            (1.5..=8.0).contains(&speedup),
            "edge {n}: speedup {speedup}"
        );
    }
}

/// Fig. 8 shape: optimized stays close to best-possible while the
/// baseline dies; the paper's bound is "within 20%".
#[test]
fn fig8_optimized_close_to_best_possible() {
    use gpuflow::core::best_possible_estimate;
    let dev = tesla_c870();
    for n in [8000usize, 16000] {
        let t = find_edges(n, n, 16, 4, CombineOp::Max);
        let compiled = Framework::new(dev.clone()).compile(&t.graph).unwrap();
        let opt = compiled.run_analytic().unwrap().total_time();
        let best = best_possible_estimate(&t.graph, &dev).total_time();
        assert!(opt / best < 1.2, "n={n}: {:.3}", opt / best);
        if n >= 16000 {
            assert!(baseline_plan(&t.graph, dev.memory_bytes).is_err());
        }
    }
}
