//! The resilient executor on clusters: failover onto the surviving
//! devices, transient faults across devices, replay determinism, and the
//! two reconciliation rules that only a cluster can exercise — fault sites
//! are positional (a checkpoint copy does not move the site of any plan
//! transfer), and CPU fallback is timed on the device the compiled plan
//! assigned the operator to.

use std::collections::{BTreeSet, HashMap};

use gpuflow_chaos::{FaultClass, FaultSpec, RecoveryOptions};
use gpuflow_core::resilient::{SITE_DEVICE_SHIFT, SITE_EPOCH_SHIFT, SITE_PLAN_XFER};
use gpuflow_core::{ResilientExecutor, ResilientOutcome, Step};
use gpuflow_graph::{DataId, DataKind, Graph, OpKind, RemapKind};
use gpuflow_multi::{compile_multi, parse_cluster, shard_graph, Cluster, MultiCompiled};
use gpuflow_ops::{reference_eval, Tensor};
use gpuflow_sim::device::tesla_c870;
use gpuflow_templates::edge::{find_edges, CombineOp};

fn edge_like(n: usize, k: usize) -> Graph {
    let mut g = Graph::new();
    let img = g.add("Img", n, n, DataKind::Input);
    let ker = g.add("K1", k, k, DataKind::Constant);
    let e = n - (k - 1);
    let e1 = g.add("E1", e, e, DataKind::Temporary);
    let e5 = g.add("E5", e, e, DataKind::Temporary);
    let edg = g.add("Edg", e, e, DataKind::Output);
    g.add_op("C1", OpKind::Conv2d, vec![img, ker], e1).unwrap();
    g.add_op("R1", OpKind::Remap(RemapKind::FlipH), vec![e1], e5)
        .unwrap();
    g.add_op("max", OpKind::EwMax { arity: 2 }, vec![e1, e5], edg)
        .unwrap();
    g
}

fn bindings(g: &Graph) -> HashMap<DataId, Tensor> {
    let mut b = HashMap::new();
    for d in g.data_ids() {
        if g.data(d).kind.starts_on_cpu() {
            let desc = g.data(d);
            b.insert(
                d,
                Tensor::from_fn(desc.rows, desc.cols, |r, c| {
                    ((r * 31 + c * 7) % 13) as f32 * 0.25 - 1.0
                }),
            );
        }
    }
    b
}

fn executor<'a>(c: &'a MultiCompiled, spec: &'a FaultSpec) -> ResilientExecutor<'a> {
    ResilientExecutor::new(&c.split.graph, &c.plan, &c.machine(), spec).with_origin(&c.split)
}

fn assert_matches_reference(g: &Graph, bind: &HashMap<DataId, Tensor>, out: &ResilientOutcome) {
    assert!(out.stats.recovered, "{}", out.stats.summary());
    let reference = reference_eval(g, bind).unwrap();
    assert_eq!(out.exec.outputs.len(), g.outputs().len());
    for (d, t) in &out.exec.outputs {
        assert_eq!(t, &reference[d], "output {} differs", g.data(*d).name);
    }
}

#[test]
fn quiet_functional_cluster_run_matches_reference() {
    let g = edge_like(64, 5);
    let c = compile_multi(&g, &Cluster::homogeneous(tesla_c870(), 2), 0.05).unwrap();
    let bind = bindings(&g);
    let spec = FaultSpec::quiet(1);
    let out = executor(&c, &spec).run_functional(&bind).unwrap();
    assert_eq!(out.stats.faults_injected, 0);
    assert_matches_reference(&g, &bind, &out);
}

#[test]
fn losing_any_device_fails_over_and_matches_reference() {
    let g = edge_like(64, 5);
    let bind = bindings(&g);
    for machine in ["c870x2", "c870,8800gtx"] {
        let c = compile_multi(&g, &parse_cluster(machine).unwrap(), 0.05).unwrap();
        for dev in 0..c.devices.len() {
            let spec = FaultSpec::parse(&format!("seed=5,loss={dev}@50%")).unwrap();
            let out = executor(&c, &spec).run_functional(&bind).unwrap();
            assert!(
                out.stats.replans > 0 || out.stats.cpu_fallback_ops > 0,
                "{machine} dev {dev} recovered without replanning: {}",
                out.stats.summary()
            );
            assert_matches_reference(&g, &bind, &out);
            assert!(out.stats.makespan_s > 0.0);
        }
    }
}

#[test]
fn transient_faults_on_two_devices_recover_exactly() {
    let g = edge_like(48, 5);
    let c = compile_multi(&g, &Cluster::homogeneous(tesla_c870(), 2), 0.05).unwrap();
    let bind = bindings(&g);
    let spec = FaultSpec::parse("seed=9,kernel=0.25,transfer=0.15,alloc=0.1").unwrap();
    let out = executor(&c, &spec).run_functional(&bind).unwrap();
    assert!(out.stats.faults_injected > 0);
    assert_matches_reference(&g, &bind, &out);
}

#[test]
fn same_seed_gives_bit_identical_cluster_timelines() {
    let g = edge_like(48, 5);
    let c = compile_multi(&g, &Cluster::homogeneous(tesla_c870(), 2), 0.05).unwrap();
    let spec = FaultSpec::parse("seed=31,kernel=0.2,transfer=0.2,alloc=0.1,loss=1@60%").unwrap();
    let run = || executor(&c, &spec).run_analytic().unwrap();
    let (a, b) = (run(), run());
    assert_eq!(a.exec.timeline.events(), b.exec.timeline.events());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.injector.events(), b.injector.events());
}

/// Transfer faults the injector decided at plan-transfer sites, as
/// (device, step, attempt).
fn plan_transfer_faults(out: &ResilientOutcome) -> BTreeSet<(u64, usize, u32)> {
    let mask = (1u64 << SITE_DEVICE_SHIFT) - 1;
    out.injector
        .events()
        .iter()
        .filter(|e| e.class == FaultClass::Transfer && e.site >> 60 == SITE_PLAN_XFER >> 60)
        .map(|e| {
            assert_eq!((e.site >> SITE_EPOCH_SHIFT) & 0xff, 0, "no replan here");
            (
                (e.site >> SITE_DEVICE_SHIFT) & 0xff,
                (e.site & mask) as usize,
                e.attempt,
            )
        })
        .collect()
}

#[test]
fn checkpoint_copies_do_not_move_plan_transfer_sites() {
    let g = find_edges(96, 96, 5, 4, CombineOp::Max).graph;
    let c = compile_multi(&g, &parse_cluster("c870x2").unwrap(), 0.05).unwrap();
    let no_checkpoints = RecoveryOptions {
        checkpoints: false,
        ..RecoveryOptions::default()
    };
    let mut compared = 0;
    for seed in 0..32 {
        let spec = FaultSpec::parse(&format!("seed={seed},transfer=0.2")).unwrap();
        let on = executor(&c, &spec).run_analytic().unwrap();
        let off = executor(&c, &spec)
            .with_options(no_checkpoints.clone())
            .run_analytic()
            .unwrap();
        assert!(on.stats.checkpoints_taken > 0 && off.stats.checkpoints_taken == 0);
        for out in [&on, &off] {
            assert_eq!(out.stats.cpu_fallback_ops, 0, "{}", out.stats.summary());
        }
        let (on, off) = (plan_transfer_faults(&on), plan_transfer_faults(&off));
        // Same site, same decision: every plan transfer both runs issue
        // faults identically. A plan copy-out a checkpoint already
        // delivered is skipped, so only copy-outs may be missing with
        // checkpoints on.
        assert!(on.is_subset(&off), "seed {seed}: {on:?} vs {off:?}");
        for &(dev, step, _) in off.difference(&on) {
            assert!(
                matches!(c.plan.steps[step], Step::CopyOut { device, .. } if device as u64 == dev),
                "seed {seed}: step {step} is not a copy-out on device {dev}"
            );
        }
        compared += on.len();
    }
    assert!(compared > 0, "no plan transfer faulted in 32 seeds");
}

#[test]
fn cpu_fallback_is_timed_on_the_compiled_device_of_each_operator() {
    // The executor takes an operator's device from the plan's unit
    // placement; that is the sharding pass's assignment, op for op.
    let sources = [
        find_edges(96, 96, 5, 4, CombineOp::Max).graph,
        gpuflow_templates::cnn::small_cnn(64, 64).graph,
    ];
    for g in &sources {
        for machine in ["c870x2", "c870,8800gtx"] {
            let cluster = parse_cluster(machine).unwrap();
            let c = compile_multi(g, &cluster, 0.05).unwrap();
            let sharded = shard_graph(g, &cluster, 0.05).unwrap();
            let mut seen = vec![0; c.split.graph.num_ops()];
            for (unit, &dev) in c.plan.units.iter().zip(&c.plan.unit_device) {
                for &o in &unit.ops {
                    assert_eq!(dev, sharded.device_of(o), "{machine}: op {o}");
                    seen[o.index()] += 1;
                }
            }
            assert!(
                seen.iter().all(|&n| n == 1),
                "{machine}: ops not in one unit"
            );
        }
    }
}
