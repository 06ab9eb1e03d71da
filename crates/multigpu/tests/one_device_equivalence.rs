//! Differential guard for "single GPU is a cluster of one": on generated
//! DAGs, under budgets from infeasible through tight to ample, the cluster
//! scheduler given one device and the single-GPU scheduler must emit the
//! same plan — step for step — with the same statistics, and must reject
//! the same budgets. The two entry points share one scheduler body and
//! one analyzer; this is the regression guard that keeps it so.
//!
//! The same holds one layer up, with one stated exception. Simulating
//! that plan on the single-device machine and on a one-device cluster
//! gives bit-identical shadow clocks, serial times, per-lane busy times
//! and bus bytes — everything that does not depend on how a transfer
//! channel orders its grants. The makespan itself may differ (it does on
//! a few of these DAGs): the single device's DMA engines are
//! issue-ordered, the cluster's fabric backfills
//! (`gpuflow_core::overlap`). Both stay inside the occupancy/serial band,
//! tile every lane and pass the sanitizer.

use gpuflow_core::xfer::{schedule_transfers, EvictionPolicy, XferOptions};
use gpuflow_core::{
    assert_hb_consistent, partition_offload_units, schedule_units, simulate, step_times,
    ExecutionPlan, Machine, OpScheduler, PartitionPolicy, Simulation,
};
use gpuflow_graph::{DataId, DataKind, Graph, OpKind};
use gpuflow_multi::{schedule_multi_transfers, Cluster, MultiXferOptions};
use gpuflow_sim::device::tesla_c870;
use proptest::prelude::*;
use proptest::TestRng;

/// A random DAG of element-wise operators over three shape families, so
/// resident structures differ in size (Belady is only optimal for uniform
/// sizes — victim choice must still agree). Operators read one to three
/// earlier structures of their family, picked anywhere in its history, so
/// fan-out and long-lived data are common; unread results become outputs.
fn random_dag(rng: &mut TestRng, ops: usize) -> Graph {
    const SHAPES: [(usize, usize); 3] = [(8, 8), (16, 8), (32, 16)];
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    // Per family: for every operator, the indices of the structures it
    // reads (index 0 is the family's input, index k the k-th result).
    let mut families: Vec<Vec<Vec<usize>>> = vec![Vec::new(); SHAPES.len()];
    for _ in 0..ops {
        let f = pick(SHAPES.len());
        let available = families[f].len() + 1;
        let mut reads: Vec<usize> = (0..1 + pick(3)).map(|_| pick(available)).collect();
        reads.sort_unstable();
        reads.dedup();
        families[f].push(reads);
    }
    let mut g = Graph::new();
    for (f, family) in families.iter().enumerate() {
        if family.is_empty() {
            continue;
        }
        let (rows, cols) = SHAPES[f];
        let mut data: Vec<DataId> = vec![g.add(format!("in{f}"), rows, cols, DataKind::Input)];
        for (k, reads) in family.iter().enumerate() {
            let read_later = family[k + 1..].iter().any(|r| r.contains(&(k + 1)));
            let kind = if read_later {
                DataKind::Temporary
            } else {
                DataKind::Output
            };
            let out = g.add(format!("d{f}.{k}"), rows, cols, kind);
            let inputs: Vec<DataId> = reads.iter().map(|&i| data[i]).collect();
            let op = match inputs.len() {
                1 => OpKind::Tanh,
                n => OpKind::EwAdd { arity: n as u8 },
            };
            g.add_op(format!("op{f}.{k}"), op, inputs, out).unwrap();
            data.push(out);
        }
    }
    g
}

/// `sim` stays inside `busy_lower_bound ≤ makespan ≤ serial_time` and its
/// events and gaps tile `[0, makespan]` on every lane with shared
/// endpoints.
fn check_band_and_tiling(sim: &Simulation, tag: &str) -> Result<(), TestCaseError> {
    let out = &sim.outcome;
    prop_assert!(out.busy_lower_bound() <= out.makespan + 1e-12, "{}", tag);
    prop_assert!(out.makespan <= out.serial_time + 1e-12, "{}", tag);
    for lane in sim.lanes.lanes.iter().map(|l| l.lane) {
        let mut iv: Vec<(f64, f64)> = sim
            .events
            .iter()
            .filter(|e| e.lane == lane)
            .map(|e| (e.start, e.end))
            .chain(
                sim.gaps
                    .iter()
                    .filter(|e| e.lane == lane)
                    .map(|e| (e.start, e.end)),
            )
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cursor = 0.0f64;
        for (start, end) in iv {
            prop_assert_eq!(start, cursor, "{} {:?}: hole or overlap", tag, lane);
            cursor = end;
        }
        prop_assert_eq!(
            cursor,
            out.makespan,
            "{} {:?}: short of the makespan",
            tag,
            lane
        );
    }
    Ok(())
}

/// Simulate one plan on the single-device machine and on a one-device
/// cluster of the same device, and compare everything the channel
/// discipline cannot touch.
fn check_simulations_agree(
    g: &Graph,
    plan: &ExecutionPlan,
    budget: u64,
) -> Result<(), TestCaseError> {
    let dev = tesla_c870().with_memory(budget);
    let cluster = Cluster::homogeneous(dev.clone(), 1);
    let (single, clustered) = (Machine::single(&dev), cluster.machine());
    let times = step_times(g, plan, &single);
    let bits = |t: &[(f64, f64)]| -> Vec<(u64, u64)> {
        t.iter().map(|&(s, e)| (s.to_bits(), e.to_bits())).collect()
    };
    prop_assert_eq!(bits(&times), bits(&step_times(g, plan, &clustered)));
    assert_hb_consistent(g, plan, &times, "one_device_equivalence");
    let (a, b) = (simulate(g, plan, &single), simulate(g, plan, &clustered));
    let (oa, ob) = (&a.outcome, &b.outcome);
    prop_assert_eq!(oa.serial_time.to_bits(), ob.serial_time.to_bits());
    prop_assert_eq!(oa.h2d_busy.to_bits(), ob.h2d_busy.to_bits());
    prop_assert_eq!(oa.d2h_busy.to_bits(), ob.d2h_busy.to_bits());
    prop_assert_eq!(oa.compute_busy.len(), 1);
    prop_assert_eq!(oa.compute_busy[0].to_bits(), ob.compute_busy[0].to_bits());
    prop_assert_eq!(oa.bus_bytes, ob.bus_bytes);
    prop_assert_eq!(oa.bus_bytes, plan.bus_bytes(g));
    check_band_and_tiling(&a, "single device")?;
    check_band_and_tiling(&b, "one-device cluster")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_device_cluster_schedules_exactly_like_a_single_gpu(
        seed in 0u64..1_000_000,
        ops in 3usize..48,
        eager in 0usize..2,
    ) {
        let g = random_dag(&mut TestRng::for_case(seed, 0), ops);
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let order = schedule_units(&g, &units, OpScheduler::DepthFirst);
        let eager_free = eager == 1;
        // The largest single-unit working set: the least budget any
        // schedule can run in.
        let floor = units.iter().map(|u| u.footprint_bytes(&g)).max().unwrap();
        let total: u64 = g.data_ids().map(|d| g.data(d).bytes()).sum();
        // One byte short of feasible, exactly feasible, three rungs of
        // slack, and everything-fits.
        let budgets = [
            floor - 1,
            floor,
            floor + (total - floor) / 16,
            floor + (total - floor) / 4,
            floor + (total - floor) / 2,
            total,
        ];
        for budget in budgets {
            let single = schedule_transfers(&g, &units, &order, XferOptions {
                memory_bytes: budget,
                policy: EvictionPolicy::Belady,
                eager_free,
            });
            let cluster = schedule_multi_transfers(
                &g,
                &units,
                &vec![0; units.len()],
                &order,
                &MultiXferOptions {
                    budgets: vec![budget],
                    eager_free,
                    pinned_host: vec![],
                },
            );
            match (single, cluster) {
                (Ok(single), Ok(cluster)) => {
                    prop_assert!(budget >= floor, "planned below the working-set floor");
                    prop_assert_eq!(&single.steps, &cluster.steps, "budget {}", budget);
                    let a = single.analyze(&g, budget, false);
                    let b = cluster.analyze_devices(&g, &[budget], false);
                    prop_assert!(!a.has_errors() && !b.has_errors());
                    prop_assert_eq!(a.stats, b.stats);
                    prop_assert_eq!(single.stats(&g), b.stats);
                    prop_assert_eq!(&b.peak_per_device, &vec![a.stats.peak_bytes]);
                    check_simulations_agree(&g, &single, budget)?;
                }
                (Err(_), Err(_)) => prop_assert!(budget < floor, "rejected a feasible budget"),
                (single, cluster) => prop_assert!(
                    false,
                    "budget {}: single-GPU {:?} but one-device cluster {:?}",
                    budget,
                    single.map(|p| p.steps.len()),
                    cluster.map(|p| p.steps.len())
                ),
            }
        }
    }
}
