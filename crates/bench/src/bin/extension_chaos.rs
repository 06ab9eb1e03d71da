//! **Extension — fault injection and recovery overhead**: how much
//! makespan does resilience cost as the platform gets less reliable?
//!
//! Two sweeps over seeded, deterministic fault schedules
//! (`docs/robustness.md` describes the model):
//!
//! 1. **Transient-fault rate sweep** (single device): kernel / transfer /
//!    allocation fault rates climb from 0 to 40% per site; every run must
//!    recover, and the table reports the injected-fault volume and the
//!    recovery overhead (faulted vs fault-free makespan) across seeds.
//! 2. **Device-loss timing sweep** (2-device cluster): one device dies at
//!    10%…90% of the fault-free makespan; the executor replans the
//!    remaining suffix onto the survivor from the host copies its exit
//!    checkpoints left — the overhead column traces the cost against the
//!    loss time.

use gpuflow_bench::run::secs;
use gpuflow_bench::TableWriter;
use gpuflow_chaos::FaultSpec;
use gpuflow_core::{Framework, Machine, ResilientExecutor};
use gpuflow_multi::{compile_multi, parse_cluster};
use gpuflow_sim::device::tesla_c870;
use gpuflow_templates::edge::{find_edges, CombineOp};

const SEEDS: u64 = 8;

fn transient_sweep() {
    println!("transient faults, edge detection 1000x1000, k=9, single Tesla C870");
    let edge = find_edges(1000, 1000, 9, 4, CombineOp::Max);
    let dev = tesla_c870();
    let machine = Machine::single(&dev);
    let compiled = Framework::new(dev.clone())
        .compile_adaptive(&edge.graph)
        .expect("template compiles");

    let mut table = TableWriter::new(&[
        "fault rate",
        "recovered",
        "faults (avg)",
        "retries (avg)",
        "overhead p50",
        "overhead max",
    ]);
    for rate in [0.0, 0.05, 0.1, 0.2, 0.4] {
        let base = FaultSpec::parse(&format!(
            "seed=1,kernel={rate},transfer={r2},alloc={r2}",
            r2 = rate / 2.0
        ))
        .unwrap();
        let mut recovered = 0u64;
        let mut faults = 0u64;
        let mut retries = 0u64;
        let mut overheads = Vec::new();
        for s in 0..SEEDS {
            let mut spec = base.clone();
            spec.seed = base.seed.wrapping_add(s);
            let r = ResilientExecutor::new(&compiled.split.graph, &compiled.plan, &machine, &spec)
                .with_origin(&compiled.split)
                .run_analytic()
                .expect("analytic run");
            assert!(r.stats.recovered, "transient schedules must recover");
            recovered += 1;
            faults += r.stats.faults_injected;
            retries += r.stats.retries;
            overheads.push(r.stats.overhead());
        }
        overheads.sort_by(|a, b| a.total_cmp(b));
        table.row(&[
            format!("{:.0}%", rate * 100.0),
            format!("{recovered}/{SEEDS}"),
            format!("{:.1}", faults as f64 / SEEDS as f64),
            format!("{:.1}", retries as f64 / SEEDS as f64),
            format!("{:.1}%", overheads[overheads.len() / 2] * 100.0),
            format!("{:.1}%", overheads.last().unwrap() * 100.0),
        ]);
    }
    println!("{}", table.render());
}

fn loss_timing_sweep() {
    println!("hard device loss, edge detection 1000x1000, k=9, 2 x Tesla C870");
    let edge = find_edges(1000, 1000, 9, 4, CombineOp::Max);
    let cluster = parse_cluster("c870x2").unwrap();
    let compiled = compile_multi(&edge.graph, &cluster, 0.05).expect("template compiles");
    let split = &compiled.split;

    let mut table = TableWriter::new(&[
        "loss at",
        "recovered",
        "replans",
        "fault-free (s)",
        "faulted (s)",
        "overhead",
    ]);
    for pct in [10u32, 30, 50, 70, 90] {
        let spec = FaultSpec::parse(&format!("seed=1,loss=1@{pct}%")).unwrap();
        let r = ResilientExecutor::new(&split.graph, &compiled.plan, &cluster.machine(), &spec)
            .with_origin(split)
            .run_analytic()
            .expect("analytic run");
        assert!(r.stats.recovered, "device loss must fail over");
        table.row(&[
            format!("{pct}%"),
            "yes".to_string(),
            r.stats.replans.to_string(),
            secs(r.stats.faultfree_makespan_s),
            secs(r.stats.makespan_s),
            format!("{:.1}%", r.stats.overhead() * 100.0),
        ]);
    }
    println!("{}", table.render());
}

fn main() {
    println!("Extension — deterministic fault injection and recovery overhead\n");
    transient_sweep();
    loss_timing_sweep();
    println!(
        "Overhead is measured against the fault-free run without checkpoints,\n\
         so the 0%-rate row isolates the checkpoint tax and retries add\n\
         smoothly on top of it. A device loss costs about that tax plus the\n\
         survivor running the dead device's remaining units: the checkpoints\n\
         leave nothing to recompute on the host CPU. Same seed, same\n\
         schedule: every row replays bit-identically."
    );
}
