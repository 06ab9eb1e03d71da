//! Bit-exact ledger of the resilient executor.
//!
//! `gpuflow chaos` and `run --faults` report rounded overheads, so a change
//! to the recovery walk can move a makespan by one ulp, reorder two ledger
//! events or shift a fault to another site without changing a printed
//! digit. This test runs three sources on four machines under five fault
//! specs and prints, per row, everything the walk decides: whether it
//! recovered, every `RecoveryStats` counter, the faulted and fault-free
//! makespans as `f64::to_bits` hex, FNV-1a hashes of the timeline events,
//! the ledger event texts and the injector log, and whether the functional
//! outputs equal `reference_eval` and an analytic replay reproduces the
//! functional run. It compares the text byte for byte with
//! `tests/golden/chaos_ledger.txt`.
//!
//! Regenerate after an intentional change to the recovery walk with:
//! `UPDATE_GOLDEN=1 cargo test --test chaos_ledger`

use std::fmt::Write as _;

use gpuflow::chaos::{FaultSpec, RecoveryStats};
use gpuflow::core::{ExecutionPlan, Framework, Machine, ResilientExecutor, SplitResult};
use gpuflow::graph::Graph;
use gpuflow::multi::{compile_multi, parse_cluster};
use gpuflow::ops::reference_eval;
use gpuflow::sim::device::tesla_c870;
use gpuflow::templates::cnn::small_cnn;
use gpuflow::templates::data::default_bindings;
use gpuflow::templates::edge::{find_edges, CombineOp};

/// The CLI's planner margin for `--devices` runs.
const CLUSTER_MARGIN: f64 = 0.05;

/// What one resilient run leaves behind, reduced to comparable text.
struct Run {
    stats: RecoveryStats,
    timeline: String,
    injector: String,
    outputs_equal: bool,
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `Debug` prints every `f64` in its shortest round-trip form, so equal
/// text means bit-equal times.
fn ledger_text(stats: &RecoveryStats) -> String {
    format!("{:?}", stats.events)
}

fn single(g: &Graph, spec: &FaultSpec, functional: bool) -> Run {
    let dev = tesla_c870();
    let compiled = Framework::new(dev.clone())
        .compile_adaptive(g)
        .expect("template compiles");
    run(
        g,
        &compiled.split,
        &compiled.plan,
        &Machine::single(&dev),
        spec,
        functional,
    )
}

fn cluster(g: &Graph, machine: &str, spec: &FaultSpec, functional: bool) -> Run {
    let cluster = parse_cluster(machine).expect("cluster spec parses");
    let c = compile_multi(g, &cluster, CLUSTER_MARGIN).expect("template compiles");
    run(g, &c.split, &c.plan, &cluster.machine(), spec, functional)
}

fn run(
    g: &Graph,
    split: &SplitResult,
    plan: &ExecutionPlan,
    machine: &Machine,
    spec: &FaultSpec,
    functional: bool,
) -> Run {
    let rex = ResilientExecutor::new(&split.graph, plan, machine, spec).with_origin(split);
    let bindings = default_bindings(g);
    let r = if functional {
        rex.run_functional(&bindings)
    } else {
        rex.run_analytic()
    }
    .expect("resilient run");
    Run {
        outputs_equal: outputs_equal(g, &bindings, &r.exec.outputs),
        timeline: format!("{:?}", r.exec.timeline.events()),
        injector: format!("{:?}", r.injector.events()),
        stats: r.stats,
    }
}

fn outputs_equal(
    g: &Graph,
    bindings: &std::collections::HashMap<gpuflow::graph::DataId, gpuflow::ops::Tensor>,
    outputs: &std::collections::HashMap<gpuflow::graph::DataId, gpuflow::ops::Tensor>,
) -> bool {
    let reference = reference_eval(g, bindings).expect("reference evaluates");
    !outputs.is_empty()
        && outputs.len() == g.outputs().len()
        && outputs.iter().all(|(d, t)| reference.get(d) == Some(t))
}

fn render(out: &mut String, source: &str, machine: &str, spec: &str, f: &Run, a: &Run) {
    let s = &f.stats;
    let _ = writeln!(out, "== {source} @ {machine} [{spec}]");
    let _ = writeln!(
        out,
        "recovered={} faults={} retries={} ckpt_taken={} ckpt_restored={} replans={} cpu_ops={}",
        s.recovered,
        s.faults_injected,
        s.retries,
        s.checkpoints_taken,
        s.checkpoints_restored,
        s.replans,
        s.cpu_fallback_ops
    );
    let _ = writeln!(
        out,
        "makespan {:016x} faultfree {:016x}",
        s.makespan_s.to_bits(),
        s.faultfree_makespan_s.to_bits()
    );
    let ledger = ledger_text(s);
    let _ = writeln!(
        out,
        "timeline={:016x} ledger={}:{:016x} injector={:016x}",
        fnv(&f.timeline),
        s.events.len(),
        fnv(&ledger),
        fnv(&f.injector)
    );
    let replay = f.timeline == a.timeline && f.stats == a.stats && f.injector == a.injector;
    let _ = writeln!(
        out,
        "functional={} replay={}",
        if f.outputs_equal { "equal" } else { "DIFFERS" },
        if replay { "identical" } else { "DIFFERS" }
    );
}

#[test]
fn chaos_ledger_matches_golden() {
    let sources: Vec<(&str, Graph)> = vec![
        ("fig3", gpuflow::core::examples::fig3_graph()),
        (
            "edge:96x96,k=5,o=4",
            find_edges(96, 96, 5, 4, CombineOp::Max).graph,
        ),
        ("cnn-small:64x64", small_cnn(64, 64).graph),
    ];
    let specs = [
        "seed=0",
        "seed=11,kernel=0.3,transfer=0.1,alloc=0.1",
        "seed=21,kernel=0.25,transfer=0.2,alloc=0.15,brownout=0:1:0.5",
        "loss=0@50%",
        "loss=1@50%",
    ];
    let mut text = String::new();
    for (name, g) in &sources {
        for machine in ["c870", "c870x1", "c870x2", "c870,8800gtx"] {
            let devices = if machine == "c870" {
                1
            } else {
                parse_cluster(machine).unwrap().len()
            };
            for spec_text in specs {
                let spec = FaultSpec::parse(spec_text).unwrap();
                if spec.device_loss.is_some_and(|l| l.device >= devices) {
                    continue;
                }
                let (f, a) = if machine == "c870" {
                    (single(g, &spec, true), single(g, &spec, false))
                } else {
                    (
                        cluster(g, machine, &spec, true),
                        cluster(g, machine, &spec, false),
                    )
                };
                render(&mut text, name, machine, spec_text, &f, &a);
            }
        }
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden_path = root.join("tests/golden/chaos_ledger.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, golden,
        "the chaos ledger drifted from tests/golden/chaos_ledger.txt; if the \
         change to the recovery walk is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
