//! Ledger of the transfer scheduler's plans.
//!
//! Every step of a plan comes from `schedule_device_transfers`: which
//! datum is staged where, which one is evicted for space, where a staged
//! copy crosses devices and when dead data is freed. A change to how the
//! scheduler stores its reads or its residency must not move one of
//! them. This test prints, for the eight cluster plans of the
//! `batch_cluster` benchmark corpus at seed 1, one cluster plan that
//! evicts and two spilling one-device plans, the step count, an FNV-1a hash of the step list (order, kind,
//! device and operand included), the bytes moved over the bus and the
//! evictions, and compares it byte for byte with
//! `tests/golden/plan_ledger.txt`.
//!
//! Regenerate after an intentional change to the scheduler with:
//! `UPDATE_GOLDEN=1 cargo test --test plan_ledger`

use std::fmt::Write as _;

use gpuflow::core::{ExecutionPlan, Framework, Step};
use gpuflow::graph::Graph;
use gpuflow::multi::{compile_multi, parse_cluster};
use gpuflow::serve::resolve_named;
use gpuflow::sim::device::geforce_8800_gtx;

/// The CLI's planner margin for `--devices` runs.
const CLUSTER_MARGIN: f64 = 0.05;

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn render(out: &mut String, title: &str, g: &Graph, plan: &ExecutionPlan) {
    let words = plan.steps.iter().flat_map(|s| match *s {
        Step::CopyIn { device, data } => [0, device as u64, data.index() as u64],
        Step::CopyOut { device, data } => [1, device as u64, data.index() as u64],
        Step::Free { device, data } => [2, device as u64, data.index() as u64],
        Step::Launch(u) => [3, plan.unit_device[u] as u64, u as u64],
    });
    let _ = writeln!(
        out,
        "{title}: steps={} fnv={:016x} bus_bytes={} evictions={}",
        plan.steps.len(),
        fnv(words),
        plan.bus_bytes(g),
        plan.evictions()
    );
}

#[test]
fn plan_ledger_matches_golden() {
    let mut text = String::new();
    // `perf/run.sh --workload batch_cluster --seed 1`, entry by entry.
    for (template, spec) in [
        ("cnn-small:2000x2000", "c870x2"),
        ("cnn-small:2000x2000", "c870x4"),
        ("cnn-small:2000x2000", "c870x8"),
        ("cnn-small:4000x4000", "c870x4"),
        ("cnn-small:12000x12000", "8800gtxx4"),
        ("cnn-large:487x538", "c870x2"),
        ("edge:22289x17946,k=16,o=8", "8800gtxx2"),
        ("edge:12571x7955,k=16,o=4", "c870x2,8800gtx"),
        // None of those evicts, so one mixed cluster that does: the only
        // plans whose Belady keys read the per-device read rows.
        ("cnn-small:11000x11000", "8800gtx,c870"),
    ] {
        let g = resolve_named(template).expect("template resolves");
        let cluster = parse_cluster(spec).expect("cluster spec parses");
        let c = compile_multi(&g, &cluster, CLUSTER_MARGIN).expect("template compiles");
        render(
            &mut text,
            &format!("{template} @ {spec}"),
            &c.split.graph,
            &c.plan,
        );
    }
    // Two spilling single-device plans: a split one and an unsplit one.
    for template in ["cnn-small:8500x8500", "cnn-large:7500x7500"] {
        let g = resolve_named(template).expect("template resolves");
        let compiled = Framework::new(geforce_8800_gtx())
            .compile_adaptive(&g)
            .expect("template compiles");
        render(
            &mut text,
            &format!("{template} @ 8800gtx"),
            &compiled.split.graph,
            &compiled.plan,
        );
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden_path = root.join("tests/golden/plan_ledger.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, golden,
        "the plan ledger drifted from tests/golden/plan_ledger.txt; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
