//! Ledger of the concurrency certifier's decisions.
//!
//! The happens-before graph is the input of the critical path, the
//! dynamic sanitizer and every `GF005x` verdict, so a change to how it is
//! stored must not change one edge. This test prints, for six plans — a
//! fitting, a four-stream and a spilling one-device plan, and cluster
//! plans on two, eight and two mixed devices — the per-kind edge counts,
//! an FNV-1a hash of the edge list (order and kind included), every
//! diagnostic, and the critical path's steps and length, and compares it
//! byte for byte with `tests/golden/certify_ledger.txt`.
//!
//! Regenerate after an intentional change to the certifier with:
//! `UPDATE_GOLDEN=1 cargo test --test certify_ledger`

use std::fmt::Write as _;

use gpuflow::core::{step_times, CompileOptions, ExecutionPlan, Framework, Machine};
use gpuflow::graph::Graph;
use gpuflow::multi::{compile_multi, parse_cluster};
use gpuflow::serve::resolve_named;
use gpuflow::sim::device::{geforce_8800_gtx, tesla_c870};
use gpuflow::sim::DeviceSpec;
use gpuflow::verify::{critical_path, dependency_critical_path, EdgeKind};

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

fn render(out: &mut String, title: &str, g: &Graph, plan: &ExecutionPlan, machine: &Machine) {
    let cert = plan.certify(g);
    let c = cert.hb.edge_counts();
    let edges = cert.hb.edges().iter().flat_map(|&(a, b, kind)| {
        let kind = match kind {
            EdgeKind::Program => 0,
            EdgeKind::Transfer => 1,
            EdgeKind::Lifetime => 2,
        };
        [a as u64, b as u64, kind]
    });
    let _ = writeln!(out, "== {title}");
    let _ = writeln!(
        out,
        "steps={} lanes={} edges program={} transfer={} lifetime={} fnv={:016x}",
        plan.steps.len(),
        cert.lanes_used,
        c.program,
        c.transfer,
        c.lifetime,
        fnv(edges)
    );
    for d in &cert.diagnostics {
        let _ = writeln!(out, "  {}", d.render().replace('\n', "\n  "));
    }
    let times = step_times(g, plan, machine);
    let durations: Vec<f64> = times.iter().map(|&(s, e)| e - s).collect();
    let cp = if machine.shared_bus() {
        dependency_critical_path(&cert.hb, &durations)
    } else {
        critical_path(&cert.hb, &durations)
    };
    let _ = writeln!(
        out,
        "critical steps={} length={:016x} fnv={:016x} head={:?} tail={:?}",
        cp.steps.len(),
        cp.length.to_bits(),
        fnv(cp.steps.iter().map(|&s| s as u64)),
        cp.steps.first(),
        cp.steps.last()
    );
}

fn single(out: &mut String, template: &str, dev: &DeviceSpec, name: &str, streams: usize) {
    let g = resolve_named(template).expect("template resolves");
    let compiled = Framework::new(dev.clone())
        .with_options(CompileOptions {
            streams,
            ..CompileOptions::default()
        })
        .compile_adaptive(&g)
        .expect("template compiles");
    let title = format!("{template} @ {name} streams={streams}");
    render(
        out,
        &title,
        &compiled.split.graph,
        &compiled.plan,
        &Machine::single(dev),
    );
}

fn cluster(out: &mut String, template: &str, spec: &str) {
    let g = resolve_named(template).expect("template resolves");
    let cluster = parse_cluster(spec).expect("cluster spec parses");
    let c = compile_multi(&g, &cluster, CLUSTER_MARGIN).expect("template compiles");
    let title = format!("{template} @ {spec}");
    render(out, &title, &c.split.graph, &c.plan, &c.machine());
}

#[test]
fn certify_ledger_matches_golden() {
    let mut text = String::new();
    single(&mut text, "cnn-small:512x512", &tesla_c870(), "c870", 1);
    single(&mut text, "cnn-large:256x256", &tesla_c870(), "c870", 4);
    single(
        &mut text,
        "cnn-small:8500x8500",
        &geforce_8800_gtx(),
        "8800gtx",
        1,
    );
    cluster(&mut text, "cnn-small:512x512", "c870x2");
    cluster(&mut text, "cnn-small:512x512", "c870x8");
    cluster(&mut text, "edge:1200x1200,k=9,o=4", "c870x2,8800gtx");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden_path = root.join("tests/golden/certify_ledger.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, golden,
        "the certifier ledger drifted from tests/golden/certify_ledger.txt; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
