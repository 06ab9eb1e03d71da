//! Cluster-wide hazard suite: every bundled template certifies
//! concurrency-safe on 1, 2, and 4 simulated devices, the dynamic
//! sanitizer (the executors' step-granular shadow clock) never fires on a
//! statically certified schedule, and dropping a staging hop from a
//! cross-device plan is always diagnosed (`GF005x`, see
//! `docs/concurrency.md`). The certificate's lane-clock reachability is
//! also checked pair by pair against a plain closure of the same edges.

use gpuflow_core::examples::fig3_graph;
use gpuflow_core::{step_times, CompileOptions, Framework, Step};
use gpuflow_graph::Graph;
use gpuflow_multi::{compile_multi, parse_cluster};
use gpuflow_sim::device::tesla_c870;
use gpuflow_templates::{cnn, edge};
use gpuflow_verify::ConcurrencyReport;

const MARGIN: f64 = 0.05;

/// The bundled benchmark templates the certifier must clear.
fn templates() -> Vec<(&'static str, Graph)> {
    vec![
        ("fig3", fig3_graph()),
        (
            "edge",
            edge::find_edges(512, 512, 9, 4, edge::CombineOp::Max).graph,
        ),
        ("cnn-small", cnn::small_cnn(256, 256).graph),
    ]
}

/// The ISSUE's cluster sweep: one device, the 2009 two-card pair, and a
/// four-way modern cluster.
const CLUSTERS: [&str; 3] = ["c870", "c870x2", "modernx4"];

#[test]
fn bundled_templates_certify_on_one_two_and_four_devices() {
    for (name, g) in templates() {
        for spec in CLUSTERS {
            let cluster = parse_cluster(spec).unwrap();
            let c = compile_multi(&g, &cluster, MARGIN)
                .unwrap_or_else(|e| panic!("{name}@{spec}: {e}"));
            let cert = c.plan.certify(&c.split.graph);
            assert!(
                cert.certified(),
                "{name}@{spec} failed to certify: {:?}",
                cert.first_error()
            );
            // Static and dynamic agreement: replay the executor's own
            // step-granular sync discipline and check every
            // happens-before edge against the resulting intervals.
            let times = step_times(&c.split.graph, &c.plan, &c.machine());
            let v = cert.dynamic_violations(&times);
            assert!(
                v.is_empty(),
                "{name}@{spec}: certified schedule tripped the dynamic sanitizer at {v:?}"
            );
            // The real simulator also runs clean; in debug builds its own
            // sanitizer assertion re-checks the same property internally.
            assert!(c.simulate().outcome.makespan > 0.0, "{name}@{spec}");
        }
    }
}

#[test]
fn dropping_a_staging_hop_is_always_diagnosed() {
    let mut exercised = 0usize;
    for (name, g) in templates() {
        for spec in ["c870x2", "modernx4"] {
            let cluster = parse_cluster(spec).unwrap();
            let c = compile_multi(&g, &cluster, MARGIN).unwrap();
            let sg = &c.split.graph;
            // A staging hop is the CopyOut half of a staged device→host→
            // device transfer. Dropping the *first* CopyOut of a
            // device-born datum leaves its cross-device CopyIn reading a
            // host buffer nothing ever wrote — a guaranteed hazard.
            let mut seen = std::collections::HashSet::new();
            for (i, s) in c.plan.steps.iter().enumerate() {
                let Step::CopyOut { device, data } = *s else {
                    continue;
                };
                if sg.data(data).kind.starts_on_cpu() || !seen.insert(data) {
                    continue;
                }
                let feeds_other_device = c.plan.steps[i + 1..].iter().any(|t| {
                    matches!(t, Step::CopyIn { device: d2, data: d }
                             if *d == data && *d2 != device)
                });
                if !feeds_other_device {
                    continue;
                }
                let mut mutant = (*c.plan).clone();
                mutant.steps.remove(i);
                let report = mutant.certify(sg);
                assert!(
                    report.has_errors(),
                    "{name}@{spec}: dropped staging hop at step {i} certified clean"
                );
                let first = report.first_error().unwrap();
                assert!(
                    first.code.starts_with("GF005"),
                    "{name}@{spec}: diagnosed outside GF005x: {} ({})",
                    first.code,
                    first.message
                );
                exercised += 1;
                break;
            }
        }
    }
    assert!(
        exercised >= 2,
        "expected at least two staged plans to mutate, found {exercised}"
    );
}

/// `happens_before` answers the same as the transitive closure of the
/// report's own edges, swept forward in issue order as bitset rows (the
/// unit-level oracle in `gpuflow_verify::hb` covers generated DAGs; this
/// covers the DAGs real plans produce). Every ordered pair is compared up
/// to 12 000 steps; above that every fourth row, all columns, which keeps
/// the 20 000-step four-device plan to seconds in a debug build.
fn assert_reachability_is_the_closure_of_its_edges(tag: &str, cert: &ConcurrencyReport) {
    let n = cert.hb.len();
    let mut reach = vec![vec![0u64; n.div_ceil(64)]; n];
    for b in 0..n {
        let (done, rest) = reach.split_at_mut(b);
        for &(a, _) in cert.hb.preds(b) {
            let a = a as usize;
            rest[0][a / 64] |= 1 << (a % 64);
            for (w, &src) in rest[0].iter_mut().zip(&done[a]) {
                *w |= src;
            }
        }
    }
    let stride = if n <= 12_000 { 1 } else { 4 };
    for (b, row) in reach.iter().enumerate().step_by(stride) {
        for a in 0..n {
            let reaches = (row[a / 64] >> (a % 64)) & 1 == 1;
            if cert.hb.happens_before(a, b) != reaches {
                panic!("{tag}: happens_before({a}, {b}) is not {reaches}");
            }
        }
    }
}

#[test]
fn lane_clock_reachability_matches_the_edge_closure_on_bundled_plans() {
    let small = [
        ("fig3", fig3_graph()),
        (
            "edge",
            edge::find_edges(256, 256, 5, 2, edge::CombineOp::Max).graph,
        ),
        ("cnn-small", cnn::small_cnn(128, 128).graph),
    ];
    for (name, g) in &small {
        // One device, one compute lane per stream.
        for streams in [1usize, 2, 4] {
            let tag = format!("{name}/streams={streams}");
            let c = Framework::new(tesla_c870())
                .with_options(CompileOptions {
                    streams,
                    ..CompileOptions::default()
                })
                .compile_adaptive(g)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            let cert = c.plan.certify(&c.split.graph);
            assert!(cert.certified(), "{tag}: {:?}", cert.first_error());
            assert_reachability_is_the_closure_of_its_edges(&tag, &cert);
        }
        // Clusters, one stream per device.
        for spec in ["c870x2", "modernx4"] {
            let cluster = parse_cluster(spec).unwrap();
            let c = compile_multi(g, &cluster, MARGIN).unwrap();
            assert_reachability_is_the_closure_of_its_edges(
                &format!("{name}@{spec}"),
                &c.plan.certify(&c.split.graph),
            );
        }
    }
}
