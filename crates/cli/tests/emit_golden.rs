//! Tests of the JSON plan documents: goldens of what `gpuflow emit --json`
//! writes, on one device and on a two-device cluster.
//!
//! A plan document is a deterministic function of the template, the
//! machine and the compile options, so each is compared byte-for-byte.
//!
//! Regenerate after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test -p gpuflow-cli --test emit_golden`

use gpuflow_cli::{execute, Command};

/// Run `gpuflow emit <args> --json <tmp>` and compare the written
/// document byte-for-byte against `tests/golden/<golden>`.
fn check_emit(args: &str, golden: &str) {
    let dir = std::env::temp_dir().join("gpuflow-emit-golden-test");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join(golden);
    let argv: Vec<String> = format!("emit {args} --json {}", out_path.display())
        .split_whitespace()
        .map(str::to_string)
        .collect();
    execute(&Command::parse(&argv).unwrap()).unwrap();
    let text = std::fs::read_to_string(&out_path).unwrap();

    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &text).unwrap();
        return;
    }
    let golden_text = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, golden_text,
        "`emit {args}` drifted from {golden}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn one_device_plan_document_matches_golden() {
    check_emit("fig3", "emit_fig3.json");
}

#[test]
fn cluster_plan_document_matches_golden() {
    check_emit("fig3 --devices c870x2", "emit_fig3_c870x2.json");
}

/// Emit → parse → load reproduces every plan exactly, on one device and
/// on homogeneous and mixed clusters.
#[test]
fn every_plan_document_loads_back_to_its_plan() {
    use gpuflow_codegen::{compiled_multi_to_json, load_plan, parse_plan_doc, plan_to_json};
    for spec in ["fig3", "edge:96x96,k=5,o=2", "cnn-small:96x96"] {
        let g = gpuflow_serve::resolve_named(spec).unwrap();
        let one = gpuflow_core::Framework::new(gpuflow_sim::device::tesla_c870())
            .compile_adaptive(&g)
            .unwrap();
        let mut cases = vec![(
            "c870",
            one.split.graph.clone(),
            (*one.plan).clone(),
            plan_to_json(&one.split.graph, &one.plan, spec).unwrap(),
        )];
        for devices in ["c870x2", "c870x2,8800gtx"] {
            let cluster = gpuflow_multi::parse_cluster(devices).unwrap();
            let c = gpuflow_multi::compile_multi(&g, &cluster, 0.05).unwrap();
            let json = compiled_multi_to_json(&c, spec).unwrap();
            cases.push((devices, c.split.graph.clone(), (*c.plan).clone(), json));
        }
        for (machine, graph, plan, json) in cases {
            let doc = parse_plan_doc(&json).unwrap();
            let loaded = load_plan(&doc, &graph).unwrap();
            assert_eq!(loaded.steps, plan.steps, "{spec} on {machine}");
            assert_eq!(loaded.unit_device, plan.unit_device, "{spec} on {machine}");
        }
    }
}

#[test]
fn a_device_outside_the_table_is_rejected() {
    use gpuflow_codegen::{compiled_multi_to_json, load_plan, parse_plan_doc};
    use gpuflow_core::Step;
    let g = gpuflow_serve::resolve_named("fig3").unwrap();
    let cluster = gpuflow_multi::parse_cluster("c870x2").unwrap();
    let c = gpuflow_multi::compile_multi(&g, &cluster, 0.05).unwrap();
    let mut doc = parse_plan_doc(&compiled_multi_to_json(&c, "fig3").unwrap()).unwrap();
    let Some(Step::CopyIn { device, .. }) = doc.steps.first_mut() else {
        panic!("a plan starts with an upload")
    };
    *device = 2;
    let err = load_plan(&doc, &c.split.graph).unwrap_err();
    assert!(err.0.contains("device index 2 out of range"), "{err}");
}
