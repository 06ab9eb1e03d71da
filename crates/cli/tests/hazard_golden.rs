//! Golden-file tests for the concurrency certifier's output formats.
//!
//! Two fixtures are locked down byte-for-byte:
//!
//! * the clean path — `gpuflow check fig3 --hazards` in both human and
//!   `--json` form, including the `GF0056` certificate note, the lane
//!   census, and the JSON `plan` object with the lane/edge summary;
//! * the hazardous path — a fig3 plan mutated to front a launch past the
//!   `CopyIn` it reads, rendered through the same `gpuflow-verify`
//!   human/JSON formatters `check` uses (the CLI never emits `GF005x`
//!   errors on plans it compiled itself, so the mutant is built in-test).
//!
//! Regenerate after an intentional format change with:
//! `UPDATE_GOLDEN=1 cargo test -p gpuflow-cli --test hazard_golden`

use gpuflow_cli::{execute, Command};
use gpuflow_core::{Framework, Step};
use gpuflow_sim::device::tesla_c870;

/// Compare `text` against the checked-in golden file, or rewrite it when
/// `UPDATE_GOLDEN` is set.
fn assert_matches_golden(name: &str, text: &str) {
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, golden,
        "{name} drifted from the golden file; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

fn run(cmdline: &str) -> String {
    let argv: Vec<String> = cmdline.split_whitespace().map(str::to_string).collect();
    execute(&Command::parse(&argv).unwrap()).unwrap()
}

#[test]
fn check_hazards_human_output_matches_golden() {
    assert_matches_golden("check_fig3_hazards.txt", &run("check fig3 --hazards"));
}

#[test]
fn check_hazards_json_output_matches_golden() {
    assert_matches_golden(
        "check_fig3_hazards.json",
        &run("check fig3 --hazards --json"),
    );
}

#[test]
fn check_hazards_two_stream_output_matches_golden() {
    // The 2-stream plan's lane census (`gpu0` + `gpu0s1`) and edge
    // breakdown, locked down byte-for-byte in both formats.
    assert_matches_golden(
        "check_fig3_hazards_streams2.txt",
        &run("check fig3 --hazards --streams 2"),
    );
    assert_matches_golden(
        "check_fig3_hazards_streams2.json",
        &run("check fig3 --hazards --streams 2 --json"),
    );
}

/// A fig3 plan with its first launch hoisted above the `CopyIn` it reads:
/// the certifier's `GF005x` findings in both output formats.
fn hazardous_report() -> gpuflow_verify::ConcurrencyReport {
    let g = gpuflow_core::examples::fig3_graph();
    let compiled = Framework::new(tesla_c870()).compile(&g).unwrap();
    let mut plan = compiled.plan.clone();
    let copy_in = plan
        .steps
        .iter()
        .position(|s| matches!(s, Step::CopyIn { .. }))
        .unwrap();
    let launch = plan
        .steps
        .iter()
        .position(|s| matches!(s, Step::Launch(_)))
        .unwrap();
    assert!(copy_in < launch, "fig3 stages its input before computing");
    let hoisted = plan.steps.remove(launch);
    plan.steps.insert(copy_in, hoisted);
    let report = plan.certify(&compiled.split.graph);
    assert!(report.has_errors(), "mutant must be hazardous");
    report
}

#[test]
fn hazard_errors_human_render_matches_golden() {
    let report = hazardous_report();
    assert_matches_golden(
        "hazard_report.txt",
        &gpuflow_verify::render_report(&report.diagnostics),
    );
}

#[test]
fn hazard_errors_json_matches_golden() {
    let report = hazardous_report();
    let mut text = gpuflow_verify::report_to_json(&report.diagnostics).to_string_pretty();
    text.push('\n');
    assert_matches_golden("hazard_report.json", &text);
}
