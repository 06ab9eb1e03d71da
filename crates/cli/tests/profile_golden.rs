//! Golden-file tests for `gpuflow profile` output.
//!
//! Profile reports are derived entirely from the simulated schedule —
//! makespans, gap attribution, the critical path, and the what-if
//! advisor are all functions of the deterministic plan, with no
//! wall-clock component — so both the human table and the `--json`
//! document are compared byte-for-byte against checked-in goldens.
//!
//! Regenerate after an intentional format change with:
//! `UPDATE_GOLDEN=1 cargo test -p gpuflow-cli --test profile_golden`

use gpuflow_cli::{execute, Command};

fn run(cmdline: &str) -> String {
    let argv: Vec<String> = cmdline.split_whitespace().map(str::to_string).collect();
    execute(&Command::parse(&argv).unwrap()).unwrap() + "\n"
}

fn check(name: &str, text: &str) {
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

#[test]
fn fig3_profile_table_matches_golden() {
    check("fig3_profile.txt", &run("profile fig3 --device c870"));
}

#[test]
fn fig3_profile_json_matches_golden() {
    check(
        "fig3_profile.json",
        &run("profile fig3 --device c870 --json"),
    );
}

#[test]
fn fig3_streamed_profile_table_matches_golden() {
    check(
        "fig3_profile_streams2.txt",
        &run("profile fig3 --device c870 --streams 2"),
    );
}

// The cluster goldens pin the shared-bus lanes (`bus-h2d`, `bus-d2h`, one
// `gpuN` per device), the `bus-wait` column and the dependency-only
// critical path. Tests run from `crates/cli`, hence the relative path;
// the profile never prints it.

#[test]
fn pipeline_cluster_profile_table_matches_golden() {
    check(
        "pipeline_c870x2_profile.txt",
        &run("profile ../../assets/pipeline.gfg --devices c870x2"),
    );
}

#[test]
fn pipeline_cluster_profile_json_matches_golden() {
    check(
        "pipeline_c870x2_profile.json",
        &run("profile ../../assets/pipeline.gfg --devices c870x2 --json"),
    );
}
