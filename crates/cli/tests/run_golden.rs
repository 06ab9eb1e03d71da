//! Golden-file tests for whole `gpuflow run … --overlap --json` documents
//! on one device.
//!
//! Every number in a single-device run document — the dry run's serial
//! counters, the overlap simulation, the plan statistics, the profile
//! summary and the compile metrics — is a deterministic function of the
//! template, the device and the options, so the documents are compared
//! byte-for-byte. The entries cover the serial planner on a large
//! template, the stream scheduler at two and four streams, and two plans
//! that have to split and spill on the 768 MB 8800 GTX: a streamed one and
//! a serial one whose margin ladder climbs four rungs while the split
//! factor goes from 1 to 2.
//!
//! `run` always plans with the default (Belady) eviction policy, so the
//! other three policies are pinned through `plan` documents of the same
//! template at the margin the serial ladder accepts: split factor, units,
//! steps, bytes and copies each way, and the peak.
//!
//! Regenerate after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test -p gpuflow-cli --test run_golden`

use gpuflow_cli::{execute, Command};

fn run(cmdline: &str) -> String {
    let argv: Vec<String> = cmdline.split_whitespace().map(str::to_string).collect();
    execute(&Command::parse(&argv).unwrap()).unwrap()
}

fn check(name: &str, cmdline: &str) {
    let text = run(cmdline);
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, golden,
        "`{cmdline}` drifted from {name}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn serial_large_cnn_run_document_matches_golden() {
    check(
        "run_cnn_large_384.json",
        "run cnn-large:384x384 --device c870 --overlap --json",
    );
}

#[test]
fn four_stream_large_cnn_run_document_matches_golden() {
    check(
        "run_cnn_large_400_streams4.json",
        "run cnn-large:400x400 --device c870 --streams 4 --overlap --json",
    );
}

#[test]
fn two_stream_small_cnn_run_document_matches_golden() {
    check(
        "run_cnn_small_512_streams2.json",
        "run cnn-small:512x512 --device c870 --streams 2 --overlap --json",
    );
}

#[test]
fn spilling_two_stream_run_document_matches_golden() {
    check(
        "run_cnn_small_9000_8800gtx_streams2.json",
        "run cnn-small:9000x9000 --device 8800gtx --streams 2 --overlap --json",
    );
}

#[test]
fn serial_spilling_run_document_matches_golden() {
    check(
        "run_cnn_small_8500_8800gtx.json",
        "run cnn-small:8500x8500 --device 8800gtx --overlap --json",
    );
}

#[test]
fn spilling_plans_under_every_other_eviction_policy_match_golden() {
    for policy in ["latest", "lru", "fifo"] {
        check(
            &format!("plan_cnn_small_8500_8800gtx_{policy}.txt"),
            &format!("plan cnn-small:8500x8500 --device 8800gtx --margin 0.3 --eviction {policy}"),
        );
    }
}
