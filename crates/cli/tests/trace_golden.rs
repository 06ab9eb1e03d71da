//! Golden-file test for the Chrome-trace export structure.
//!
//! `gpuflow trace fig3` is fully deterministic except for wall-clock
//! timestamps on the compile track (pid 1): the template, plan, simulated
//! timings, metrics, and event ordering never change between runs. The
//! test normalizes the wall-clock fields to zero and compares the result
//! byte-for-byte against the checked-in golden file.
//!
//! Regenerate after an intentional format change with:
//! `UPDATE_GOLDEN=1 cargo test -p gpuflow-cli --test trace_golden`

use gpuflow_cli::{execute, Command};
use gpuflow_minijson::Value;
use gpuflow_trace::PID_COMPILE;

/// Zero out wall-clock `ts`/`dur` on compile-track events; virtual-time
/// tracks stay untouched (they are deterministic and must not drift).
fn normalize(doc: &mut Value) {
    let Value::Object(root) = doc else {
        panic!("trace root must be an object")
    };
    let Some(Value::Array(events)) = root.get_mut("traceEvents") else {
        panic!("missing traceEvents")
    };
    for e in events.iter_mut() {
        let Value::Object(m) = e else { continue };
        let on_compile_track = m.get("pid").and_then(Value::as_u64) == Some(PID_COMPILE as u64);
        if on_compile_track {
            if m.get("ts").is_some() {
                m.insert("ts", 0u64);
            }
            if m.get("dur").is_some() {
                m.insert("dur", 0u64);
            }
        }
    }
}

/// Run `gpuflow trace <args> --out <tmp>`, normalize the export and
/// compare it byte-for-byte against `tests/golden/<golden>`.
fn check_trace(args: &str, golden: &str) {
    let dir = std::env::temp_dir().join("gpuflow-golden-test");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join(golden);
    let argv: Vec<String> = format!("trace {args} --out {}", out_path.display())
        .split_whitespace()
        .map(str::to_string)
        .collect();
    execute(&Command::parse(&argv).unwrap()).unwrap();

    let mut doc = gpuflow_minijson::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    normalize(&mut doc);
    let normalized = doc.to_string_pretty() + "\n";

    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &normalized).unwrap();
        return;
    }
    let golden_text = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        normalized, golden_text,
        "normalized {golden} drifted from the golden file; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn fig3_trace_structure_matches_golden() {
    check_trace("fig3 --device custom:1", "fig3_trace.json");
}

/// The cluster export: the shared-bus track (`bus H2D`, `bus D2H`, one
/// `GPUn compute` thread per device) and the `cluster.*` metrics. Tests
/// run from `crates/cli`, hence the relative path; the export never
/// embeds it.
#[test]
fn pipeline_cluster_trace_structure_matches_golden() {
    check_trace(
        "../../assets/pipeline.gfg --devices c870x2",
        "pipeline_c870x2_trace.json",
    );
}
