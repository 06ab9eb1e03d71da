//! `run --trace PATH` writes an export and changes nothing else.
//!
//! `run` draws the simulated lanes and the serial timeline onto its tracer
//! only when an export will be written, while the metrics `--json` embeds
//! are recorded either way. So stdout must be byte-identical with and
//! without `--trace` (apart from the text mode's `wrote …` line), and the
//! export must still carry one span per simulated lane event plus the
//! serial timeline.

use gpuflow_cli::commands::load_source;
use gpuflow_cli::{execute, Command, Source};
use gpuflow_core::{CompileOptions, Framework};
use gpuflow_minijson::Value;
use gpuflow_multi::{compile_multi, parse_cluster};
use gpuflow_serve::Builtin;
use gpuflow_sim::device::tesla_c870;
use gpuflow_trace::{PID_CLUSTER, PID_OVERLAP, PID_SERIAL};

fn run(cmdline: &str) -> String {
    let argv: Vec<String> = cmdline.split_whitespace().map(str::to_string).collect();
    execute(&Command::parse(&argv).unwrap()).unwrap()
}

/// Trace events on track `pid`.
fn events_on(doc: &Value, pid: u32) -> usize {
    doc["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["pid"].as_u64() == Some(pid as u64) && e["ph"].as_str() != Some("M"))
        .count()
}

/// Run `run <args> --overlap` with and without a trace, in JSON and text
/// mode; check stdout agrees and return the parsed JSON-mode export.
fn traced_run_agrees(args: &str, tag: &str) -> Value {
    let dir = std::env::temp_dir().join("gpuflow-run-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.json"));
    let trace = format!("--trace {}", path.display());

    let plain = run(&format!("run {args} --overlap --json"));
    let traced = run(&format!("run {args} --overlap --json {trace}"));
    assert_eq!(plain, traced, "{args}: --trace changed the --json output");
    let export = gpuflow_minijson::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();

    let plain = run(&format!("run {args} --overlap"));
    let traced = run(&format!("run {args} --overlap {trace}"));
    let (kept, wrote): (Vec<&str>, Vec<&str>) =
        traced.lines().partition(|l| !l.starts_with("wrote "));
    assert_eq!(
        wrote.len(),
        1,
        "{args}: one `wrote` line expected:\n{traced}"
    );
    assert_eq!(
        plain.lines().collect::<Vec<_>>(),
        kept,
        "{args}: --trace changed the text output"
    );
    export
}

#[test]
fn trace_does_not_change_a_single_device_run() {
    let dev = tesla_c870();
    for (args, tag, src, streams) in [
        (
            "fig3 --device c870",
            "fig3_c870",
            Source::Builtin(Builtin::Fig3),
            1,
        ),
        (
            "edge:256x256,k=9,o=4 --device c870 --streams 2",
            "edge_streams2",
            Source::Builtin(Builtin::Edge {
                rows: 256,
                cols: 256,
                k: 9,
                orientations: 4,
            }),
            2,
        ),
    ] {
        let export = traced_run_agrees(args, tag);
        let g = load_source(&src).unwrap();
        let compiled = Framework::new(dev.clone())
            .with_options(CompileOptions {
                streams,
                ..CompileOptions::default()
            })
            .compile_adaptive(&g)
            .unwrap();
        let lanes = compiled.simulate().events.len();
        let serial = compiled.run_analytic().unwrap().timeline.events().len();
        assert!(lanes > 0 && serial > 0);
        assert_eq!(events_on(&export, PID_OVERLAP), lanes, "{args}");
        assert_eq!(events_on(&export, PID_SERIAL), serial, "{args}");
    }
}

#[test]
fn trace_does_not_change_a_cluster_run() {
    let export = traced_run_agrees("fig3 --devices c870x2", "fig3_c870x2");
    let g = load_source(&Source::Builtin(Builtin::Fig3)).unwrap();
    let c = compile_multi(&g, &parse_cluster("c870x2").unwrap(), 0.05).unwrap();
    let lanes = c.simulate().events.len();
    assert!(lanes > 0);
    assert_eq!(events_on(&export, PID_CLUSTER), lanes);
}
