//! The shadow pipeline: the one file of the benchmark that names planner
//! and serve library functions.
//!
//! The traced run re-runs a workload's inputs in-process through the same
//! sequence of public functions the CLI's `run` verb and the daemon's
//! request handler go through, with a span around each call. Spans inside
//! the program are a later issue; until then this file is what has to be
//! re-pointed when a layer's entry points move (README.md, "Re-pointing
//! layers.rs"). Span names are the per-layer metric names.

use std::path::PathBuf;

use gpuflow_core::framework::DEFAULT_MARGINS;
use gpuflow_core::xfer::{schedule_transfers, XferOptions};
use gpuflow_core::{
    overlapped_trace, partition_offload_units, schedule_streamed_with, schedule_units, split_graph,
    validate_plan, CompileOptions, CompiledTemplate, Framework, PartitionPolicy,
};
use gpuflow_graph::Graph;
use gpuflow_multi::{
    compile_multi, parse_cluster, schedule_multi_transfers, shard_graph, MultiXferOptions,
};
use gpuflow_sim::DeviceSpec;

use crate::trace::Recorder;

/// Planner margin of the CLI's cluster path and the daemon's default.
const CLUSTER_MARGIN: f64 = 0.05;

/// What the shadow pipeline computed for one entry, to be reconciled with
/// what the real program printed for the same entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowOut {
    /// `profile.makespan_ns` of the run document.
    pub makespan_ns: u64,
    /// `plan.bytes_in + plan.bytes_out` of the run document.
    pub moved_bytes: u64,
}

fn device(name: &str) -> Result<DeviceSpec, String> {
    match name {
        "c870" => Ok(gpuflow_sim::device::tesla_c870()),
        "8800gtx" => Ok(gpuflow_sim::device::geforce_8800_gtx()),
        other => Err(format!("layers.rs knows no device '{other}'")),
    }
}

/// build → parse round trip → hash, common to both plan stacks.
fn front_end(rec: &mut Recorder, spec: &str) -> Result<Graph, String> {
    let t = rec.begin("templates.build_ms");
    let g = gpuflow_serve::resolve_named(spec)?;
    rec.end(t);
    rec.count("graph.ops", g.num_ops() as f64);
    rec.count("graph.data", g.num_data() as f64);

    let t = rec.begin("graph.parse_ms");
    let text = gpuflow_graph::write_graph(&g);
    let parsed = gpuflow_graph::parse_graph(&text);
    rec.end(t);
    // `fig3` writes its row gathers as an operator kind the parser does
    // not read back (observed, not this benchmark's to fix); every other
    // template must survive the round trip.
    match parsed {
        Ok(p) if p.num_ops() == g.num_ops() => {}
        Err(_) if spec == "fig3" => {}
        _ => return Err(format!("{spec}: .gfg round trip changed the graph")),
    }

    let t = rec.begin("graph.canon_hash_ms");
    let hashes = (
        gpuflow_graph::canonical_hash(&g),
        gpuflow_graph::skeleton_hash(&g),
    );
    rec.end(t);
    std::hint::black_box(hashes);
    Ok(g)
}

/// encode the plan → parse it back → re-encode: the codec layers.
fn codec(rec: &mut Recorder, json: &str) -> Result<(), String> {
    rec.count("codegen.json_bytes", json.len() as f64);
    let t = rec.begin("minijson.parse_ms");
    let value = gpuflow_minijson::parse(json).map_err(|e| e.to_string())?;
    rec.end(t);
    let t = rec.begin("minijson.encode_ms");
    let again = value.to_string_compact();
    rec.end(t);
    std::hint::black_box(again);
    Ok(())
}

/// The margin ladder of `Framework::compile_adaptive`, as the CLI's `run`
/// verb walks it: compile, dry-run, escalate until both succeed.
fn adaptive(
    g: &Graph,
    dev: &DeviceSpec,
    options: CompileOptions,
) -> Result<(f64, usize, CompiledTemplate), String> {
    let mut last = String::new();
    for (i, &margin) in DEFAULT_MARGINS.iter().enumerate() {
        let fw = Framework::new(dev.clone()).with_options(CompileOptions {
            memory_margin: margin,
            ..options
        });
        match fw.compile(g).and_then(|c| c.run_analytic().map(|_| c)) {
            Ok(c) => return Ok((margin, i + 1, c)),
            Err(e) => last = e.to_string(),
        }
    }
    Err(last)
}

/// One single-device entry: what `gpuflow run <spec> --device D
/// [--streams K] --overlap --json` does, pass by pass.
pub fn shadow_single(
    rec: &mut Recorder,
    spec: &str,
    device_name: &str,
    streams: usize,
) -> Result<ShadowOut, String> {
    let dev = device(device_name)?;
    let root = rec.begin("entry");
    let g = front_end(rec, spec)?;
    let options = CompileOptions {
        streams,
        ..CompileOptions::default()
    };

    let t = rec.begin("core.adaptive_ms");
    let (margin, attempts, _) = adaptive(&g, &dev, options)?;
    rec.end(t);
    rec.count("core.margin_attempts", attempts as f64);

    // The passes of `Framework::compile` at the accepted margin, one span
    // each, then the same compile as one call: their ratio says how much
    // of the real compile the pass spans explain.
    let options = CompileOptions {
        memory_margin: margin,
        ..options
    };
    let budget = dev.plannable_memory(margin);
    let err = |e: gpuflow_core::FrameworkError| format!("{spec}: {e}");
    let t = rec.begin("core.split_ms");
    let split = split_graph(&g, budget).map_err(err)?;
    rec.end(t);
    rec.count("core.split_parts", split.parts as f64);
    let sg = &split.graph;

    let t = rec.begin("core.partition_ms");
    let units = partition_offload_units(sg, PartitionPolicy::PerOperator, budget);
    rec.end(t);
    rec.count("core.units", units.len() as f64);

    let xfer = XferOptions {
        memory_bytes: budget,
        policy: options.eviction,
        eager_free: options.eager_free,
    };
    let plan = if streams > 1 {
        let t = rec.begin("core.streams_ms");
        let plan = schedule_streamed_with(sg, &units, &dev, streams, xfer, options.defer_frees)
            .map_err(err)?;
        rec.end(t);
        plan
    } else {
        let t = rec.begin("core.opschedule_ms");
        let order = schedule_units(sg, &units, options.scheduler);
        rec.end(t);
        let t = rec.begin("core.xfer_ms");
        let plan = schedule_transfers(sg, &units, &order, xfer).map_err(err)?;
        rec.end(t);
        plan
    };
    // `compile_traced` counts evictions for its span arguments even with
    // tracing off (an O(steps²) scan), so the whole-compile span below
    // contains this and the pass spans must too.
    let t = rec.begin("core.count_evictions_ms");
    let evictions = plan.evictions();
    rec.end(t);
    rec.count("core.steps", plan.steps.len() as f64);
    rec.count("core.evictions", evictions as f64);

    let t = rec.begin("core.validate_ms");
    validate_plan(sg, &plan, budget).map_err(err)?;
    rec.end(t);
    let t = rec.begin("core.stats_ms");
    let stats = plan.stats(sg);
    rec.end(t);

    let t = rec.begin("core.compile_ms");
    let compiled = Framework::new(dev.clone())
        .with_options(options)
        .compile(&g)
        .map_err(err)?;
    rec.end(t);
    if compiled.plan.steps != plan.steps {
        return Err(format!(
            "{spec}: pass-by-pass plan differs from Framework::compile"
        ));
    }

    // The post-compile half of `run --json`.
    let t = rec.begin("core.exec_analytic_ms");
    let run = compiled.run_analytic().map_err(err)?;
    rec.end(t);
    std::hint::black_box(run.total_time());
    let t = rec.begin("core.overlap_ms");
    let overlap = overlapped_trace(sg, &plan, &dev);
    rec.end(t);
    std::hint::black_box(overlap.0.overlapped_time);
    let t = rec.begin("verify.analyze_ms");
    let analysis = plan.analyze(sg, dev.memory_bytes, true);
    rec.end(t);
    if analysis.has_errors() {
        return Err(format!("{spec}: the analyzer rejects the plan"));
    }
    let t = rec.begin("verify.hazard_ms");
    let cert = plan.certify(sg);
    rec.end(t);
    if !cert.certified() {
        return Err(format!("{spec}: the plan is not hazard-certified"));
    }
    let t = rec.begin("profile.single_ms");
    let report = gpuflow_profile::profile_plan(sg, &plan, &dev, &options)?;
    rec.end(t);

    let t = rec.begin("codegen.json_ms");
    let json = gpuflow_codegen::plan_to_json(sg, &plan, spec).map_err(|e| e.to_string())?;
    rec.end(t);
    let t = rec.begin("codegen.cuda_ms");
    let cuda = gpuflow_codegen::generate_cuda(sg, &plan, spec).map_err(|e| e.to_string())?;
    rec.end(t);
    std::hint::black_box(cuda.len());
    codec(rec, &json)?;
    rec.end(root);
    Ok(ShadowOut {
        makespan_ns: report.makespan_ns,
        moved_bytes: (stats.floats_in + stats.floats_out) * 4,
    })
}

/// One cluster entry: what `gpuflow run <spec> --devices C --json` (and
/// the daemon, for a catalogue spec) does, pass by pass.
pub fn shadow_cluster(rec: &mut Recorder, spec: &str, cluster: &str) -> Result<ShadowOut, String> {
    let cluster = parse_cluster(cluster)?;
    let root = rec.begin("entry");
    let g = front_end(rec, spec)?;
    let err = |e: gpuflow_core::FrameworkError| format!("{spec}: {e}");

    let t = rec.begin("multigpu.shard_ms");
    let sharded = shard_graph(&g, &cluster, CLUSTER_MARGIN).map_err(err)?;
    rec.end(t);
    rec.count("core.split_parts", sharded.split.parts as f64);
    let sg = &sharded.split.graph;
    let t = rec.begin("core.partition_ms");
    let units = partition_offload_units(sg, PartitionPolicy::PerOperator, u64::MAX);
    let unit_device: Vec<usize> = units.iter().map(|u| sharded.device_of(u.ops[0])).collect();
    rec.end(t);
    rec.count("multigpu.units", units.len() as f64);
    let t = rec.begin("core.opschedule_ms");
    let order = schedule_units(sg, &units, gpuflow_core::OpScheduler::DepthFirst);
    rec.end(t);
    let t = rec.begin("multigpu.schedule_ms");
    let plan = schedule_multi_transfers(
        sg,
        &units,
        &unit_device,
        &order,
        &MultiXferOptions {
            budgets: cluster.plannable_budgets(CLUSTER_MARGIN),
            eager_free: true,
            pinned_host: vec![],
        },
    )
    .map_err(err)?;
    rec.end(t);
    rec.count("multigpu.steps", plan.steps.len() as f64);

    let t = rec.begin("multigpu.compile_ms");
    let c = compile_multi(&g, &cluster, CLUSTER_MARGIN).map_err(err)?;
    rec.end(t);
    if c.plan.steps.len() != plan.steps.len() {
        return Err(format!(
            "{spec}: pass-by-pass plan differs from compile_multi"
        ));
    }

    let t = rec.begin("multigpu.makespan_ms");
    let outcome = c.trace();
    rec.end(t);
    std::hint::black_box(outcome.0.makespan);
    let t = rec.begin("verify.multi_analyze_ms");
    let analysis = c.analyze();
    rec.end(t);
    if analysis.has_errors() {
        return Err(format!("{spec}: the analyzer rejects the cluster plan"));
    }
    let t = rec.begin("profile.cluster_ms");
    let report = gpuflow_profile::profile_cluster(&c, CLUSTER_MARGIN)?;
    rec.end(t);

    let t = rec.begin("codegen.json_ms");
    let json = gpuflow_codegen::compiled_multi_to_json(&c, spec).map_err(|e| e.to_string())?;
    rec.end(t);
    codec(rec, &json)?;
    rec.end(root);
    Ok(ShadowOut {
        makespan_ns: report.makespan_ns,
        moved_bytes: (analysis.stats.floats_in + analysis.stats.floats_out) * 4,
    })
}

/// The exact solver on the paper's Fig. 6 instance (the Fig. 3 graph in
/// five units of memory) and the CPU kernels of the functional gate:
/// neither is on a hot path of any workload, both get a number.
pub fn probes(rec: &mut Recorder) -> Result<(), String> {
    use gpuflow_core::examples::{fig3_graph, fig3_memory_bytes, fig3_units};
    let g = fig3_graph();
    let t = rec.begin("pbsat.exact_ms");
    let out = gpuflow_core::pb_exact_plan(
        &g,
        &fig3_units(&g),
        fig3_memory_bytes(),
        gpuflow_core::PbExactOptions::default(),
        None,
    )
    .map_err(|e| e.to_string())?;
    rec.end(t);
    if !out.optimal {
        return Err("Fig. 6 instance no longer proven optimal".into());
    }
    rec.count("pbsat.conflicts", out.stats.conflicts as f64);

    let g = gpuflow_serve::resolve_named("cnn-small:96x96")?;
    let bindings = gpuflow_templates::data::default_bindings(&g);
    let compiled = Framework::new(device("c870")?)
        .compile(&g)
        .map_err(|e| e.to_string())?;
    let t = rec.begin("ops.functional_ms");
    let run = compiled
        .run_functional(&bindings)
        .map_err(|e| e.to_string())?;
    let reference = gpuflow_ops::reference_eval(&g, &bindings).map_err(|e| e.to_string())?;
    rec.end(t);
    if run.outputs.iter().any(|(d, t)| *t != reference[d]) {
        return Err("functional run differs from direct graph evaluation".into());
    }
    Ok(())
}

/// The daemon's request handler without the socket: the same `Server`
/// the `serve` verb builds, driven through `handle_line`.
pub struct Inproc(gpuflow_serve::Server);

impl Inproc {
    /// A server for `cluster` (a `--devices` spec), optionally journaled.
    pub fn new(cluster: &str, journal: Option<PathBuf>) -> Result<Inproc, String> {
        Ok(Inproc(gpuflow_serve::Server::new(
            gpuflow_serve::ServeConfig {
                cluster: parse_cluster(cluster)?,
                margin: CLUSTER_MARGIN,
                cache_path: journal,
                ..gpuflow_serve::ServeConfig::default()
            },
        )))
    }

    /// Answer one request line.
    pub fn handle(&self, line: &str) -> String {
        self.0.handle_line(line)
    }
}
