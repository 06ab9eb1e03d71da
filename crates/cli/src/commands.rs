//! Command execution: each subcommand returns its textual output.

use std::fmt::Write as _;

use gpuflow_chaos::{trace_recovery, FaultSpec, RecoveryStats};
use gpuflow_codegen::{
    compiled_multi_to_json, compiled_multi_to_json_traced, generate_cuda, plan_to_json,
    plan_to_json_traced,
};
use gpuflow_core::{
    baseline_plan, render_gantt, trace_lanes, trace_serial_timeline, CompileOptions, Framework,
    Lane, OverlapOutcome, PbExactOptions, ResilientExecutor,
};
use gpuflow_graph::{Graph, FLOAT_BYTES};
use gpuflow_minijson::{Map, Value};
use gpuflow_multi::{
    compile_multi, compile_multi_traced, parse_cluster, record_cluster_metrics,
    ResilientMultiExecutor,
};
use gpuflow_ops::reference_eval;
use gpuflow_profile::{profile_cluster, profile_plan, render_table, trace_profile, ProfileReport};
use gpuflow_templates::data::default_bindings;
use gpuflow_templates::{cnn, edge};
use gpuflow_trace::{
    sum_event_arg, sum_event_dur, validate_chrome_trace, Tracer, PID_CLUSTER, PID_OVERLAP,
    PID_SERIAL,
};

use crate::args::{Command, Source};

/// Planner memory margin used by subcommands that take no `--margin` flag.
const DEFAULT_MARGIN: f64 = 0.05;

/// Resolve the exact-scheduler flags into compile options.
fn exact_options(
    exact: bool,
    budget: Option<u64>,
    max_ops: Option<usize>,
) -> Option<PbExactOptions> {
    exact.then(|| {
        let mut o = PbExactOptions::default();
        if let Some(b) = budget {
            o.max_conflicts = b;
        }
        if let Some(m) = max_ops {
            o.max_ops = m;
        }
        o
    })
}

/// Append the exact solver's search statistics to a JSON map.
fn insert_exact_stats(m: &mut Map, compiled: &gpuflow_core::CompiledTemplate) {
    if let Some(st) = &compiled.exact_stats {
        m.insert("exact_optimal", compiled.exact_optimal);
        m.insert("exact_conflicts", st.conflicts);
        m.insert("exact_decisions", st.decisions);
        m.insert("exact_propagations", st.propagations);
        m.insert("exact_restarts", st.restarts);
        m.insert("exact_vars_full", st.vars_full);
        m.insert("exact_vars_pruned", st.vars_pruned);
        m.insert("exact_clauses_full", st.clauses_full);
        m.insert("exact_clauses_pruned", st.clauses_pruned);
        m.insert("exact_warm_started", st.warm_started);
        m.insert("exact_window_pruned", st.pruned);
    }
}

/// An enabled tracer with the wall-clock compile track pre-named.
fn new_tracer() -> Tracer {
    let mut t = Tracer::new();
    t.name_process(gpuflow_trace::PID_COMPILE, "gpuflow compile (wall clock)");
    t.name_thread(gpuflow_trace::PID_COMPILE, 0, "pipeline passes");
    t
}

/// Enabled tracer when a `--trace PATH` was given, else the no-op tracer.
fn tracer_for(trace: &Option<String>) -> Tracer {
    if trace.is_some() {
        new_tracer()
    } else {
        Tracer::disabled()
    }
}

/// Serialize the tracer to Chrome-trace JSON, re-parse and validate the
/// exact text being written (the export self-checks on every write), then
/// write it to `path`. Returns the parsed document for reconciliation.
fn write_trace(path: &str, tracer: &Tracer) -> Result<Value, String> {
    let text = tracer.chrome_trace().to_string_pretty();
    let parsed = gpuflow_minijson::parse(&text).map_err(|e| format!("trace re-parse: {e}"))?;
    validate_chrome_trace(&parsed).map_err(|e| format!("invalid Chrome trace: {e}"))?;
    std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
    Ok(parsed)
}

/// Append a `--trace PATH` export to a command's output if requested.
fn maybe_write_trace(
    out: &mut String,
    trace: &Option<String>,
    tracer: &Tracer,
) -> Result<(), String> {
    if let Some(path) = trace {
        write_trace(path, tracer)?;
        let _ = writeln!(
            out,
            "wrote {path} (Chrome trace, {} events)",
            tracer.events().len()
        );
    }
    Ok(())
}

/// The plan's canonical statistics as a JSON object — shared by the
/// single- and multi-device `run --json` paths so their schema matches.
fn plan_stats_json(stats: &gpuflow_core::PlanStats, peak_per_device: Option<&[u64]>) -> Value {
    let mut m = Map::new();
    m.insert("bytes_in", stats.floats_in * FLOAT_BYTES);
    m.insert("bytes_out", stats.floats_out * FLOAT_BYTES);
    m.insert("copies_in", stats.copies_in);
    m.insert("copies_out", stats.copies_out);
    m.insert("launches", stats.launches);
    m.insert("peak_bytes", stats.peak_bytes);
    if let Some(peaks) = peak_per_device {
        m.insert(
            "peak_per_device",
            Value::Array(peaks.iter().map(|&p| Value::from(p)).collect()),
        );
    }
    Value::Object(m)
}

/// What `check` learned about the compiled plan: step count, unit count,
/// peak residency, target description, and per-unit device assignment.
type CheckPlanInfo = (usize, usize, u64, String, Vec<usize>);

/// The `check --json` document: the diagnostic report with every
/// step-located diagnostic enriched by the plan's lane/device assignment,
/// plus a `plan` object describing what was analyzed and certified.
fn check_report_json(
    diags: &[gpuflow_verify::Diagnostic],
    plan_info: &Option<CheckPlanInfo>,
    cert: &Option<gpuflow_verify::ConcurrencyReport>,
) -> Value {
    let mut doc = gpuflow_verify::report_to_json(diags);
    let Value::Object(root) = &mut doc else {
        return doc;
    };
    if let Some(report) = cert {
        if let Some(Value::Array(list)) = root.get_mut("diagnostics") {
            for d in list {
                let Value::Object(dm) = d else { continue };
                let Some(Value::Object(loc)) = dm.get_mut("location") else {
                    continue;
                };
                if loc.get("kind").and_then(Value::as_str) != Some("step") {
                    continue;
                }
                let Some(i) = loc.get("index").and_then(Value::as_u64) else {
                    continue;
                };
                let i = i as usize;
                if i >= report.step_lane.len() {
                    continue;
                }
                loc.insert("lane", report.step_lane[i].label());
                match report.step_device[i] {
                    Some(dev) => loc.insert("device", dev as u64),
                    None => loc.insert("device", Value::Null),
                };
            }
        }
    }
    if let Some((steps, units, peak, target, unit_device)) = plan_info {
        let mut p = Map::new();
        p.insert("target", target.as_str());
        p.insert("steps", *steps);
        p.insert("units", *units);
        p.insert("peak_bytes", *peak);
        p.insert(
            "unit_device",
            Value::Array(unit_device.iter().map(|&d| Value::from(d as u64)).collect()),
        );
        if let Some(report) = cert {
            let c = report.hb.edge_counts();
            p.insert("lanes", report.lanes_used);
            let mut e = Map::new();
            e.insert("program", c.program);
            e.insert("transfer", c.transfer);
            e.insert("lifetime", c.lifetime);
            p.insert("hb_edges", e);
        }
        root.insert("plan", Value::Object(p));
    }
    doc
}

/// The `check --hazards` human summary: the happens-before edge breakdown
/// plus a lane census in order of first appearance.
fn render_hazard_summary(report: &gpuflow_verify::ConcurrencyReport) -> String {
    let mut s = String::new();
    let c = report.hb.edge_counts();
    let _ = writeln!(
        s,
        "hb:    {} steps across {} lanes; {} happens-before edges ({} program, {} transfer, {} lifetime)",
        report.hb.len(),
        report.lanes_used,
        c.total(),
        c.program,
        c.transfer,
        c.lifetime
    );
    let mut census: Vec<(String, usize)> = Vec::new();
    for lane in &report.step_lane {
        let label = lane.label();
        match census.iter_mut().find(|(l, _)| *l == label) {
            Some((_, n)) => *n += 1,
            None => census.push((label, 1)),
        }
    }
    let lanes = census
        .iter()
        .map(|(l, n)| format!("{l}={n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(s, "lanes: {lanes}");
    s
}

/// Build the template graph for a source.
pub fn load_source(source: &Source) -> Result<Graph, String> {
    match source {
        Source::File(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            gpuflow_graph::parse_graph(&text).map_err(|e| e.to_string())
        }
        Source::Edge {
            rows,
            cols,
            k,
            orientations,
        } => Ok(edge::find_edges(*rows, *cols, *k, *orientations, edge::CombineOp::Max).graph),
        Source::SmallCnn { rows, cols } => Ok(cnn::small_cnn(*rows, *cols).graph),
        Source::LargeCnn { rows, cols } => Ok(cnn::large_cnn(*rows, *cols).graph),
        Source::Fig3 => Ok(gpuflow_core::examples::fig3_graph()),
    }
}

/// Machine-readable rendering of a cluster simulation outcome.
fn multi_outcome_json(cluster: &str, o: &OverlapOutcome) -> Value {
    let mut m = Map::new();
    m.insert("mode", "multi");
    m.insert("cluster", cluster);
    m.insert("devices", o.compute_busy.len());
    m.insert("serial_time_s", o.serial_time);
    m.insert("makespan_s", o.makespan);
    m.insert("speedup", o.speedup());
    m.insert("bus_h2d_busy_s", o.h2d_busy);
    m.insert("bus_d2h_busy_s", o.d2h_busy);
    // Occupancy of the busier bus channel: 1.0 means the shared fabric,
    // not compute, bounds the makespan.
    m.insert(
        "bus_share",
        o.h2d_busy.max(o.d2h_busy) / o.makespan.max(1e-12),
    );
    m.insert("bus_bytes", o.bus_bytes);
    m.insert(
        "compute_busy_s",
        Value::Array(o.compute_busy.iter().map(|&b| Value::from(b)).collect()),
    );
    Value::Object(m)
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// The fixed `chaos --smoke` CI suite: seeded device loss at the temporal
/// midpoint of a two-device run plus a transient-fault sweep, over each
/// benchmark template. Every run must recover, match the reference
/// evaluation bit-for-bit, and replay deterministically; any miss is an
/// error (nonzero exit).
fn chaos_smoke() -> Result<String, String> {
    let mut out = String::new();
    let sources = [
        ("fig3", Source::Fig3),
        (
            "edge:96x96,k=5,o=4",
            Source::Edge {
                rows: 96,
                cols: 96,
                k: 5,
                orientations: 4,
            },
        ),
        ("cnn-small:64x64", Source::SmallCnn { rows: 64, cols: 64 }),
    ];
    let cluster = parse_cluster("c870x2")?;
    let dev = gpuflow_sim::device::tesla_c870();
    let mut runs = 0u32;
    for (name, src) in &sources {
        let g = load_source(src)?;
        let bindings = default_bindings(&g);
        let reference = reference_eval(&g, &bindings).map_err(|e| e.to_string())?;

        // Hard device loss at the midpoint of a 2-device run: each device
        // in turn, recovered via failover replanning.
        let c = compile_multi(&g, &cluster, DEFAULT_MARGIN).map_err(|e| e.to_string())?;
        for lost in 0..cluster.len() {
            let spec = FaultSpec::parse(&format!("seed=7,loss={lost}@50%"))?;
            let rex = ResilientMultiExecutor::new(&c, &spec);
            let r = rex.run_functional(&bindings).map_err(|e| e.to_string())?;
            if !r.stats.recovered {
                return Err(format!(
                    "chaos smoke: {name}: loss of device {lost} did not recover\n{}",
                    r.stats.summary()
                ));
            }
            for (d, t) in &r.outputs {
                if t != &reference[d] {
                    return Err(format!(
                        "chaos smoke: {name}: output {} diverged after losing device {lost}",
                        g.data(*d).name
                    ));
                }
            }
            // The same seed must replay bit-identically.
            let a = rex.run_analytic().map_err(|e| e.to_string())?;
            let b = rex.run_analytic().map_err(|e| e.to_string())?;
            if a.timeline.events() != b.timeline.events() || a.stats != b.stats {
                return Err(format!(
                    "chaos smoke: {name}: nondeterministic replay under device-{lost} loss"
                ));
            }
            runs += 3;
        }

        // Transient kernel/transfer/alloc faults on a single device.
        let compiled = Framework::new(dev.clone())
            .compile_adaptive(&g)
            .map_err(|e| e.to_string())?;
        for seed in 1..=3u64 {
            let spec =
                FaultSpec::parse(&format!("seed={seed},kernel=0.2,transfer=0.1,alloc=0.05"))?;
            let r = ResilientExecutor::new(&compiled.split.graph, &compiled.plan, &dev, &spec)
                .with_origin(&compiled.split)
                .run_functional(&bindings)
                .map_err(|e| e.to_string())?;
            if !r.stats.recovered {
                return Err(format!(
                    "chaos smoke: {name}: transient sweep seed {seed} did not recover\n{}",
                    r.stats.summary()
                ));
            }
            for (d, t) in &r.exec.outputs {
                if t != &reference[d] {
                    return Err(format!(
                        "chaos smoke: {name}: output {} diverged under transient faults (seed {seed})",
                        g.data(*d).name
                    ));
                }
            }
            runs += 1;
        }
        let _ = writeln!(out, "chaos smoke: {name}: ok");
    }
    let _ = writeln!(
        out,
        "chaos smoke: {runs} runs, all recovered and verified ✓"
    );
    Ok(out)
}

/// Compact profile summary embedded in `run --json`: the dominant
/// bottleneck, the critical-path length, and the per-cause attributed
/// nanoseconds (zero-valued causes omitted).
fn profile_summary_json(r: &ProfileReport) -> Value {
    let mut m = Map::new();
    m.insert("makespan_ns", r.makespan_ns);
    m.insert("dominant", r.dominant.as_str());
    m.insert("dominant_share", r.dominant_share);
    m.insert("critical_path_s", r.critical_path.length_s);
    m.insert("critical_path_share", r.critical_path.share);
    m.insert("critical_path_steps", r.critical_path.spans.len());
    let mut causes = Map::new();
    for (cause, ns) in gpuflow_core::GapCause::all().iter().zip(r.cause_totals()) {
        if ns > 0 {
            causes.insert(cause.label(), ns);
        }
    }
    m.insert("bottleneck_ns", Value::Object(causes));
    Value::Object(m)
}

/// The fixed `profile --smoke` CI suite: reconcile the bottleneck
/// attribution of every benchmark template under serial, two-stream,
/// and two-device execution. [`profile_plan`] / [`profile_cluster`]
/// refuse to return a report with a single unattributed nanosecond, so
/// any drift is this command's error (nonzero exit). The one replanned
/// knob (`streams k+1`) cross-checks the what-if advisor: a >10%
/// divergence prints a GF0061 note but does not fail the gate — the
/// advisor documents itself as first-order.
fn profile_smoke() -> Result<String, String> {
    let mut out = String::new();
    let sources = [
        ("fig3", Source::Fig3),
        (
            "edge:96x96,k=5,o=4",
            Source::Edge {
                rows: 96,
                cols: 96,
                k: 5,
                orientations: 4,
            },
        ),
        ("cnn-small:64x64", Source::SmallCnn { rows: 64, cols: 64 }),
    ];
    let dev = gpuflow_sim::device::tesla_c870();
    let cluster = parse_cluster("c870x2")?;
    let mut reports = 0u32;
    for (name, src) in &sources {
        let g = load_source(src)?;
        for k in [1usize, 2] {
            let options = CompileOptions {
                streams: k,
                ..CompileOptions::default()
            };
            let compiled = Framework::new(dev.clone())
                .with_options(options)
                .compile_adaptive(&g)
                .map_err(|e| e.to_string())?;
            let report = profile_plan(&compiled.split.graph, &compiled.plan, &dev, &options)
                .map_err(|e| format!("profile smoke: {name} streams={k}: {e}"))?;
            reports += 1;
            let _ = writeln!(
                out,
                "profile smoke: {name} streams={k}: {} engines reconciled to {} ns; dominant {}",
                report.engines.len(),
                report.makespan_ns,
                report.dominant
            );
            // Cross-check the advisor: replan at streams k+1 and compare
            // the measured makespan against the first-order estimate.
            let knob = format!("streams={}", k + 1);
            let estimate = report
                .what_if
                .iter()
                .find(|w| w.knob == knob)
                .map(|w| w.estimated_s);
            let replanned = Framework::new(dev.clone())
                .with_options(CompileOptions {
                    streams: k + 1,
                    ..CompileOptions::default()
                })
                .compile_adaptive(&g)
                .ok()
                .map(|c| c.simulate().outcome.makespan);
            if let (Some(est), Some(real)) = (estimate, replanned) {
                let err = (est - real).abs() / real.max(1e-12);
                if err > 0.10 {
                    let _ = writeln!(
                        out,
                        "note[{code}]: {name} streams={k}: advisor estimated {knob} at \
                         {est:.6} s, replanning measured {real:.6} s ({:.0}% off; the \
                         advisor is first-order, docs/profiling.md)",
                        err * 100.0,
                        code = gpuflow_verify::critpath::codes::ADVISOR_DIVERGENCE
                    );
                }
            }
        }
        let c = compile_multi(&g, &cluster, DEFAULT_MARGIN).map_err(|e| e.to_string())?;
        let report = profile_cluster(&c, DEFAULT_MARGIN)
            .map_err(|e| format!("profile smoke: {name} c870x2: {e}"))?;
        reports += 1;
        let _ = writeln!(
            out,
            "profile smoke: {name} c870x2: {} engines reconciled to {} ns; dominant {}",
            report.engines.len(),
            report.makespan_ns,
            report.dominant
        );
    }
    let _ = writeln!(
        out,
        "profile smoke: {reports} reports, every nanosecond attributed ✓"
    );
    Ok(out)
}

/// Execute a parsed command, returning its printable output.
pub fn execute(cmd: &Command) -> Result<String, String> {
    let mut out = String::new();
    match cmd {
        Command::Info { source } => {
            let g = load_source(source)?;
            let _ = writeln!(out, "operators:        {}", g.num_ops());
            let _ = writeln!(out, "data structures:  {}", g.num_data());
            let _ = writeln!(
                out,
                "inputs/consts/outputs: {} / {} / {}",
                g.inputs().len(),
                g.constants().len(),
                g.outputs().len()
            );
            let total = g.total_data_floats();
            let _ = writeln!(
                out,
                "total data:       {} floats ({} MiB)",
                total,
                (total * FLOAT_BYTES) >> 20
            );
            let _ = writeln!(
                out,
                "I/O lower bound:  {} floats",
                g.io_lower_bound_floats()
            );
            let biggest = g
                .op_ids()
                .max_by_key(|&o| g.op_footprint_bytes(o))
                .ok_or("graph has no operators")?;
            let _ = writeln!(
                out,
                "largest operator: {} ({} MiB working set)",
                g.op(biggest).name,
                g.op_footprint_bytes(biggest) >> 20
            );
        }
        Command::Plan {
            source,
            device,
            margin,
            scheduler,
            eviction,
            exact,
            exact_budget,
            exact_max_ops,
            render,
            streams,
            devices,
            trace,
        } => {
            let g = load_source(source)?;
            let mut tracer = tracer_for(trace);
            if let Some(spec) = devices {
                let cluster = parse_cluster(spec)?;
                let c = compile_multi_traced(&g, &cluster, *margin, &mut tracer)
                    .map_err(|e| e.to_string())?;
                let a = c.analyze();
                let _ = writeln!(out, "cluster:          {}", cluster.describe());
                let _ = writeln!(out, "split factor:     {}", c.sharded.split.parts);
                let _ = writeln!(
                    out,
                    "ops per device:   {:?}",
                    c.sharded.ops_per_device(cluster.len())
                );
                let _ = writeln!(out, "offload units:    {}", c.plan.units.len());
                let _ = writeln!(out, "plan steps:       {}", c.plan.steps.len());
                let _ = writeln!(
                    out,
                    "bus traffic:      {} MiB over the shared PCIe fabric",
                    c.plan.bus_bytes(&c.sharded.split.graph) >> 20
                );
                for (d, peak) in a.peak_per_device.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "device {d} peak:    {} MiB on {}",
                        peak >> 20,
                        cluster.devices[d].name
                    );
                }
                if *render {
                    let _ = writeln!(out, "\n{}", c.plan.render(&c.sharded.split.graph));
                }
                maybe_write_trace(&mut out, trace, &tracer)?;
                return Ok(out);
            }
            let dev = device.spec();
            let options = CompileOptions {
                memory_margin: *margin,
                scheduler: *scheduler,
                eviction: *eviction,
                exact: exact_options(*exact, *exact_budget, *exact_max_ops),
                streams: *streams,
                ..CompileOptions::default()
            };
            let compiled = Framework::new(dev.clone())
                .with_options(options)
                .compile_traced(&g, &mut tracer)
                .map_err(|e| e.to_string())?;
            let stats = compiled.stats();
            let _ = writeln!(out, "device:           {}", dev.name);
            let _ = writeln!(out, "split factor:     {}", compiled.split.parts);
            let _ = writeln!(out, "offload units:    {}", compiled.plan.units.len());
            let _ = writeln!(out, "plan steps:       {}", compiled.plan.steps.len());
            let _ = writeln!(
                out,
                "transfers:        {} floats in, {} floats out",
                stats.floats_in, stats.floats_out
            );
            let _ = writeln!(out, "peak residency:   {} MiB", stats.peak_bytes >> 20);
            if let Some(ann) = &compiled.plan.streams {
                let _ = writeln!(
                    out,
                    "compute streams:  {} ({} cross-stream events)",
                    ann.num_streams,
                    ann.events.len()
                );
            }
            if *exact {
                let _ = writeln!(out, "exact optimum:    {}", compiled.exact_optimal);
                if let Some(st) = &compiled.exact_stats {
                    let _ = writeln!(
                        out,
                        "exact solver:     {} conflicts, {} vars ({} unpruned)",
                        st.conflicts, st.vars_pruned, st.vars_full
                    );
                }
            }
            let _ = writeln!(out, "\n{}", gpuflow_core::compilation_report(&compiled, &g));
            if *render {
                let _ = writeln!(out, "{}", compiled.plan.render(&compiled.split.graph));
            }
            maybe_write_trace(&mut out, trace, &tracer)?;
        }
        Command::Run {
            source,
            device,
            exact,
            exact_budget,
            exact_max_ops,
            functional,
            overlap,
            gantt,
            json,
            streams,
            devices,
            trace,
            faults,
        } => {
            let g = load_source(source)?;
            // `run` always traces: `--json` embeds the metrics snapshot
            // whether or not a `--trace` export was requested.
            let mut tracer = new_tracer();
            if let Some(spec) = devices {
                let cluster = parse_cluster(spec)?;
                let c = compile_multi_traced(&g, &cluster, DEFAULT_MARGIN, &mut tracer)
                    .map_err(|e| e.to_string())?;
                let sim = c.simulate();
                let o = &sim.outcome;
                trace_lanes(&mut tracer, &sim.lanes, &sim.events);
                record_cluster_metrics(&mut tracer, o);
                // Functional and/or faulted runs go through the resilient
                // executor (a quiet spec when no faults were requested).
                let mut verified: Option<usize> = None;
                let mut recovery: Option<RecoveryStats> = None;
                if *functional || faults.is_some() {
                    let quiet = FaultSpec::quiet(0);
                    let fspec = faults.as_ref().unwrap_or(&quiet);
                    let rex = ResilientMultiExecutor::new(&c, fspec);
                    let r = if *functional {
                        let bindings = default_bindings(&g);
                        let r = rex.run_functional(&bindings).map_err(|e| e.to_string())?;
                        if r.stats.recovered {
                            let reference =
                                reference_eval(&g, &bindings).map_err(|e| e.to_string())?;
                            for (d, t) in &r.outputs {
                                if t != &reference[d] {
                                    return Err(format!(
                                        "VERIFICATION FAILED for output {}",
                                        g.data(*d).name
                                    ));
                                }
                            }
                            verified = Some(r.outputs.len());
                        }
                        r
                    } else {
                        rex.run_analytic().map_err(|e| e.to_string())?
                    };
                    trace_recovery(&mut tracer, &r.injector, &r.stats);
                    if !r.stats.recovered {
                        return Err(format!(
                            "run did not recover from the injected fault schedule\n{}",
                            r.stats.summary()
                        ));
                    }
                    recovery = Some(r.stats);
                }
                if *json {
                    let analysis = c.analyze();
                    let mut doc = match multi_outcome_json(&cluster.describe(), o) {
                        Value::Object(m) => m,
                        _ => unreachable!(),
                    };
                    doc.insert(
                        "plan",
                        plan_stats_json(&analysis.stats, Some(&analysis.peak_per_device)),
                    );
                    if let Some(n) = verified {
                        doc.insert("outputs_verified", n);
                    }
                    if let Some(st) = &recovery {
                        doc.insert("recovery", st.to_json());
                    }
                    doc.insert(
                        "profile",
                        profile_summary_json(&profile_cluster(&c, DEFAULT_MARGIN)?),
                    );
                    doc.insert("metrics", tracer.metrics_ref().to_json());
                    out.push_str(&Value::Object(doc).to_string_pretty());
                    out.push('\n');
                } else {
                    if let Some(n) = verified {
                        let _ = writeln!(
                            out,
                            "functional run:   {n} outputs verified against the reference ✓"
                        );
                    }
                    if let Some(st) = &recovery {
                        let _ = writeln!(out, "{}", st.summary());
                    }
                    let _ = writeln!(out, "cluster:          {}", cluster.describe());
                    let _ = writeln!(out, "split factor:     {}", c.sharded.split.parts);
                    let _ = writeln!(out, "serial time:      {:.4} s", o.serial_time);
                    let _ = writeln!(
                        out,
                        "makespan:         {:.4} s ({:.2}x vs serial)",
                        o.makespan,
                        o.speedup()
                    );
                    let _ = writeln!(
                        out,
                        "shared bus:       {:.4} s H->D, {:.4} s D->H busy; {} MiB moved",
                        o.h2d_busy,
                        o.d2h_busy,
                        o.bus_bytes >> 20
                    );
                    let busy: Vec<String> =
                        o.compute_busy.iter().map(|b| format!("{b:.4}")).collect();
                    let _ = writeln!(out, "compute busy (s): [{}]", busy.join(", "));
                    if *gantt {
                        let _ = writeln!(
                            out,
                            "\n{}",
                            render_gantt(&sim.lanes, &sim.events, o.makespan, 80)
                        );
                    }
                    maybe_write_trace(&mut out, trace, &tracer)?;
                }
                if *json {
                    // Keep stdout pure JSON: write the export silently.
                    if let Some(path) = trace {
                        write_trace(path, &tracer)?;
                    }
                }
                return Ok(out);
            }
            let dev = device.spec();
            let options = CompileOptions {
                exact: exact_options(*exact, *exact_budget, *exact_max_ops),
                streams: *streams,
                ..CompileOptions::default()
            };
            let compiled = Framework::new(dev.clone())
                .with_options(options)
                .compile_adaptive_traced(&g, &mut tracer)
                .map_err(|e| e.to_string())?;
            let mut verified = None;
            let mut recovery: Option<RecoveryStats> = None;
            let result = if let Some(fspec) = faults {
                // Faulted runs go through the resilient executor.
                let rex =
                    ResilientExecutor::new(&compiled.split.graph, &compiled.plan, &dev, fspec)
                        .with_origin(&compiled.split);
                let r = if *functional {
                    let bindings = default_bindings(&g);
                    let r = rex.run_functional(&bindings).map_err(|e| e.to_string())?;
                    if r.stats.recovered {
                        let reference = reference_eval(&g, &bindings).map_err(|e| e.to_string())?;
                        for (d, t) in &r.exec.outputs {
                            if t != &reference[d] {
                                return Err(format!(
                                    "VERIFICATION FAILED for output {}",
                                    g.data(*d).name
                                ));
                            }
                        }
                        verified = Some(r.exec.outputs.len());
                    }
                    r
                } else {
                    rex.run_analytic().map_err(|e| e.to_string())?
                };
                trace_recovery(&mut tracer, &r.injector, &r.stats);
                if !r.stats.recovered {
                    return Err(format!(
                        "run did not recover from the injected fault schedule\n{}",
                        r.stats.summary()
                    ));
                }
                recovery = Some(r.stats);
                r.exec
            } else if *functional {
                let bindings = default_bindings(&g);
                let run = compiled
                    .run_functional(&bindings)
                    .map_err(|e| e.to_string())?;
                let reference = reference_eval(&g, &bindings).map_err(|e| e.to_string())?;
                for (d, t) in &run.outputs {
                    if t != &reference[d] {
                        return Err(format!(
                            "VERIFICATION FAILED for output {}",
                            g.data(*d).name
                        ));
                    }
                }
                verified = Some(run.outputs.len());
                run
            } else {
                compiled.run_analytic().map_err(|e| e.to_string())?
            };
            let c = result.timeline.counters();
            let sim = compiled.simulate();
            let o = &sim.outcome;
            trace_serial_timeline(&mut tracer, &result.timeline);
            trace_lanes(&mut tracer, &sim.lanes, &sim.events);
            if *json {
                let mut m = Map::new();
                m.insert("mode", "single");
                m.insert("device", dev.name.as_str());
                m.insert("total_time_s", c.total_time());
                m.insert("transfer_time_s", c.transfer_time);
                m.insert("transfer_share", c.transfer_share());
                m.insert("transfer_floats", c.total_transfer_floats());
                m.insert("transfer_bytes", c.total_transfer_floats() * FLOAT_BYTES);
                m.insert("kernel_time_s", c.kernel_time);
                m.insert("kernel_launches", c.kernel_launches);
                m.insert("peak_device_bytes", result.peak_device_bytes);
                m.insert("overlapped_makespan_s", o.makespan);
                m.insert("overlap_speedup", o.speedup());
                m.insert("streams", o.compute_busy.len());
                m.insert("h2d_busy_s", o.h2d_busy);
                m.insert("d2h_busy_s", o.d2h_busy);
                m.insert(
                    "compute_busy_s",
                    Value::Array(o.compute_busy.iter().map(|&b| Value::from(b)).collect()),
                );
                // Busy fraction of each engine over the overlapped
                // makespan, in lane order (h2d, each stream, d2h).
                let mut util = Map::new();
                for (name, frac) in o.utilization() {
                    util.insert(name.as_str(), frac);
                }
                m.insert("utilization", Value::Object(util));
                if let Some(n) = verified {
                    m.insert("outputs_verified", n);
                }
                insert_exact_stats(&mut m, &compiled);
                if let Some(st) = &recovery {
                    m.insert("recovery", st.to_json());
                }
                m.insert("plan", plan_stats_json(&compiled.stats(), None));
                m.insert(
                    "profile",
                    profile_summary_json(&profile_plan(
                        &compiled.split.graph,
                        &compiled.plan,
                        &dev,
                        &options,
                    )?),
                );
                m.insert("metrics", tracer.metrics_ref().to_json());
                out.push_str(&Value::Object(m).to_string_pretty());
                out.push('\n');
                // Keep stdout pure JSON: write the export silently.
                if let Some(path) = trace {
                    write_trace(path, &tracer)?;
                }
                return Ok(out);
            }
            if let Some(n) = verified {
                let _ = writeln!(
                    out,
                    "functional run:   {n} outputs verified against the reference ✓"
                );
            }
            if *exact {
                let _ = writeln!(out, "exact optimum:    {}", compiled.exact_optimal);
                if let Some(st) = &compiled.exact_stats {
                    let _ = writeln!(
                        out,
                        "exact solver:     {} conflicts, {} vars ({} unpruned)",
                        st.conflicts, st.vars_pruned, st.vars_full
                    );
                }
            }
            let _ = writeln!(out, "device:           {}", dev.name);
            let _ = writeln!(out, "simulated time:   {:.4} s", c.total_time());
            let _ = writeln!(
                out,
                "  transfers:      {:.4} s ({:.0}%), {} floats",
                c.transfer_time,
                c.transfer_share() * 100.0,
                c.total_transfer_floats()
            );
            let _ = writeln!(
                out,
                "  kernels:        {:.4} s over {} launches",
                c.kernel_time, c.kernel_launches
            );
            let _ = writeln!(
                out,
                "peak device mem:  {} MiB (fragmentation {:.3})",
                result.peak_device_bytes >> 20,
                result.peak_fragmentation
            );
            if let Some(st) = &recovery {
                let _ = writeln!(out, "{}", st.summary());
            }
            if let Ok(base) = baseline_plan(&g, dev.memory_bytes) {
                let b = gpuflow_core::Executor::new(&g, &base, &dev)
                    .run_analytic()
                    .map_err(|e| e.to_string())?;
                let _ = writeln!(
                    out,
                    "baseline:         {:.4} s -> speedup {:.1}x",
                    b.total_time(),
                    b.total_time() / c.total_time()
                );
            } else {
                let _ = writeln!(
                    out,
                    "baseline:         N/A (operator exceeds device memory)"
                );
            }
            if *overlap {
                let _ = writeln!(
                    out,
                    "overlapped:       {:.4} s (async copy engines, {:.2}x vs serial)",
                    o.makespan,
                    o.speedup()
                );
                let util = o
                    .utilization()
                    .iter()
                    .map(|(name, frac)| format!("{name} {:.0}%", frac * 100.0))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, "engine busy:      {util}");
                if *gantt {
                    let _ = writeln!(
                        out,
                        "\n{}",
                        render_gantt(&sim.lanes, &sim.events, o.makespan, 80)
                    );
                }
            }
            maybe_write_trace(&mut out, trace, &tracer)?;
        }
        Command::Check {
            source,
            device,
            json,
            hazards,
            streams,
            devices,
            trace,
        } => {
            let g = load_source(source)?;
            let mut tracer = tracer_for(trace);
            let (mut diags, plan_info, cert);
            if let Some(spec) = devices {
                let cluster = parse_cluster(spec)?;
                // The graph-level footprint warning is judged against the
                // roomiest member; the per-device capacity check below is
                // what actually enforces each member's memory.
                let cap = cluster.capacities().into_iter().max().unwrap();
                diags = gpuflow_verify::analyze_graph(&g, Some(cap));
                (plan_info, cert) = if !gpuflow_verify::has_errors(&diags) {
                    let c = compile_multi_traced(&g, &cluster, DEFAULT_MARGIN, &mut tracer)
                        .map_err(|e| e.to_string())?;
                    let analysis = c.analyze();
                    // The happens-before concurrency certifier (GF005x,
                    // docs/concurrency.md) runs after the serial analysis.
                    let report = c.certify();
                    let info = (
                        c.plan.steps.len(),
                        c.plan.units.len(),
                        analysis.stats.peak_bytes,
                        cluster.describe(),
                        c.plan.unit_device.clone(),
                    );
                    diags.extend(analysis.diagnostics);
                    diags.extend(report.diagnostics.iter().cloned());
                    (Some(info), Some(report))
                } else {
                    (None, None)
                };
            } else {
                let dev = device.spec();
                // Graph passes first; plan passes only when the graph
                // itself is sound enough to compile.
                diags = gpuflow_verify::analyze_graph(&g, Some(dev.memory_bytes));
                (plan_info, cert) = if !gpuflow_verify::has_errors(&diags) {
                    let compiled = Framework::new(dev.clone())
                        .with_options(CompileOptions {
                            streams: *streams,
                            ..CompileOptions::default()
                        })
                        .compile_adaptive_traced(&g, &mut tracer)
                        .map_err(|e| e.to_string())?;
                    let analysis =
                        compiled
                            .plan
                            .analyze(&compiled.split.graph, dev.memory_bytes, true);
                    let report = compiled.plan.certify(&compiled.split.graph);
                    let info = (
                        compiled.plan.steps.len(),
                        compiled.plan.units.len(),
                        analysis.stats.peak_bytes,
                        dev.name.clone(),
                        compiled.plan.unit_device.clone(),
                    );
                    diags.extend(analysis.diagnostics);
                    diags.extend(report.diagnostics.iter().cloned());
                    (Some(info), Some(report))
                } else {
                    (None, None)
                };
            }
            if let Some(report) = &cert {
                gpuflow_core::trace_hazard_certificate(&mut tracer, report);
            }
            let failed = gpuflow_verify::has_errors(&diags);
            let text = if *json {
                let mut s = check_report_json(&diags, &plan_info, &cert).to_string_pretty();
                s.push('\n');
                s
            } else {
                let mut s = String::new();
                let _ = writeln!(
                    s,
                    "graph: {} operators, {} data structures",
                    g.num_ops(),
                    g.num_data()
                );
                if let Some((steps, units, peak, target, _)) = &plan_info {
                    let _ = writeln!(
                        s,
                        "plan:  {steps} steps over {units} offload units on {target} (peak residency {peak} B)",
                    );
                }
                if *hazards {
                    if let Some(report) = &cert {
                        s.push_str(&render_hazard_summary(report));
                    }
                }
                s.push_str(&gpuflow_verify::render_report(&diags));
                s
            };
            // The export is written even when the check fails — the trace
            // of a failing compile is exactly what one wants to look at.
            // Silent under --json to keep stdout pure JSON.
            if let Some(path) = trace {
                write_trace(path, &tracer)?;
            }
            // Error-bearing reports become the command's failure so the
            // binary exits nonzero; warnings and notes do not.
            if failed {
                return Err(text);
            }
            out.push_str(&text);
        }
        Command::Trace {
            source,
            device,
            margin,
            exact,
            exact_budget,
            exact_max_ops,
            out: out_path,
            streams,
            devices,
        } => {
            let g = load_source(source)?;
            let name = match source {
                Source::File(p) => p.clone(),
                other => format!("{other:?}"),
            };
            let mut tracer = new_tracer();
            // Each reconciliation row compares an independently summed
            // quantity from the re-parsed export against the framework's
            // canonical bookkeeping; any drift fails the command.
            let mut checks: Vec<(String, u64, u64)> = Vec::new();
            if let Some(spec) = devices {
                let cluster = parse_cluster(spec)?;
                let c = compile_multi_traced(&g, &cluster, *margin, &mut tracer)
                    .map_err(|e| e.to_string())?;
                let _ = compiled_multi_to_json_traced(&c, &name, &mut tracer)
                    .map_err(|e| e.to_string())?;
                let sim = c.simulate();
                let o = &sim.outcome;
                trace_lanes(&mut tracer, &sim.lanes, &sim.events);
                record_cluster_metrics(&mut tracer, o);
                let parsed = write_trace(out_path, &tracer)?;
                // Bus lanes (simulation) vs the bus accounting of both the
                // bus arbiter and the planner's own step walk.
                let h2d = sum_event_arg(&parsed, "h2d", "bytes", Some(PID_CLUSTER));
                let d2h = sum_event_arg(&parsed, "d2h", "bytes", Some(PID_CLUSTER));
                checks.push(("bus bytes vs simulation".into(), h2d + d2h, o.bus_bytes));
                checks.push((
                    "bus bytes vs plan".into(),
                    h2d + d2h,
                    c.plan.bus_bytes(&c.sharded.split.graph),
                ));
            } else {
                let dev = device.spec();
                let options = CompileOptions {
                    memory_margin: *margin,
                    exact: exact_options(*exact, *exact_budget, *exact_max_ops),
                    streams: *streams,
                    ..CompileOptions::default()
                };
                // Same entry point as `run`: the adaptive ladder dry-runs
                // the real first-fit allocator, so a template that runs
                // also traces (`--margin` is the ladder's floor).
                let compiled = Framework::new(dev.clone())
                    .with_options(options)
                    .compile_adaptive_traced(&g, &mut tracer)
                    .map_err(|e| e.to_string())?;
                let _ =
                    plan_to_json_traced(&compiled.split.graph, &compiled.plan, &name, &mut tracer)
                        .map_err(|e| e.to_string())?;
                let result = compiled.run_analytic().map_err(|e| e.to_string())?;
                trace_serial_timeline(&mut tracer, &result.timeline);
                let sim = compiled.simulate();
                trace_lanes(&mut tracer, &sim.lanes, &sim.events);
                let parsed = write_trace(out_path, &tracer)?;
                // Executor timeline (summed from the re-parsed export)
                // vs the verify engine's static plan statistics — two
                // genuinely independent walks over the plan.
                let stats = compiled.stats();
                checks.push((
                    "h2d bytes vs plan".into(),
                    sum_event_arg(&parsed, "h2d", "bytes", Some(PID_SERIAL)),
                    stats.floats_in * FLOAT_BYTES,
                ));
                checks.push((
                    "d2h bytes vs plan".into(),
                    sum_event_arg(&parsed, "d2h", "bytes", Some(PID_SERIAL)),
                    stats.floats_out * FLOAT_BYTES,
                ));
                // Overlap-lane busy time summed from the re-parsed export
                // vs the simulator's own lane events, both rounded to the
                // exporter's integer microseconds per event. Catches any
                // drift between the per-stream lane layout and what the
                // simulator actually scheduled.
                let us = |s: f64| (s * 1e6).round().max(0.0) as u64;
                let lane_us = |is_lane: &dyn Fn(Lane) -> bool| -> u64 {
                    sim.events
                        .iter()
                        .filter(|e| is_lane(e.lane))
                        .map(|e| us(e.end).saturating_sub(us(e.start)))
                        .sum()
                };
                checks.push((
                    "h2d lane busy (us) vs overlap sim".into(),
                    sum_event_dur(&parsed, "h2d", Some(PID_OVERLAP)),
                    lane_us(&|l| l == Lane::H2d),
                ));
                checks.push((
                    format!(
                        "kernel lanes busy (us, {} streams) vs overlap sim",
                        sim.outcome.compute_busy.len()
                    ),
                    sum_event_dur(&parsed, "kernel", Some(PID_OVERLAP)),
                    lane_us(&|l| l.device_stream().is_some()),
                ));
                checks.push((
                    "d2h lane busy (us) vs overlap sim".into(),
                    sum_event_dur(&parsed, "d2h", Some(PID_OVERLAP)),
                    lane_us(&|l| l == Lane::D2h),
                ));
                if let Some(st) = &compiled.exact_stats {
                    checks.push((
                        "solver conflicts vs PbExactStats".into(),
                        tracer.metrics_ref().counter("exact.conflicts"),
                        st.conflicts,
                    ));
                }
            }
            let _ = writeln!(
                out,
                "wrote {out_path} (Chrome trace, {} events; load in Perfetto or chrome://tracing)",
                tracer.events().len()
            );
            let mut drift = false;
            for (what, got, want) in &checks {
                let ok = got == want;
                drift |= !ok;
                let _ = writeln!(
                    out,
                    "reconcile: {what}: {got} == {want} {}",
                    if ok { "ok" } else { "MISMATCH" }
                );
            }
            let _ = writeln!(out, "\n{}", tracer.summary());
            if drift {
                return Err(format!(
                    "{out}\ntrace counters drifted from the plan's canonical statistics"
                ));
            }
        }
        Command::Chaos {
            source,
            device,
            devices,
            faults,
            seeds,
            smoke,
            json,
        } => {
            if *smoke {
                return chaos_smoke();
            }
            let src = source
                .as_ref()
                .ok_or("chaos requires <source> or --smoke")?;
            let g = load_source(src)?;
            let base = match faults {
                Some(f) => f.clone(),
                None => FaultSpec::parse("seed=1,kernel=0.1,transfer=0.05,alloc=0.02")?,
            };
            let mut overheads: Vec<f64> = Vec::new();
            let mut recovered_n = 0u64;
            let mut faults_total = 0u64;
            let mut record = |stats: Option<RecoveryStats>| {
                if let Some(st) = stats {
                    faults_total += st.faults_injected;
                    if st.recovered {
                        recovered_n += 1;
                        overheads.push(st.overhead());
                    }
                }
            };
            let target;
            if let Some(spec) = devices {
                let cluster = parse_cluster(spec)?;
                let c = compile_multi(&g, &cluster, DEFAULT_MARGIN).map_err(|e| e.to_string())?;
                target = cluster.describe();
                for s in 0..*seeds {
                    let mut fs = base.clone();
                    fs.seed = base.seed.wrapping_add(s);
                    let r = ResilientMultiExecutor::new(&c, &fs).run_analytic();
                    record(r.ok().map(|r| r.stats));
                }
            } else {
                let dev = device.spec();
                let compiled = Framework::new(dev.clone())
                    .compile_adaptive(&g)
                    .map_err(|e| e.to_string())?;
                target = dev.name.clone();
                for s in 0..*seeds {
                    let mut fs = base.clone();
                    fs.seed = base.seed.wrapping_add(s);
                    let r =
                        ResilientExecutor::new(&compiled.split.graph, &compiled.plan, &dev, &fs)
                            .with_origin(&compiled.split)
                            .run_analytic();
                    record(r.ok().map(|r| r.stats));
                }
            }
            overheads.sort_by(|a, b| a.total_cmp(b));
            let rate = recovered_n as f64 / *seeds as f64;
            let (p50, p90) = (percentile(&overheads, 0.5), percentile(&overheads, 0.9));
            let pmax = overheads.last().copied().unwrap_or(0.0);
            if *json {
                let mut m = Map::new();
                m.insert("mode", "chaos");
                m.insert("target", target.as_str());
                m.insert("seeds", *seeds);
                m.insert("base_seed", base.seed);
                m.insert("recovered", recovered_n);
                m.insert("recovery_rate", rate);
                m.insert("faults_injected", faults_total);
                m.insert("overhead_p50", p50);
                m.insert("overhead_p90", p90);
                m.insert("overhead_max", pmax);
                out.push_str(&Value::Object(m).to_string_pretty());
                out.push('\n');
            } else {
                let _ = writeln!(out, "chaos sweep:      {seeds} seed(s) on {target}");
                let _ = writeln!(
                    out,
                    "fault model:      kernel={} transfer={} alloc={}{}{}",
                    base.kernel_rate,
                    base.transfer_rate,
                    base.alloc_rate,
                    if base.device_loss.is_some() {
                        " device-loss"
                    } else {
                        ""
                    },
                    if base.brownout.is_some() {
                        " brownout"
                    } else {
                        ""
                    },
                );
                let _ = writeln!(
                    out,
                    "recovery rate:    {}/{} ({:.0}%)",
                    recovered_n,
                    seeds,
                    rate * 100.0
                );
                let _ = writeln!(out, "faults injected:  {faults_total} across all trials");
                let _ = writeln!(
                    out,
                    "overhead p50/p90/max: {:+.1}% / {:+.1}% / {:+.1}%",
                    p50 * 100.0,
                    p90 * 100.0,
                    pmax * 100.0
                );
            }
        }
        Command::Profile {
            source,
            device,
            streams,
            devices,
            json,
            smoke,
            no_defer_frees,
            trace,
        } => {
            if *smoke {
                return profile_smoke();
            }
            let src = source
                .as_ref()
                .ok_or("profile requires <source> or --smoke")?;
            let g = load_source(src)?;
            let mut tracer = tracer_for(trace);
            let report = if let Some(spec) = devices {
                let cluster = parse_cluster(spec)?;
                let c = compile_multi_traced(&g, &cluster, DEFAULT_MARGIN, &mut tracer)
                    .map_err(|e| e.to_string())?;
                profile_cluster(&c, DEFAULT_MARGIN)?
            } else {
                let dev = device.spec();
                let options = CompileOptions {
                    streams: *streams,
                    defer_frees: !*no_defer_frees,
                    ..CompileOptions::default()
                };
                let compiled = Framework::new(dev.clone())
                    .with_options(options)
                    .compile_adaptive_traced(&g, &mut tracer)
                    .map_err(|e| e.to_string())?;
                profile_plan(&compiled.split.graph, &compiled.plan, &dev, &options)?
            };
            trace_profile(&mut tracer, &report);
            if *json {
                out.push_str(&report.to_json().to_string_pretty());
                out.push('\n');
                // Keep stdout pure JSON: write the export silently.
                if let Some(path) = trace {
                    write_trace(path, &tracer)?;
                }
            } else {
                out.push_str(&render_table(&report));
                maybe_write_trace(&mut out, trace, &tracer)?;
            }
        }
        Command::Serve {
            addr,
            devices,
            device,
            margin,
            cache_capacity,
            cache_path,
            deadline_ms,
            smoke,
            soak,
        } => {
            if *smoke {
                let report = gpuflow_serve::run_smoke()?;
                let _ = write!(out, "serve smoke passed\n{report}");
                return Ok(out);
            }
            if *soak {
                let report = gpuflow_serve::run_soak(0x50A7, 4, 10)?;
                let _ = writeln!(
                    out,
                    "serve soak passed: {} ok, {} backpressure, {} infeasible; \
                     cache integrity verified over {} entries; \
                     net storm: {} answered, {} faulted, replay identical",
                    report.ok,
                    report.backpressure,
                    report.infeasible,
                    report.cache_entries,
                    report.net_answered,
                    report.net_faulted
                );
                return Ok(out);
            }
            let cluster = match devices {
                Some(spec) => parse_cluster(spec)?,
                None => gpuflow_multi::Cluster::homogeneous(device.spec(), 1),
            };
            let cfg = gpuflow_serve::ServeConfig {
                cluster,
                margin: *margin,
                cache_capacity: *cache_capacity,
                cache_path: cache_path.as_ref().map(std::path::PathBuf::from),
                default_deadline_ms: *deadline_ms,
                ..gpuflow_serve::ServeConfig::default()
            };
            let handle = gpuflow_serve::serve_tcp(addr, cfg).map_err(|e| e.to_string())?;
            // The bound address goes to stderr immediately (the ephemeral
            // port is unknowable otherwise); stdout gets the exit summary.
            eprintln!("gpuflow-serve listening on {}", handle.addr);
            let bound = handle.addr;
            let server = std::sync::Arc::clone(&handle.server);
            handle.join();
            let (requests, completed) = server
                .with_metrics(|m| (m.counter("serve.requests"), m.counter("serve.completed")));
            let _ = writeln!(
                out,
                "gpuflow-serve on {bound} shut down cleanly ({requests} requests, {completed} runs completed)"
            );
        }
        Command::Client {
            addr,
            send,
            json,
            metrics,
            retries,
            retry_budget_ms,
            retry_seed,
        } => {
            // With no retry budget this is a single shot; otherwise
            // retryable rejections back off with deterministic jitter.
            let v = if *retries == 0 {
                gpuflow_serve::request_once(addr, send)
            } else {
                gpuflow_serve::request_with_retry(
                    addr,
                    send,
                    *retries,
                    *retry_budget_ms,
                    *retry_seed,
                )
            }
            .map_err(|e| e.to_string())?;
            if *metrics {
                // Print the exposition body raw — scrape-ready.
                let text = v
                    .get("text")
                    .and_then(|t| t.as_str())
                    .ok_or_else(|| format!("metrics response carried no text: {v:?}"))?;
                out.push_str(text);
                return Ok(out);
            }
            let rendered = if *json {
                v.to_string_pretty()
            } else {
                v.to_string_compact()
            };
            let _ = writeln!(out, "{rendered}");
        }
        Command::Emit {
            source,
            device,
            cuda,
            json,
            dot,
            devices,
        } => {
            let g = load_source(source)?;
            let name = match source {
                Source::File(p) => p.clone(),
                other => format!("{other:?}"),
            };
            if let Some(spec) = devices {
                let cluster = parse_cluster(spec)?;
                let c = compile_multi(&g, &cluster, DEFAULT_MARGIN).map_err(|e| e.to_string())?;
                if let Some(path) = json {
                    let doc = compiled_multi_to_json(&c, &name).map_err(|e| e.to_string())?;
                    std::fs::write(path, &doc).map_err(|e| format!("write {path}: {e}"))?;
                    let _ = writeln!(
                        out,
                        "wrote {path} ({} bytes of multi-device JSON)",
                        doc.len()
                    );
                }
                if let Some(path) = dot {
                    let doc = gpuflow_graph::dot::to_dot(&c.sharded.split.graph, &name);
                    std::fs::write(path, &doc).map_err(|e| format!("write {path}: {e}"))?;
                    let _ = writeln!(out, "wrote {path} (Graphviz DOT)");
                }
                return Ok(out);
            }
            let dev = device.spec();
            let compiled = Framework::new(dev)
                .compile_adaptive(&g)
                .map_err(|e| e.to_string())?;
            if let Some(path) = cuda {
                let src = generate_cuda(&compiled.split.graph, &compiled.plan, &name)
                    .map_err(|e| e.to_string())?;
                std::fs::write(path, &src).map_err(|e| format!("write {path}: {e}"))?;
                let _ = writeln!(
                    out,
                    "wrote {path} ({} lines of CUDA-style C)",
                    src.lines().count()
                );
            }
            if let Some(path) = json {
                let doc = plan_to_json(&compiled.split.graph, &compiled.plan, &name)
                    .map_err(|e| e.to_string())?;
                std::fs::write(path, &doc).map_err(|e| format!("write {path}: {e}"))?;
                let _ = writeln!(out, "wrote {path} ({} bytes of JSON)", doc.len());
            }
            if let Some(path) = dot {
                let doc = gpuflow_graph::dot::to_dot(&compiled.split.graph, &name);
                std::fs::write(path, &doc).map_err(|e| format!("write {path}: {e}"))?;
                let _ = writeln!(out, "wrote {path} (Graphviz DOT)");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::DeviceArg;

    fn parse(s: &str) -> Command {
        let argv: Vec<String> = s.split_whitespace().map(|t| t.to_string()).collect();
        Command::parse(&argv).unwrap()
    }

    #[test]
    fn info_on_builtin_edge() {
        let out = execute(&parse("info edge:256x256,k=9,o=4")).unwrap();
        assert!(out.contains("operators:        5"), "{out}");
        assert!(out.contains("largest operator: combine"), "{out}");
    }

    #[test]
    fn info_on_fig3() {
        let out = execute(&parse("info fig3")).unwrap();
        assert!(out.contains("operators:        10"), "{out}");
    }

    #[test]
    fn plan_renders_steps() {
        let out = execute(&parse("plan fig3 --device custom:1 --render")).unwrap();
        assert!(out.contains("split factor:"), "{out}");
        assert!(out.contains("H->D  Im"), "{out}");
    }

    #[test]
    fn plan_exact_on_fig3() {
        let out = execute(&parse("plan fig3 --exact --device custom:1")).unwrap();
        assert!(out.contains("exact optimum:    true"), "{out}");
        assert!(out.contains("exact solver:"), "{out}");
    }

    #[test]
    fn exact_budget_flag_implies_exact_and_caps_solver() {
        let out = execute(&parse("plan fig3 --exact-budget 200000 --device custom:1")).unwrap();
        assert!(out.contains("exact optimum:    true"), "{out}");
    }

    #[test]
    fn exact_max_ops_flag_rejects_large_graphs() {
        // fig3 has 10 offload units; a cap of 2 must push the exact
        // scheduler into its budget error.
        let err = execute(&parse("plan fig3 --exact-max-ops 2 --device custom:1")).unwrap_err();
        assert!(err.contains("budget"), "{err}");
    }

    #[test]
    fn run_exact_json_reports_solver_stats() {
        let out = execute(&parse("run fig3 --exact --device custom:1 --json")).unwrap();
        let doc = gpuflow_minijson::parse(&out).unwrap();
        assert_eq!(doc["exact_optimal"].as_bool(), Some(true));
        assert!(
            doc["exact_vars_full"].as_u64().unwrap() > doc["exact_vars_pruned"].as_u64().unwrap()
        );
        assert_eq!(doc["exact_warm_started"].as_bool(), Some(true));
        assert!(doc["exact_conflicts"].as_u64().is_some());
    }

    #[test]
    fn run_analytic_reports_speedup() {
        let out = execute(&parse(
            "run edge:256x256,k=9,o=4 --device custom:2 --overlap",
        ))
        .unwrap();
        assert!(out.contains("simulated time:"), "{out}");
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("overlapped:"), "{out}");
    }

    #[test]
    fn run_gantt_draws_lanes() {
        let out = execute(&parse("run edge:256x256,k=9,o=4 --device custom:2 --gantt")).unwrap();
        assert!(out.contains("COMPUTE"), "{out}");
        assert!(out.contains("H->D"), "{out}");
    }

    #[test]
    fn run_functional_verifies() {
        let out = execute(&parse(
            "run edge:96x96,k=5,o=4 --device custom:1 --functional",
        ))
        .unwrap();
        assert!(out.contains("verified against the reference"), "{out}");
    }

    #[test]
    fn emit_writes_files() {
        let dir = std::env::temp_dir().join("gpuflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let cu = dir.join("t.cu");
        let js = dir.join("t.json");
        let dot = dir.join("t.dot");
        let cmd = format!(
            "emit fig3 --device custom:1 --cuda {} --json {} --dot {}",
            cu.display(),
            js.display(),
            dot.display()
        );
        let out = execute(&parse(&cmd)).unwrap();
        assert!(out.lines().count() >= 3, "{out}");
        assert!(std::fs::read_to_string(&cu).unwrap().contains("cudaMemcpy"));
        assert!(std::fs::read_to_string(&js)
            .unwrap()
            .contains("total_transfer_floats"));
        assert!(std::fs::read_to_string(&dot)
            .unwrap()
            .starts_with("digraph"));
    }

    #[test]
    fn gfg_file_source_roundtrip() {
        let dir = std::env::temp_dir().join("gpuflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.gfg");
        std::fs::write(
            &path,
            "data A input 32 32\ndata B output 32 32\nop t tanh A -> B\n",
        )
        .unwrap();
        let src = Source::File(path.display().to_string());
        let g = load_source(&src).unwrap();
        assert_eq!(g.num_ops(), 1);
        let out = execute(&Command::Run {
            source: src,
            device: DeviceArg::Custom(1),
            exact: false,
            exact_budget: None,
            exact_max_ops: None,
            functional: true,
            overlap: false,
            gantt: false,
            json: false,
            streams: 1,
            devices: None,
            trace: None,
            faults: None,
        })
        .unwrap();
        assert!(out.contains("verified"), "{out}");
    }

    #[test]
    fn shipped_assets_parse_and_verify() {
        // The sample .gfg files at the repo root must stay valid.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets");
        for name in ["edge_4or.gfg", "pipeline.gfg"] {
            let path = root.join(name);
            let src = Source::File(path.display().to_string());
            let g = load_source(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(g.num_ops() >= 5, "{name}");
            if name == "pipeline.gfg" {
                let out = execute(&Command::Run {
                    source: src,
                    device: DeviceArg::Custom(1),
                    exact: false,
                    exact_budget: None,
                    exact_max_ops: None,
                    functional: true,
                    overlap: true,
                    gantt: false,
                    json: false,
                    streams: 1,
                    devices: None,
                    trace: None,
                    faults: None,
                })
                .unwrap();
                assert!(out.contains("verified"), "{out}");
            }
        }
    }

    #[test]
    fn trace_command_reconciles_and_writes_a_valid_export() {
        let dir = std::env::temp_dir().join("gpuflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig3_trace.json");
        let out = execute(&parse(&format!(
            "trace fig3 --device custom:1 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("Chrome trace"), "{out}");
        assert!(out.contains("h2d bytes vs plan"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
        // The export re-parses and validates from disk too.
        let doc = gpuflow_minijson::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        validate_chrome_trace(&doc).unwrap();
        assert!(doc["traceEvents"].as_array().unwrap().len() > 20);
    }

    #[test]
    fn trace_command_covers_exact_solver_and_clusters() {
        let dir = std::env::temp_dir().join("gpuflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("exact_trace.json");
        let out = execute(&parse(&format!(
            "trace fig3 --device custom:1 --exact --out {}",
            p1.display()
        )))
        .unwrap();
        assert!(out.contains("solver conflicts vs PbExactStats"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
        let p2 = dir.join("multi_trace.json");
        let out = execute(&parse(&format!(
            "trace edge:1200x1200,k=9,o=4 --devices c870x2 --out {}",
            p2.display()
        )))
        .unwrap();
        assert!(out.contains("bus bytes vs simulation"), "{out}");
        assert!(out.contains("bus bytes vs plan"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
    }

    #[test]
    fn run_json_embeds_plan_stats_and_metrics_in_both_modes() {
        let single = execute(&parse("run fig3 --device custom:1 --json")).unwrap();
        let doc = gpuflow_minijson::parse(&single).unwrap();
        let plan = &doc["plan"];
        assert!(plan["bytes_in"].as_u64().unwrap() > 0);
        assert!(plan["peak_bytes"].as_u64().unwrap() > 0);
        // The serial executor's counters and the verify engine's plan walk
        // must agree byte-for-byte in the embedded snapshot.
        assert_eq!(
            doc["metrics"]["counters"]["sim.bytes_h2d"].as_u64(),
            plan["bytes_in"].as_u64()
        );
        // Profile summary rides along: attribution reconciled to the
        // makespan, with a named dominant bottleneck.
        assert!(doc["profile"]["makespan_ns"].as_u64().unwrap() > 0);
        assert!(doc["profile"]["dominant"].as_str().is_some());
        assert!(doc["profile"]["critical_path_share"].as_f64().unwrap() > 0.0);
        let multi = execute(&parse("run edge:1200x1200,k=9,o=4 --devices c870x2 --json")).unwrap();
        let doc = gpuflow_minijson::parse(&multi).unwrap();
        let plan = &doc["plan"];
        assert!(plan["bytes_in"].as_u64().unwrap() > 0);
        assert_eq!(plan["peak_per_device"].as_array().unwrap().len(), 2);
        assert_eq!(
            doc["metrics"]["counters"]["cluster.bus_bytes_moved"].as_u64(),
            doc["bus_bytes"].as_u64()
        );
        assert!(doc["profile"]["makespan_ns"].as_u64().unwrap() > 0);
        assert!(doc["profile"]["dominant"].as_str().is_some());
    }

    #[test]
    fn plan_and_check_write_trace_files_on_request() {
        let dir = std::env::temp_dir().join("gpuflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("plan_trace.json");
        let out = execute(&parse(&format!(
            "plan fig3 --device custom:1 --trace {}",
            p.display()
        )))
        .unwrap();
        assert!(out.contains("Chrome trace"), "{out}");
        let doc = gpuflow_minijson::parse(&std::fs::read_to_string(&p).unwrap()).unwrap();
        validate_chrome_trace(&doc).unwrap();
        let p = dir.join("check_trace.json");
        execute(&parse(&format!(
            "check fig3 --device custom:1 --trace {}",
            p.display()
        )))
        .unwrap();
        let doc = gpuflow_minijson::parse(&std::fs::read_to_string(&p).unwrap()).unwrap();
        validate_chrome_trace(&doc).unwrap();
    }

    #[test]
    fn check_reports_clean_builtin() {
        let out = execute(&parse("check fig3 --device custom:1")).unwrap();
        assert!(out.contains("graph: 10 operators"), "{out}");
        assert!(out.contains("0 errors"), "{out}");
    }

    #[test]
    fn check_shipped_assets_are_clean() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets");
        for name in ["edge_4or.gfg", "pipeline.gfg"] {
            let path = root.join(name);
            let out = execute(&Command::Check {
                source: Source::File(path.display().to_string()),
                device: DeviceArg::Custom(1),
                json: false,
                hazards: false,
                streams: 1,
                devices: None,
                trace: None,
            })
            .unwrap_or_else(|e| panic!("{name} failed check:\n{e}"));
            assert!(out.contains("0 errors"), "{name}: {out}");
        }
    }

    #[test]
    fn check_json_is_parseable() {
        let out = execute(&parse("check fig3 --device custom:1 --json")).unwrap();
        let doc = gpuflow_minijson::parse(&out).unwrap();
        assert_eq!(doc["counts"]["errors"].as_u64(), Some(0));
        assert!(doc["diagnostics"].as_array().is_some());
    }

    #[test]
    fn check_hazards_prints_lane_summary_and_certificate() {
        let out = execute(&parse("check fig3 --hazards")).unwrap();
        assert!(out.contains("hb:"), "{out}");
        assert!(out.contains("happens-before edges"), "{out}");
        assert!(out.contains("lanes:"), "{out}");
        assert!(out.contains("GF0056"), "{out}");
        assert!(out.contains("0 errors"), "{out}");
        // Without the flag the summary lines are absent but the
        // certificate note still prints.
        let plain = execute(&parse("check fig3")).unwrap();
        assert!(!plain.contains("hb:"), "{plain}");
        assert!(plain.contains("GF0056"), "{plain}");
    }

    #[test]
    fn check_json_carries_plan_and_lane_assignment() {
        let out = execute(&parse("check fig3 --devices c870x2 --json")).unwrap();
        let doc = gpuflow_minijson::parse(&out).unwrap();
        // The plan object names the target and the per-unit device map.
        assert_eq!(doc["plan"]["target"].as_str(), Some("2 x Tesla C870"));
        assert!(doc["plan"]["steps"].as_u64().unwrap() > 0);
        let units = doc["plan"]["units"].as_u64().unwrap() as usize;
        assert_eq!(doc["plan"]["unit_device"].as_array().unwrap().len(), units);
        assert!(doc["plan"]["lanes"].as_u64().unwrap() >= 3);
        let e = &doc["plan"]["hb_edges"];
        assert!(e["program"].as_u64().is_some());
        assert!(e["transfer"].as_u64().is_some());
        assert!(e["lifetime"].as_u64().is_some());
        // The certificate note rides in the diagnostic list.
        let diags = doc["diagnostics"].as_array().unwrap();
        assert!(diags.iter().any(|d| d["code"].as_str() == Some("GF0056")));
    }

    #[test]
    fn check_report_json_enriches_step_locations_with_lane_and_device() {
        use gpuflow_verify::{Diagnostic, Location};
        let g = gpuflow_core::examples::fig3_graph();
        let compiled = Framework::new(gpuflow_sim::TESLA_C870.clone())
            .compile_adaptive(&g)
            .unwrap();
        let report = compiled.plan.certify(&compiled.split.graph);
        assert!(report.certified());
        // Compiled plans never carry step-located diagnostics, so the
        // lane/device enrichment is pinned with synthetic ones: one in
        // range, one past the end of the plan.
        let diags = vec![
            Diagnostic::warning("GF0050", Some(Location::Step(0)), "synthetic step finding"),
            Diagnostic::warning("GF0050", Some(Location::Step(usize::MAX)), "out of range"),
        ];
        let info = Some((
            compiled.plan.steps.len(),
            compiled.plan.units.len(),
            0u64,
            "Tesla C870".to_string(),
            vec![0; compiled.plan.units.len()],
        ));
        let expect_lane = report.step_lane[0].label();
        let expect_dev = report.step_device[0];
        let doc = check_report_json(&diags, &info, &Some(report));
        let loc = &doc["diagnostics"][0]["location"];
        assert_eq!(loc["kind"].as_str(), Some("step"));
        assert_eq!(loc["lane"].as_str(), Some(expect_lane.as_str()));
        match expect_dev {
            Some(dev) => assert_eq!(loc["device"].as_u64(), Some(dev as u64)),
            None => assert!(matches!(loc["device"], Value::Null)),
        }
        // The out-of-range index is left untouched rather than panicking.
        let far = &doc["diagnostics"][1]["location"];
        assert_eq!(far["kind"].as_str(), Some("step"));
        assert!(far["lane"].as_str().is_none());
    }

    #[test]
    fn check_trace_includes_hazard_track() {
        let dir = std::env::temp_dir().join("gpuflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("check_hazard.trace.json");
        let out = execute(&parse(&format!("check fig3 --trace {}", p.display()))).unwrap();
        assert!(out.contains("0 errors"), "{out}");
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(
            text.contains("concurrency certifier"),
            "hazard track missing"
        );
        assert!(text.contains("GF0056"), "certificate instant missing");
    }

    #[test]
    fn check_warnings_do_not_fail_the_command() {
        let dir = std::env::temp_dir().join("gpuflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deadinput.gfg");
        // `C` is read by nothing: a dead-data warning, not an error.
        std::fs::write(
            &path,
            "data A input 32 32\ndata C input 16 16\ndata B output 32 32\nop t tanh A -> B\n",
        )
        .unwrap();
        let out = execute(&Command::Check {
            source: Source::File(path.display().to_string()),
            device: DeviceArg::Custom(1),
            json: false,
            hazards: false,
            streams: 1,
            devices: None,
            trace: None,
        })
        .unwrap();
        assert!(out.contains("GF0004"), "{out}");
        assert!(out.contains("0 errors"), "{out}");
        assert!(!out.contains("0 warnings"), "{out}");
    }

    #[test]
    fn missing_file_is_reported() {
        let err = execute(&parse("info /nonexistent/x.gfg")).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn plan_with_cluster_reports_per_device_state() {
        let out = execute(&parse(
            "plan edge:1200x1200,k=9,o=4 --devices c870x2 --render",
        ))
        .unwrap();
        assert!(out.contains("cluster:          2 x Tesla C870"), "{out}");
        assert!(out.contains("ops per device:"), "{out}");
        assert!(out.contains("device 0 peak:"), "{out}");
        assert!(out.contains("device 1 peak:"), "{out}");
        assert!(out.contains("bus traffic:"), "{out}");
        // A plan that spans devices tags every listed step with its device.
        assert!(out.contains("H->D  dev0  Img"), "{out}");
        assert!(out.contains("EXEC  dev1  "), "{out}");
    }

    /// `--device D` and `--devices Dx1` reach the same scheduler: same
    /// step listing, same peak, same bytes on the bus — on a template
    /// that fits, one that splits and one that spills.
    #[test]
    fn one_device_cluster_plans_like_the_single_device() {
        fn field<'a>(out: &'a str, label: &str) -> &'a str {
            out.lines()
                .find_map(|l| l.strip_prefix(label))
                .unwrap_or_else(|| panic!("no '{label}' line in:\n{out}"))
                .trim()
        }
        let numbers = |s: &str| -> Vec<u64> {
            s.split(|c: char| !c.is_ascii_digit())
                .filter_map(|t| t.parse().ok())
                .collect()
        };
        let listing = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| {
                    ["H->D", "EXEC", "D->H", "FREE"]
                        .iter()
                        .any(|v| l.starts_with(v))
                })
                .map(str::to_string)
                .collect()
        };
        for (src, dev, margin) in [
            ("fig3", "c870", "0.05"),
            ("edge:6000x6000,k=16,o=4", "8800gtx", "0.2"),
            ("cnn-small:8500x8500", "8800gtx", "0.05"),
        ] {
            let single = execute(&parse(&format!(
                "plan {src} --device {dev} --margin {margin} --render"
            )))
            .unwrap();
            let cluster = execute(&parse(&format!(
                "plan {src} --devices {dev}x1 --margin {margin} --render"
            )))
            .unwrap();
            assert_eq!(
                field(&single, "plan steps:"),
                field(&cluster, "plan steps:"),
                "{src}"
            );
            assert_eq!(
                numbers(field(&single, "peak residency:"))[0],
                numbers(field(&cluster, "device 0 peak:"))[0],
                "{src}"
            );
            let floats: u64 = numbers(field(&single, "transfers:")).iter().sum();
            assert_eq!(
                (floats * 4) >> 20,
                numbers(field(&cluster, "bus traffic:"))[0],
                "{src}"
            );
            assert!(!listing(&single).is_empty());
            assert_eq!(listing(&single), listing(&cluster), "{src}");
        }
    }

    #[test]
    fn run_with_cluster_reports_makespan_and_gantt() {
        let out = execute(&parse(
            "run edge:1200x1200,k=9,o=4 --devices c870x2 --gantt",
        ))
        .unwrap();
        assert!(out.contains("makespan:"), "{out}");
        assert!(out.contains("shared bus:"), "{out}");
        assert!(out.contains("GPU0") && out.contains("GPU1"), "{out}");
    }

    #[test]
    fn run_json_single_device_is_parseable() {
        let out = execute(&parse("run edge:512x512,k=9,o=4 --device c870 --json")).unwrap();
        let doc = gpuflow_minijson::parse(&out).unwrap();
        assert_eq!(doc["mode"].as_str(), Some("single"));
        assert!(doc["total_time_s"].as_f64().unwrap() > 0.0);
        assert!(doc["overlapped_makespan_s"].as_f64().unwrap() > 0.0);
        assert!(doc["transfer_bytes"].as_u64().unwrap() > 0);
        assert!(doc["transfer_share"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn run_json_cluster_reports_bus_and_compute() {
        let out = execute(&parse("run edge:1200x1200,k=9,o=4 --devices c870x4 --json")).unwrap();
        let doc = gpuflow_minijson::parse(&out).unwrap();
        assert_eq!(doc["mode"].as_str(), Some("multi"));
        assert_eq!(doc["devices"].as_u64(), Some(4));
        assert!(doc["makespan_s"].as_f64().unwrap() > 0.0);
        assert!(doc["bus_bytes"].as_u64().unwrap() > 0);
        assert_eq!(doc["compute_busy_s"].as_array().unwrap().len(), 4);
    }

    #[test]
    fn check_with_cluster_is_clean_and_names_it() {
        let out = execute(&parse("check edge:1200x1200,k=9,o=4 --devices gtx8800x4")).unwrap();
        assert!(out.contains("0 errors"), "{out}");
        assert!(out.contains("4 x GeForce 8800 GTX"), "{out}");
    }

    #[test]
    fn run_with_faults_reports_recovery_in_json_and_text() {
        let out = execute(&parse(
            "run fig3 --device custom:1 --functional --faults seed=11,kernel=0.3,transfer=0.1,alloc=0.1 --json",
        ))
        .unwrap();
        let doc = gpuflow_minijson::parse(&out).unwrap();
        assert_eq!(doc["recovery"]["recovered"].as_bool(), Some(true));
        assert!(doc["recovery"]["faults_injected"].as_u64().unwrap() > 0);
        assert!(doc["recovery"]["retries"].as_u64().unwrap() > 0);
        assert!(doc["outputs_verified"].as_u64().unwrap() > 0);
        let text = execute(&parse(
            "run fig3 --device custom:1 --faults seed=11,kernel=0.3,transfer=0.1,alloc=0.1",
        ))
        .unwrap();
        assert!(text.contains("recovery:"), "{text}");
    }

    #[test]
    fn run_functional_with_cluster_fails_over_device_loss() {
        let out = execute(&parse(
            "run edge:96x96,k=5,o=4 --devices c870x2 --functional --faults seed=5,loss=0@50% --json",
        ))
        .unwrap();
        let doc = gpuflow_minijson::parse(&out).unwrap();
        assert_eq!(doc["mode"].as_str(), Some("multi"));
        assert_eq!(doc["recovery"]["recovered"].as_bool(), Some(true));
        assert!(doc["outputs_verified"].as_u64().unwrap() > 0);
        // No faults: the quiet resilient path still verifies functionally.
        let quiet = execute(&parse(
            "run edge:96x96,k=5,o=4 --devices c870x2 --functional",
        ))
        .unwrap();
        assert!(quiet.contains("verified against the reference"), "{quiet}");
    }

    #[test]
    fn chaos_sweep_reports_recovery_rate() {
        let out = execute(&parse("chaos fig3 --device custom:1 --seeds 3 --json")).unwrap();
        let doc = gpuflow_minijson::parse(&out).unwrap();
        assert_eq!(doc["mode"].as_str(), Some("chaos"));
        assert_eq!(doc["seeds"].as_u64(), Some(3));
        assert_eq!(doc["recovery_rate"].as_f64(), Some(1.0));
        assert!(doc["overhead_max"].as_f64().is_some());
        let text = execute(&parse("chaos fig3 --device custom:1 --seeds 2")).unwrap();
        assert!(text.contains("recovery rate:    2/2"), "{text}");
    }

    #[test]
    fn run_with_faults_writes_chaos_track_into_trace() {
        let dir = std::env::temp_dir().join("gpuflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("chaos_trace.json");
        execute(&parse(&format!(
            "run fig3 --device custom:1 --faults seed=11,kernel=0.3 --trace {}",
            p.display()
        )))
        .unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let doc = gpuflow_minijson::parse(&text).unwrap();
        validate_chrome_trace(&doc).unwrap();
        assert!(text.contains("chaos / recovery"), "chaos track missing");
    }

    #[test]
    fn run_with_streams_reports_utilization_and_verifies() {
        let out = execute(&parse(
            "run edge:256x256,k=9,o=4 --device custom:2 --streams 2 --overlap --functional",
        ))
        .unwrap();
        assert!(out.contains("verified against the reference"), "{out}");
        assert!(out.contains("engine busy:"), "{out}");
        assert!(out.contains("compute s0"), "{out}");
        assert!(out.contains("compute s1"), "{out}");
        // The default stays on the classic single-engine labels.
        let serial = execute(&parse(
            "run edge:256x256,k=9,o=4 --device custom:2 --overlap",
        ))
        .unwrap();
        assert!(serial.contains("engine busy:"), "{serial}");
        assert!(!serial.contains("compute s"), "{serial}");
    }

    #[test]
    fn run_json_with_streams_reports_per_engine_utilization() {
        let out = execute(&parse("run fig3 --device custom:1 --streams 2 --json")).unwrap();
        let doc = gpuflow_minijson::parse(&out).unwrap();
        assert_eq!(doc["streams"].as_u64(), Some(2));
        assert_eq!(doc["compute_busy_s"].as_array().unwrap().len(), 2);
        let util = &doc["utilization"];
        assert!(util["h2d"].as_f64().is_some());
        assert!(util["compute s0"].as_f64().is_some());
        assert!(util["compute s1"].as_f64().is_some());
        assert!(util["d2h"].as_f64().is_some());
        // Every busy fraction is a fraction of the same makespan.
        for key in ["h2d", "compute s0", "compute s1", "d2h"] {
            let f = util[key].as_f64().unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&f), "{key}: {f}");
        }
        // Serial runs keep the classic single-engine key.
        let serial = execute(&parse("run fig3 --device custom:1 --json")).unwrap();
        let doc = gpuflow_minijson::parse(&serial).unwrap();
        assert_eq!(doc["streams"].as_u64(), Some(1));
        assert!(doc["utilization"]["compute"].as_f64().is_some());
    }

    #[test]
    fn trace_with_streams_reconciles_lane_busy_times() {
        let dir = std::env::temp_dir().join("gpuflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streams_trace.json");
        let out = execute(&parse(&format!(
            "trace fig3 --device custom:1 --streams 2 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("kernel lanes busy (us, 2 streams)"), "{out}");
        assert!(out.contains("h2d lane busy (us)"), "{out}");
        assert!(out.contains("d2h lane busy (us)"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
        // The serial trace reconciles the same rows over one stream.
        let p2 = dir.join("serial_lanes_trace.json");
        let out = execute(&parse(&format!(
            "trace fig3 --device custom:1 --out {}",
            p2.display()
        )))
        .unwrap();
        assert!(out.contains("kernel lanes busy (us, 1 streams)"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
    }

    #[test]
    fn check_hazards_with_streams_reports_stream_lanes() {
        let out = execute(&parse("check fig3 --streams 2 --hazards")).unwrap();
        assert!(out.contains("0 errors"), "{out}");
        assert!(out.contains("GF0056"), "{out}");
        // The lane census names the extra compute stream's lane.
        assert!(out.contains("gpu0s1"), "{out}");
    }

    #[test]
    fn emit_json_with_cluster_writes_device_annotations() {
        let dir = std::env::temp_dir().join("gpuflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let js = dir.join("multi.json");
        let cmd = format!(
            "emit edge:1200x1200,k=9,o=4 --devices c870x2 --json {}",
            js.display()
        );
        let out = execute(&parse(&cmd)).unwrap();
        assert!(out.contains("multi-device JSON"), "{out}");
        let doc = gpuflow_minijson::parse(&std::fs::read_to_string(&js).unwrap()).unwrap();
        assert_eq!(doc["devices"].as_array().unwrap().len(), 2);
        assert!(doc["bus_bytes"].as_u64().unwrap() > 0);
    }
}
