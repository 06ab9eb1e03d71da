//! Bit-exact ledger of the overlap simulation and its shadow clock.
//!
//! Simulated time is the repository's oracle (docs/results/ reprints it
//! table by table), but the tables round: a refactor of the simulator can
//! move a makespan by one ulp, or move an idle interval from one cause
//! bucket to another, without changing a printed digit. This test prints,
//! for four templates on eight machines, everything the simulator decides
//! at full precision — `makespan` / `serial_time` as `f64::to_bits` hex,
//! per-lane busy and per-cause gap nanoseconds, event and gap counts, the
//! critical-path length, and an FNV-1a hash of the shadow clock's step
//! times — and compares it byte for byte with `tests/golden/sim_ledger.txt`.
//!
//! Regenerate after an intentional model change with:
//! `UPDATE_GOLDEN=1 cargo test --test sim_ledger`

use std::fmt::Write as _;

use gpuflow::core::{
    simulate, step_times, CompileOptions, ExecutionPlan, Framework, GapCause, Machine,
};
use gpuflow::graph::Graph;
use gpuflow::multi::{compile_multi, parse_cluster};
use gpuflow::sim::device::{geforce_8800_gtx, tesla_c870};
use gpuflow::sim::DeviceSpec;
use gpuflow::templates::cnn::small_cnn;
use gpuflow::templates::edge::{find_edges, CombineOp};
use gpuflow::verify::{critical_path, dependency_critical_path};

/// The CLI's planner margin for `--devices` runs.
const CLUSTER_MARGIN: f64 = 0.05;

/// One engine's simulated timeline.
struct LaneRow {
    name: String,
    /// Busy time as the simulator's own accumulator reports it.
    busy: f64,
    events: Vec<(f64, f64)>,
    gaps: Vec<(f64, f64, GapCause)>,
}

/// Everything the ledger prints about one simulated execution.
struct Run {
    makespan: f64,
    serial: f64,
    lanes: Vec<LaneRow>,
    critical: f64,
    times: Vec<(f64, f64)>,
}

fn ns(t: f64) -> u64 {
    (t * 1e9).round().max(0.0) as u64
}

fn fnv(times: &[(f64, f64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(s, e) in times {
        for byte in s
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(e.to_bits().to_le_bytes())
        {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Simulate `plan` on `machine`; lanes are named by table position
/// (`h2d`, `d2h`, `compute0..`) so a single device's streams and a
/// cluster's devices print alike.
fn run(g: &Graph, plan: &ExecutionPlan, machine: &Machine) -> Run {
    let sim = simulate(g, plan, machine);
    let out = &sim.outcome;
    let busy = [out.h2d_busy, out.d2h_busy]
        .into_iter()
        .chain(out.compute_busy.iter().copied());
    let lanes = sim
        .lanes
        .lanes
        .iter()
        .zip(busy)
        .enumerate()
        .map(|(i, (info, busy))| LaneRow {
            name: match i {
                0 => "h2d".to_string(),
                1 => "d2h".to_string(),
                c => format!("compute{}", c - 2),
            },
            busy,
            events: sim
                .events
                .iter()
                .filter(|e| e.lane == info.lane)
                .map(|e| (e.start, e.end))
                .collect(),
            gaps: sim
                .gaps
                .iter()
                .filter(|e| e.lane == info.lane)
                .map(|e| (e.start, e.end, e.cause))
                .collect(),
        })
        .collect();
    let times = step_times(g, plan, machine);
    let durations: Vec<f64> = times.iter().map(|&(s, e)| e - s).collect();
    let hb = plan.certify(g).hb;
    let critical = if machine.shared_bus() {
        dependency_critical_path(&hb, &durations)
    } else {
        critical_path(&hb, &durations)
    };
    Run {
        makespan: out.makespan,
        serial: out.serial_time,
        lanes,
        critical: critical.length,
        times,
    }
}

fn single(g: &Graph, dev: &DeviceSpec, streams: usize) -> Run {
    let compiled = Framework::new(dev.clone())
        .with_options(CompileOptions {
            streams,
            ..CompileOptions::default()
        })
        .compile_adaptive(g)
        .expect("template compiles");
    run(&compiled.split.graph, &compiled.plan, &Machine::single(dev))
}

fn cluster(g: &Graph, spec: &str) -> Run {
    let cluster = parse_cluster(spec).expect("cluster spec parses");
    let c = compile_multi(g, &cluster, CLUSTER_MARGIN).expect("template compiles");
    run(&c.sharded.split.graph, &c.plan, &c.cluster.machine())
}

fn render(out: &mut String, template: &str, machine: &str, run: &Run) {
    let _ = writeln!(out, "== {template} @ {machine}");
    let _ = writeln!(
        out,
        "makespan {:016x} serial {:016x} critical {:016x}",
        run.makespan.to_bits(),
        run.serial.to_bits(),
        run.critical.to_bits()
    );
    let _ = writeln!(
        out,
        "shadow steps={} fnv={:016x}",
        run.times.len(),
        fnv(&run.times)
    );
    let _ = writeln!(
        out,
        "events={} gaps={}",
        run.lanes.iter().map(|l| l.events.len()).sum::<usize>(),
        run.lanes.iter().map(|l| l.gaps.len()).sum::<usize>()
    );
    for lane in &run.lanes {
        let busy_ns: u64 = lane
            .events
            .iter()
            .map(|&(s, e)| ns(e).saturating_sub(ns(s)))
            .sum();
        let _ = write!(
            out,
            "  {:<9} busy={:016x} busy_ns={busy_ns} events={} gaps={}",
            lane.name,
            lane.busy.to_bits(),
            lane.events.len(),
            lane.gaps.len()
        );
        for cause in GapCause::all() {
            let gap_ns: u64 = lane
                .gaps
                .iter()
                .filter(|g| g.2 == cause)
                .map(|&(s, e, _)| ns(e).saturating_sub(ns(s)))
                .sum();
            if gap_ns > 0 {
                let _ = write!(out, " {}={gap_ns}", cause.label());
            }
        }
        // Every interval endpoint at full precision, in lane order: an
        // event or gap that moved by an ulp, or changed place inside its
        // lane, shows here even when the rounded sums above agree.
        let gap_iv: Vec<(f64, f64)> = lane.gaps.iter().map(|&(s, e, _)| (s, e)).collect();
        let _ = write!(
            out,
            " event_fnv={:016x} gap_fnv={:016x}",
            fnv(&lane.events),
            fnv(&gap_iv)
        );
        out.push('\n');
    }
}

#[test]
fn simulation_ledger_matches_golden() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let pipeline = std::fs::read_to_string(root.join("assets/pipeline.gfg")).unwrap();
    let templates: Vec<(&str, Graph)> = vec![
        ("fig3", gpuflow::core::examples::fig3_graph()),
        (
            "edge:1200x1200,k=9,o=4",
            find_edges(1200, 1200, 9, 4, CombineOp::Max).graph,
        ),
        ("cnn-small:512x512", small_cnn(512, 512).graph),
        (
            "assets/pipeline.gfg",
            gpuflow::graph::parse_graph(&pipeline).unwrap(),
        ),
    ];
    let mut text = String::new();
    for (name, g) in &templates {
        render(&mut text, name, "c870", &single(g, &tesla_c870(), 1));
        render(
            &mut text,
            name,
            "8800gtx",
            &single(g, &geforce_8800_gtx(), 1),
        );
        render(
            &mut text,
            name,
            "c870 streams=2",
            &single(g, &tesla_c870(), 2),
        );
        render(
            &mut text,
            name,
            "c870 streams=4",
            &single(g, &tesla_c870(), 4),
        );
        for spec in ["c870x1", "c870x2", "c870,8800gtx", "modernx4"] {
            render(&mut text, name, spec, &cluster(g, spec));
        }
    }

    let golden_path = root.join("tests/golden/sim_ledger.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, golden,
        "the simulation ledger drifted from tests/golden/sim_ledger.txt; if the \
         model change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
