//! The one overlap simulator (`gpuflow_core::overlap`) on cluster
//! machines: per-device compute lanes racing one shared, backfilling bus.
//! Compiled cluster plans stay inside the serial/occupancy band, scale
//! with the device count, account bus bytes exactly, tile every lane, and
//! render one Gantt row per device; a plan with no timed work reports a
//! neutral speedup; and a hand-built 2-device × 2-stream plan shows the
//! simulator, the shadow clock and the certifier agreeing on
//! `(device, stream)` lanes without a special case.

use gpuflow_core::streams::StreamSchedule;
use gpuflow_core::{
    render_gantt, simulate, step_times, ExecutionPlan, GapCause, Lane, OffloadUnit, Simulation,
    Step,
};
use gpuflow_graph::{DataKind, Graph, OpKind, RemapKind};
use gpuflow_multi::{compile_multi, record_cluster_metrics, Cluster};
use gpuflow_sim::device::tesla_c870;
use gpuflow_trace::Tracer;

fn edge_like(n: usize, k: usize) -> Graph {
    let mut g = Graph::new();
    let img = g.add("Img", n, n, DataKind::Input);
    let ker = g.add("K1", k, k, DataKind::Constant);
    let e = n - (k - 1);
    let e1 = g.add("E1", e, e, DataKind::Temporary);
    let e5 = g.add("E5", e, e, DataKind::Temporary);
    let edg = g.add("Edg", e, e, DataKind::Output);
    g.add_op("C1", OpKind::Conv2d, vec![img, ker], e1).unwrap();
    g.add_op("R1", OpKind::Remap(RemapKind::FlipH), vec![e1], e5)
        .unwrap();
    g.add_op("max", OpKind::EwMax { arity: 2 }, vec![e1, e5], edg)
        .unwrap();
    g
}

/// Busy events plus attributed gaps cover `[0, makespan]` on every lane of
/// the table with shared endpoints — no hole, no overlap.
fn assert_tiles(sim: &Simulation, tag: &str) {
    for lane in sim.lanes.lanes.iter().map(|l| l.lane) {
        let mut iv: Vec<(f64, f64)> = sim
            .events
            .iter()
            .filter(|e| e.lane == lane)
            .map(|e| (e.start, e.end))
            .chain(
                sim.gaps
                    .iter()
                    .filter(|e| e.lane == lane)
                    .map(|e| (e.start, e.end)),
            )
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(!iv.is_empty(), "{tag} {lane:?} has no coverage");
        assert_eq!(iv[0].0, 0.0, "{tag} {lane:?} does not start at 0");
        for w in iv.windows(2) {
            assert_eq!(w[0].1, w[1].0, "{tag} {lane:?} hole or overlap");
        }
        assert_eq!(
            iv.last().unwrap().1,
            sim.outcome.makespan,
            "{tag} {lane:?} does not end at the makespan"
        );
    }
}

#[test]
fn makespan_is_bounded_by_serial_and_busy_times() {
    let g = edge_like(2000, 9);
    for n in [1, 2, 4] {
        let cluster = Cluster::homogeneous(tesla_c870(), n);
        let out = compile_multi(&g, &cluster, 0.05).unwrap().outcome();
        assert!(out.makespan <= out.serial_time + 1e-9, "n={n}: {out:?}");
        assert!(
            out.makespan >= out.busy_lower_bound() - 1e-9,
            "n={n}: {out:?}"
        );
        assert!(out.speedup() >= 1.0);
    }
}

#[test]
fn more_devices_shrink_the_makespan_on_compute_bound_work() {
    let g = edge_like(3000, 16);
    let makespan = |n: usize| {
        let cluster = Cluster::homogeneous(tesla_c870(), n);
        compile_multi(&g, &cluster, 0.05)
            .unwrap()
            .outcome()
            .makespan
    };
    let (one, four) = (makespan(1), makespan(4));
    assert!(
        four < one / 1.6,
        "4 GPUs must beat 1 by well over 1.6x: {one:.4}s vs {four:.4}s"
    );
}

#[test]
fn bus_accounting_matches_the_plan() {
    let g = edge_like(2000, 9);
    let cluster = Cluster::homogeneous(tesla_c870(), 2);
    let c = compile_multi(&g, &cluster, 0.05).unwrap();
    let out = c.outcome();
    assert_eq!(out.bus_bytes, c.plan.bus_bytes(&c.sharded.split.graph));
    assert!(out.h2d_busy > 0.0 && out.d2h_busy > 0.0);
    assert_eq!(out.compute_busy.len(), 2);
    assert!(out.compute_busy.iter().all(|&b| b > 0.0));
}

#[test]
fn gaps_and_events_tile_every_cluster_lane_exactly() {
    let g = edge_like(2000, 9);
    for n in [1usize, 2, 4] {
        let cluster = Cluster::homogeneous(tesla_c870(), n);
        let sim = compile_multi(&g, &cluster, 0.05).unwrap().simulate();
        assert_eq!(sim.lanes.lanes.len(), 2 + n);
        assert_tiles(&sim, &format!("n={n}"));
    }
}

#[test]
fn gantt_renders_one_lane_per_device() {
    let g = edge_like(1000, 9);
    let cluster = Cluster::homogeneous(tesla_c870(), 2);
    let sim = compile_multi(&g, &cluster, 0.05).unwrap().simulate();
    for e in &sim.events {
        assert!(e.end > e.start, "{e:?}");
        assert!(e.end <= sim.outcome.makespan + 1e-9, "{e:?}");
    }
    let chart = render_gantt(&sim.lanes, &sim.events, sim.outcome.makespan, 60);
    // Two bus channels + one lane per device + the time axis.
    assert_eq!(chart.lines().count(), 5);
    assert!(chart.contains("BUS>") && chart.contains("BUS<"));
    assert!(chart.contains("GPU1"));
}

#[test]
fn a_plan_with_no_timed_work_reports_a_neutral_speedup() {
    // An empty template has a valid plan with no steps: makespan and serial
    // time are both zero. The speedup is the neutral 1.0 — not 0/0 — and
    // the gauge derived from it stays finite.
    let g = Graph::new();
    let cluster = Cluster::homogeneous(tesla_c870(), 2);
    let plan = ExecutionPlan {
        units: vec![],
        unit_device: vec![],
        steps: vec![],
        pinned_host: vec![],
        streams: None,
    };
    let sim = simulate(&g, &plan, &cluster.machine());
    assert_eq!(sim.outcome.makespan, 0.0);
    assert_eq!(sim.outcome.speedup(), 1.0);
    assert!(sim.events.is_empty() && sim.gaps.is_empty());
    let mut tracer = Tracer::new();
    record_cluster_metrics(&mut tracer, &sim.outcome);
    let exposition = tracer.metrics_ref().to_json().to_string_pretty();
    assert!(!exposition.contains("NaN"), "{exposition}");
}

#[test]
fn two_devices_by_two_streams_agree_across_simulator_clock_and_certifier() {
    // in --a--> x --c--> out0        device 0: a on stream 0, b on stream 1,
    // in --b--> y --d--> out1        c (reads both) on stream 0;
    //                                device 1: d on stream 1, reading y
    //                                staged through the host.
    let mut g = Graph::new();
    let input = g.add("in", 256, 256, DataKind::Input);
    let x = g.add("x", 256, 256, DataKind::Temporary);
    let y = g.add("y", 256, 256, DataKind::Temporary);
    let out0 = g.add("out0", 256, 256, DataKind::Output);
    let out1 = g.add("out1", 256, 256, DataKind::Output);
    let a = g.add_op("a", OpKind::Tanh, vec![input], x).unwrap();
    let b = g.add_op("b", OpKind::Tanh, vec![input], y).unwrap();
    let c = g
        .add_op("c", OpKind::EwAdd { arity: 2 }, vec![x, y], out0)
        .unwrap();
    let d = g.add_op("d", OpKind::Tanh, vec![y], out1).unwrap();
    let plan = ExecutionPlan {
        units: [a, b, c, d]
            .into_iter()
            .map(|o| OffloadUnit { ops: vec![o] })
            .collect(),
        unit_device: vec![0, 0, 0, 1],
        steps: vec![
            Step::CopyIn {
                device: 0,
                data: input,
            },
            Step::Launch(0),
            Step::Launch(1),
            Step::CopyOut { device: 0, data: y },
            Step::CopyIn { device: 1, data: y },
            Step::Launch(2),
            Step::Launch(3),
            Step::CopyOut {
                device: 0,
                data: out0,
            },
            Step::CopyOut {
                device: 1,
                data: out1,
            },
        ],
        pinned_host: vec![],
        streams: Some(StreamSchedule {
            num_streams: 2,
            unit_stream: vec![0, 1, 0, 1],
            events: vec![],
        }),
    };
    let cluster = Cluster::homogeneous(tesla_c870(), 2);
    let machine = cluster.machine();

    // The certifier's lanes…
    let cert = plan.certify(&g);
    assert!(cert.certified(), "{:?}", cert.first_error());
    let launch_lanes: Vec<Lane> = [1, 2, 5, 6].iter().map(|&i| cert.step_lane[i]).collect();
    assert_eq!(
        launch_lanes,
        vec![
            Lane::Compute(0),
            Lane::Stream(0, 1),
            Lane::Compute(0),
            Lane::Stream(1, 1)
        ]
    );
    // …are the lanes the simulator ran the kernels on (debug builds also
    // ran the shadow clock against the certificate inside `simulate`)…
    let sim = simulate(&g, &plan, &machine);
    let kernel_lanes: Vec<Lane> = sim
        .events
        .iter()
        .filter(|e| e.lane.device_stream().is_some())
        .map(|e| e.lane)
        .collect();
    assert_eq!(kernel_lanes, launch_lanes);
    assert_eq!(sim.lanes.lanes.len(), 2 + 2 * 2);
    let labels: Vec<&str> = sim.lanes.lanes.iter().map(|l| l.label.as_str()).collect();
    assert_eq!(
        labels,
        ["bus-h2d", "bus-d2h", "gpu0s0", "gpu0s1", "gpu1s0", "gpu1s1"]
    );
    assert_tiles(&sim, "2x2");
    // …`a` and `b` overlap on device 0's two streams, `c` waits for the
    // other stream's `y`, and the never-used lane is idle end to end.
    let span = |label: &str| {
        let e = sim.events.iter().find(|e| e.label == label).unwrap();
        (e.start, e.end)
    };
    assert_eq!(span("a").0, span("b").0);
    assert!(span("c").0 >= span("b").1);
    assert!(sim
        .gaps
        .iter()
        .any(|e| e.lane == Lane::Compute(1) && e.cause == GapCause::Idle && e.start == 0.0));
    // …and the shadow clock honours every happens-before edge.
    let times = step_times(&g, &plan, &machine);
    assert!(cert.dynamic_violations(&times).is_empty());
    assert_eq!(times[1].0, times[2].0, "streams 0 and 1 start together");
}
