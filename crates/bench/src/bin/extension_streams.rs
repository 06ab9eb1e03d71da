//! Extension — stream-level operator parallelism (docs/streams.md).
//!
//! Sweeps the stream-aware list scheduler from 1 to 4 concurrent compute
//! streams over the Fig. 3 example, transfer-bound edge detection, and
//! the small CNN, re-timing every plan on the overlap simulator's
//! engine model (one H2D DMA lane, `k` kernel lanes, one D2H DMA lane).
//!
//! Every stream plan must earn the GF005x concurrency certificate under
//! the multi-stream lane model before its makespan is reported — an
//! uncertified speedup is a race, not a result.
//!
//! `--smoke` runs the sweep at k in {1, 2} only and fails (exit 1)
//! unless streams=2 lands strictly below the serial launch chain on
//! both the transfer-bound edge template and the CNN — the PR's
//! acceptance gate for the stream scheduler. Full runs additionally
//! write `BENCH_streams.json` and `docs/results/extension_streams.txt`.

use gpuflow_bench::run::secs;
use gpuflow_bench::{TableWriter, TemplateSpec};
use gpuflow_core::examples::fig3_graph;
use gpuflow_core::{overlapped_makespan, CompileOptions, Framework};
use gpuflow_graph::Graph;
use gpuflow_minijson::{Map, Value};
use gpuflow_sim::device::tesla_c870;

/// One swept workload: a label plus its operator graph.
struct Case {
    name: String,
    graph: Graph,
}

fn cases() -> Vec<Case> {
    let mut v = vec![Case {
        name: "Fig. 3 example".into(),
        graph: fig3_graph(),
    }];
    for spec in [
        TemplateSpec::Edge {
            n: 256,
            k: 5,
            orientations: 2,
        },
        TemplateSpec::Edge {
            n: 512,
            k: 5,
            orientations: 4,
        },
        TemplateSpec::Edge {
            n: 1000,
            k: 16,
            orientations: 4,
        },
        TemplateSpec::SmallCnn {
            rows: 128,
            cols: 128,
        },
        TemplateSpec::SmallCnn {
            rows: 480,
            cols: 640,
        },
    ] {
        v.push(Case {
            name: spec.label(),
            graph: spec.build(),
        });
    }
    v
}

/// Makespan of `case` compiled with `k` streams, after certification.
fn timed(case: &Case, k: usize) -> (f64, f64, usize) {
    let dev = tesla_c870();
    let compiled = Framework::new(dev.clone())
        .with_options(CompileOptions {
            streams: k,
            ..CompileOptions::default()
        })
        .compile_adaptive(&case.graph)
        .unwrap_or_else(|e| panic!("{} @ {k} streams: {e}", case.name));
    let cert = compiled.plan.certify(&compiled.split.graph);
    assert!(
        cert.certified(),
        "{} @ {k} streams failed certification: {:?}",
        case.name,
        cert.first_error()
    );
    let events = compiled.plan.streams.as_ref().map_or(0, |s| s.events.len());
    let o = overlapped_makespan(&compiled.split.graph, &compiled.plan, &dev);
    (o.makespan, o.serial_time, events)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sweep: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 3, 4] };
    let dev = tesla_c870();

    println!(
        "Extension — stream-level operator parallelism on {}\n",
        dev.name
    );
    println!("Overlapped makespan vs concurrent compute streams (k):\n");

    let mut table = TableWriter::new(&[
        "template",
        "streams",
        "makespan",
        "vs serial chain",
        "vs 1 stream",
        "events",
    ]);
    let mut doc_cases: Vec<Value> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();

    for case in cases() {
        let mut one_stream = 0.0f64;
        let mut two_stream = 0.0f64;
        let mut rows: Vec<Value> = Vec::new();
        for &k in sweep {
            let (overlapped, serial, events) = timed(&case, k);
            if k == 1 {
                one_stream = overlapped;
            }
            if k == 2 {
                two_stream = overlapped;
            }
            table.row(&[
                case.name.clone(),
                k.to_string(),
                secs(overlapped),
                format!("{:.2}x", serial / overlapped),
                format!("{:.2}x", one_stream / overlapped),
                events.to_string(),
            ]);
            let mut row = Map::new();
            row.insert("streams", k);
            row.insert("overlapped_s", overlapped);
            row.insert("serial_s", serial);
            row.insert("cross_stream_events", events);
            row.insert("speedup_vs_one_stream", one_stream / overlapped);
            rows.push(Value::Object(row));
        }
        // The acceptance gate: on the transfer-bound 4-orientation edge
        // template and the CNN, two streams must land strictly below the
        // serial launch chain. (The 2-orientation edge is a dependency
        // chain — orientation 2 is a remap of orientation 1's response —
        // so it is reported but not gated: there is nothing to overlap.)
        let gated =
            case.name.starts_with("Edge detection 512") || case.name.starts_with("Small CNN 128");
        if gated && two_stream >= one_stream {
            gate_failures.push(format!(
                "{}: streams=2 ({}) not strictly below streams=1 ({})",
                case.name,
                secs(two_stream),
                secs(one_stream)
            ));
        }
        let mut c = Map::new();
        c.insert("template", case.name.as_str());
        c.insert("sweep", Value::Array(rows));
        doc_cases.push(Value::Object(c));
    }
    let rendered = table.render();
    println!("{rendered}");
    println!(
        "Every row above is GF005x-certified under the multi-stream lane\n\
         model; the issue order is shared across k, so extra streams can\n\
         only relax kernel start times (docs/streams.md).\n"
    );

    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    if smoke {
        println!("smoke OK");
        return;
    }

    let mut doc = Map::new();
    doc.insert("bench", "streams");
    doc.insert("device", dev.name.as_str());
    doc.insert(
        "stream_sweep",
        Value::Array(sweep.iter().map(|&k| Value::from(k)).collect()),
    );
    doc.insert("cases", Value::Array(doc_cases));
    let json = Value::Object(doc).to_string_pretty();
    let path = "BENCH_streams.json";
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    let txt = format!(
        "Extension — stream-level operator parallelism on {}\n\
         Overlapped makespan vs concurrent compute streams (k):\n\n{}",
        dev.name, rendered
    );
    let results = "docs/results/extension_streams.txt";
    match std::fs::write(results, txt) {
        Ok(()) => println!("wrote {results}"),
        Err(e) => eprintln!("could not write {results}: {e}"),
    }
}
