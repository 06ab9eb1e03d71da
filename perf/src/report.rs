//! Metric registry, the result line of one run, the results file of a
//! suite, and `compare`.

use std::collections::BTreeMap;

use gpuflow_minijson::{Map, Value};

use crate::stats;
use crate::trace::{layer_ms, Recorder};

/// One metric of the benchmark. `bound` is the share of the baseline's
/// median by which an end-to-end metric may get worse (unused per layer).
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Is a larger value better?
    pub higher_is_better: bool,
    /// Regression bound (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, false, 0.0)
}

const fn layer_up(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, true, 0.0)
}

/// What a user of `gpuflow run` or a client of `gpuflow serve` sees.
/// Every workload reports every one of them (README.md, "Metric glossary",
/// says what each means on a batch and on a serve workload).
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("corpus_ms", "ms", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("latency_p95_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.10),
    e2e("sim_makespan_s", "s", false, 0.02),
    e2e("moved_mb", "MB", false, 0.05),
];

/// Single-layer metrics of the traced run. A metric that does not apply
/// to a workload is reported as 0 there.
pub const PER_LAYER: [Metric; 81] = [
    layer("cli.spawn_ms", "ms"),
    layer("cli.run_ms.e01", "ms"),
    layer("cli.run_ms.e02", "ms"),
    layer("cli.run_ms.e03", "ms"),
    layer("cli.run_ms.e04", "ms"),
    layer("cli.run_ms.e05", "ms"),
    layer("cli.run_ms.e06", "ms"),
    layer("cli.run_ms.e07", "ms"),
    layer("cli.run_ms.e08", "ms"),
    layer("cli.plan_share", "ratio"),
    layer("templates.build_ms", "ms"),
    layer("graph.parse_ms", "ms"),
    layer("graph.canon_hash_ms", "ms"),
    layer("graph.ops", "count"),
    layer("graph.data", "count"),
    layer("core.adaptive_ms", "ms"),
    layer("core.margin_attempts", "count"),
    layer("core.split_ms", "ms"),
    layer("core.split_parts", "count"),
    layer("core.partition_ms", "ms"),
    layer("core.opschedule_ms", "ms"),
    layer("core.xfer_ms", "ms"),
    layer("core.streams_ms", "ms"),
    layer("core.count_evictions_ms", "ms"),
    layer("core.validate_ms", "ms"),
    layer("core.stats_ms", "ms"),
    layer("core.compile_ms", "ms"),
    layer("core.pass_sum_ratio", "ratio"),
    layer("core.units", "count"),
    layer("core.steps", "count"),
    layer("core.evictions", "count"),
    layer("core.exec_analytic_ms", "ms"),
    layer("core.overlap_ms", "ms"),
    layer("verify.analyze_ms", "ms"),
    layer("verify.hazard_ms", "ms"),
    layer("profile.single_ms", "ms"),
    layer("multigpu.shard_ms", "ms"),
    layer("multigpu.schedule_ms", "ms"),
    layer("multigpu.compile_ms", "ms"),
    layer("multigpu.makespan_ms", "ms"),
    layer("verify.multi_analyze_ms", "ms"),
    layer("profile.cluster_ms", "ms"),
    layer("multigpu.units", "count"),
    layer("multigpu.steps", "count"),
    layer("codegen.json_ms", "ms"),
    layer("codegen.cuda_ms", "ms"),
    layer("codegen.json_bytes", "count"),
    layer("minijson.parse_ms", "ms"),
    layer("minijson.encode_ms", "ms"),
    layer("pbsat.exact_ms", "ms"),
    layer("pbsat.conflicts", "count"),
    layer("ops.functional_ms", "ms"),
    layer("serve.hit_ms_p50", "ms"),
    layer("serve.hit_ms_p95", "ms"),
    layer("serve.run_ms_p50", "ms"),
    layer("serve.incremental_ms_p50", "ms"),
    layer("serve.small_ms_p50", "ms"),
    layer("serve.miss_ms_p50", "ms"),
    layer("serve.client_p99_ms", "ms"),
    layer("serve.phase.cache-probe_us_p50", "us"),
    layer("serve.phase.cache-probe_us_p99", "us"),
    layer("serve.phase.queue-wait_us_p99", "us"),
    layer("serve.phase.compile_us_p50", "us"),
    layer("serve.phase.compile_us_p99", "us"),
    layer("serve.phase.execute_us_p50", "us"),
    layer("serve.phase.execute_us_p99", "us"),
    layer("serve.phase.total_us_p50", "us"),
    layer("serve.phase.total_us_p99", "us"),
    layer("serve.wire_gap_ms_p50", "ms"),
    layer("serve.inproc_hit_us_p50", "us"),
    layer_up("serve.cache_hits", "count"),
    layer_up("serve.cache_memo_hits", "count"),
    layer("serve.cache_incremental", "count"),
    layer("serve.cache_misses", "count"),
    layer("serve.cache_evictions", "count"),
    layer_up("serve.hit_ratio", "ratio"),
    layer("serve.journal_bytes", "count"),
    layer("serve.rss_kb_per_kreq", "kB"),
    layer("serve.threads", "count"),
    layer("trace.overhead_ratio", "ratio"),
    layer("trace.shadow_reps", "count"),
];

/// Look a metric up in either list.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (child processes or wire requests).
    pub attempted: u64,
    /// Operations that failed: non-zero exit, `ok:false`, transport error,
    /// unparsable JSON, or a violated invariant.
    pub failed: u64,
    /// Workload-level checks that are not one operation's (functional
    /// gate, hit ratio, class shares, shadow reconciliation).
    pub violations: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl RunResult {
    /// Record a metric; the name must be in the registry.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(metric(name).is_some(), "unregistered metric {name}");
        self.values.insert(name.to_string(), value);
    }

    /// Copy every span-backed and count-backed layer metric of a traced
    /// run's repetitions in, and derive `core.pass_sum_ratio`: the share
    /// of `Framework::compile` its pass spans explain.
    pub fn set_layer_metrics(&mut self, reps: &[Recorder]) {
        let mut names: Vec<&'static str> = reps
            .iter()
            .flat_map(|r| r.spans().iter().map(|s| s.name))
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            if metric(name).is_some() {
                self.set(name, layer_ms(reps, name));
            }
        }
        if let Some(rec) = reps.last() {
            for (name, total) in rec.count_totals() {
                self.set(name, total);
            }
        }
        let passes: f64 = [
            "core.split_ms",
            "core.partition_ms",
            "core.opschedule_ms",
            "core.xfer_ms",
            "core.streams_ms",
            "core.count_evictions_ms",
            "core.validate_ms",
            "core.stats_ms",
        ]
        .iter()
        .filter_map(|n| self.values.get(*n))
        .sum();
        match self.values.get("core.compile_ms") {
            Some(&whole) if whole > 0.0 => self.set("core.pass_sum_ratio", passes / whole),
            _ => {}
        }
    }

    /// Did every output check pass?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `list` (a per-layer
    /// metric that was not measured on this workload reads 0; a missing
    /// end-to-end metric is an error).
    pub fn to_json(&self, list: &[Metric], zero_missing: bool) -> Result<Value, String> {
        let mut metrics = Map::new();
        for m in list {
            let value = match self.values.get(m.name) {
                Some(&v) => v,
                None if zero_missing => 0.0,
                None => return Err(format!("metric {} was not measured", m.name)),
            };
            let mut entry = Map::new();
            entry.insert("value", value);
            entry.insert("unit", m.unit);
            metrics.insert(m.name, Value::Object(entry));
        }
        let mut doc = Map::new();
        doc.insert("correct", self.correct());
        doc.insert("attempted", self.attempted.max(1));
        doc.insert("failed", self.failed);
        doc.insert("metrics", Value::Object(metrics));
        Ok(Value::Object(doc))
    }
}

/// Fold the result lines of several runs (one per seed or repetition) of
/// every workload into the results document: per workload and metric the
/// values in run order, their median, and their quartile spread.
pub fn results_doc(header: Map, runs: &[(String, Value)]) -> Value {
    let mut workloads = Map::new();
    let mut names: Vec<&str> = Vec::new();
    for (w, _) in runs {
        if !names.contains(&w.as_str()) {
            names.push(w);
        }
    }
    for w in names {
        let mine: Vec<&Value> = runs
            .iter()
            .filter(|(n, _)| n == w)
            .map(|(_, v)| v)
            .collect();
        let mut doc = Map::new();
        doc.insert("runs", mine.len());
        doc.insert(
            "correct",
            mine.iter().all(|r| r["correct"].as_bool() == Some(true)),
        );
        let sum = |key: &str| mine.iter().filter_map(|r| r[key].as_u64()).sum::<u64>();
        doc.insert("attempted", sum("attempted"));
        doc.insert("failed", sum("failed"));
        doc.insert(
            "fail_ratio",
            sum("failed") as f64 / sum("attempted").max(1) as f64,
        );
        let mut metrics = Map::new();
        if let Some(first) = mine.first().and_then(|r| r["metrics"].as_object()) {
            for (name, entry) in first.iter() {
                let values: Vec<f64> = mine
                    .iter()
                    .filter_map(|r| r["metrics"][name]["value"].as_f64())
                    .collect();
                let mut m = Map::new();
                m.insert("unit", entry["unit"].as_str().unwrap_or(""));
                m.insert("median", stats::median(&values));
                if let Some(s) = stats::spread(&values) {
                    m.insert("spread", s);
                }
                m.insert("values", values);
                metrics.insert(name, Value::Object(m));
            }
        }
        doc.insert("metrics", Value::Object(metrics));
        workloads.insert(w, Value::Object(doc));
    }
    let mut doc = header;
    doc.insert("workloads", Value::Object(workloads));
    Value::Object(doc)
}

/// Verdict of one workload × metric row of `compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is not worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The run-to-run spread of A or B is wider than the bound.
    Unresolved,
}

/// Judge `b` against baseline `a` for `m`. `worse_by` is the share of the
/// baseline by which B is worse (negative = better).
pub fn judge(m: &Metric, a: f64, b: f64, spread: Option<f64>) -> (f64, Verdict) {
    let worse_by = if a == 0.0 {
        0.0
    } else if m.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    };
    let verdict = if spread.is_some_and(|s| s > m.bound) {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// `compare A.json B.json`: one row per workload × end-to-end metric.
/// Returns the table and whether any row is `worse`.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let wa = a["workloads"].as_object().ok_or("A: no workloads object")?;
    let mut out = format!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>6}  {}\n",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "verdict"
    );
    let mut any_worse = false;
    for (w, da) in wa.iter() {
        let db = &b["workloads"][w];
        for m in &END_TO_END {
            let (ea, eb) = (&da["metrics"][m.name], &db["metrics"][m.name]);
            let (Some(va), Some(vb)) = (ea["median"].as_f64(), eb["median"].as_f64()) else {
                continue;
            };
            let spread = [ea["spread"].as_f64(), eb["spread"].as_f64()]
                .into_iter()
                .flatten()
                .reduce(f64::max);
            let (_, verdict) = judge(m, va, vb, spread);
            any_worse |= verdict == Verdict::Worse;
            out.push_str(&format!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>9.4} {:>5.0}%  {}{}\n",
                w,
                m.name,
                va,
                vb,
                if va == 0.0 { 1.0 } else { vb / va },
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                spread.map_or(String::new(), |s| format!(" (spread {:.1}%)", s * 100.0)),
            ));
        }
        let (fa, fb) = (da["fail_ratio"].as_f64(), db["fail_ratio"].as_f64());
        if let (Some(fa), Some(fb)) = (fa, fb) {
            let worse = fb > fa;
            any_worse |= worse;
            out.push_str(&format!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>9} {:>5.0}%  {}\n",
                w,
                "fail_ratio",
                fa,
                fb,
                "-",
                0.0,
                if worse { "worse" } else { "ok" }
            ));
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        gpuflow_minijson::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let check = |key: &str, list: &[Metric], with_bound: bool| {
            let listed = doc[key].as_array().unwrap();
            assert_eq!(listed.len(), list.len(), "{key}");
            for (j, m) in listed.iter().zip(list) {
                assert_eq!(j["name"].as_str(), Some(m.name));
                assert_eq!(j["unit"].as_str(), Some(m.unit), "{}", m.name);
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(j["better"].as_str(), Some(better), "{}", m.name);
                assert_eq!(j["bound"].as_f64().is_some(), with_bound, "{}", m.name);
                if with_bound {
                    assert_eq!(j["bound"].as_f64(), Some(m.bound), "{}", m.name);
                    assert!(m.bound <= 0.25);
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::corpus::WORKLOADS);
        assert_eq!(doc["paths"][0].as_str(), Some("perf"));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(metric("setup_s").unwrap().bound, largest);
    }

    fn full_result(scale: f64) -> RunResult {
        let mut r = RunResult {
            attempted: 40,
            ..RunResult::default()
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, scale * (i + 1) as f64 + 0.125);
        }
        r
    }

    #[test]
    fn results_round_trip_and_list_every_metric_with_a_unit() {
        let r = full_result(1.0);
        let line = r.to_json(&END_TO_END, false).unwrap().to_string_compact();
        let back = gpuflow_minijson::parse(&line).unwrap();
        let keys: Vec<&str> = back.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back["correct"].as_bool(), Some(true));
        for m in &END_TO_END {
            assert_eq!(back["metrics"][m.name]["unit"].as_str(), Some(m.unit));
            assert_eq!(
                back["metrics"][m.name]["value"].as_f64(),
                r.values.get(m.name).copied()
            );
        }
        // A traced line lists every per-layer metric, unmeasured ones as 0.
        let traced = RunResult::default().to_json(&PER_LAYER, true).unwrap();
        assert_eq!(
            traced["metrics"].as_object().unwrap().len(),
            PER_LAYER.len()
        );
        assert_eq!(traced["attempted"].as_u64(), Some(1));
        // An untraced line with a metric missing is an error, not a 0.
        assert!(RunResult::default().to_json(&END_TO_END, false).is_err());

        let runs: Vec<(String, Value)> = [1.0, 1.01, 1.02]
            .iter()
            .map(|&s| {
                (
                    "batch_fit".to_string(),
                    full_result(s).to_json(&END_TO_END, false).unwrap(),
                )
            })
            .collect();
        let doc = results_doc(Map::new(), &runs);
        let text = doc.to_string_pretty();
        let back = gpuflow_minijson::parse(&text).unwrap();
        assert_eq!(back, doc);
        let fit = &back["workloads"]["batch_fit"];
        assert_eq!(fit["runs"].as_u64(), Some(3));
        assert_eq!(fit["fail_ratio"].as_f64(), Some(0.0));
        for m in &END_TO_END {
            let e = &fit["metrics"][m.name];
            assert_eq!(e["unit"].as_str(), Some(m.unit));
            assert_eq!(e["values"].as_array().unwrap().len(), 3);
            assert!(e["median"].as_f64().is_some() && e["spread"].as_f64().is_some());
        }
    }

    #[test]
    fn compare_judges_direction_bound_and_spread() {
        let lat = &e2e("lat", "ms", false, 0.10);
        let ops = &e2e("ops", "1/s", true, 0.10);
        assert_eq!(judge(lat, 100.0, 109.0, None).1, Verdict::Ok);
        assert_eq!(judge(lat, 100.0, 111.0, None).1, Verdict::Worse);
        assert_eq!(judge(lat, 100.0, 50.0, None).1, Verdict::Ok);
        assert_eq!(judge(ops, 100.0, 89.0, None).1, Verdict::Worse);
        assert_eq!(judge(ops, 100.0, 120.0, None).1, Verdict::Ok);
        assert_eq!(judge(lat, 100.0, 150.0, Some(0.2)).1, Verdict::Unresolved);
        assert_eq!(judge(lat, 100.0, 111.0, Some(0.05)).1, Verdict::Worse);

        let doc = |scale: f64| {
            let runs = vec![(
                "batch_fit".to_string(),
                full_result(scale).to_json(&END_TO_END, false).unwrap(),
            )];
            results_doc(Map::new(), &runs)
        };
        let (table, worse) = compare(&doc(1.0), &doc(1.0)).unwrap();
        assert!(!worse);
        assert_eq!(table.lines().count(), 1 + END_TO_END.len() + 1);
        // Everything 30 % larger: the lower-is-better metrics regress.
        let (table, worse) = compare(&doc(1.0), &doc(1.3)).unwrap();
        assert!(worse && table.contains("worse"));
    }
}
