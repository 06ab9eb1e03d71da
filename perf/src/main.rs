//! `gpuflow-perf`: the wall-clock benchmark of gpuflow (README.md).
//!
//! ```text
//! gpuflow-perf --gpuflow BIN --workload W --seed N --seconds S --trace 0|1   one run
//! gpuflow-perf --gpuflow BIN [--seeds 1,2] [--workload W] [--trace 0|1] [--smoke]   suite
//! gpuflow-perf compare A.json B.json
//! ```
//!
//! End-to-end numbers come only from the two public surfaces — the
//! `gpuflow` CLI and the serve wire protocol — with tracing off. Per-layer
//! numbers come from the separate `--trace 1` run, which times calls into
//! the crates' public functions from `layers.rs`.

mod batch;
mod corpus;
mod layers;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use gpuflow_minijson::{Map, Value};

use report::{RunResult, END_TO_END, PER_LAYER};

/// Options of one run.
pub struct Opts {
    /// The release `gpuflow` binary under test.
    pub gpuflow: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured part of a run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Schema and correctness only: one round, short windows.
    pub smoke: bool,
    /// Where traces, results and daemon scratch files go.
    pub out_dir: PathBuf,
}

impl Opts {
    /// Set-up is repeated `full` times so that its reported time is a
    /// median (once in a smoke run).
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// Fewest rounds of a batch corpus whose per-entry medians mean
    /// something.
    pub fn min_rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Serve warm-up before the window.
    pub fn warmup_seconds(&self) -> f64 {
        if self.smoke {
            0.2
        } else {
            1.0
        }
    }
}

/// Write the Chrome trace of a traced run to `out/trace_<workload>.json`.
pub fn write_trace(workload: &str, rec: &trace::Recorder, opts: &Opts) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let path = opts.out_dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, rec.chrome_trace(workload).to_string_compact())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{workload}: {} spans written to {}",
        rec.spans().len(),
        path.display()
    );
    Ok(())
}

struct Args {
    flags: std::collections::HashMap<String, String>,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags = std::collections::HashMap::new();
    let mut positional = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                flags.insert("smoke".to_string(), "1".to_string());
            }
            "--gpuflow" | "--workload" | "--seed" | "--seeds" | "--seconds" | "--trace"
            | "--out" => {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.insert(a[2..].to_string(), v.clone());
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    Ok(Args { flags, positional })
}

fn opts_from(args: &Args) -> Result<Opts, String> {
    let get = |k: &str| args.flags.get(k).map(String::as_str);
    let smoke = get("smoke").is_some();
    let seconds: f64 = match get("seconds") {
        Some(s) => s.parse().map_err(|_| format!("bad --seconds '{s}'"))?,
        None if smoke => 4.0,
        None => 20.0,
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} out of range (0, 60]"));
    }
    let gpuflow = PathBuf::from(get("gpuflow").ok_or("--gpuflow BIN is required")?);
    if !gpuflow.is_file() {
        return Err(format!("{} is not a file", gpuflow.display()));
    }
    Ok(Opts {
        gpuflow,
        seed: match get("seed") {
            Some(s) => s.parse().map_err(|_| format!("bad --seed '{s}'"))?,
            None => 1,
        },
        seconds,
        trace: match get("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
        },
        smoke,
        out_dir: PathBuf::from(get("out").unwrap_or("perf/out")),
    })
}

/// One run of one workload; prints the metric lines and, last, the
/// result object.
fn run_one(workload: &str, opts: &Opts) -> Result<(), String> {
    let result: RunResult = if corpus::is_batch(workload) {
        batch::run(workload, opts)?
    } else if corpus::WORKLOADS.contains(&workload) {
        serve::run(workload, opts)?
    } else {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            corpus::WORKLOADS.join(", ")
        ));
    };
    for v in &result.violations {
        eprintln!("VIOLATION {v}");
    }
    let list: &[report::Metric] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let doc = result.to_json(list, opts.trace)?;
    for m in list {
        if let Some(v) = result.values.get(m.name) {
            println!("{workload} {} {v} {}", m.name, m.unit);
        }
    }
    println!(
        "{workload} fail_ratio {} ratio",
        result.failed as f64 / result.attempted.max(1) as f64
    );
    println!("{}", doc.to_string_compact());
    Ok(())
}

/// Every workload (or the one named) for every seed, each run in its own
/// process; writes `out/results.json`.
fn suite(args: &Args, opts: &Opts) -> Result<bool, String> {
    let seeds: Vec<String> = match args.flags.get("seeds") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => vec![opts.seed.to_string()],
    };
    let workloads: Vec<&str> = match args.flags.get("workload") {
        Some(w) => vec![w.as_str()],
        None => corpus::WORKLOADS.to_vec(),
    };
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for seed in &seeds {
        for &w in &workloads {
            let mut cmd = Command::new(&me);
            cmd.arg("--gpuflow").arg(&opts.gpuflow);
            cmd.args(["--workload", w, "--seed", seed]);
            cmd.args(["--seconds", &opts.seconds.to_string()]);
            cmd.args(["--trace", if opts.trace { "1" } else { "0" }]);
            cmd.arg("--out").arg(&opts.out_dir);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let last = text.lines().last().unwrap_or("");
            let doc = gpuflow_minijson::parse(last)
                .map_err(|e| format!("{w} seed {seed}: no result line ({e})"))?;
            all_correct &= out.status.success() && doc["correct"].as_bool() == Some(true);
            runs.push((w.to_string(), doc));
        }
    }
    let mut header = Map::new();
    header.insert("benchmark", "gpuflow-perf");
    header.insert("seeds", seeds.clone());
    header.insert("seconds", opts.seconds);
    header.insert("trace", opts.trace);
    header.insert("smoke", opts.smoke);
    let doc = report::results_doc(header, &runs);
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let path = opts.out_dir.join("results.json");
    std::fs::write(&path, doc.to_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;

    // With several runs per workload, the spread of each metric.
    if seeds.len() > 1 {
        println!("\nmedian and quartile spread over {} seeds", seeds.len());
        if let Some(ws) = doc["workloads"].as_object() {
            for (w, d) in ws.iter() {
                if let Some(ms) = d["metrics"].as_object() {
                    for (name, e) in ms.iter() {
                        println!(
                            "{w:<14} {name:<32} median {:>14.4} {:<5} spread {:>6.2} %",
                            e["median"].as_f64().unwrap_or(0.0),
                            e["unit"].as_str().unwrap_or(""),
                            100.0 * e["spread"].as_f64().unwrap_or(0.0)
                        );
                    }
                }
            }
        }
    }
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn read_results(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    gpuflow_minijson::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.positional.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.positional.as_slice() else {
            return Err("usage: gpuflow-perf compare A.json B.json".into());
        };
        let (table, any_worse) = report::compare(&read_results(a)?, &read_results(b)?)?;
        print!("{table}");
        return Ok(!any_worse);
    }
    if !args.positional.is_empty() {
        return Err(format!("unexpected argument '{}'", args.positional[0]));
    }
    let opts = opts_from(&args)?;
    // The contract's form (`--workload W --seed N`) is one run; anything
    // else is the suite.
    match (args.flags.get("workload"), args.flags.contains_key("seed")) {
        // A run that printed its result line has done its job; whether
        // the outputs were correct is the line's `correct` field.
        (Some(w), true) => run_one(w, &opts).map(|()| true),
        _ => suite(&args, &opts),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gpuflow-perf: {e}");
            ExitCode::from(2)
        }
    }
}
