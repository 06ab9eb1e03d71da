//! The CLI batch workloads: a closed loop with one worker, one
//! `gpuflow run … --json` child process at a time.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gpuflow_minijson::Value;

use crate::corpus::{self, Entry, Target};
use crate::layers;
use crate::report::RunResult;
use crate::stats;
use crate::trace::Recorder;
use crate::Opts;

/// One finished child process.
pub struct Child {
    /// Wall time from spawn to exit, in milliseconds.
    pub wall_ms: f64,
    /// Standard output when the exit status was 0, else what went wrong.
    pub stdout: Result<String, String>,
}

/// Run `gpuflow <args>` to completion.
pub fn run_child(gpuflow: &Path, args: &[String]) -> Child {
    let start = Instant::now();
    let output = Command::new(gpuflow)
        .args(args)
        .stdin(Stdio::null())
        .output();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stdout = match output {
        Err(e) => Err(format!("cannot run {}: {e}", gpuflow.display())),
        Ok(o) if !o.status.success() => Err(format!(
            "gpuflow {} exited {}: {}",
            args.join(" "),
            o.status,
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Ok(o) => String::from_utf8(o.stdout).map_err(|e| e.to_string()),
    };
    Child { wall_ms, stdout }
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long`s of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Largest resident set, in kilobytes, of any child this process has
/// waited for (`getrusage(RUSAGE_CHILDREN)`, declared by hand: there is
/// no libc crate offline).
pub fn children_max_rss_kb() -> u64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the Linux ABI defines for 64-bit targets (144 bytes), and
    // getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss.max(0) as u64
    } else {
        0
    }
}

/// What the run document of one entry says, reduced to what is checked
/// and summed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunDoc {
    /// `profile.makespan_ns`.
    pub makespan_ns: u64,
    /// `plan.bytes_in + plan.bytes_out`.
    pub moved_bytes: u64,
}

/// Parse and check one run document: it must be JSON, keep every device's
/// peak within its capacity, and upload at least the input image.
pub fn check_run_doc(entry: &Entry, stdout: &str) -> Result<RunDoc, String> {
    let doc = gpuflow_minijson::parse(stdout).map_err(|e| format!("{}: {e}", entry.id))?;
    let field = |v: &Value, key: &str| {
        v[key]
            .as_u64()
            .ok_or_else(|| format!("{}: run document has no {key}", entry.id))
    };
    let plan = &doc["plan"];
    let peaks: Vec<u64> = match entry.target {
        Target::Device(_) => vec![field(plan, "peak_bytes")?],
        Target::Cluster(_) => plan["peak_per_device"]
            .as_array()
            .ok_or_else(|| format!("{}: no peak_per_device", entry.id))?
            .iter()
            .filter_map(Value::as_u64)
            .collect(),
    };
    let capacities = entry.capacities();
    if peaks.len() != capacities.len() || peaks.iter().zip(&capacities).any(|(p, c)| p > c) {
        return Err(format!(
            "{}: peak bytes {peaks:?} exceed device capacity {capacities:?}",
            entry.id
        ));
    }
    let bytes_in = field(plan, "bytes_in")?;
    let image = 4 * (entry.rows * entry.cols) as u64;
    if bytes_in < image {
        return Err(format!(
            "{}: uploads {bytes_in} B, less than the {image} B input image",
            entry.id
        ));
    }
    let makespan_ns = field(&doc["profile"], "makespan_ns")?;
    if makespan_ns == 0 {
        return Err(format!("{}: zero makespan", entry.id));
    }
    Ok(RunDoc {
        makespan_ns,
        moved_bytes: bytes_in + field(plan, "bytes_out")?,
    })
}

/// The set-up gate: one small spec per execution mode, run functionally;
/// the CLI must report outputs equal to direct graph evaluation.
fn functional_gate(gpuflow: &Path) -> Result<(), String> {
    for args in corpus::FUNCTIONAL_GATE {
        let mut argv = vec!["run".to_string()];
        argv.extend(args.iter().map(|s| s.to_string()));
        argv.push("--functional".into());
        let out = run_child(gpuflow, &argv).stdout?;
        if !out.contains("outputs verified against the reference") {
            return Err(format!("gpuflow {}: outputs not verified", argv.join(" ")));
        }
    }
    Ok(())
}

/// Timed rounds over the corpus. Every round runs every entry once, in a
/// seeded order. At least `min_rounds`; further rounds start while the
/// previous round's duration still fits into `seconds`.
struct Rounds {
    /// Child wall times per entry, in round order.
    walls: Vec<Vec<f64>>,
    docs: Vec<Option<RunDoc>>,
    elapsed: Duration,
}

fn run_rounds(
    gpuflow: &Path,
    corpus: &[Entry],
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    result: &mut RunResult,
) -> Rounds {
    let mut walls = vec![Vec::new(); corpus.len()];
    let mut docs: Vec<Option<RunDoc>> = vec![None; corpus.len()];
    let start = Instant::now();
    let mut last_round = 0.0;
    let mut round = 0;
    while round < min_rounds || start.elapsed().as_secs_f64() + last_round <= seconds {
        let round_start = Instant::now();
        for i in corpus::round_order(corpus.len(), seed, round) {
            let entry = &corpus[i];
            let child = run_child(gpuflow, &entry.run_args());
            result.attempted += 1;
            let checked = child
                .stdout
                .and_then(|out| check_run_doc(entry, &out))
                .and_then(|doc| match docs[i] {
                    Some(first) if first != doc => {
                        Err(format!("{}: run document changed between rounds", entry.id))
                    }
                    _ => Ok(doc),
                });
            match checked {
                Ok(doc) => {
                    docs[i] = Some(doc);
                    walls[i].push(child.wall_ms);
                }
                Err(e) => {
                    eprintln!("FAILED {e}");
                    result.failed += 1;
                }
            }
        }
        last_round = round_start.elapsed().as_secs_f64();
        round += 1;
    }
    Rounds {
        walls,
        docs,
        elapsed: start.elapsed(),
    }
}

/// Run one batch workload.
pub fn run(workload: &str, opts: &Opts) -> Result<RunResult, String> {
    let gpuflow = opts.gpuflow.as_path();
    let mut result = RunResult::default();

    // Set-up: corpus generation and the functional gate, several times so
    // the reported set-up time is a median.
    let mut setups = Vec::new();
    let mut corpus = Vec::new();
    for _ in 0..opts.setup_reps(5) {
        let start = Instant::now();
        corpus = corpus::batch_corpus(workload, opts.seed);
        if let Err(e) = functional_gate(gpuflow) {
            result.violations.push(e);
        }
        setups.push(start.elapsed().as_secs_f64());
    }

    if opts.trace {
        traced(workload, &corpus, opts, &mut result)?;
        return Ok(result);
    }

    let rounds = run_rounds(
        gpuflow,
        &corpus,
        opts.seed,
        opts.seconds,
        opts.min_rounds(),
        &mut result,
    );
    // Co-tenants of the sandbox slow memory-bound code by up to 2x for
    // seconds at a time (README.md, "Noise"); noise only ever adds, so an
    // entry's time is the fastest of its rounds, and the percentiles are
    // taken over the entries' times, not over every sample.
    let best: Vec<f64> = rounds
        .walls
        .iter()
        .map(|w| w.iter().copied().fold(f64::INFINITY, f64::min))
        .filter(|b| b.is_finite())
        .collect();
    let samples: usize = rounds.walls.iter().map(Vec::len).sum();
    println!(
        "{workload}: {} rounds, {samples} child processes in {:.2} s; \
         p50 and p95 are over the {} entries' times{}",
        rounds.walls.iter().map(Vec::len).max().unwrap_or(0),
        rounds.elapsed.as_secs_f64(),
        best.len(),
        if stats::supported(best.len(), 95.0) {
            ""
        } else {
            " (fewer than ten beyond p95: read it as the slowest entry)"
        }
    );
    for (e, w) in corpus.iter().zip(&rounds.walls) {
        let mut w = w.clone();
        stats::sort(&mut w);
        println!(
            "  {} fastest {:>9.2} ms  median {:>9.2} ms  gpuflow {}",
            e.id,
            w.first().copied().unwrap_or(0.0),
            stats::median(&w),
            e.run_args().join(" ")
        );
    }
    let docs: Vec<RunDoc> = rounds.docs.iter().flatten().copied().collect();
    let mut sorted = best.clone();
    stats::sort(&mut sorted);
    let corpus_ms: f64 = best.iter().sum();
    result.set("setup_s", stats::median(&setups));
    result.set("corpus_ms", corpus_ms);
    result.set("ops_per_s", best.len() as f64 / (corpus_ms / 1e3));
    result.set("latency_p50_ms", stats::percentile(&sorted, 50.0));
    result.set("latency_p95_ms", stats::percentile(&sorted, 95.0));
    result.set("peak_rss_mb", children_max_rss_kb() as f64 / 1024.0);
    result.set(
        "sim_makespan_s",
        docs.iter().map(|d| d.makespan_ns as f64 / 1e9).sum(),
    );
    result.set(
        "moved_mb",
        docs.iter().map(|d| d.moved_bytes as f64 / 1e6).sum(),
    );
    Ok(result)
}

/// Run every entry of `corpus` through the shadow pipeline once.
fn shadow_rep(
    corpus: &[Entry],
    enabled: bool,
) -> Result<(Recorder, Vec<layers::ShadowOut>, f64), String> {
    let mut rec = Recorder::new(enabled);
    let start = Instant::now();
    let mut outs = Vec::new();
    for (i, e) in corpus.iter().enumerate() {
        rec.set_op(i as u32);
        outs.push(match e.target {
            Target::Device(d) => layers::shadow_single(&mut rec, &e.spec, d, e.streams)?,
            Target::Cluster(c) => layers::shadow_cluster(&mut rec, &e.spec, c)?,
        });
    }
    Ok((rec, outs, start.elapsed().as_secs_f64()))
}

/// The traced run of a batch workload: one CLI round for the per-entry
/// rows, then the shadow pipeline with spans, then once without.
fn traced(
    workload: &str,
    corpus: &[Entry],
    opts: &Opts,
    result: &mut RunResult,
) -> Result<(), String> {
    let gpuflow = opts.gpuflow.as_path();
    let info = ["info".to_string(), "fig3".to_string()];
    let spawns: Vec<f64> = (0..5).map(|_| run_child(gpuflow, &info).wall_ms).collect();
    result.set("cli.spawn_ms", stats::median(&spawns));

    let rounds = run_rounds(gpuflow, corpus, opts.seed, 0.0, 1, result);
    let mut corpus_ms = 0.0;
    let mut plan_ms = 0.0;
    for (i, (e, walls)) in corpus.iter().zip(&rounds.walls).enumerate() {
        let run_ms = stats::median(walls);
        result.set(&format!("cli.run_ms.e{:02}", i + 1), run_ms);
        corpus_ms += run_ms;
        let mut plan = vec!["plan".to_string(), e.spec.clone()];
        plan.extend(e.target_args());
        let child = run_child(gpuflow, &plan);
        result.attempted += 1;
        match child.stdout {
            Ok(_) => plan_ms += child.wall_ms,
            Err(err) => {
                eprintln!("FAILED {err}");
                result.failed += 1;
            }
        }
    }
    if corpus_ms > 0.0 {
        result.set("cli.plan_share", plan_ms / corpus_ms);
    }

    // Up to three traced repetitions, fewer when one alone outlasts the
    // run's seconds; then one untraced for the overhead ratio.
    let mut reps = Vec::new();
    let mut traced_wall = Vec::new();
    let start = Instant::now();
    while reps.len() < 3 && (reps.is_empty() || start.elapsed().as_secs_f64() < opts.seconds) {
        let (rec, outs, wall) = shadow_rep(corpus, true)?;
        for ((e, out), doc) in corpus.iter().zip(&outs).zip(&rounds.docs) {
            let real = doc.map(|d| (d.makespan_ns, d.moved_bytes));
            if real != Some((out.makespan_ns, out.moved_bytes)) {
                result.violations.push(format!(
                    "{}: shadow pipeline ({out:?}) does not reconcile with the CLI ({doc:?})",
                    e.id
                ));
            }
        }
        reps.push(rec);
        traced_wall.push(wall);
        if opts.smoke {
            break;
        }
    }
    let (_, _, untraced_wall) = shadow_rep(corpus, false)?;
    let last = reps.last_mut().expect("at least one traced repetition");
    last.set_op(corpus.len() as u32);
    layers::probes(last)?;
    result.set("trace.shadow_reps", reps.len() as f64);
    result.set(
        "trace.overhead_ratio",
        stats::median(&traced_wall) / untraced_wall,
    );
    result.set_layer_metrics(&reps);
    match result.values.get("core.pass_sum_ratio") {
        Some(r) if !(0.9..=1.1).contains(r) => result.violations.push(format!(
            "core.pass_sum_ratio {r:.3} outside [0.9, 1.1]: the pass spans do not explain Framework::compile"
        )),
        _ => {}
    }
    crate::write_trace(workload, &reps[reps.len() - 1], opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_layout_and_call() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
        // No child waited for yet, or some: either way the call succeeds.
        let _ = children_max_rss_kb();
    }

    #[test]
    fn run_documents_are_checked() {
        let entry = &corpus::batch_corpus("batch_spill", 1)[0];
        let doc = |peak: u64, bytes_in: u64| {
            format!(
                "{{\"plan\":{{\"bytes_in\":{bytes_in},\"bytes_out\":5,\"peak_bytes\":{peak}}},\"profile\":{{\"makespan_ns\":7}}}}"
            )
        };
        let image = 4 * 8500 * 8500;
        let ok = check_run_doc(entry, &doc(700 << 20, image)).unwrap();
        assert_eq!(
            ok,
            RunDoc {
                makespan_ns: 7,
                moved_bytes: image + 5
            }
        );
        assert!(check_run_doc(entry, &doc(800 << 20, image)).is_err());
        assert!(check_run_doc(entry, &doc(700 << 20, image - 1)).is_err());
        assert!(check_run_doc(entry, "not json").is_err());
        assert!(check_run_doc(entry, "{}").is_err());
    }
}
