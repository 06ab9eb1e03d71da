//! The serve workloads: a child `gpuflow serve` on an ephemeral port and a
//! closed loop of two connections pulling from one seeded sequence.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gpuflow_minijson::Value;

use crate::batch::run_child;
use crate::corpus::{self, Class, Sequence, ServeMix, Target};
use crate::layers;
use crate::report::RunResult;
use crate::stats;
use crate::trace::Recorder;
use crate::wire::{drive, parse_answer, Answer, Conn, Sample};
use crate::Opts;

/// `nproc` is 2: two connections keep the daemon busy without the load
/// generator competing with it for a core.
const CONNECTIONS: u32 = 2;

/// The address the daemon announced on its standard error, once the line
/// is complete. The daemon's standard error is unbuffered: `eprintln!`
/// reaches the log as two writes, the prefix and then the address with
/// its newline, so a poll between them sees a line without an address.
/// Only a line that has its newline and parses as a socket address counts.
fn listening_address(log: &str) -> Option<String> {
    log.split_inclusive('\n')
        .filter_map(|l| l.strip_suffix('\n'))
        .filter_map(|l| l.strip_prefix("gpuflow-serve listening on "))
        .map(str::trim)
        .find(|a| a.parse::<SocketAddr>().is_ok())
        .map(str::to_string)
}

/// A running `gpuflow serve` child.
struct Daemon {
    child: std::process::Child,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Start the daemon of `mix` with its files under `dir`, and wait for
    /// the bound address on its standard error.
    fn spawn(gpuflow: &Path, mix: &ServeMix, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log = dir.join("daemon.stderr");
        let stderr = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(gpuflow);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        match mix.daemon_target {
            Target::Device(d) => cmd.args(["--device", d]),
            Target::Cluster(c) => cmd.args(["--devices", c]),
        };
        if mix.journal {
            cmd.arg("--cache-path").arg(dir.join("plans.journal"));
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", gpuflow.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            if let Some(addr) = listening_address(&text) {
                daemon.addr = addr;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited {status} before listening: {text}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not report its address within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A numeric field of `/proc/<pid>/status` (kB for the Vm* fields).
    fn proc_status(&self, key: &str) -> Option<f64> {
        let text = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
    }

    fn journal_bytes(&self) -> f64 {
        std::fs::metadata(self.dir.join("plans.journal")).map_or(0.0, |m| m.len() as f64)
    }

    /// One request on a fresh connection.
    fn ask(&self, line: &str) -> Result<Value, String> {
        let mut conn = Conn::connect(&self.addr).map_err(|e| e.to_string())?;
        let (text, _) = conn.request(line).map_err(|e| e.to_string())?;
        gpuflow_minijson::parse(&text).map_err(|e| e.to_string())
    }

    /// Ask the daemon to drain and wait until it has exited.
    fn shutdown(mut self) -> Result<(), String> {
        self.ask(r#"{"op":"shutdown"}"#)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("daemon did not exit within 10 s of shutdown".into())
    }
}

impl Drop for Daemon {
    /// No run leaves a daemon behind, whatever path it took out.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What the daemon said about one catalogue spec in set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Warm {
    graph_hash: u64,
    sim_time_bits: u64,
}

/// Compile and run every catalogue spec once, over `CONNECTIONS`
/// connections; afterwards every catalogue request is an exact hit.
fn prewarm(addr: &str, catalogue: &[String]) -> Result<Vec<Warm>, String> {
    let per_conn = catalogue.len().div_ceil(CONNECTIONS as usize);
    let parts: Vec<Result<Vec<Warm>, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = catalogue
            .chunks(per_conn)
            .map(|specs| {
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
                    let mut out = Vec::new();
                    for spec in specs {
                        let mut answers = Vec::new();
                        for op in ["compile", "run"] {
                            let line = format!("{{\"op\":\"{op}\",\"template\":\"{spec}\"}}");
                            let (text, _) = conn.request(&line).map_err(|e| e.to_string())?;
                            answers.push(parse_answer(&text));
                        }
                        match (&answers[0], &answers[1]) {
                            (
                                Answer::Ok { graph_hash: a, .. },
                                Answer::Ok {
                                    graph_hash: b,
                                    sim_time_bits: Some(sim),
                                },
                            ) if a == b => out.push(Warm {
                                graph_hash: *a,
                                sim_time_bits: *sim,
                            }),
                            other => return Err(format!("prewarm of {spec}: {other:?}")),
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("prewarm worker does not panic"))
            .collect()
    });
    let mut warm = Vec::new();
    for part in parts {
        warm.extend(part?);
    }
    Ok(warm)
}

/// `stats` counters and phase percentiles, flattened.
fn daemon_stats(daemon: &Daemon) -> Result<BTreeMap<String, f64>, String> {
    let doc = daemon.ask(r#"{"op":"stats"}"#)?;
    let mut out = BTreeMap::new();
    if let Some(counters) = doc["metrics"]["counters"].as_object() {
        for (name, v) in counters.iter() {
            out.insert(name.to_string(), v.as_f64().unwrap_or(0.0));
        }
    }
    if let Some(phases) = doc["phases"].as_object() {
        for (phase, summary) in phases.iter() {
            for q in ["p50", "p99"] {
                if let Some(v) = summary[q].as_f64() {
                    out.insert(format!("serve.phase.{phase}_us_{q}"), v);
                }
            }
        }
    }
    Ok(out)
}

/// The window's samples: everything that became due after the warm-up.
struct Window<'a> {
    samples: Vec<&'a Sample>,
    seconds: f64,
    completed_ok: usize,
}

fn latencies(samples: &[&Sample], class: Option<Class>) -> Vec<f64> {
    let mut v: Vec<f64> = samples
        .iter()
        .filter(|s| class.is_none_or(|c| s.class == c))
        .map(|s| s.latency_ms())
        .collect();
    stats::sort(&mut v);
    v
}

/// Flag a percentile the sample does not support.
fn unsupported(n: usize, p: f64) -> &'static str {
    if stats::supported(n, p) {
        ""
    } else {
        " (fewer than ten: not supported)"
    }
}

/// Set-up, several times so its reported time is a median: spawn, parse
/// the port, prewarm the catalogue. The last daemon is kept.
fn set_up(
    mix: &ServeMix,
    scratch: &Path,
    opts: &Opts,
    result: &mut RunResult,
) -> Result<(Daemon, Vec<Warm>, f64), String> {
    let mut setups = Vec::new();
    let mut kept: Option<(Daemon, Vec<Warm>)> = None;
    for rep in 0..opts.setup_reps(3) {
        if let Some((previous, _)) = kept.take() {
            previous.shutdown()?;
        }
        let start = Instant::now();
        let daemon = Daemon::spawn(&opts.gpuflow, mix, &scratch.join(format!("daemon{rep}")))?;
        let warm = prewarm(&daemon.addr, &mix.catalogue)?;
        setups.push(start.elapsed().as_secs_f64());
        result.attempted += 2 * mix.catalogue.len() as u64;
        kept = Some((daemon, warm));
    }
    let (daemon, warm) = kept.expect("at least one set-up repetition");
    Ok((daemon, warm, stats::median(&setups)))
}

/// Per-request invariants: every answer ok, and for a catalogue spec the
/// `graph_hash` and `sim_time_s` the daemon gave in set-up.
fn check_answers(samples: &[Sample], mix: &ServeMix, warm: &[Warm], result: &mut RunResult) {
    let by_spec: HashMap<&str, Warm> = mix
        .catalogue
        .iter()
        .map(String::as_str)
        .zip(warm.iter().copied())
        .collect();
    for s in samples {
        let problem = match (&s.answer, by_spec.get(s.spec.as_str())) {
            (Answer::Failed(why), _) => Some(why.clone()),
            (
                Answer::Ok {
                    graph_hash,
                    sim_time_bits,
                },
                Some(w),
            ) => (*graph_hash != w.graph_hash
                || sim_time_bits.is_some_and(|b| b != w.sim_time_bits))
            .then(|| format!("{}: answer differs from the set-up answer", s.spec)),
            (Answer::Ok { .. }, None) => None,
        };
        if let Some(why) = problem {
            eprintln!("FAILED {why}");
            result.failed += 1;
        }
    }
}

/// The CLI plans every catalogue spec on the daemon's cluster: the
/// daemon's simulated makespan must be the CLI's. The CLI document also
/// carries the bytes the plan moves, which the wire does not. Returns
/// (Σ makespan in s, Σ bytes moved).
fn cross_check_cli(
    mix: &ServeMix,
    warm: &[Warm],
    opts: &Opts,
    result: &mut RunResult,
) -> (f64, u64) {
    let (mut makespan_s, mut moved_bytes) = (0.0, 0u64);
    for (spec, w) in mix.catalogue.iter().zip(warm) {
        let args = ["run", spec, "--devices", &mix.cluster_spec(), "--json"].map(String::from);
        result.attempted += 1;
        let daemon = f64::from_bits(w.sim_time_bits);
        let checked = run_child(&opts.gpuflow, &args).stdout.and_then(|out| {
            let doc = gpuflow_minijson::parse(&out).map_err(|e| e.to_string())?;
            let cli = doc["makespan_s"].as_f64().ok_or("no makespan_s")?;
            // Bit-identical on a real cluster; a cluster of one sums in
            // another order and differs in the last place.
            if (cli - daemon).abs() > 1e-9 * cli.abs() {
                return Err(format!(
                    "{spec}: daemon sim_time_s {daemon} differs from the CLI's {cli}"
                ));
            }
            let plan = &doc["plan"];
            Ok(plan["bytes_in"].as_u64().ok_or("no bytes_in")?
                + plan["bytes_out"].as_u64().ok_or("no bytes_out")?)
        });
        match checked {
            Ok(bytes) => {
                makespan_s += daemon;
                moved_bytes += bytes;
            }
            Err(e) => {
                eprintln!("FAILED {e}");
                result.failed += 1;
            }
        }
    }
    (makespan_s, moved_bytes)
}

/// Print the realised share of each class and require that no class
/// boundary lies within 2 points of p50 or p95.
fn realised_shares(workload: &str, mix: &ServeMix, window: &Window) -> Result<(), String> {
    let n = window.samples.len().max(1) as f64;
    let mut realised = Vec::new();
    for (class, nominal) in mix.shares() {
        let count = window.samples.iter().filter(|s| s.class == class).count();
        let share = 100.0 * count as f64 / n;
        println!(
            "{workload}: class {:<12} {count:>6} requests, {share:5.1} % (nominal {nominal:.1} %)",
            class.name()
        );
        realised.push((class, share));
    }
    corpus::boundaries_clear(&realised)
}

/// Run one serve workload.
pub fn run(workload: &str, opts: &Opts) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let mix = corpus::serve_mix(workload, opts.seed);
    corpus::boundaries_clear(&mix.shares())?;
    let scratch =
        opts.out_dir
            .join("tmp")
            .join(format!("{workload}-{}-{}", std::process::id(), opts.seed));
    let _ = std::fs::remove_dir_all(&scratch);

    let (daemon, warm, setup_s) = set_up(&mix, &scratch, opts, &mut result)?;
    let rss_after_setup = daemon.proc_status("VmRSS").unwrap_or(0.0);
    let stats_before = daemon_stats(&daemon)?;

    // Warm-up and window are one continuous drive; only requests that
    // became due after the warm-up are measured.
    let warmup = opts.warmup_seconds();
    let end = Duration::from_secs_f64(warmup + opts.seconds);
    let sequence = Mutex::new(Sequence::new(&mix, opts.seed));
    let samples = drive(&daemon.addr, &sequence, CONNECTIONS, end)
        .map_err(|e| format!("load generator: {e}"))?;
    result.attempted += samples.len() as u64;
    let in_window: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.due.as_secs_f64() >= warmup)
        .collect();
    let window = Window {
        completed_ok: in_window
            .iter()
            .filter(|s| s.received <= end && matches!(s.answer, Answer::Ok { .. }))
            .count(),
        samples: in_window,
        seconds: opts.seconds,
    };
    check_answers(&samples, &mix, &warm, &mut result);

    let stats_after = daemon_stats(&daemon)?;
    let peak_rss_kb = daemon.proc_status("VmHWM").unwrap_or(0.0);
    let rss_end = daemon.proc_status("VmRSS").unwrap_or(0.0);
    let threads = daemon.proc_status("Threads").unwrap_or(0.0);
    let journal_bytes = daemon.journal_bytes();
    daemon.shutdown()?;
    result.attempted += 3;

    // The daemon's own counters must describe the workload the sequence
    // describes: every hot request an exact hit, every cold one not.
    let delta = |name: &str| {
        stats_after.get(name).copied().unwrap_or(0.0)
            - stats_before.get(name).copied().unwrap_or(0.0)
    };
    let probes =
        delta("serve.cache_hits") + delta("serve.cache_incremental") + delta("serve.cache_misses");
    let hit_ratio = delta("serve.cache_hits") / probes.max(1.0);
    let hot_share: f64 = mix
        .shares()
        .iter()
        .filter(|(c, _)| matches!(c, Class::Hit | Class::Run))
        .map(|&(_, p)| p / 100.0)
        .sum();
    println!(
        "{workload}: daemon hit ratio {hit_ratio:.4} (hot share of the sequence {hot_share:.4})"
    );
    // (A smoke window holds barely one block of the sequence; its shares
    // are printed, not judged.)
    if !opts.smoke && (hit_ratio - hot_share).abs() > 0.02 {
        result.violations.push(format!(
            "daemon hit ratio {hit_ratio:.3} is not the sequence's hot share {hot_share:.3}: \
             the workload is not the one described"
        ));
    }
    let (makespan_s, moved_bytes) = cross_check_cli(&mix, &warm, opts, &mut result);
    if let Err(e) = realised_shares(workload, &mix, &window) {
        if !opts.smoke {
            result.violations.push(e);
        }
    }

    let all = latencies(&window.samples, None);
    println!(
        "{workload}: {} requests in the {:.0} s window on {CONNECTIONS} connections; \
         p95 has {} samples beyond it{}; diagnostic p99 = {:.3} ms with {} beyond{}",
        all.len(),
        window.seconds,
        stats::beyond(all.len(), 95.0),
        unsupported(all.len(), 95.0),
        stats::percentile(&all, 99.0),
        stats::beyond(all.len(), 99.0),
        unsupported(all.len(), 99.0),
    );
    if opts.trace {
        for name in [
            "serve.cache_hits",
            "serve.cache_memo_hits",
            "serve.cache_incremental",
            "serve.cache_misses",
            "serve.cache_evictions",
        ] {
            result.set(name, delta(name));
        }
        result.set("serve.hit_ratio", hit_ratio);
        let requests = samples.len().max(1) as f64;
        result.set(
            "serve.rss_kb_per_kreq",
            (rss_end - rss_after_setup).max(0.0) / (requests / 1000.0),
        );
        result.set("serve.threads", threads);
        result.set("serve.journal_bytes", journal_bytes);
        traced(workload, &mix, &window, &stats_after, opts, &mut result)?;
    } else {
        // A class's time is its lower quartile: like the fastest round of
        // a batch entry it shrugs off the sandbox's slow spells, and unlike
        // a minimum it ignores the odd response that skips the 40 ms
        // delayed-ACK wait (3 ms where its class takes 44).
        let class_time = |&(class, _): &(Class, f64)| {
            stats::percentile(&latencies(&window.samples, Some(class)), 25.0)
        };
        result.set("setup_s", setup_s);
        result.set("corpus_ms", mix.shares().iter().map(class_time).sum());
        result.set("ops_per_s", window.completed_ok as f64 / window.seconds);
        result.set("latency_p50_ms", stats::percentile(&all, 50.0));
        result.set("latency_p95_ms", stats::percentile(&all, 95.0));
        result.set("peak_rss_mb", peak_rss_kb / 1024.0);
        result.set("sim_makespan_s", makespan_s);
        result.set("moved_mb", moved_bytes as f64 / 1e6);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(result)
}

/// Span names of the request timeline by class (in `Class` declaration
/// order): `wire.<class>` as the client saw the request, `inproc.<class>`
/// through the request handler without a socket.
const WIRE_SPANS: [&str; 5] = [
    "wire.hit",
    "wire.run",
    "wire.incremental",
    "wire.small",
    "wire.miss",
];
const INPROC_SPANS: [&str; 5] = [
    "inproc.hit",
    "inproc.run",
    "inproc.incremental",
    "inproc.small",
    "inproc.miss",
];

/// The traced half of a serve run: client-side classes, the daemon's own
/// histograms and counters, an in-process replay of the same sequence,
/// and the shadow pipeline over the catalogue.
fn traced(
    workload: &str,
    mix: &ServeMix,
    window: &Window,
    after: &BTreeMap<String, f64>,
    opts: &Opts,
    result: &mut RunResult,
) -> Result<(), String> {
    let mut rec = Recorder::new(true);
    for (i, s) in window.samples.iter().enumerate() {
        let (due, sent, received) = (
            s.due.as_nanos() as u64,
            s.sent.as_nanos() as u64,
            s.received.as_nanos() as u64,
        );
        rec.push(WIRE_SPANS[s.class as usize], due, received, i as u32);
        rec.push("wire.write", due, sent, i as u32);
    }
    for &(class, _) in &mix.shares() {
        let v = latencies(&window.samples, Some(class));
        result.set(
            &format!("serve.{}_ms_p50", class.name()),
            stats::percentile(&v, 50.0),
        );
        if class == Class::Hit {
            result.set("serve.hit_ms_p95", stats::percentile(&v, 95.0));
        }
    }
    let all = latencies(&window.samples, None);
    result.set("serve.client_p99_ms", stats::percentile(&all, 99.0));

    for (name, &v) in after {
        if name.starts_with("serve.phase.") && crate::report::metric(name).is_some() {
            result.set(name, v);
        }
    }
    let total_p50_us = after
        .get("serve.phase.total_us_p50")
        .copied()
        .unwrap_or(0.0);
    result.set(
        "serve.wire_gap_ms_p50",
        stats::percentile(&all, 50.0) - total_p50_us / 1e3,
    );

    // The same sequence through the request handler, no socket.
    let journal = mix.journal.then(|| {
        opts.out_dir
            .join("tmp")
            .join(format!("{workload}-{}-inproc.journal", std::process::id()))
    });
    let server = layers::Inproc::new(&mix.cluster_spec(), journal.clone())?;
    for spec in &mix.catalogue {
        for op in ["compile", "run"] {
            server.handle(&format!("{{\"op\":\"{op}\",\"template\":\"{spec}\"}}"));
        }
    }
    let mut sequence = Sequence::new(mix, opts.seed);
    let mut hits_us = Vec::new();
    let replay_start = Instant::now();
    let base = window.samples.len() as u32;
    for i in 0..2000u32 {
        if replay_start.elapsed().as_secs_f64() > opts.seconds / 3.0 {
            break;
        }
        let req = sequence.next_req();
        rec.set_op(base + i);
        let t = rec.begin(INPROC_SPANS[req.class as usize]);
        let started = Instant::now();
        let response = server.handle(&req.line());
        let us = started.elapsed().as_secs_f64() * 1e6;
        rec.end(t);
        result.attempted += 1;
        if matches!(parse_answer(&response), Answer::Failed(_)) {
            eprintln!("FAILED in-process {}: {response}", req.line());
            result.failed += 1;
        }
        if req.class == Class::Hit {
            hits_us.push(us);
        }
    }
    stats::sort(&mut hits_us);
    result.set("serve.inproc_hit_us_p50", stats::percentile(&hits_us, 50.0));
    if let Some(path) = journal {
        let _ = std::fs::remove_file(path);
    }

    // What compiling the catalogue costs, layer by layer.
    let mut shadow = Recorder::new(true);
    for (i, spec) in mix.catalogue.iter().enumerate() {
        shadow.set_op(i as u32);
        layers::shadow_cluster(&mut shadow, spec, &mix.cluster_spec())?;
    }
    shadow.set_op(mix.catalogue.len() as u32);
    layers::probes(&mut shadow)?;
    result.set("trace.shadow_reps", 1.0);
    result.set_layer_metrics(std::slice::from_ref(&shadow));
    // The two recorders have separate clocks; the written trace is the
    // request timeline, which is what a serve workload is about.
    crate::write_trace(workload, &rec, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_complete_announcement_gives_an_address() {
        // What a poll between the daemon's two writes reads.
        assert_eq!(listening_address("gpuflow-serve listening on "), None);
        assert_eq!(
            listening_address("gpuflow-serve listening on 127.0.0.1:4"),
            None
        );
        assert_eq!(listening_address("gpuflow-serve listening on \n"), None);
        assert_eq!(
            listening_address("warning: x\ngpuflow-serve listening on 127.0.0.1:40123\n"),
            Some("127.0.0.1:40123".to_string())
        );
    }
}
