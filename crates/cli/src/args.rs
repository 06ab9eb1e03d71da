//! Argument parsing (hand-rolled; the CLI surface is small and stable).

use gpuflow_chaos::FaultSpec;
use gpuflow_core::{EvictionPolicy, OpScheduler};
use gpuflow_serve::Builtin;

/// Where the template comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A `.gfg` file on disk.
    File(String),
    /// A builtin template (`fig3`, `edge:…`, `cnn-small:…`, `cnn-large:…`).
    Builtin(Builtin),
}

impl Source {
    /// Parse a source token.
    pub fn parse(tok: &str) -> Result<Source, String> {
        if let Some(builtin) = Builtin::parse(tok)? {
            return Ok(Source::Builtin(builtin));
        }
        if tok.ends_with(".gfg") || tok.contains('/') {
            return Ok(Source::File(tok.to_string()));
        }
        Err(format!(
            "unrecognized source '{tok}' (not a .gfg path or builtin)"
        ))
    }
}

/// How documents name the template: the path as given, or the builtin's
/// spec (which [`Source::parse`] reads back as the same source).
impl std::fmt::Display for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Source::File(path) => f.write_str(path),
            Source::Builtin(builtin) => builtin.fmt(f),
        }
    }
}

/// Which device to target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceArg {
    /// NVIDIA Tesla C870 (1.5 GB).
    TeslaC870,
    /// NVIDIA GeForce 8800 GTX (768 MB).
    Geforce8800,
    /// The larger-memory Fermi-class profile (Tesla C2050, 3 GB).
    Modern,
    /// A C870-like device with a custom memory size in MiB.
    Custom(u64),
}

impl DeviceArg {
    /// Parse a `--device` value.
    pub fn parse(tok: &str) -> Result<DeviceArg, String> {
        match tok {
            "c870" | "tesla" => Ok(DeviceArg::TeslaC870),
            "8800gtx" | "8800" | "geforce" => Ok(DeviceArg::Geforce8800),
            "modern" | "c2050" => Ok(DeviceArg::Modern),
            other => {
                if let Some(mib) = other.strip_prefix("custom:") {
                    let m: u64 = mib.parse().map_err(|_| format!("bad memory '{mib}'"))?;
                    if m == 0 {
                        return Err("custom memory must be > 0 MiB".into());
                    }
                    Ok(DeviceArg::Custom(m))
                } else {
                    Err(format!("unknown device '{other}'"))
                }
            }
        }
    }

    /// Resolve to a simulator device spec.
    pub fn spec(self) -> gpuflow_sim::DeviceSpec {
        match self {
            DeviceArg::TeslaC870 => gpuflow_sim::device::tesla_c870(),
            DeviceArg::Geforce8800 => gpuflow_sim::device::geforce_8800_gtx(),
            DeviceArg::Modern => gpuflow_sim::device::modern(),
            DeviceArg::Custom(mib) => gpuflow_sim::device::tesla_c870().with_memory(mib << 20),
        }
    }
}

/// A fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `gpuflow info <source>`
    Info {
        /// Template source.
        source: Source,
    },
    /// `gpuflow plan <source> ...`
    Plan {
        /// Template source.
        source: Source,
        /// Target device.
        device: DeviceArg,
        /// Fragmentation margin.
        margin: f64,
        /// Operator scheduler.
        scheduler: OpScheduler,
        /// Eviction policy.
        eviction: EvictionPolicy,
        /// Use the exact PB scheduler.
        exact: bool,
        /// Conflict budget for the exact solver (implies `exact`).
        exact_budget: Option<u64>,
        /// Offload-unit cap for the exact solver (implies `exact`).
        exact_max_ops: Option<usize>,
        /// Print the full step listing.
        render: bool,
        /// Concurrent compute streams for the stream-aware scheduler
        /// (1 = the classic serial launch chain).
        streams: usize,
        /// Multi-device cluster spec (`--devices gtx8800x4`); overrides
        /// `--device` and switches to the sharded multi-GPU pipeline.
        devices: Option<String>,
        /// Write a Chrome-trace JSON of the compilation here.
        trace: Option<String>,
    },
    /// `gpuflow run <source> ...`
    Run {
        /// Template source.
        source: Source,
        /// Target device.
        device: DeviceArg,
        /// Use the exact PB scheduler for the plan.
        exact: bool,
        /// Conflict budget for the exact solver (implies `exact`).
        exact_budget: Option<u64>,
        /// Offload-unit cap for the exact solver (implies `exact`).
        exact_max_ops: Option<usize>,
        /// Execute kernels on synthetic data and verify vs the reference.
        functional: bool,
        /// Also report the overlapped (async-copy) makespan.
        overlap: bool,
        /// Print an ASCII Gantt chart of the overlapped execution.
        gantt: bool,
        /// Emit the outcome as machine-readable JSON instead of text.
        json: bool,
        /// Concurrent compute streams for the stream-aware scheduler.
        streams: usize,
        /// Multi-device cluster spec.
        devices: Option<String>,
        /// Write a Chrome-trace JSON of the compile + simulation here.
        trace: Option<String>,
        /// Inject faults from this spec and run the resilient executor.
        faults: Option<FaultSpec>,
    },
    /// `gpuflow check <source> ...`
    Check {
        /// Template source.
        source: Source,
        /// Target device (memory bound for footprint/capacity checks).
        device: DeviceArg,
        /// Emit the diagnostic report as JSON instead of text.
        json: bool,
        /// Print the happens-before concurrency summary (lanes and edges).
        hazards: bool,
        /// Concurrent compute streams for the stream-aware scheduler.
        streams: usize,
        /// Multi-device cluster spec.
        devices: Option<String>,
        /// Write a Chrome-trace JSON of the compilation here.
        trace: Option<String>,
    },
    /// `gpuflow trace <source> ...` — compile, simulate, export a
    /// Chrome-trace JSON, then re-parse the export and reconcile its
    /// summed counters against the plan's canonical statistics.
    Trace {
        /// Template source.
        source: Source,
        /// Target device.
        device: DeviceArg,
        /// Fragmentation margin.
        margin: f64,
        /// Use the exact PB scheduler.
        exact: bool,
        /// Conflict budget for the exact solver (implies `exact`).
        exact_budget: Option<u64>,
        /// Offload-unit cap for the exact solver (implies `exact`).
        exact_max_ops: Option<usize>,
        /// Output path for the Chrome-trace JSON.
        out: String,
        /// Concurrent compute streams for the stream-aware scheduler.
        streams: usize,
        /// Multi-device cluster spec.
        devices: Option<String>,
    },
    /// `gpuflow chaos [<source>] ...` — seeded fault-injection sweeps
    /// over the resilient executors, reporting recovery rate and
    /// recovery-overhead percentiles.
    Chaos {
        /// Template source; omitted with `--smoke` (the smoke suite
        /// sweeps the built-in benchmark templates).
        source: Option<Source>,
        /// Target device for single-device trials.
        device: DeviceArg,
        /// Multi-device cluster spec.
        devices: Option<String>,
        /// Fault spec template; the seed is re-derived per trial.
        faults: Option<FaultSpec>,
        /// Number of seeds to sweep.
        seeds: u64,
        /// Run the fixed CI smoke suite (device loss at the midpoint plus
        /// transient sweeps over the benchmark templates) instead.
        smoke: bool,
        /// Emit the sweep report as JSON.
        json: bool,
    },
    /// `gpuflow profile [<source>] ...` — explain a makespan: critical
    /// path over the happens-before DAG, every nanosecond attributed to
    /// a bottleneck taxonomy, and first-order what-if estimates.
    Profile {
        /// Template source; omitted with `--smoke` (the smoke suite
        /// reconciles the built-in benchmark templates).
        source: Option<Source>,
        /// Target device.
        device: DeviceArg,
        /// Concurrent compute streams for the stream-aware scheduler.
        streams: usize,
        /// Multi-device cluster spec; overrides `--device`.
        devices: Option<String>,
        /// Emit the report as machine-readable JSON.
        json: bool,
        /// Run the CI reconciliation gate (every bundled template ×
        /// serial / streams=2 / c870x2, zero unattributed nanoseconds).
        smoke: bool,
        /// Ablation: keep eager `Free` placement in streamed plans
        /// (disables the free-deferral pass, re-exposing the
        /// free-horizon stall for the profiler to name).
        no_defer_frees: bool,
        /// Write a Chrome-trace JSON with the profile track here.
        trace: Option<String>,
    },
    /// `gpuflow serve ...` — run the planning-and-execution daemon (or
    /// its CI gates with `--smoke` / `--soak`). Takes no `<source>`:
    /// templates arrive in requests.
    Serve {
        /// Listen address (`host:port`; port 0 binds an ephemeral port,
        /// printed to stderr at startup).
        addr: String,
        /// Multi-device cluster spec; overrides `--device`.
        devices: Option<String>,
        /// Single target device when no cluster is given.
        device: DeviceArg,
        /// Default compile margin (requests may override).
        margin: f64,
        /// Plan-cache capacity in entries.
        cache_capacity: usize,
        /// Journal path for crash-safe plan-cache persistence; a warm
        /// restart replays it into the memo and LRU.
        cache_path: Option<String>,
        /// Server-wide default deadline (ms) applied to requests that
        /// carry none; requests may still set their own.
        deadline_ms: Option<u64>,
        /// Run the deterministic serving smoke gate instead of a daemon.
        smoke: bool,
        /// Run the chaos-faulted serving soak instead of a daemon.
        soak: bool,
    },
    /// `gpuflow client ...` — send one request line to a running daemon
    /// and print the response.
    Client {
        /// Daemon address (`host:port`).
        addr: String,
        /// The request JSON line to send.
        send: String,
        /// Pretty-print the response instead of the raw wire line.
        json: bool,
        /// Fetch the Prometheus-style text exposition (phase latency
        /// histograms + counters) and print it raw.
        metrics: bool,
        /// Retry budget for retryable rejections (`backpressure` with
        /// `retry:true`) and transport errors; 0 sends exactly once.
        retries: u32,
        /// Wall-clock cap (ms) across all retry attempts.
        retry_budget_ms: u64,
        /// Seed for the deterministic backoff jitter.
        retry_seed: u64,
    },
    /// `gpuflow emit <source> ...`
    Emit {
        /// Template source.
        source: Source,
        /// Target device.
        device: DeviceArg,
        /// Write CUDA-style C here.
        cuda: Option<String>,
        /// Write the JSON plan here.
        json: Option<String>,
        /// Write Graphviz DOT of the (split) graph here.
        dot: Option<String>,
        /// Multi-device cluster spec (JSON emission only).
        devices: Option<String>,
    },
}

fn parse_scheduler(tok: &str) -> Result<OpScheduler, String> {
    match tok {
        "dfs" | "demand-dfs" => Ok(OpScheduler::DepthFirst),
        "source-dfs" => Ok(OpScheduler::SourceDepthFirst),
        "bfs" => Ok(OpScheduler::BreadthFirst),
        "insertion" => Ok(OpScheduler::InsertionOrder),
        other => Err(format!("unknown scheduler '{other}'")),
    }
}

fn parse_eviction(tok: &str) -> Result<EvictionPolicy, String> {
    match tok {
        "belady" => Ok(EvictionPolicy::Belady),
        "latest" => Ok(EvictionPolicy::LatestUse),
        "lru" => Ok(EvictionPolicy::Lru),
        "fifo" => Ok(EvictionPolicy::Fifo),
        other => Err(format!("unknown eviction policy '{other}'")),
    }
}

/// The space-separated flags `verb` reads, or `None` for no verb. Any
/// other flag is an `unknown flag` error, so no verb silently ignores one.
fn verb_flags(verb: &str) -> Option<&'static str> {
    Some(match verb {
        "info" => "",
        "plan" => {
            "--device --devices --margin --scheduler --eviction --exact --exact-budget \
             --exact-max-ops --render --streams --trace"
        }
        "run" => {
            "--device --devices --exact --exact-budget --exact-max-ops --functional \
             --overlap --gantt --json --streams --trace --faults"
        }
        "check" => "--device --devices --json --hazards --streams --trace",
        "trace" => {
            "--device --devices --margin --exact --exact-budget --exact-max-ops \
             --streams --out"
        }
        "chaos" => "--device --devices --faults --seeds --smoke --json",
        "profile" => "--device --devices --streams --json --smoke --no-defer-frees --trace",
        "serve" => {
            "--addr --device --devices --margin --cache-capacity --cache-path \
             --deadline-ms --smoke --soak"
        }
        "client" => "--addr --send --json --metrics --retries --retry-budget-ms --retry-seed",
        "emit" => "--device --devices --cuda --json --dot",
        _ => return None,
    })
}

/// Flags that only mean something for one device: beside `--devices`
/// each is an error, as is `--streams` above 1.
const ONE_DEVICE_FLAGS: &str =
    "--device --exact --exact-budget --exact-max-ops --scheduler --eviction --no-defer-frees --cuda";

impl Command {
    /// Parse argv (program name excluded).
    pub fn parse(argv: &[String]) -> Result<Command, String> {
        let mut it = argv.iter();
        let verb = it.next().ok_or("missing subcommand")?;
        let accepted = verb_flags(verb).ok_or_else(|| format!("unknown subcommand '{verb}'"))?;
        let lists = |list: &str, flag: &str| list.split_whitespace().any(|f| f == flag);
        // `chaos`, `profile`, `serve` and `client` may omit <source>;
        // every other verb requires one.
        let mut source: Option<Source> = None;
        if let Some(tok) = argv.get(1) {
            if !tok.starts_with('-') {
                source = Some(Source::parse(tok)?);
                it.next();
            }
        }

        let mut device = DeviceArg::TeslaC870;
        let mut margin = 0.05f64;
        let mut scheduler = OpScheduler::DepthFirst;
        let mut eviction = EvictionPolicy::Belady;
        let mut exact = false;
        let mut exact_budget: Option<u64> = None;
        let mut exact_max_ops: Option<usize> = None;
        let mut render = false;
        let mut functional = false;
        let mut overlap = false;
        let mut gantt = false;
        let mut cuda = None;
        let mut json = None;
        let mut json_switch = false;
        let mut dot = None;
        let mut devices: Option<String> = None;
        let mut trace: Option<String> = None;
        let mut trace_out: Option<String> = None;
        let mut hazards = false;
        let mut faults: Option<FaultSpec> = None;
        let mut seeds = 8u64;
        let mut smoke = false;
        let mut soak = false;
        let mut addr: Option<String> = None;
        let mut send: Option<String> = None;
        let mut cache_capacity = 64usize;
        let mut cache_path: Option<String> = None;
        let mut deadline_ms: Option<u64> = None;
        let mut retries = 0u32;
        let mut retry_budget_ms = 30_000u64;
        let mut retry_seed = 0x6277_u64;
        let mut streams = 1usize;
        let mut no_defer_frees = false;
        let mut metrics = false;
        let mut one_device_flag: Option<&str> = None;

        let next_value = |it: &mut std::slice::Iter<String>, flag: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        while let Some(flag) = it.next() {
            if !lists(accepted, flag) {
                return Err(format!("unknown flag '{flag}'"));
            }
            if lists(ONE_DEVICE_FLAGS, flag) {
                one_device_flag.get_or_insert(flag);
            }
            match flag.as_str() {
                "--device" => device = DeviceArg::parse(&next_value(&mut it, flag)?)?,
                "--margin" => {
                    let v = next_value(&mut it, flag)?;
                    margin = v.parse().map_err(|_| format!("bad margin '{v}'"))?;
                    // NaN fails `contains` too, so it is rejected here.
                    if !(0.0..1.0).contains(&margin) {
                        return Err(format!("margin '{v}' out of range: must be in [0, 1)"));
                    }
                }
                "--devices" => {
                    let v = next_value(&mut it, flag)?;
                    // Validate eagerly so a typo fails before any planning.
                    gpuflow_multi::parse_cluster(&v)?;
                    devices = Some(v);
                }
                "--scheduler" => scheduler = parse_scheduler(&next_value(&mut it, flag)?)?,
                "--eviction" => eviction = parse_eviction(&next_value(&mut it, flag)?)?,
                "--exact" => exact = true,
                "--exact-budget" => {
                    let v = next_value(&mut it, flag)?;
                    let b: u64 = v
                        .parse()
                        .map_err(|_| format!("bad conflict budget '{v}'"))?;
                    exact_budget = Some(b);
                    exact = true;
                }
                "--exact-max-ops" => {
                    let v = next_value(&mut it, flag)?;
                    let m: usize = v.parse().map_err(|_| format!("bad unit cap '{v}'"))?;
                    if m == 0 {
                        return Err("--exact-max-ops must be > 0".into());
                    }
                    exact_max_ops = Some(m);
                    exact = true;
                }
                "--render" => render = true,
                "--functional" => functional = true,
                "--overlap" => overlap = true,
                "--gantt" => {
                    overlap = true;
                    gantt = true;
                }
                "--cuda" => cuda = Some(next_value(&mut it, flag)?),
                "--faults" => {
                    // Validate eagerly so a typo fails before any planning.
                    faults = Some(FaultSpec::parse(&next_value(&mut it, flag)?)?);
                }
                "--seeds" => {
                    let v = next_value(&mut it, flag)?;
                    seeds = v.parse().map_err(|_| format!("bad seed count '{v}'"))?;
                    if seeds == 0 {
                        return Err("--seeds must be > 0".into());
                    }
                }
                "--smoke" => smoke = true,
                "--soak" => soak = true,
                "--addr" => addr = Some(next_value(&mut it, flag)?),
                "--send" => send = Some(next_value(&mut it, flag)?),
                "--cache-capacity" => {
                    let v = next_value(&mut it, flag)?;
                    cache_capacity = v.parse().map_err(|_| format!("bad cache capacity '{v}'"))?;
                    if cache_capacity == 0 {
                        return Err("--cache-capacity must be > 0".into());
                    }
                }
                "--cache-path" => cache_path = Some(next_value(&mut it, flag)?),
                "--deadline-ms" => {
                    let v = next_value(&mut it, flag)?;
                    let ms: u64 = v.parse().map_err(|_| format!("bad deadline '{v}'"))?;
                    if ms == 0 {
                        return Err("--deadline-ms must be > 0".into());
                    }
                    deadline_ms = Some(ms);
                }
                "--retries" => {
                    let v = next_value(&mut it, flag)?;
                    retries = v.parse().map_err(|_| format!("bad retry count '{v}'"))?;
                }
                "--retry-budget-ms" => {
                    let v = next_value(&mut it, flag)?;
                    retry_budget_ms = v.parse().map_err(|_| format!("bad retry budget '{v}'"))?;
                    if retry_budget_ms == 0 {
                        return Err("--retry-budget-ms must be > 0".into());
                    }
                }
                "--retry-seed" => {
                    let v = next_value(&mut it, flag)?;
                    retry_seed = v.parse().map_err(|_| format!("bad retry seed '{v}'"))?;
                }
                "--streams" => {
                    let v = next_value(&mut it, flag)?;
                    streams = v.parse().map_err(|_| format!("bad stream count '{v}'"))?;
                    if streams == 0 {
                        return Err("--streams must be >= 1".into());
                    }
                }
                "--no-defer-frees" => no_defer_frees = true,
                "--metrics" => metrics = true,
                "--hazards" => hazards = true,
                // `emit --json` takes an output path; everywhere else
                // `--json` is a switch.
                "--json" if verb == "emit" => json = Some(next_value(&mut it, flag)?),
                "--json" => json_switch = true,
                "--dot" => dot = Some(next_value(&mut it, flag)?),
                "--trace" => trace = Some(next_value(&mut it, flag)?),
                "--out" => trace_out = Some(next_value(&mut it, flag)?),
                other => unreachable!("{other} is in a verb's flag table but parses nowhere"),
            }
        }
        // The cluster pipeline shards, schedules and orders its own
        // per-device lanes: one-device knobs have nothing to act on.
        if devices.is_some() {
            if let Some(flag) = one_device_flag {
                return Err(format!("{flag} does not support --devices"));
            }
            if streams > 1 {
                return Err("--streams does not support --devices".into());
            }
        }

        if verb == "chaos" {
            if source.is_none() && !smoke {
                return Err("chaos requires <source> or --smoke".into());
            }
            return Ok(Command::Chaos {
                source,
                device,
                devices,
                faults,
                seeds,
                smoke,
                json: json_switch,
            });
        }
        if verb == "profile" {
            if source.is_none() && !smoke {
                return Err("profile requires <source> or --smoke".into());
            }
            return Ok(Command::Profile {
                source,
                device,
                streams,
                devices,
                json: json_switch,
                smoke,
                no_defer_frees,
                trace,
            });
        }
        if verb == "serve" {
            if source.is_some() {
                return Err("serve takes no <source>; templates arrive in requests".into());
            }
            if smoke && soak {
                return Err("pick one of --smoke or --soak".into());
            }
            return Ok(Command::Serve {
                addr: addr.unwrap_or_else(|| "127.0.0.1:0".to_string()),
                devices,
                device,
                margin,
                cache_capacity,
                cache_path,
                deadline_ms,
                smoke,
                soak,
            });
        }
        if verb == "client" {
            if source.is_some() {
                return Err("client takes no <source>; put the template in --send".into());
            }
            if metrics && send.is_some() {
                return Err("pick one of --metrics or --send".into());
            }
            let send = match send {
                Some(s) => s,
                // `--metrics` is sugar for the metrics op.
                None if metrics => r#"{"op":"metrics"}"#.to_string(),
                None => return Err("client requires --send '<request json>' or --metrics".into()),
            };
            return Ok(Command::Client {
                addr: addr.ok_or("client requires --addr <host:port>")?,
                send,
                json: json_switch,
                metrics,
                retries,
                retry_budget_ms,
                retry_seed,
            });
        }
        let source = source.ok_or("missing <source>")?;
        Ok(match verb.as_str() {
            "info" => Command::Info { source },
            "plan" => Command::Plan {
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
            },
            "run" => Command::Run {
                source,
                device,
                exact,
                exact_budget,
                exact_max_ops,
                functional,
                overlap,
                gantt,
                json: json_switch,
                streams,
                devices,
                trace,
                faults,
            },
            "check" => Command::Check {
                source,
                device,
                json: json_switch,
                hazards,
                streams,
                devices,
                trace,
            },
            "trace" => Command::Trace {
                source,
                device,
                margin,
                exact,
                exact_budget,
                exact_max_ops,
                out: trace_out.unwrap_or_else(|| "trace.json".to_string()),
                streams,
                devices,
            },
            "emit" => {
                if cuda.is_none() && json.is_none() && dot.is_none() {
                    return Err("emit requires --cuda, --json, or --dot".into());
                }
                Command::Emit {
                    source,
                    device,
                    cuda,
                    json,
                    dot,
                    devices,
                }
            }
            other => unreachable!("{other} reads flags but builds no command"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parse_sources() {
        assert_eq!(
            Source::parse("edge:1000x800,k=9,o=8").unwrap(),
            Source::Builtin(Builtin::Edge {
                rows: 1000,
                cols: 800,
                k: 9,
                orientations: 8
            })
        );
        assert_eq!(
            Source::parse("edge:64x64").unwrap(),
            Source::Builtin(Builtin::Edge {
                rows: 64,
                cols: 64,
                k: 16,
                orientations: 4
            })
        );
        assert_eq!(
            Source::parse("cnn-small:480x640").unwrap(),
            Source::Builtin(Builtin::SmallCnn {
                rows: 480,
                cols: 640
            })
        );
        assert_eq!(
            Source::parse("fig3").unwrap(),
            Source::Builtin(Builtin::Fig3)
        );
        assert_eq!(
            Source::parse("templates/edge.gfg").unwrap(),
            Source::File("templates/edge.gfg".into())
        );
        assert!(Source::parse("bogus").is_err());
        assert!(Source::parse("edge:10").is_err());
    }

    #[test]
    fn builtin_parameters_that_cannot_build_are_parse_errors() {
        for (tok, why) in [
            ("edge:64x64,k=5,o=3", "orientations must be even"),
            ("edge:64x64,k=5,o=2000", "got 2000"),
            ("edge:64x64,k=0,o=4", "non-empty"),
            ("edge:64x64,k=99,o=4", "smaller than kernel 99"),
            ("edge:8x64", "smaller than kernel 16"),
            ("cnn-small:16x16", "too small"),
            ("cnn-large:640x47", "too small"),
        ] {
            let err = Source::parse(tok).unwrap_err();
            assert!(err.contains(why), "{tok}: {err}");
        }
        assert!(Source::parse("edge:64x64,k=5,o=254").is_ok());
        assert!(Source::parse("cnn-large:48x48").is_ok());
    }

    #[test]
    fn parse_devices() {
        assert_eq!(DeviceArg::parse("c870").unwrap(), DeviceArg::TeslaC870);
        assert_eq!(DeviceArg::parse("8800gtx").unwrap(), DeviceArg::Geforce8800);
        assert_eq!(DeviceArg::parse("modern").unwrap(), DeviceArg::Modern);
        assert_eq!(
            DeviceArg::parse("custom:256").unwrap(),
            DeviceArg::Custom(256)
        );
        assert!(DeviceArg::parse("custom:0").is_err());
        assert!(DeviceArg::parse("rtx5090").is_err());
        assert_eq!(DeviceArg::Custom(64).spec().memory_bytes, 64 << 20);
        assert_eq!(DeviceArg::Modern.spec().memory_bytes, 3072 << 20);
    }

    #[test]
    fn parse_full_plan_command() {
        let cmd = Command::parse(&argv(
            "plan edge:100x100,k=5,o=4 --device 8800gtx --margin 0.1 --scheduler bfs --eviction lru --render",
        ))
        .unwrap();
        match cmd {
            Command::Plan {
                device,
                margin,
                scheduler,
                eviction,
                exact,
                render,
                ..
            } => {
                assert_eq!(device, DeviceArg::Geforce8800);
                assert!((margin - 0.1).abs() < 1e-12);
                assert_eq!(scheduler, OpScheduler::BreadthFirst);
                assert_eq!(eviction, EvictionPolicy::Lru);
                assert!(!exact);
                assert!(render);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_run_and_emit() {
        assert!(matches!(
            Command::parse(&argv("run fig3 --functional --overlap")).unwrap(),
            Command::Run {
                functional: true,
                overlap: true,
                gantt: false,
                ..
            }
        ));
        // --gantt implies --overlap.
        assert!(matches!(
            Command::parse(&argv("run fig3 --gantt")).unwrap(),
            Command::Run {
                overlap: true,
                gantt: true,
                ..
            }
        ));
        assert!(Command::parse(&argv("emit fig3")).is_err());
        assert!(matches!(
            Command::parse(&argv("emit fig3 --cuda out.cu")).unwrap(),
            Command::Emit { cuda: Some(_), .. }
        ));
    }

    #[test]
    fn parse_check() {
        assert!(matches!(
            Command::parse(&argv("check fig3")).unwrap(),
            Command::Check { json: false, .. }
        ));
        assert!(matches!(
            Command::parse(&argv("check fig3 --json --device custom:2")).unwrap(),
            Command::Check {
                json: true,
                device: DeviceArg::Custom(2),
                ..
            }
        ));
        assert!(matches!(
            Command::parse(&argv("check fig3 --hazards")).unwrap(),
            Command::Check { hazards: true, .. }
        ));
        assert!(matches!(
            Command::parse(&argv("check fig3")).unwrap(),
            Command::Check { hazards: false, .. }
        ));
        // `--hazards` is a `check` refinement; other verbs reject it.
        assert!(Command::parse(&argv("plan fig3 --hazards")).is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(Command::parse(&[]).is_err());
        assert!(Command::parse(&argv("info")).is_err());
        assert!(Command::parse(&argv("frobnicate fig3")).is_err());
        assert!(Command::parse(&argv("plan fig3 --margin 2.0")).is_err());
        assert!(Command::parse(&argv("plan fig3 --bogus")).is_err());
        assert!(Command::parse(&argv("plan fig3 --device")).is_err());
    }

    #[test]
    fn margin_rejects_out_of_range_values() {
        // The planner de-rates memory by `margin`; anything outside [0, 1)
        // would make the budget nonpositive or grow it, so reject early.
        for bad in ["-0.1", "1.0", "1.5", "2.0", "NaN", "inf"] {
            let err = Command::parse(&argv(&format!("plan fig3 --margin {bad}"))).unwrap_err();
            assert!(err.contains("must be in [0, 1)"), "{bad}: {err}");
            assert!(err.contains(bad), "error names the value: {err}");
        }
        // Both ends of the accepted range parse.
        for good in ["0.0", "0.05", "0.999"] {
            assert!(
                Command::parse(&argv(&format!("plan fig3 --margin {good}"))).is_ok(),
                "{good}"
            );
        }
        assert!(Command::parse(&argv("plan fig3 --margin potato")).is_err());
    }

    #[test]
    fn parse_cluster_flag() {
        match Command::parse(&argv("plan fig3 --devices gtx8800x4")).unwrap() {
            Command::Plan { devices, .. } => assert_eq!(devices.as_deref(), Some("gtx8800x4")),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            Command::parse(&argv("check fig3 --devices c870,modern")).unwrap(),
            Command::Check {
                devices: Some(_),
                ..
            }
        ));
        // Bad cluster specs fail at parse time, before any planning.
        assert!(Command::parse(&argv("plan fig3 --devices quantum9000")).is_err());
        assert!(Command::parse(&argv("run fig3 --devices c870x0")).is_err());
        // Multi-device functional execution routes through the resilient
        // executor and is supported.
        assert!(matches!(
            Command::parse(&argv("run fig3 --functional --devices c870x2")).unwrap(),
            Command::Run {
                functional: true,
                devices: Some(_),
                ..
            }
        ));
        // Multi-device CUDA emission is refused; JSON is the exchange format.
        assert!(Command::parse(&argv("emit fig3 --cuda x.cu --devices c870x2")).is_err());
        assert!(Command::parse(&argv("emit fig3 --json x.json --devices c870x2")).is_ok());
    }

    #[test]
    fn exact_flags_imply_exact_mode() {
        match Command::parse(&argv("plan fig3 --exact-budget 100000")).unwrap() {
            Command::Plan {
                exact,
                exact_budget,
                exact_max_ops,
                ..
            } => {
                assert!(exact, "--exact-budget implies --exact");
                assert_eq!(exact_budget, Some(100_000));
                assert_eq!(exact_max_ops, None);
            }
            other => panic!("{other:?}"),
        }
        match Command::parse(&argv("run fig3 --exact-max-ops 24")).unwrap() {
            Command::Run {
                exact,
                exact_max_ops,
                ..
            } => {
                assert!(exact, "--exact-max-ops implies --exact");
                assert_eq!(exact_max_ops, Some(24));
            }
            other => panic!("{other:?}"),
        }
        assert!(Command::parse(&argv("plan fig3 --exact-max-ops 0")).is_err());
        assert!(Command::parse(&argv("plan fig3 --exact-budget lots")).is_err());
        // The exact scheduler is single-device only.
        assert!(Command::parse(&argv("run fig3 --exact --devices c870x2")).is_err());
    }

    #[test]
    fn parse_trace_command_and_flags() {
        match Command::parse(&argv("trace fig3 --device custom:1 --out /tmp/t.json")).unwrap() {
            Command::Trace { out, exact, .. } => {
                assert_eq!(out, "/tmp/t.json");
                assert!(!exact);
            }
            other => panic!("{other:?}"),
        }
        // --out defaults to trace.json.
        assert!(matches!(
            Command::parse(&argv("trace fig3")).unwrap(),
            Command::Trace { out, .. } if out == "trace.json"
        ));
        // Exact flags imply --exact here as elsewhere.
        assert!(matches!(
            Command::parse(&argv("trace fig3 --exact-budget 1000")).unwrap(),
            Command::Trace { exact: true, .. }
        ));
        // The exact scheduler stays single-device only.
        assert!(Command::parse(&argv("trace fig3 --exact --devices c870x2")).is_err());
        // Cluster traces parse.
        assert!(matches!(
            Command::parse(&argv("trace fig3 --devices c870x2")).unwrap(),
            Command::Trace {
                devices: Some(_),
                ..
            }
        ));
        // --out belongs to the trace verb only.
        assert!(Command::parse(&argv("plan fig3 --out x.json")).is_err());
    }

    #[test]
    fn parse_trace_flag_on_plan_run_check() {
        assert!(matches!(
            Command::parse(&argv("plan fig3 --trace t.json")).unwrap(),
            Command::Plan { trace: Some(p), .. } if p == "t.json"
        ));
        assert!(matches!(
            Command::parse(&argv("run fig3 --json --trace t.json")).unwrap(),
            Command::Run {
                json: true,
                trace: Some(_),
                ..
            }
        ));
        assert!(matches!(
            Command::parse(&argv("check fig3 --trace t.json")).unwrap(),
            Command::Check { trace: Some(_), .. }
        ));
        assert!(Command::parse(&argv("run fig3 --trace")).is_err());
    }

    #[test]
    fn parse_faults_flag_on_run() {
        match Command::parse(&argv("run fig3 --faults seed=7,kernel=0.2,loss=0@50%")).unwrap() {
            Command::Run {
                faults: Some(f), ..
            } => {
                assert_eq!(f.seed, 7);
                assert!((f.kernel_rate - 0.2).abs() < 1e-12);
                assert!(f.device_loss.is_some());
            }
            other => panic!("{other:?}"),
        }
        // Bad specs fail at parse time, before any planning.
        assert!(Command::parse(&argv("run fig3 --faults seed=oops")).is_err());
        // The flag belongs to run/chaos only.
        assert!(Command::parse(&argv("plan fig3 --faults seed=1")).is_err());
    }

    #[test]
    fn parse_chaos_verb() {
        match Command::parse(&argv("chaos fig3 --seeds 4 --devices c870x2 --json")).unwrap() {
            Command::Chaos {
                source,
                seeds,
                devices,
                smoke,
                json,
                ..
            } => {
                assert_eq!(source, Some(Source::Builtin(Builtin::Fig3)));
                assert_eq!(seeds, 4);
                assert_eq!(devices.as_deref(), Some("c870x2"));
                assert!(!smoke);
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
        // --smoke needs no source; a bare chaos does.
        assert!(matches!(
            Command::parse(&argv("chaos --smoke")).unwrap(),
            Command::Chaos {
                source: None,
                smoke: true,
                ..
            }
        ));
        assert!(Command::parse(&argv("chaos")).is_err());
        assert!(Command::parse(&argv("chaos fig3 --seeds 0")).is_err());
        // --smoke / --seeds belong to the chaos verb only.
        assert!(Command::parse(&argv("run fig3 --smoke")).is_err());
        assert!(Command::parse(&argv("run fig3 --seeds 3")).is_err());
    }

    #[test]
    fn parse_serve_and_client_verbs() {
        match Command::parse(&argv(
            "serve --addr 127.0.0.1:7070 --devices c870x2 --margin 0.1 --cache-capacity 16",
        ))
        .unwrap()
        {
            Command::Serve {
                addr,
                devices,
                margin,
                cache_capacity,
                smoke,
                soak,
                ..
            } => {
                assert_eq!(addr, "127.0.0.1:7070");
                assert_eq!(devices.as_deref(), Some("c870x2"));
                assert!((margin - 0.1).abs() < 1e-12);
                assert_eq!(cache_capacity, 16);
                assert!(!smoke && !soak);
            }
            other => panic!("{other:?}"),
        }
        // The CI gates need no address.
        assert!(matches!(
            Command::parse(&argv("serve --smoke")).unwrap(),
            Command::Serve { smoke: true, .. }
        ));
        assert!(matches!(
            Command::parse(&argv("serve --soak")).unwrap(),
            Command::Serve { soak: true, .. }
        ));
        assert!(Command::parse(&argv("serve --smoke --soak")).is_err());
        assert!(Command::parse(&argv("serve fig3")).is_err());
        assert!(Command::parse(&argv("serve --cache-capacity 0")).is_err());
        // Guard flags: journal path and server-wide default deadline.
        match Command::parse(&argv(
            "serve --cache-path /tmp/plans.journal --deadline-ms 250",
        ))
        .unwrap()
        {
            Command::Serve {
                cache_path,
                deadline_ms,
                ..
            } => {
                assert_eq!(cache_path.as_deref(), Some("/tmp/plans.journal"));
                assert_eq!(deadline_ms, Some(250));
            }
            other => panic!("{other:?}"),
        }
        assert!(Command::parse(&argv("serve --deadline-ms 0")).is_err());
        assert!(Command::parse(&argv("run fig3 --cache-path x")).is_err());

        match Command::parse(&argv(
            r#"client --addr 127.0.0.1:7070 --send {"op":"stats"} --json"#,
        ))
        .unwrap()
        {
            Command::Client {
                addr,
                send,
                json,
                metrics,
                ..
            } => {
                assert_eq!(addr, "127.0.0.1:7070");
                assert_eq!(send, r#"{"op":"stats"}"#);
                assert!(json);
                assert!(!metrics);
            }
            other => panic!("{other:?}"),
        }
        assert!(Command::parse(&argv("client --send x")).is_err());
        assert!(Command::parse(&argv("client --addr 127.0.0.1:1")).is_err());
        // --metrics is sugar for the metrics op; it conflicts with --send.
        assert!(matches!(
            Command::parse(&argv("client --addr 127.0.0.1:1 --metrics")).unwrap(),
            Command::Client { metrics: true, send, .. } if send == r#"{"op":"metrics"}"#
        ));
        assert!(Command::parse(&argv("client --addr 127.0.0.1:1 --metrics --send x")).is_err());
        // Retry flags: default off, fully configurable.
        match Command::parse(&argv(
            r#"client --addr 127.0.0.1:1 --send {"op":"stats"} --retries 5 --retry-budget-ms 800 --retry-seed 42"#,
        ))
        .unwrap()
        {
            Command::Client {
                retries,
                retry_budget_ms,
                retry_seed,
                ..
            } => {
                assert_eq!(retries, 5);
                assert_eq!(retry_budget_ms, 800);
                assert_eq!(retry_seed, 42);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            Command::parse(&argv("client --addr 127.0.0.1:1 --metrics")).unwrap(),
            Command::Client { retries: 0, .. }
        ));
        assert!(Command::parse(&argv("client --addr 1:1 --send x --retry-budget-ms 0")).is_err());
        assert!(Command::parse(&argv("run fig3 --retries 3")).is_err());
        // --metrics belongs to client only.
        assert!(Command::parse(&argv("run fig3 --metrics")).is_err());
        // serve/client flags belong to those verbs only.
        assert!(Command::parse(&argv("plan fig3 --addr 127.0.0.1:1")).is_err());
        assert!(Command::parse(&argv("run fig3 --send x")).is_err());
        assert!(Command::parse(&argv("plan fig3 --soak")).is_err());
    }

    #[test]
    fn parse_streams_flag() {
        // `--streams` rides on every verb that compiles a single-device
        // plan, and defaults to the classic serial chain.
        assert!(matches!(
            Command::parse(&argv("plan fig3 --streams 4")).unwrap(),
            Command::Plan { streams: 4, .. }
        ));
        assert!(matches!(
            Command::parse(&argv("run fig3 --streams 2 --overlap")).unwrap(),
            Command::Run { streams: 2, .. }
        ));
        assert!(matches!(
            Command::parse(&argv("check fig3 --streams 2 --hazards")).unwrap(),
            Command::Check { streams: 2, .. }
        ));
        assert!(matches!(
            Command::parse(&argv("trace fig3 --streams 3")).unwrap(),
            Command::Trace { streams: 3, .. }
        ));
        assert!(matches!(
            Command::parse(&argv("run fig3")).unwrap(),
            Command::Run { streams: 1, .. }
        ));
        // Zero streams is meaningless; reject before planning.
        assert!(Command::parse(&argv("plan fig3 --streams 0")).is_err());
        assert!(Command::parse(&argv("plan fig3 --streams lots")).is_err());
        // Other verbs reject the flag.
        assert!(Command::parse(&argv("emit fig3 --cuda x.cu --streams 2")).is_err());
        assert!(Command::parse(&argv("info fig3 --streams 2")).is_err());
        // The cluster scheduler manages its own lanes.
        assert!(Command::parse(&argv("run fig3 --streams 2 --devices c870x2")).is_err());
        assert!(Command::parse(&argv("run fig3 --streams 1 --devices c870x2")).is_ok());
    }

    #[test]
    fn parse_profile_verb() {
        match Command::parse(&argv("profile fig3 --streams 2 --json --no-defer-frees")).unwrap() {
            Command::Profile {
                source,
                streams,
                json,
                no_defer_frees,
                smoke,
                devices,
                ..
            } => {
                assert_eq!(source, Some(Source::Builtin(Builtin::Fig3)));
                assert_eq!(streams, 2);
                assert!(json && no_defer_frees && !smoke);
                assert!(devices.is_none());
            }
            other => panic!("{other:?}"),
        }
        // --smoke needs no source; a bare profile does.
        assert!(matches!(
            Command::parse(&argv("profile --smoke")).unwrap(),
            Command::Profile {
                source: None,
                smoke: true,
                ..
            }
        ));
        assert!(Command::parse(&argv("profile")).is_err());
        // Cluster profiles parse; streams stay single-device.
        assert!(matches!(
            Command::parse(&argv("profile fig3 --devices c870x2")).unwrap(),
            Command::Profile {
                devices: Some(_),
                ..
            }
        ));
        assert!(Command::parse(&argv("profile fig3 --streams 2 --devices c870x2")).is_err());
        // The ablation flag belongs to profile only.
        assert!(Command::parse(&argv("plan fig3 --no-defer-frees")).is_err());
        // --trace rides along like on the other compile verbs.
        assert!(matches!(
            Command::parse(&argv("profile fig3 --trace t.json")).unwrap(),
            Command::Profile { trace: Some(_), .. }
        ));
    }

    #[test]
    fn run_json_is_a_switch() {
        assert!(matches!(
            Command::parse(&argv("run fig3 --json")).unwrap(),
            Command::Run { json: true, .. }
        ));
        assert!(matches!(
            Command::parse(&argv("run fig3 --overlap")).unwrap(),
            Command::Run { json: false, .. }
        ));
    }

    #[test]
    fn flags_a_verb_would_ignore_are_rejected() {
        let err = |cmdline: &str| Command::parse(&argv(cmdline)).unwrap_err();
        // Flags the verb does not read at all.
        for (cmdline, flag) in [
            ("run fig3 --margin 0.9", "--margin"),
            ("check fig3 --margin 0.5 --gantt", "--margin"),
            (
                "emit fig3 --dot x.dot --margin 0.9 --functional",
                "--margin",
            ),
            ("info fig3 --render --cuda x.cu", "--render"),
            ("trace fig3 --trace t.json", "--trace"),
            ("chaos fig3 --streams 2", "--streams"),
            ("serve --json x", "--json"),
        ] {
            assert_eq!(err(cmdline), format!("unknown flag '{flag}'"), "{cmdline}");
        }
        // One-device knobs beside a cluster.
        for (cmdline, flag) in [
            ("plan fig3 --devices c870x2 --exact", "--exact"),
            ("plan fig3 --devices c870x2 --scheduler bfs", "--scheduler"),
            ("plan fig3 --eviction lru --devices c870x2", "--eviction"),
            ("plan fig3 --device 8800gtx --devices c870x2", "--device"),
            (
                "run fig3 --devices c870x2 --exact-budget 10",
                "--exact-budget",
            ),
            (
                "trace fig3 --devices c870x2 --exact-max-ops 4",
                "--exact-max-ops",
            ),
            (
                "profile fig3 --devices c870x2 --no-defer-frees",
                "--no-defer-frees",
            ),
            ("emit fig3 --devices c870x2 --cuda x.cu", "--cuda"),
            ("serve --device c870 --devices c870x2", "--device"),
        ] {
            assert_eq!(
                err(cmdline),
                format!("{flag} does not support --devices"),
                "{cmdline}"
            );
        }
        assert_eq!(
            err("check fig3 --devices c870x2 --streams 2"),
            "--streams does not support --devices"
        );
        // What a cluster verb does read stays legal.
        for cmdline in [
            "run fig3 --devices c870x2 --overlap --gantt --json",
            "run fig3 --devices c870x2 --functional --faults seed=1",
            "plan fig3 --devices c870x2 --margin 0.1 --render --streams 1",
            "trace fig3 --devices c870x2 --margin 0.1 --out t.json",
            "emit fig3 --devices c870x2 --json p.json --dot g.dot",
            "serve --devices c870x2 --margin 0.1",
        ] {
            assert!(Command::parse(&argv(cmdline)).is_ok(), "{cmdline}");
        }
    }
}
