//! The serving core: cache + admission + execution behind a line protocol.
//!
//! [`Server`] is transport-agnostic — [`Server::handle_line`] maps one
//! request line to one response line, and [`crate::net`] wraps it in a
//! TCP accept loop. All state is interior-mutex'd so connection threads
//! share one `Server` behind an `Arc`.
//!
//! Request lifecycle (each phase adds one sample to its log-bucketed
//! histogram in [`PHASES`]; `stats` and `metrics` report them):
//!
//! 1. **parse** — the protocol layer ([`crate::protocol`]).
//! 2. **cache-probe / compile** — first the source-text memo (a repeat
//!    named request maps straight to its [`PlanKey`] without rebuilding
//!    the graph), then [`crate::planner::plan_request`] under the cache
//!    lock: exact hit, incremental recompile, or full compile. A plan's
//!    hazard certificate is computed once, when it enters the cache.
//! 3. **admit** — reserve `peak_per_device` bytes in the
//!    [`AdmissionLedger`]. When the cluster is momentarily full the
//!    request *queues* on a condvar (bounded by `queue_capacity`, bounded
//!    wait `queue_timeout_ms`) rather than failing; structural
//!    impossibility (`infeasible`) and queue overflow/timeout
//!    (`backpressure`) are distinct typed errors.
//! 4. **execute** — the simulated run, optionally under a
//!    [`gpuflow_chaos`] fault schedule with the resilient executor.
//! 5. **release** — the reservation drops, waiters are woken.
//!
//! Nothing here grows with the number of requests served: the cache,
//! the memo and the recipe map are bounded by the cache capacity, and
//! latencies live only in fixed-size histograms.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use gpuflow_chaos::FaultSpec;
use gpuflow_core::{CompileOptions, CompiledTemplate, ResilientExecutor};
use gpuflow_minijson::{Map, Value};
use gpuflow_multi::{AdmissionError, AdmissionLedger, Cluster};
use gpuflow_sim::device::modern;
use gpuflow_trace::{Histogram, MetricsRegistry};

use crate::cache::PlanCache;
use crate::guard::{Breaker, BreakerState, Deadline, GuardConfig, Transition};
use crate::journal::{Journal, PlanRecord};
use crate::key::{cluster_fingerprint, PlanKey};
use crate::planner::{plan_request, CacheOutcome, PlannedRequest};
use crate::protocol::{
    backpressure_response, deadline_response, error_response, ok_base, parse_request,
    shed_response, Request, RequestOptions,
};
use crate::source::TemplateRef;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The simulated cluster requests execute on.
    pub cluster: Cluster,
    /// Default compile memory margin (requests may override per-request).
    pub margin: f64,
    /// Plan-cache capacity in entries.
    pub cache_capacity: usize,
    /// Maximum requests allowed to wait for admission at once; beyond
    /// this, oversubscribing requests are rejected with `backpressure`.
    pub queue_capacity: usize,
    /// Maximum time one request waits for admission before a
    /// `backpressure` reject.
    pub queue_timeout_ms: u64,
    /// Test hook: replace the per-device admission capacities derived
    /// from the cluster. Lets tests pick capacities relative to a known
    /// plan's peak so queue/reject behavior is deterministic.
    pub capacity_override: Option<Vec<u64>>,
    /// Server-wide default latency budget applied to requests that carry
    /// no `deadline_ms` of their own (`None` = unbudgeted).
    pub default_deadline_ms: Option<u64>,
    /// Overload-breaker tuning (see [`GuardConfig`]).
    pub guard: GuardConfig,
    /// Crash-safe plan-cache journal path (`--cache-path`). `None`
    /// disables persistence.
    pub cache_path: Option<PathBuf>,
    /// Largest request line the transport will buffer before replying
    /// with a typed `bad_request` and discarding the rest of the line.
    pub max_request_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            cluster: Cluster::homogeneous(modern(), 1),
            margin: CompileOptions::default().memory_margin,
            cache_capacity: 64,
            queue_capacity: 16,
            queue_timeout_ms: 2_000,
            capacity_override: None,
            default_deadline_ms: None,
            guard: GuardConfig::default(),
            cache_path: None,
            max_request_bytes: 64 * 1024,
        }
    }
}

/// The shared serving state. One per daemon; threads share it via `Arc`.
pub struct Server {
    cfg: ServeConfig,
    cache: Mutex<PlanCache>,
    /// Source-text memo: `(named template spec, normalized options)` →
    /// the [`PlanKey`] that request planned under last time. Named specs
    /// are deterministic generators, so an identical spec string always
    /// rebuilds the identical graph — the memo lets a repeat request
    /// probe the cache without re-running the generator or re-hashing
    /// the graph (which dominates hit latency for large templates). The
    /// memo is advisory: a stale entry (evicted plan) just falls through
    /// to the full path, which refreshes it. Inline graphs never enter
    /// the memo — their text is hashed anyway.
    memo: Mutex<HashMap<(String, CompileOptions), PlanKey>>,
    admission: Mutex<AdmissionLedger>,
    admit_cv: Condvar,
    /// Requests currently waiting for admission.
    queue_depth: AtomicUsize,
    metrics: Mutex<MetricsRegistry>,
    /// Per-phase latency histograms (µs), log-bucketed. Every request
    /// contributes one sample per phase it passes through, so `stats`
    /// can report p50/p90/p99/max per phase without retaining samples.
    phases: Mutex<PhaseHistograms>,
    /// The overload circuit breaker gating compile/run admission.
    guard: Mutex<Breaker>,
    /// Crash-safe recipe journal (`None` when persistence is off).
    journal: Mutex<Option<Journal>>,
    /// Recipe per resident plan key, for journal compaction.
    recipes: Mutex<HashMap<PlanKey, PlanRecord>>,
    /// This cluster's fingerprint; journal records for other clusters
    /// are skipped at replay.
    cluster_fp: u64,
    shutdown: AtomicBool,
    started: Instant,
}

/// The request-lifecycle phases tracked with log-bucketed histograms,
/// in lifecycle order. `total` is wall time from parse to response for
/// completed compiles/runs. The `admit` phase (a no-wait admission) is
/// folded into `queue-wait`, so its percentiles describe every request,
/// not just the ones that queued.
pub const PHASES: [&str; 5] = ["cache-probe", "queue-wait", "compile", "execute", "total"];

/// One log-bucketed [`Histogram`] per lifecycle phase.
#[derive(Default)]
struct PhaseHistograms {
    hists: [Histogram; 5],
}

impl PhaseHistograms {
    fn record(&mut self, phase: &str, us: u64) {
        let slot = match phase {
            "cache-probe" => 0,
            "queue-wait" | "admit" => 1,
            "compile" => 2,
            "execute" => 3,
            "total" => 4,
            _ => return,
        };
        self.hists[slot].record(us);
    }

    /// Parse-to-response latency of every completed compile and run.
    fn total(&self) -> &Histogram {
        &self.hists[4]
    }
}

fn hex_hash(h: u64) -> String {
    format!("{h:016x}")
}

/// A half-open probe slot held by one admitted request. The breaker is
/// owed exactly one settlement per slot: either the completed-service
/// sample ([`Server::observe_service`] consumes the slot via
/// [`ProbeSlot::take`]) or — on any path that exits without producing
/// one (compile-only requests, parse/plan errors, deadline rejects,
/// non-timeout admission errors) — the drop impl returns the slot, so
/// the breaker can never strand half-open with every probe consumed and
/// no observation owed.
struct ProbeSlot<'a> {
    server: &'a Server,
    live: bool,
}

impl<'a> ProbeSlot<'a> {
    /// `live` is [`Breaker::admit`]'s probe flag — false for ordinary
    /// (closed-breaker) admissions, which makes the slot a no-op.
    fn new(server: &'a Server, live: bool) -> ProbeSlot<'a> {
        ProbeSlot { server, live }
    }

    /// Consume the slot for a service observation; the observation's
    /// `probe` flag settles it inside the breaker.
    fn take(&mut self) -> bool {
        std::mem::take(&mut self.live)
    }
}

impl Drop for ProbeSlot<'_> {
    fn drop(&mut self) {
        if self.live {
            self.server.guard.lock().unwrap().probe_aborted();
        }
    }
}

impl Server {
    /// Build a server over `cfg`. The admission ledger's capacities come
    /// from the cluster's plannable budgets at the default margin unless
    /// `capacity_override` pins them.
    pub fn new(cfg: ServeConfig) -> Server {
        let ledger = match &cfg.capacity_override {
            Some(caps) => {
                assert_eq!(
                    caps.len(),
                    cfg.cluster.len(),
                    "capacity_override arity must match the cluster"
                );
                AdmissionLedger::new(caps.clone())
            }
            None => AdmissionLedger::for_cluster(&cfg.cluster, cfg.margin),
        };
        let mut metrics = MetricsRegistry::new();
        let cluster_fp = cluster_fingerprint(&cfg.cluster);
        let mut cache = PlanCache::new(cfg.cache_capacity);
        let mut memo: HashMap<(String, CompileOptions), PlanKey> = HashMap::new();
        let mut recipes: HashMap<PlanKey, PlanRecord> = HashMap::new();
        let journal = match &cfg.cache_path {
            None => None,
            Some(path) => match Journal::open(path) {
                Ok((mut j, records, recovered)) => {
                    if recovered {
                        // Torn tail dropped — diagnostic GF0071.
                        metrics.add("serve.guard.journal_recovered", 1);
                    }
                    let mut replayed = 0u64;
                    for rec in &records {
                        if rec.cluster_fp != cluster_fp {
                            continue;
                        }
                        let Ok(g) = rec.template.resolve() else {
                            continue;
                        };
                        let opts = rec.compile_options();
                        if let Ok(p) = plan_request(&mut cache, &cfg.cluster, opts, &g) {
                            if let TemplateRef::Named(spec) = &rec.template {
                                memo.insert((spec.clone(), opts), p.key);
                            }
                            recipes.insert(p.key, rec.clone());
                            replayed += 1;
                        }
                    }
                    if replayed > 0 {
                        metrics.add("serve.guard.journal_replayed", replayed);
                    }
                    // Compact once after replay: restart chains must not
                    // grow the file, and stale/foreign records drop here.
                    let keys = cache.keys_by_recency();
                    let resident: Vec<PlanRecord> = keys
                        .iter()
                        .filter_map(|k| recipes.get(k).cloned())
                        .collect();
                    recipes.retain(|k, _| keys.contains(k));
                    if j.rewrite(&resident).is_err() {
                        metrics.add("serve.guard.journal_errors", 1);
                    }
                    Some(j)
                }
                Err(e) => {
                    eprintln!(
                        "gpuflow serve: cache journal {} unusable ({e}); persistence disabled",
                        path.display()
                    );
                    metrics.add("serve.guard.journal_errors", 1);
                    None
                }
            },
        };
        Server {
            cache: Mutex::new(cache),
            memo: Mutex::new(memo),
            admission: Mutex::new(ledger),
            admit_cv: Condvar::new(),
            queue_depth: AtomicUsize::new(0),
            metrics: Mutex::new(metrics),
            phases: Mutex::new(PhaseHistograms::default()),
            guard: Mutex::new(Breaker::new(cfg.guard.clone())),
            journal: Mutex::new(journal),
            recipes: Mutex::new(recipes),
            cluster_fp,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            cfg,
        }
    }

    /// The configuration the server was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Has a `shutdown` request been accepted?
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests currently waiting for admission.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::SeqCst)
    }

    /// Run `f` against the metrics registry.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut self.metrics.lock().unwrap())
    }

    /// Run `f` against the plan cache (integrity sweeps in tests).
    pub fn with_cache<R>(&self, f: impl FnOnce(&PlanCache) -> R) -> R {
        f(&self.cache.lock().unwrap())
    }

    /// Record one sample of lifecycle phase `name`, begun at `start`.
    fn phase(&self, name: &str, start: Instant) {
        let us = start.elapsed().as_micros() as u64;
        self.phases.lock().unwrap().record(name, us);
    }

    /// Handle one request line; returns the response line (no trailing
    /// newline).
    pub fn handle_line(&self, line: &str) -> String {
        let response = match parse_request(line) {
            Ok(req) => self.handle_request(req),
            Err(detail) => {
                self.with_metrics(|m| m.add("serve.bad_requests", 1));
                error_response("bad_request", detail)
            }
        };
        response.to_string_compact()
    }

    /// Handle one parsed request.
    pub fn handle_request(&self, req: Request) -> Value {
        if self.is_shutting_down() && !matches!(req, Request::Stats | Request::Metrics) {
            return error_response("shutting_down", "server is shutting down");
        }
        self.with_metrics(|m| m.add("serve.requests", 1));
        // The breaker gates only the work-carrying ops; stats/metrics/
        // shutdown stay observable while shedding. A half-open admission
        // consumes a probe slot, carried through the handler as a
        // [`ProbeSlot`] so every exit path settles it.
        let mut probe = false;
        if matches!(req, Request::Compile { .. } | Request::Run { .. }) {
            let (gate, transition) = self.guard.lock().unwrap().admit(Instant::now());
            if let Some(t) = transition {
                self.breaker_transition(t);
            }
            match gate {
                Ok(p) => probe = p,
                Err(retry_after_ms) => {
                    self.with_metrics(|m| m.add("serve.guard.shed", 1));
                    return shed_response(retry_after_ms);
                }
            }
        }
        match req {
            Request::Compile {
                template,
                options,
                deadline_ms,
            } => self.handle_compile(&template, options, deadline_ms, ProbeSlot::new(self, probe)),
            Request::Run {
                template,
                options,
                faults,
                hold_ms,
                deadline_ms,
            } => self.handle_run(
                &template,
                options,
                faults.as_deref(),
                hold_ms,
                deadline_ms,
                ProbeSlot::new(self, probe),
            ),
            Request::Stats => self.handle_stats(),
            Request::Metrics => {
                let mut m = ok_base("metrics");
                m.insert("text", self.metrics_text());
                Value::Object(m)
            }
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                // Wake every queued request so it can fail fast.
                let _guard = self.admission.lock().unwrap();
                self.admit_cv.notify_all();
                let mut m = ok_base("shutting_down");
                m.insert("in_flight", self.queue_depth.load(Ordering::SeqCst) as u64);
                Value::Object(m)
            }
        }
    }

    /// Surface a breaker state change: bump the trip counter on opens
    /// and track the state gauge.
    fn breaker_transition(&self, t: Transition) {
        let state = match t {
            Transition::Tripped | Transition::Reopened => BreakerState::Open,
            Transition::HalfOpened => BreakerState::HalfOpen,
            Transition::Reclosed => BreakerState::Closed,
        };
        self.with_metrics(|m| {
            if state == BreakerState::Open {
                m.add("serve.guard.breaker_trips", 1);
            }
            m.gauge("serve.guard.breaker_state", state.gauge());
        });
    }

    /// Feed one completed-service sample into the breaker and surface
    /// any resulting transition. `probe` settles a half-open probe slot
    /// (pass [`ProbeSlot::take`]); non-probe samples are discarded while
    /// the breaker is half-open so pre-trip stragglers cannot pollute
    /// the probe verdict.
    fn observe_service(&self, service_us: u64, probe: bool) {
        let depth = self.queue_depth.load(Ordering::SeqCst);
        let transition =
            self.guard
                .lock()
                .unwrap()
                .observe(service_us, depth, Instant::now(), probe);
        if let Some(t) = transition {
            self.breaker_transition(t);
        }
    }

    /// Build the typed `deadline_exceeded` reject for a budget that ran
    /// out in `phase`, flagging budgets the latency history proves
    /// unserviceable (`GF0070`).
    fn reject_deadline(&self, phase: &str, deadline: &Deadline) -> Value {
        let budget_ms = deadline.budget_ms().unwrap_or(0);
        // Infeasible: the server's own median total latency already
        // exceeds the whole budget — no retry at this deadline can
        // succeed. Needs a little history before it is claimed.
        let infeasible = {
            let phases = self.phases.lock().unwrap();
            let total = phases.total();
            total.count() >= 8 && budget_ms.saturating_mul(1_000) < total.percentile(0.50)
        };
        self.with_metrics(|m| {
            m.add("serve.guard.deadline_exceeded", 1);
            if infeasible {
                m.add("serve.guard.deadline_infeasible", 1);
            }
        });
        deadline_response(phase, budget_ms, deadline.elapsed_us(), infeasible)
    }

    /// Journal the recipe behind a planned request (any cache outcome —
    /// repeats matter, they reproduce LRU order at replay), compacting
    /// the file once it holds many generations of appends.
    fn journal_planned(&self, template: &TemplateRef, opts: CompileOptions, key: PlanKey) {
        let mut journal = self.journal.lock().unwrap();
        let Some(j) = journal.as_mut() else {
            return;
        };
        let rec = PlanRecord::new(template, opts, self.cluster_fp);
        self.recipes.lock().unwrap().insert(key, rec.clone());
        if j.append(&rec).is_err() {
            self.with_metrics(|m| m.add("serve.guard.journal_errors", 1));
            return;
        }
        if j.appends_since_rewrite() > self.cfg.cache_capacity.saturating_mul(8).max(64) {
            let keys = self.cache.lock().unwrap().keys_by_recency();
            let resident: Vec<PlanRecord> = {
                let mut recipes = self.recipes.lock().unwrap();
                recipes.retain(|k, _| keys.contains(k));
                keys.iter()
                    .filter_map(|k| recipes.get(k).cloned())
                    .collect()
            };
            if j.rewrite(&resident).is_err() {
                self.with_metrics(|m| m.add("serve.guard.journal_errors", 1));
            }
        }
    }

    /// Probe the source-text memo: a repeat named request with identical
    /// spec string and options maps straight to its [`PlanKey`], skipping
    /// the template generator and the canonical graph hash.
    fn memo_probe(
        &self,
        template: &TemplateRef,
        opts: CompileOptions,
        probe_start: Instant,
    ) -> Option<PlannedRequest> {
        let TemplateRef::Named(spec) = template else {
            return None;
        };
        let key = *self.memo.lock().unwrap().get(&(spec.clone(), opts))?;
        let plan = self.cache.lock().unwrap().probe(&key)?;
        self.with_metrics(|m| {
            m.add("serve.cache_hits", 1);
            m.add("serve.cache_memo_hits", 1);
        });
        self.phase("cache-probe", probe_start);
        Some(PlannedRequest {
            plan,
            cache: CacheOutcome::Hit,
            graph_hash: key.graph_hash,
            key,
        })
    }

    /// Resolve + plan one request, recording cache metrics and the
    /// cache-probe or compile phase.
    fn plan(
        &self,
        template: &TemplateRef,
        options: RequestOptions,
    ) -> Result<PlannedRequest, Value> {
        let opts = options.compile_options(self.cfg.margin);
        let probe_start = Instant::now();
        if let Some(planned) = self.memo_probe(template, opts, probe_start) {
            self.journal_planned(template, opts, planned.key);
            return Ok(planned);
        }
        let g = match template.resolve() {
            Ok(g) => g,
            Err(detail) => return Err(error_response("bad_request", detail)),
        };
        let planned = {
            let mut cache = self.cache.lock().unwrap();
            let r = plan_request(&mut cache, &self.cfg.cluster, opts, &g);
            self.with_metrics(|m| m.set("serve.cache_evictions", cache.evictions()));
            r
        };
        if let (Ok(p), TemplateRef::Named(spec)) = (&planned, template) {
            let mut memo = self.memo.lock().unwrap();
            // Advisory index only — bound it so a spec-churning client
            // cannot grow it without limit.
            if memo.len() >= self.cfg.cache_capacity.saturating_mul(4).max(256) {
                memo.clear();
            }
            memo.insert((spec.clone(), opts), p.key);
        }
        match planned {
            Ok(p) => {
                let metric = match p.cache.label() {
                    "hit" => "serve.cache_hits",
                    "incremental" => "serve.cache_incremental",
                    _ => "serve.cache_misses",
                };
                self.with_metrics(|m| m.add(metric, 1));
                let phase = if p.cache == CacheOutcome::Hit {
                    "cache-probe"
                } else {
                    "compile"
                };
                self.phase(phase, probe_start);
                self.journal_planned(template, opts, p.key);
                Ok(p)
            }
            Err(detail) => {
                self.with_metrics(|m| m.add("serve.compile_errors", 1));
                Err(error_response("compile_error", detail))
            }
        }
    }

    /// `_probe`: compiles never produce a breaker service sample (the
    /// signal is queue-wait + execute), so the slot is returned by drop
    /// on every path rather than settled with an observation.
    fn handle_compile(
        &self,
        template: &TemplateRef,
        options: RequestOptions,
        deadline_ms: Option<u64>,
        _probe: ProbeSlot<'_>,
    ) -> Value {
        let t0 = Instant::now();
        let deadline = Deadline::start(deadline_ms, self.cfg.default_deadline_ms);
        let planned = match self.plan(template, options) {
            Ok(p) => p,
            Err(e) => return e,
        };
        if deadline.expired() {
            let phase = if planned.cache == CacheOutcome::Hit {
                "cache-probe"
            } else {
                "compile"
            };
            return self.reject_deadline(phase, &deadline);
        }
        self.phase("total", t0);
        let mut m = ok_base("compiled");
        m.insert("cache", planned.cache.label());
        m.insert("graph_hash", hex_hash(planned.graph_hash));
        m.insert("units", planned.plan.plan.units.len() as u64);
        m.insert("steps", planned.plan.plan.steps.len() as u64);
        m.insert("devices", self.cfg.cluster.len() as u64);
        m.insert("peak_per_device", planned.plan.peak_per_device().to_vec());
        Value::Object(m)
    }

    fn handle_run(
        &self,
        template: &TemplateRef,
        options: RequestOptions,
        faults: Option<&str>,
        hold_ms: u64,
        deadline_ms: Option<u64>,
        mut probe: ProbeSlot<'_>,
    ) -> Value {
        let t0 = Instant::now();
        let deadline = Deadline::start(deadline_ms, self.cfg.default_deadline_ms);
        let fault_spec = match faults {
            None => None,
            Some(s) => match FaultSpec::parse(s)
                .and_then(|spec| spec.check_devices(self.cfg.cluster.len()).map(|()| spec))
            {
                Ok(spec) => Some(spec),
                Err(detail) => return error_response("bad_request", format!("faults: {detail}")),
            },
        };
        let planned = match self.plan(template, options) {
            Ok(p) => p,
            Err(e) => return e,
        };
        if deadline.expired() {
            let phase = if planned.cache == CacheOutcome::Hit {
                "cache-probe"
            } else {
                "compile"
            };
            return self.reject_deadline(phase, &deadline);
        }

        // Admission: reserve peak bytes, queueing while oversubscribed.
        // The deadline keeps ticking in the queue; expired queued work is
        // rejected here without ever reaching the cluster.
        let service_start = Instant::now();
        let reservation = match self.admit(planned.plan.peak_per_device(), &deadline, &mut probe) {
            Ok(r) => r,
            Err(e) => return e,
        };
        self.with_metrics(|m| m.add("serve.admitted", 1));
        if deadline.expired() {
            // Admitted, but the wait consumed the whole budget: give the
            // capacity back instead of executing for nobody.
            let mut ledger = self.admission.lock().unwrap();
            ledger.release(reservation);
            self.admit_cv.notify_all();
            drop(ledger);
            return self.reject_deadline("queue-wait", &deadline);
        }

        let exec_start = Instant::now();
        let executed = execute(&planned.plan, fault_spec.as_ref());
        self.phase("execute", exec_start);
        // Queue-wait + execute is the breaker's service signal (the hold,
        // a load-test artifice, is excluded).
        let service_us = service_start.elapsed().as_micros() as u64;

        if hold_ms > 0 {
            std::thread::sleep(Duration::from_millis(hold_ms));
        }
        {
            let mut ledger = self.admission.lock().unwrap();
            ledger.release(reservation);
            self.admit_cv.notify_all();
        }
        self.observe_service(service_us, probe.take());
        if deadline.expired() {
            // The budget ran out mid-execute; nobody is waiting for the
            // result.
            return self.reject_deadline("execute", &deadline);
        }

        match executed {
            Ok(run) => {
                self.with_metrics(|m| m.add("serve.completed", 1));
                self.phase("total", t0);
                let mut m = ok_base("ran");
                m.insert("cache", planned.cache.label());
                m.insert("graph_hash", hex_hash(planned.graph_hash));
                m.insert("sim_time_s", run.sim_time_s);
                // Every compiled template is certified by construction.
                m.insert("certified", true);
                m.insert("peak_per_device", planned.plan.peak_per_device().to_vec());
                if let Some(f) = run.faulted {
                    let mut fm = Map::new();
                    fm.insert("injected", f.injected);
                    fm.insert("recovered", f.recovered);
                    fm.insert("retries", f.retries);
                    fm.insert("replans", f.replans);
                    m.insert("faults", Value::Object(fm));
                }
                Value::Object(m)
            }
            Err(detail) => {
                self.with_metrics(|m| m.add("serve.failed", 1));
                error_response("internal", detail)
            }
        }
    }

    /// Reserve `peaks` in the ledger, waiting (bounded) while the cluster
    /// is momentarily full. The wait is additionally bounded by the
    /// request's deadline — an expired queued request cancels with a
    /// `deadline_exceeded`, and this check runs *before* the shutdown
    /// check so a draining server still reports expired queued work as
    /// what it is (the deadline passed first).
    fn admit(
        &self,
        peaks: &[u64],
        deadline: &Deadline,
        probe: &mut ProbeSlot<'_>,
    ) -> Result<gpuflow_multi::Reservation, Value> {
        let wait_start = Instant::now();
        let timeout = Duration::from_millis(self.cfg.queue_timeout_ms);
        let mut ledger = self.admission.lock().unwrap();
        let mut queued = false;
        let mut timed_out_us = None;
        let result = loop {
            match ledger.try_commit(peaks) {
                Ok(r) => break Ok(r),
                Err(e @ AdmissionError::Infeasible { .. }) => {
                    self.with_metrics(|m| m.add("serve.rejected_infeasible", 1));
                    break Err(error_response("infeasible", e.to_string()));
                }
                Err(e @ AdmissionError::WrongArity { .. }) => {
                    break Err(error_response("internal", e.to_string()));
                }
                Err(AdmissionError::Oversubscribed { .. }) => {
                    if deadline.expired() {
                        break Err(self.reject_deadline("queue-wait", deadline));
                    }
                    if self.is_shutting_down() {
                        break Err(error_response("shutting_down", "server is shutting down"));
                    }
                    let waited = wait_start.elapsed();
                    if waited >= timeout {
                        self.with_metrics(|m| m.add("serve.rejected_backpressure", 1));
                        timed_out_us = Some(waited.as_micros() as u64);
                        break Err(backpressure_response(
                            "admission wait timed out",
                            self.queue_depth.load(Ordering::SeqCst) as u64,
                            waited.as_micros() as u64,
                        ));
                    }
                    if !queued {
                        let depth = self.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
                        if depth > self.cfg.queue_capacity {
                            self.queue_depth.fetch_sub(1, Ordering::SeqCst);
                            self.with_metrics(|m| m.add("serve.rejected_backpressure", 1));
                            break Err(backpressure_response(
                                "admission queue is full",
                                (depth - 1) as u64,
                                waited.as_micros() as u64,
                            ));
                        }
                        queued = true;
                        self.with_metrics(|m| {
                            m.add("serve.queued", 1);
                            m.gauge("serve.queue_depth", depth as f64);
                        });
                    }
                    // Sleep until whichever comes first: the queue
                    // timeout or the request's own deadline.
                    let mut wait = timeout.saturating_sub(waited);
                    if let Some(left) = deadline.remaining() {
                        wait = wait.min(left.max(Duration::from_millis(1)));
                    }
                    let (g, _timeout_result) = self.admit_cv.wait_timeout(ledger, wait).unwrap();
                    ledger = g;
                }
            }
        };
        if queued {
            let depth = self.queue_depth.fetch_sub(1, Ordering::SeqCst) - 1;
            self.with_metrics(|m| m.gauge("serve.queue_depth", depth as f64));
        }
        drop(ledger);
        if let Some(us) = timed_out_us {
            // A saturated-queue timeout is itself a health observation —
            // and a full-length service verdict for a probe admission.
            self.observe_service(us, probe.take());
        }
        self.phase(if queued { "queue-wait" } else { "admit" }, wait_start);
        result
    }

    fn handle_stats(&self) -> Value {
        // One lock for both: the summary and the phase table describe
        // the same set of samples.
        let (p50, p99, completed, phases_json) = {
            let phases = self.phases.lock().unwrap();
            let total = phases.total();
            let mut pm = Map::new();
            for (name, hist) in PHASES.iter().zip(&phases.hists) {
                pm.insert(*name, hist.to_json());
            }
            (
                total.percentile(0.50),
                total.percentile(0.99),
                total.count(),
                Value::Object(pm),
            )
        };
        let (cache_len, evictions) = {
            let c = self.cache.lock().unwrap();
            (c.len() as u64, c.evictions())
        };
        let committed = {
            let ledger = self.admission.lock().unwrap();
            ledger.committed().to_vec()
        };
        let metrics_json = self.with_metrics(|m| {
            m.gauge("serve.latency_p50_us", p50 as f64);
            m.gauge("serve.latency_p99_us", p99 as f64);
            m.to_json()
        });
        let mut m = ok_base("stats");
        m.insert("uptime_us", self.started.elapsed().as_micros() as u64);
        m.insert("cache_entries", cache_len);
        m.insert("cache_evictions", evictions);
        m.insert(
            "queue_depth",
            self.queue_depth.load(Ordering::SeqCst) as u64,
        );
        m.insert("completed", completed);
        m.insert("latency_p50_us", p50);
        m.insert("latency_p99_us", p99);
        m.insert(
            "committed_bytes",
            Value::Array(committed.into_iter().map(Value::from).collect()),
        );
        m.insert("metrics", metrics_json);
        m.insert("phases", phases_json);
        Value::Object(m)
    }

    /// Prometheus-style text exposition: one `gpuflow_serve_phase_us`
    /// summary per lifecycle phase (labelled `phase="..."`), then every
    /// counter and gauge from the metrics registry with `.`/`-`
    /// flattened to `_`. Served to `gpuflow client --metrics`.
    pub fn metrics_text(&self) -> String {
        let mut s = String::new();
        {
            let phases = self.phases.lock().unwrap();
            for (name, hist) in PHASES.iter().zip(&phases.hists) {
                s.push_str(&hist.expose("gpuflow_serve_phase_us", &[("phase", name)]));
            }
        }
        let flat = |name: &str| name.replace(['.', '-'], "_");
        self.with_metrics(|m| {
            for (name, v) in m.counters() {
                s.push_str(&format!("gpuflow_{} {v}\n", flat(name)));
            }
            for (name, v) in m.gauges() {
                s.push_str(&format!("gpuflow_{} {v}\n", flat(name)));
            }
        });
        s
    }
}

/// What one executed run reports back.
struct RunReport {
    sim_time_s: f64,
    faulted: Option<FaultReport>,
}

struct FaultReport {
    injected: u64,
    recovered: bool,
    retries: u64,
    replans: u64,
}

/// Execute a planned request on the simulator, optionally under faults.
/// Runs outside every server lock.
fn execute(t: &CompiledTemplate, faults: Option<&FaultSpec>) -> Result<RunReport, String> {
    let machine = t.machine();
    let Some(spec) = faults else {
        // A cluster reports its simulated makespan on the shared bus, one
        // device the serial time of its quiet walk.
        let sim_time_s = if machine.shared_bus() {
            t.simulate().outcome.makespan
        } else {
            t.run_analytic().map_err(|e| e.to_string())?.total_time()
        };
        return Ok(RunReport {
            sim_time_s,
            faulted: None,
        });
    };
    let outcome = ResilientExecutor::new(&t.split.graph, &t.plan, &machine, spec)
        .with_origin(&t.split)
        .run_analytic()
        .map_err(|e| e.to_string())?;
    Ok(RunReport {
        sim_time_s: outcome.exec.total_time(),
        faulted: Some(FaultReport {
            injected: outcome.stats.faults_injected,
            recovered: outcome.stats.recovered,
            retries: outcome.stats.retries,
            replans: outcome.stats.replans,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.as_object().unwrap().get(key).unwrap()
    }

    #[test]
    fn compile_miss_then_hit() {
        let server = Server::new(ServeConfig::default());
        let a = server.handle_line(r#"{"op":"compile","template":"edge:96x96,k=5,o=2"}"#);
        let a = gpuflow_minijson::parse(&a).unwrap();
        assert_eq!(get(&a, "ok").as_bool(), Some(true));
        assert_eq!(get(&a, "cache").as_str(), Some("miss"));
        let b = server.handle_line(r#"{"op":"compile","template":"edge:96x96,k=5,o=2"}"#);
        let b = gpuflow_minijson::parse(&b).unwrap();
        assert_eq!(get(&b, "cache").as_str(), Some("hit"));
        assert_eq!(
            get(&a, "graph_hash").as_str(),
            get(&b, "graph_hash").as_str()
        );
        server.with_metrics(|m| {
            assert_eq!(m.counter("serve.cache_misses"), 1);
            assert_eq!(m.counter("serve.cache_hits"), 1);
        });
    }

    #[test]
    fn run_executes_and_certifies() {
        let server = Server::new(ServeConfig::default());
        let r = server.handle_line(r#"{"op":"run","template":"fig3"}"#);
        let r = gpuflow_minijson::parse(&r).unwrap();
        assert_eq!(get(&r, "ok").as_bool(), Some(true));
        assert_eq!(get(&r, "result").as_str(), Some("ran"));
        assert_eq!(get(&r, "certified").as_bool(), Some(true));
        assert!(get(&r, "sim_time_s").as_f64().unwrap() > 0.0);
        // Ledger fully released afterwards.
        let stats = server.handle_request(Request::Stats);
        let committed = get(&stats, "committed_bytes").as_array().unwrap();
        assert!(committed.iter().all(|v| v.as_u64() == Some(0)));
    }

    #[test]
    fn faulted_run_reports_recovery() {
        let server = Server::new(ServeConfig::default());
        let r =
            server.handle_line(r#"{"op":"run","template":"fig3","faults":"seed=7,kernel=0.3"}"#);
        let r = gpuflow_minijson::parse(&r).unwrap();
        assert_eq!(
            get(&r, "ok").as_bool(),
            Some(true),
            "faulted run failed: {r:?}"
        );
        let f = get(&r, "faults").as_object().unwrap();
        assert_eq!(f.get("recovered").and_then(|v| v.as_bool()), Some(true));
    }

    #[test]
    fn a_loss_outside_the_cluster_is_a_bad_request() {
        let server = Server::new(ServeConfig {
            cluster: Cluster::homogeneous(gpuflow_sim::device::tesla_c870(), 2),
            ..ServeConfig::default()
        });
        let run = |faults: &str| {
            let line = format!(r#"{{"op":"run","template":"fig3","faults":"{faults}"}}"#);
            gpuflow_minijson::parse(&server.handle_line(&line)).unwrap()
        };
        let r = run("seed=1,loss=1@50%");
        assert_eq!(get(&r, "ok").as_bool(), Some(true), "{r:?}");
        let f = get(&r, "faults").as_object().unwrap();
        assert_eq!(f.get("replans").and_then(|v| v.as_u64()), Some(1));
        let r = run("seed=1,loss=2@50%");
        assert_eq!(err_field(&r, "kind").as_str(), Some("bad_request"));
        assert!(
            err_field(&r, "detail")
                .as_str()
                .is_some_and(|d| d.contains("device 2")),
            "{r:?}"
        );
    }

    #[test]
    fn infeasible_requests_get_typed_rejects() {
        // 1 KiB capacity: nothing real fits, ever.
        let server = Server::new(ServeConfig {
            capacity_override: Some(vec![1024]),
            ..ServeConfig::default()
        });
        let r = server.handle_line(r#"{"op":"run","template":"fig3"}"#);
        let r = gpuflow_minijson::parse(&r).unwrap();
        assert_eq!(get(&r, "ok").as_bool(), Some(false));
        assert_eq!(
            get(&r, "error").get("kind").and_then(|v| v.as_str()),
            Some("infeasible")
        );
        server.with_metrics(|m| assert_eq!(m.counter("serve.rejected_infeasible"), 1));
    }

    #[test]
    fn shutdown_stops_new_work() {
        let server = Server::new(ServeConfig::default());
        let r = server.handle_line(r#"{"op":"shutdown"}"#);
        let r = gpuflow_minijson::parse(&r).unwrap();
        assert_eq!(get(&r, "ok").as_bool(), Some(true));
        assert!(server.is_shutting_down());
        let denied = server.handle_line(r#"{"op":"compile","template":"fig3"}"#);
        let denied = gpuflow_minijson::parse(&denied).unwrap();
        assert_eq!(
            get(&denied, "error").get("kind").and_then(|v| v.as_str()),
            Some("shutting_down")
        );
    }

    #[test]
    fn repeat_named_requests_take_the_memo_fast_path() {
        let server = Server::new(ServeConfig::default());
        let line = r#"{"op":"compile","template":"edge:96x96,k=5,o=2"}"#;
        server.handle_line(line);
        let b = server.handle_line(line);
        let b = gpuflow_minijson::parse(&b).unwrap();
        assert_eq!(get(&b, "cache").as_str(), Some("hit"));
        server.with_metrics(|m| {
            assert_eq!(m.counter("serve.cache_memo_hits"), 1);
            assert_eq!(m.counter("serve.cache_hits"), 1);
        });
        // A different margin is a different memo entry, not a hit.
        let c =
            server.handle_line(r#"{"op":"compile","template":"edge:96x96,k=5,o=2","margin":0.2}"#);
        let c = gpuflow_minijson::parse(&c).unwrap();
        assert_eq!(get(&c, "cache").as_str(), Some("miss"));
    }

    #[test]
    fn stale_memo_entries_fall_through_to_a_fresh_compile() {
        // Capacity 1: the second template evicts the first, leaving the
        // first's memo entry dangling. The repeat request must recompile
        // (and refresh the memo), never serve a stale plan.
        let server = Server::new(ServeConfig {
            cache_capacity: 1,
            ..ServeConfig::default()
        });
        let a = r#"{"op":"compile","template":"edge:96x96,k=5,o=2"}"#;
        let b = r#"{"op":"compile","template":"fig3"}"#;
        server.handle_line(a);
        server.handle_line(b);
        let again = gpuflow_minijson::parse(&server.handle_line(a)).unwrap();
        assert_eq!(get(&again, "cache").as_str(), Some("miss"));
        // And once resident again, the memo works again.
        let hit = gpuflow_minijson::parse(&server.handle_line(a)).unwrap();
        assert_eq!(get(&hit, "cache").as_str(), Some("hit"));
        server.with_metrics(|m| assert_eq!(m.counter("serve.cache_memo_hits"), 1));
    }

    #[test]
    fn stats_report_phase_histograms_and_metrics_expose_them() {
        let server = Server::new(ServeConfig::default());
        server.handle_line(r#"{"op":"run","template":"fig3"}"#);
        server.handle_line(r#"{"op":"run","template":"fig3"}"#);
        let stats = server.handle_request(Request::Stats);
        let phases = get(&stats, "phases").as_object().unwrap();
        for phase in PHASES {
            let h = phases.get(phase).and_then(|v| v.as_object()).unwrap();
            let p50 = h.get("p50").and_then(|v| v.as_u64()).unwrap();
            let p99 = h.get("p99").and_then(|v| v.as_u64()).unwrap();
            assert!(p99 >= p50, "{phase}: p99 {p99} < p50 {p50}");
        }
        // Both runs passed through execute and total; the second hit the
        // cache probe.
        assert!(
            phases
                .get("execute")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64()
                == Some(2)
        );
        assert!(phases.get("total").unwrap().get("count").unwrap().as_u64() == Some(2));
        let text = server.metrics_text();
        assert!(text.contains(r#"gpuflow_serve_phase_us{phase="execute",quantile="0.99"}"#));
        assert!(text.contains("gpuflow_serve_phase_us_count"));
        assert!(text.contains("gpuflow_serve_completed 2"));
        // The wire op carries the same exposition.
        let r = server.handle_line(r#"{"op":"metrics"}"#);
        let r = gpuflow_minijson::parse(&r).unwrap();
        assert_eq!(get(&r, "result").as_str(), Some("metrics"));
        assert!(get(&r, "text")
            .as_str()
            .unwrap()
            .contains("gpuflow_serve_phase_us"));
    }

    #[test]
    fn stats_latencies_are_the_total_phase_histogram() {
        let server = Server::new(ServeConfig::default());
        let n = 5;
        for _ in 0..n {
            server.handle_line(r#"{"op":"run","template":"fig3"}"#);
        }
        server.handle_line(r#"{"op":"compile","template":"edge:96x96,k=5,o=2"}"#);
        // A rejected request completes nothing.
        server.handle_line(r#"{"op":"run","template":"fig3","faults":"nonsense"}"#);
        let stats = server.handle_request(Request::Stats);
        let p50 = get(&stats, "latency_p50_us").as_u64().unwrap();
        let p99 = get(&stats, "latency_p99_us").as_u64().unwrap();
        assert_eq!(get(&stats, "completed").as_u64(), Some(n + 1));
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        let total = get(get(&stats, "phases"), "total");
        assert_eq!(total.get("count").and_then(|v| v.as_u64()), Some(n + 1));
        assert_eq!(total.get("p50").and_then(|v| v.as_u64()), Some(p50));
        assert_eq!(total.get("p99").and_then(|v| v.as_u64()), Some(p99));
    }

    #[test]
    fn a_cached_cluster_plan_reports_its_own_certificate() {
        let cluster = Cluster::homogeneous(gpuflow_sim::device::tesla_c870(), 2);
        let server = Server::new(ServeConfig {
            cluster: cluster.clone(),
            ..ServeConfig::default()
        });
        let spec = "edge:256x256,k=5,o=2";
        let g = crate::source::resolve_named(spec).unwrap();
        let c = gpuflow_multi::compile_multi(&g, &cluster, server.config().margin).unwrap();
        let direct = c.plan.certify(&c.split.graph).certified();
        let line = format!(r#"{{"op":"run","template":"{spec}"}}"#);
        for expected_cache in ["miss", "hit"] {
            let r = gpuflow_minijson::parse(&server.handle_line(&line)).unwrap();
            assert_eq!(get(&r, "cache").as_str(), Some(expected_cache), "{r:?}");
            assert_eq!(get(&r, "certified").as_bool(), Some(direct));
        }
    }

    fn err_field<'a>(v: &'a Value, key: &str) -> &'a Value {
        get(v, "error").as_object().unwrap().get(key).unwrap()
    }

    #[test]
    fn expired_deadlines_get_typed_rejects_with_the_phase() {
        let server = Server::new(ServeConfig::default());
        // Warm the cache so the reject can name the hit path.
        server.handle_line(r#"{"op":"compile","template":"fig3"}"#);
        // A zero budget (constructible in-process; the wire requires ≥ 1)
        // expires before any phase completes.
        let r = server.handle_request(Request::Compile {
            template: TemplateRef::Named("fig3".into()),
            options: RequestOptions {
                margin: None,
                exact: false,
            },
            deadline_ms: Some(0),
        });
        assert_eq!(
            err_field(&r, "kind").as_str(),
            Some("deadline_exceeded"),
            "{r:?}"
        );
        assert_eq!(err_field(&r, "phase").as_str(), Some("cache-probe"));
        server.with_metrics(|m| assert_eq!(m.counter("serve.guard.deadline_exceeded"), 1));
        // The server-wide default applies when the request carries none.
        let server = Server::new(ServeConfig {
            default_deadline_ms: Some(0),
            ..ServeConfig::default()
        });
        let r = server.handle_request(Request::Compile {
            template: TemplateRef::Named("fig3".into()),
            options: RequestOptions {
                margin: None,
                exact: false,
            },
            deadline_ms: None,
        });
        assert_eq!(err_field(&r, "kind").as_str(), Some("deadline_exceeded"));
    }

    #[test]
    fn queued_requests_cancel_when_their_deadline_passes() {
        use std::sync::Arc;
        // Probe the plan's peak on a throwaway server, then pin capacity
        // to 1.5× peak so a second concurrent run must queue.
        let probe = Server::new(ServeConfig::default());
        let r = probe.handle_line(r#"{"op":"compile","template":"fig3"}"#);
        let r = gpuflow_minijson::parse(&r).unwrap();
        let peak = get(&r, "peak_per_device").as_array().unwrap()[0]
            .as_u64()
            .unwrap();
        let server = Arc::new(Server::new(ServeConfig {
            capacity_override: Some(vec![peak + peak / 2]),
            queue_capacity: 4,
            queue_timeout_ms: 10_000,
            ..ServeConfig::default()
        }));
        server.handle_line(r#"{"op":"compile","template":"fig3"}"#);
        let holder_server = Arc::clone(&server);
        let holder = std::thread::spawn(move || {
            holder_server.handle_line(r#"{"op":"run","template":"fig3","hold_ms":600}"#)
        });
        // Let the holder reach its hold, then queue behind it with a
        // budget far shorter than the hold.
        std::thread::sleep(Duration::from_millis(200));
        let r = server.handle_line(r#"{"op":"run","template":"fig3","deadline_ms":100}"#);
        let r = gpuflow_minijson::parse(&r).unwrap();
        assert_eq!(
            err_field(&r, "kind").as_str(),
            Some("deadline_exceeded"),
            "{r:?}"
        );
        assert_eq!(err_field(&r, "phase").as_str(), Some("queue-wait"));
        let held = gpuflow_minijson::parse(&holder.join().unwrap()).unwrap();
        assert_eq!(get(&held, "ok").as_bool(), Some(true));
        // The cancelled request never touched the ledger: fully drained.
        let stats = server.handle_request(Request::Stats);
        let committed = get(&stats, "committed_bytes").as_array().unwrap();
        assert!(committed.iter().all(|v| v.as_u64() == Some(0)));
    }

    #[test]
    fn tripped_breaker_sheds_with_retry_hints() {
        // A hair-trigger breaker: two samples of anything trip it.
        let server = Server::new(ServeConfig {
            guard: GuardConfig {
                window: 4,
                min_samples: 2,
                health_limit_us: 1,
                cooldown_ms: 60_000,
                probes: 1,
                retry_after_ms: 75,
            },
            ..ServeConfig::default()
        });
        server.handle_line(r#"{"op":"run","template":"fig3"}"#);
        let r = server.handle_line(r#"{"op":"run","template":"fig3"}"#);
        let r = gpuflow_minijson::parse(&r).unwrap();
        assert_eq!(get(&r, "ok").as_bool(), Some(true), "pre-trip run failed");
        // Breaker is now open: work is shed, observability is not.
        let shed = server.handle_line(r#"{"op":"run","template":"fig3"}"#);
        let shed = gpuflow_minijson::parse(&shed).unwrap();
        assert_eq!(err_field(&shed, "kind").as_str(), Some("backpressure"));
        assert_eq!(err_field(&shed, "shed").as_bool(), Some(true));
        assert!(err_field(&shed, "retry_after_ms").as_u64().unwrap() >= 1);
        assert_eq!(err_field(&shed, "code").as_str(), Some("GF0072"));
        let stats = server.handle_request(Request::Stats);
        assert_eq!(get(&stats, "ok").as_bool(), Some(true));
        server.with_metrics(|m| {
            assert!(m.counter("serve.guard.shed") >= 1);
            assert_eq!(m.counter("serve.guard.breaker_trips"), 1);
            assert_eq!(m.gauge_value("serve.guard.breaker_state"), Some(2.0));
        });
    }

    #[test]
    fn half_open_survives_probe_consumers_that_never_observe() {
        // Regression: compile requests (and runs that error out early)
        // consume half-open probe slots but produce no service sample.
        // Each must return its slot, or a mixed compile/run workload
        // wedges the breaker into shedding forever after one trip.
        let server = Server::new(ServeConfig {
            guard: GuardConfig {
                window: 4,
                min_samples: 2,
                health_limit_us: 1,
                cooldown_ms: 1,
                probes: 2,
                retry_after_ms: 5,
            },
            ..ServeConfig::default()
        });
        server.handle_line(r#"{"op":"run","template":"fig3"}"#);
        server.handle_line(r#"{"op":"run","template":"fig3"}"#);
        server.with_metrics(|m| {
            assert_eq!(m.gauge_value("serve.guard.breaker_state"), Some(2.0));
        });
        std::thread::sleep(Duration::from_millis(5)); // cooldown elapses
                                                      // Far more compiles than probe slots: every one must be admitted
                                                      // (slot consumed, then returned on exit), none shed.
        for i in 0..10 {
            let r = server.handle_line(r#"{"op":"compile","template":"fig3"}"#);
            let r = gpuflow_minijson::parse(&r).unwrap();
            assert_eq!(
                get(&r, "ok").as_bool(),
                Some(true),
                "compile {i} shed: {r:?}"
            );
        }
        // A run with a bad fault spec errors before any observation —
        // its slot comes back too.
        let r = server.handle_line(r#"{"op":"run","template":"fig3","faults":"nonsense"}"#);
        let r = gpuflow_minijson::parse(&r).unwrap();
        assert_eq!(err_field(&r, "kind").as_str(), Some("bad_request"));
        // The breaker still has probe slots: a real run is admitted and
        // its (unhealthy, limit is 1µs) verdict reopens — the state
        // machine is alive, not stranded.
        let r = server.handle_line(r#"{"op":"run","template":"fig3"}"#);
        let r = gpuflow_minijson::parse(&r).unwrap();
        assert_eq!(get(&r, "ok").as_bool(), Some(true), "probe run shed: {r:?}");
        server.with_metrics(|m| {
            assert_eq!(m.counter("serve.guard.shed"), 0);
            assert_eq!(m.gauge_value("serve.guard.breaker_state"), Some(2.0));
        });
    }

    #[test]
    fn cache_journal_warms_a_restarted_server() {
        let path = std::env::temp_dir().join(format!(
            "gpuflow-serve-warm-restart-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let cfg = || ServeConfig {
            cache_path: Some(path.clone()),
            ..ServeConfig::default()
        };
        let line = r#"{"op":"compile","template":"edge:96x96,k=5,o=2"}"#;
        let first_hit = {
            let server = Server::new(cfg());
            let miss = gpuflow_minijson::parse(&server.handle_line(line)).unwrap();
            assert_eq!(get(&miss, "cache").as_str(), Some("miss"));
            let hit = server.handle_line(line);
            assert_eq!(
                get(&gpuflow_minijson::parse(&hit).unwrap(), "cache").as_str(),
                Some("hit")
            );
            hit
        }; // server dropped = daemon killed
        let server = Server::new(cfg());
        server.with_metrics(|m| {
            assert!(m.counter("serve.guard.journal_replayed") >= 1);
            assert_eq!(m.counter("serve.guard.journal_recovered"), 0);
        });
        // The restarted daemon answers the same request as a warm,
        // byte-identical cache hit — no recompile.
        let warm = server.handle_line(line);
        assert_eq!(warm, first_hit, "warm restart response differs");
        server.with_metrics(|m| assert_eq!(m.counter("serve.cache_misses"), 0));
        let _ = std::fs::remove_file(&path);
    }
}
