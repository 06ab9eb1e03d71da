//! gpuflow-serve: a long-running planning-and-execution daemon.
//!
//! The paper's framework compiles a domain-specific template once and
//! executes it many times; this crate turns that economy into a service.
//! A daemon owns one simulated cluster and serves `compile` / `run` /
//! `stats` / `shutdown` requests over a line-delimited JSON protocol on
//! plain TCP (no external dependencies — [`gpuflow_minijson`] is the
//! wire format).
//!
//! Three subsystems do the work:
//!
//! * **content-addressed plan cache** ([`cache`], [`key`], [`planner`]) —
//!   plans are keyed by the graph's insertion-order-invariant
//!   [`gpuflow_graph::canonical_hash`], the normalized
//!   [`gpuflow_core::CompileOptions`], and a cluster fingerprint. A
//!   size-insensitive skeleton index powers an *incremental recompile*
//!   fast path: a resized template reuses the cached schedule and re-runs
//!   only splitting + validation.
//! * **memory-aware admission** ([`gpuflow_multi::AdmissionLedger`]) —
//!   each run reserves its plan's `peak_per_device` bytes before
//!   executing; oversubscribing requests queue (bounded, with typed
//!   `backpressure` rejections) instead of oversubscribing the
//!   simulated devices.
//! * **request scheduler** ([`server`], [`net`]) — connection threads
//!   multiplex admitted runs onto the executors, with per-phase latency
//!   histograms and `serve.*` metrics (the `stats` and `metrics` ops).
//!   Each response leaves in one framed write on a `TCP_NODELAY` socket,
//!   so a warm hit costs its compute, not a delayed ACK; each cached plan
//!   carries its hazard certificate, computed once at insert; and the
//!   daemon's memory is bounded by its cache, not by requests served.
//!
//! The serve-hardening layer (`gpuflow-guard`) rides on top:
//!
//! * **deadlines and overload shedding** ([`guard`]) — per-request
//!   `deadline_ms` budgets enforced at every phase boundary, and a
//!   sliding-window circuit breaker that sheds load with typed
//!   `retry_after_ms` rejects when `p99 × queue depth` crosses a limit.
//! * **crash-safe cache persistence** ([`journal`]) — an append-only,
//!   checksummed recipe journal (`--cache-path`) replayed on restart to
//!   rebuild the plan cache, its LRU order, and the source-text memo;
//!   torn tails are detected and dropped (`GF0071`).
//!
//! The ci.sh gates live in [`smoke`] (deterministic protocol smoke,
//! breaker flood, and kill-and-restart warm-cache check) and [`soak`]
//! (concurrent chaos-faulted storm plus network-fault and
//! malformed-frame storms from [`netchaos`]).

#![warn(missing_docs)]

pub mod cache;
pub mod guard;
pub mod journal;
pub mod key;
pub mod net;
pub mod netchaos;
pub mod planner;
pub mod protocol;
pub mod server;
pub mod smoke;
pub mod soak;
pub mod source;

pub use cache::PlanCache;
pub use guard::{percentile_us, Breaker, BreakerState, Deadline, GuardConfig};
pub use journal::{Journal, PlanRecord};
pub use key::{cluster_fingerprint, device_fingerprint, PlanKey, SkeletonKey};
pub use net::{request_once, request_with_retry, serve_tcp, Client, ServerHandle};
pub use planner::{plan_request, CacheOutcome, PlannedRequest};
pub use protocol::{parse_request, Request, RequestOptions};
pub use server::{ServeConfig, Server, PHASES};
pub use smoke::run_smoke;
pub use soak::{run_soak, SoakReport};
pub use source::{resolve_named, Builtin, TemplateRef};
