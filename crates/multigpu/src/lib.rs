//! # gpuflow-multi — sharded multi-GPU planning and simulated execution
//!
//! Scales the IPDPS'09 single-GPU framework across a simulated cluster of
//! N devices (possibly heterogeneous) hanging off one host and sharing a
//! single PCIe fabric:
//!
//! * [`cluster`] — cluster descriptions and the `NAMExN` spec parser
//!   behind the CLI's `--devices` flag;
//! * [`admission`] — per-device committed-bytes accounting used by the
//!   serving layer to keep concurrent in-flight plans within capacity;
//! * [`shard`] — the sharding pass: the single-GPU operator-splitting pass
//!   carves every operator into at least one row band per device, and each
//!   piece is assigned the device owning its band;
//! * [`schedule`] — the cluster entry point of the one transfer scheduler
//!   (`gpuflow_core::xfer`): one global topological unit order,
//!   per-device Belady eviction and eager free, and explicit **staged**
//!   device→host→device inter-device copies;
//! * [`planner`] — [`compile_multi`], the end-to-end entry point. It
//!   returns the same [`gpuflow_core::CompiledTemplate`] a one-device
//!   compile does, whose machine is the cluster's devices behind their
//!   shared bus: its `simulate` is the one overlap simulator
//!   ([`gpuflow_core::overlap`]) with per-device compute lanes racing one
//!   shared, backfilling bus, which is what bends the scalability curve at
//!   high device counts.
//!
//! Fault-tolerant execution is not cluster-specific either: the one
//! resilient executor (`gpuflow_core::ResilientExecutor`) runs a
//! compiled cluster plan on [`Cluster::machine`] and fails over onto the
//! surviving devices after a hard device loss.
//!
//! Plans are ordinary [`gpuflow_core::ExecutionPlan`]s — a single GPU is
//! a cluster of one — and a cluster compile ends, as a one-device compile
//! does, with the plan's check: the residency walk against the devices'
//! capacities under [`gpuflow_verify::analyze_plan`] (the `GF003x`
//! cross-device diagnostics) and the concurrency certificate, in a
//! `validate` span. A plan that fails either is a compile error.

#![deny(missing_docs)]

pub mod admission;
pub mod cluster;
pub mod observe;
pub mod planner;
pub mod schedule;
pub mod shard;

pub use admission::{AdmissionError, AdmissionLedger, Reservation};
pub use cluster::{parse_cluster, Cluster};
pub use observe::record_cluster_metrics;
pub use planner::{compile_multi, compile_multi_traced, MultiCompiled};
pub use schedule::{schedule_multi_transfers, MultiXferOptions};
pub use shard::{device_for_row, shard_graph, ShardedGraph};
