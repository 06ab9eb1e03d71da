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
//! * [`planner`] — [`compile_multi`], the end-to-end entry point, and
//!   [`MultiCompiled::simulate`]: the one overlap simulator
//!   ([`gpuflow_core::overlap`]) on [`Cluster::machine`] — per-device
//!   compute lanes racing one shared, backfilling bus, which is what
//!   bends the scalability curve at high device counts;
//! * [`resilient`] — fault-tolerant execution under an injected fault
//!   schedule ([`gpuflow_chaos`]), including failover replanning of the
//!   not-yet-executed suffix onto surviving devices after a hard device
//!   loss.
//!
//! Plans are ordinary [`gpuflow_core::ExecutionPlan`]s — a single GPU is
//! a cluster of one — and every plan this crate emits verifies clean
//! under [`gpuflow_verify::analyze_plan`] (the `GF003x` cross-device
//! diagnostics); the scheduler re-checks its own output in debug builds.

#![deny(missing_docs)]

pub mod admission;
pub mod cluster;
pub mod observe;
pub mod planner;
pub mod resilient;
pub mod schedule;
pub mod shard;

pub use admission::{AdmissionError, AdmissionLedger, Reservation};
pub use cluster::{parse_cluster, Cluster};
pub use observe::record_cluster_metrics;
pub use planner::{compile_multi, compile_multi_traced, MultiCompiled};
pub use resilient::{MultiResilientOutcome, ResilientMultiExecutor};
pub use schedule::{schedule_multi_transfers, MultiXferOptions};
pub use shard::{device_for_row, shard_graph, ShardedGraph};
