//! # gpuflow-chaos — deterministic fault injection for the simulated platform
//!
//! The framework's plans presume a perfectly reliable GPU: transfers land,
//! kernels complete, allocations succeed. Production fleets do not work
//! that way — devices drop off the bus, ECC retires pages mid-transfer,
//! allocations fail under pressure. Because our platform is *simulated*,
//! failure can be a first-class, **deterministic** input instead of an
//! operational surprise: a [`FaultSpec`] (one seed plus per-class rates and
//! schedules) fully determines every fault a run will see, so a recovery
//! path exercised once is exercised identically forever.
//!
//! The crate has three layers:
//!
//! * [`spec`] — [`FaultSpec`]: the seeded fault model (transient kernel
//!   failures, ECC-style transfer corruption, allocation failures, bus
//!   brown-outs, hard device loss at a chosen simulated time) and the
//!   `--faults` CLI grammar.
//! * [`inject`] — [`FaultInjector`]: resolves a spec against a concrete
//!   run and answers "does this kernel/transfer/allocation fault?" as a
//!   pure function of `(seed, class, site, attempt)` — injection decisions
//!   are independent of call order, which is what makes whole timelines
//!   bit-reproducible.
//! * [`net`] — [`NetFaultPlan`]: the same seeded discipline for the
//!   *serving* failure surface (connection drops, byte-trickling clients,
//!   garbage frames, partial writes), decided purely from
//!   `(seed, class, client, request)` and injected at the transport seam
//!   by `gpuflow-serve`.
//! * [`policy`] — [`RetryPolicy`], [`RecoveryOptions`], and the
//!   [`RecoveryStats`]/[`RecoveryEvent`] bookkeeping of the resilient
//!   executor in `gpuflow-core`.
//!
//! The recovery ladder itself (retry → checkpoint/restart → failover
//! replanning → CPU degradation) lives with the executor; this crate is
//! deliberately below them in the dependency graph so the fault model can
//! plug into `sim`-level components. See `docs/robustness.md`.

#![warn(missing_docs)]

pub mod inject;
pub mod net;
pub mod observe;
pub mod policy;
pub mod rng;
pub mod spec;

pub use inject::{FaultClass, FaultEvent, FaultInjector};
pub use net::{NetFault, NetFaultPlan};
pub use observe::{trace_recovery, PID_CHAOS};
pub use policy::{RecoveryEvent, RecoveryEventKind, RecoveryOptions, RecoveryStats, RetryPolicy};
pub use spec::{Brownout, DeviceLoss, FaultSpec, LossTime};
