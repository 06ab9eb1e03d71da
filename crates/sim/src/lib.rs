//! # gpuflow-sim
//!
//! A GPU *platform* simulator standing in for the paper's NVIDIA testbeds
//! (Tesla C870 and GeForce 8800 GTX under CUDA 2.0).
//!
//! The paper's results are driven by exactly two platform properties:
//!
//! 1. **Device memory capacity** — the hard constraint the framework plans
//!    around. Modeled by a real first-fit allocator ([`alloc`]) with
//!    observable fragmentation, honouring the paper's note that
//!    `Total_GPU_Memory` must be de-rated for fragmentation.
//! 2. **The compute : host-transfer time ratio** — PCIe at ~1.5 GB/s vs
//!    tens of GB/s internally, which makes transfers 30–75 % of runtime
//!    (paper Fig. 2). Modeled by [`timing`], calibrated against the
//!    anchor points of Fig. 2.
//!
//! Execution itself is *functional on the host CPU* (see `gpuflow-ops`);
//! this crate accounts for where bytes live and how long everything takes
//! on the simulated device.

#![warn(missing_docs)]

pub mod alloc;
pub mod bus;
pub mod device;
pub mod timeline;
pub mod timing;

pub use alloc::{AllocError, Allocation, DeviceAllocator, FitPolicy};
pub use bus::{BusArbiter, BusDir, BusSpec, Grant};
pub use device::{DeviceSpec, GEFORCE_8800_GTX, MODERN, TESLA_C870};
pub use timeline::{Counters, Event, EventKind, Timeline};
pub use timing::{kernel_time, transfer_time};
