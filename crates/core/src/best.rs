//! The "best possible" reference point of the paper's Fig. 8.
//!
//! "Assume that the GPU has infinite memory and all the operations can be
//! combined into a single optimized GPU kernel call. … This is the optimal
//! implementation in terms of data transfers (only input and output need to
//! be transferred) and GPU call overhead (only one GPU kernel call)."
//!
//! This is an *estimate*, not an executable plan — no real device could run
//! it when the data exceeds its memory, which is exactly the point of the
//! comparison.

use gpuflow_graph::{DataKind, Graph};
use gpuflow_sim::{kernel_time, timing::Work, transfer_time, DeviceSpec};

use crate::overlap::op_kernel_time;

/// The best-possible estimate for a template on a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestPossible {
    /// Floats transferred: template inputs + constants + outputs only.
    pub transfer_floats: u64,
    /// Simulated transfer time, seconds (one copy per boundary structure).
    pub transfer_time: f64,
    /// Simulated compute time, seconds (all operator work fused into one
    /// kernel launch).
    pub kernel_time: f64,
}

impl BestPossible {
    /// End-to-end simulated time.
    pub fn total_time(&self) -> f64 {
        self.transfer_time + self.kernel_time
    }
}

/// Compute the best-possible reference for `g` on `dev`.
pub fn best_possible_estimate(g: &Graph, dev: &DeviceSpec) -> BestPossible {
    let mut transfer_floats = 0u64;
    let mut xfer = 0.0f64;
    for d in g.data_ids() {
        let desc = g.data(d);
        if desc.kind != DataKind::Temporary {
            transfer_floats += desc.len();
            xfer += transfer_time(dev, desc.bytes());
        }
    }
    // One fused kernel: sum all operator work, one launch overhead.
    let mut work = Work::default();
    for o in g.op_ids() {
        let (_, w) = op_kernel_time(g, o, dev);
        work.flops += w.flops;
        work.bytes += w.bytes;
    }
    BestPossible {
        transfer_floats,
        transfer_time: xfer,
        kernel_time: kernel_time(dev, work),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{fig3_graph, FIG3_UNIT_FLOATS};
    use gpuflow_sim::device::tesla_c870;

    #[test]
    fn best_possible_transfers_io_only() {
        let g = fig3_graph();
        let best = best_possible_estimate(&g, &tesla_c870());
        // Im (2 units) + E' + E'' (1 unit each).
        assert_eq!(best.transfer_floats, 4 * FIG3_UNIT_FLOATS as u64);
        assert!(best.transfer_time > 0.0);
        assert!(best.kernel_time > 0.0);
        assert_eq!(best.total_time(), best.transfer_time + best.kernel_time);
    }

    #[test]
    fn single_launch_overhead_only() {
        let g = fig3_graph();
        let dev = tesla_c870();
        let best = best_possible_estimate(&g, &dev);
        // Kernel time includes exactly one launch overhead: with zero-work
        // ops dominating this tiny graph, the launch floor shows.
        assert!(best.kernel_time >= dev.launch_overhead_s);
        assert!(best.kernel_time < 2.0 * dev.launch_overhead_s + 1e-3);
    }
}
