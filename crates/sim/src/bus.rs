//! The host↔device link and its arbiter.
//!
//! Every transfer of a plan crosses one full-duplex link — a host→device
//! channel and a device→host channel, each serving one transfer at a time
//! — and [`BusArbiter`] decides when each transfer gets its channel.
//!
//! A cluster hangs every device off one host-side PCIe fabric: all
//! host↔device transfers — including the device→host→device staged copies
//! that implement inter-device communication — contend for the same two
//! channels, and a transfer is granted the earliest idle slot once its
//! data is ready. That contention is what bounds scalability as the
//! device count grows. A single device owns its link: its two DMA engines
//! serve their copies strictly in issue order. Same timing model, same
//! accounting, two grant disciplines ([`BusArbiter::shared`],
//! [`BusArbiter::private`]).

/// Static description of the shared host↔device interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct BusSpec {
    /// Sustained bandwidth of each direction of the fabric, bytes/second.
    pub bandwidth: f64,
    /// Fixed per-transfer cost (DMA setup, driver overhead), seconds.
    pub latency_s: f64,
}

impl BusSpec {
    /// Bus matching one device's PCIe link: the whole cluster shares a
    /// fabric no faster than its slowest endpoint.
    pub fn from_device(dev: &crate::DeviceSpec) -> BusSpec {
        BusSpec {
            bandwidth: dev.pcie_bw,
            latency_s: dev.transfer_latency_s,
        }
    }

    /// The slowest link among `devices` — the fabric's effective spec.
    /// Panics if `devices` is empty.
    pub fn shared_by(devices: &[crate::DeviceSpec]) -> BusSpec {
        assert!(!devices.is_empty(), "cluster needs at least one device");
        let slowest = devices
            .iter()
            .min_by(|a, b| a.pcie_bw.total_cmp(&b.pcie_bw))
            .expect("non-empty");
        let latency = devices
            .iter()
            .map(|d| d.transfer_latency_s)
            .fold(0.0f64, f64::max);
        BusSpec {
            bandwidth: slowest.pcie_bw,
            latency_s: latency,
        }
    }

    /// Check the spec is physically meaningful: bandwidth strictly
    /// positive and finite, latency non-negative and finite. A
    /// zero-bandwidth bus would silently turn every transfer time into
    /// `inf`, so specs are rejected at construction/parse time instead.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.bandwidth.is_finite() && self.bandwidth > 0.0) {
            return Err(format!(
                "bus bandwidth must be finite and > 0 (got {})",
                self.bandwidth
            ));
        }
        if !(self.latency_s.is_finite() && self.latency_s >= 0.0) {
            return Err(format!(
                "bus latency must be finite and >= 0 (got {})",
                self.latency_s
            ));
        }
        Ok(())
    }

    /// Duration of one transfer of `bytes` over the bus.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        debug_assert!(
            self.validate().is_ok(),
            "transfer_time on invalid BusSpec: {:?}",
            self
        );
        self.latency_s + bytes as f64 / self.bandwidth
    }
}

/// Direction of a transfer over the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusDir {
    /// Host→device (upload).
    H2d,
    /// Device→host (download).
    D2h,
}

/// How one channel of the fabric orders the transfers it is asked for.
#[derive(Debug, Clone)]
enum Channel {
    /// Issue order: a transfer starts no earlier than the one requested
    /// before it ended, even if the channel idled in between waiting for
    /// that one's data. One device's private DMA engine.
    InOrder { free: f64 },
    /// Earliest free slot: scheduled `(start, end)` intervals, sorted by
    /// start, non-overlapping. The fabric a cluster shares.
    Backfill { granted: Vec<(f64, f64)> },
}

/// One granted transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grant {
    /// When the transfer starts.
    pub start: f64,
    /// When it ends; the channel is busy for the whole interval.
    pub end: f64,
    /// Whether other devices' traffic on a shared fabric held the transfer
    /// past its ready time. Never set on a private channel: queueing behind
    /// one's own earlier copies is not contention.
    pub contended: bool,
}

/// Arbiter over one [`BusSpec`]: each direction's channel serves one
/// transfer at a time (the two directions are independent), under one of
/// two disciplines fixed at construction.
///
/// A [`shared`](BusArbiter::shared) fabric grants a transfer the *earliest
/// free slot* of its channel at or after its ready time — a request whose
/// data is ready while the channel idles slips into the gap instead of
/// queueing behind transfers that were merely issued earlier. When the
/// channel is saturated there are no gaps and requests serialize: this is
/// the contention that bounds multi-device scaling.
///
/// A [`private`](BusArbiter::private) link is a device's own pair of DMA
/// engines: each is an issue-ordered FIFO, so a copy that waits for its
/// data holds back every copy requested after it. The two disciplines
/// agree whenever no request becomes ready before an earlier one; they
/// differ when a re-upload waits on its download and a later upload could
/// overtake it.
#[derive(Debug, Clone)]
pub struct BusArbiter {
    spec: BusSpec,
    channels: [Channel; 2],
    busy: [f64; 2],
    bytes: u64,
}

impl BusArbiter {
    /// A cluster's shared fabric (backfilling), idle at time zero.
    pub fn shared(spec: BusSpec) -> BusArbiter {
        BusArbiter::idle(
            spec,
            Channel::Backfill {
                granted: Vec::new(),
            },
        )
    }

    /// One device's private link (issue-ordered), idle at time zero.
    pub fn private(spec: BusSpec) -> BusArbiter {
        BusArbiter::idle(spec, Channel::InOrder { free: 0.0 })
    }

    fn idle(spec: BusSpec, channel: Channel) -> BusArbiter {
        BusArbiter {
            spec,
            channels: [channel.clone(), channel],
            busy: [0.0; 2],
            bytes: 0,
        }
    }

    /// Grant a transfer of `bytes` in direction `dir` whose data is
    /// available at time `ready`.
    pub fn acquire(&mut self, dir: BusDir, ready: f64, bytes: u64) -> Grant {
        let dur = self.spec.transfer_time(bytes);
        let ch = dir as usize;
        self.busy[ch] += dur;
        self.bytes += bytes;
        match &mut self.channels[ch] {
            Channel::InOrder { free } => {
                let start = free.max(ready);
                *free = start + dur;
                Grant {
                    start,
                    end: *free,
                    contended: false,
                }
            }
            Channel::Backfill { granted } => {
                // Earliest gap of length `dur` at or after `ready`.
                let mut start = ready;
                let mut at = granted.len();
                for (i, &(s, e)) in granted.iter().enumerate() {
                    if start + dur <= s {
                        at = i;
                        break;
                    }
                    start = start.max(e);
                }
                granted.insert(at, (start, start + dur));
                Grant {
                    start,
                    end: start + dur,
                    contended: start > ready,
                }
            }
        }
    }

    /// Time the direction's channel has spent transferring.
    pub fn busy_time(&self, dir: BusDir) -> f64 {
        self.busy[dir as usize]
    }

    /// Total bytes moved over the bus (both directions).
    pub fn bytes_moved(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{geforce_8800_gtx, modern, tesla_c870};

    #[test]
    fn bus_matches_device_link() {
        let bus = BusSpec::from_device(&tesla_c870());
        assert!((bus.transfer_time(1_500_000_000) - 1.0).abs() < 0.01);
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        assert!(BusSpec::from_device(&tesla_c870()).validate().is_ok());
        let zero_bw = BusSpec {
            bandwidth: 0.0,
            latency_s: 1e-5,
        };
        assert!(zero_bw.validate().unwrap_err().contains("bandwidth"));
        let neg_lat = BusSpec {
            bandwidth: 1e9,
            latency_s: -1e-6,
        };
        assert!(neg_lat.validate().unwrap_err().contains("latency"));
        let nan_bw = BusSpec {
            bandwidth: f64::NAN,
            latency_s: 0.0,
        };
        assert!(nan_bw.validate().is_err());
    }

    #[test]
    fn shared_fabric_is_the_slowest_link() {
        let bus = BusSpec::shared_by(&[modern(), geforce_8800_gtx()]);
        assert_eq!(bus.bandwidth, geforce_8800_gtx().pcie_bw);
        // A homogeneous cluster keeps its device's link speed.
        let homo = BusSpec::shared_by(&[modern(), modern()]);
        assert_eq!(homo.bandwidth, modern().pcie_bw);
    }

    fn gigabyte_bus() -> BusSpec {
        BusSpec {
            bandwidth: 1e9,
            latency_s: 0.0,
        }
    }

    #[test]
    fn arbiter_serializes_and_accounts() {
        for mut bus in [
            BusArbiter::shared(gigabyte_bus()),
            BusArbiter::private(gigabyte_bus()),
        ] {
            let a = bus.acquire(BusDir::H2d, 0.0, 500_000_000);
            let b = bus.acquire(BusDir::H2d, 0.0, 500_000_000);
            assert_eq!(a.start, 0.0);
            assert!((a.end - 0.5).abs() < 1e-12);
            assert_eq!(b.start, a.end, "second upload waits for the channel");
            assert!((b.end - 1.0).abs() < 1e-12);
            assert!((bus.busy_time(BusDir::H2d) - 1.0).abs() < 1e-12);
            assert_eq!(bus.bytes_moved(), 1_000_000_000);
        }
    }

    #[test]
    fn directions_are_independent_channels() {
        for mut bus in [
            BusArbiter::shared(gigabyte_bus()),
            BusArbiter::private(gigabyte_bus()),
        ] {
            let up = bus.acquire(BusDir::H2d, 0.0, 1_000_000_000);
            // A download issued later does not queue behind the upload.
            let down = bus.acquire(BusDir::D2h, 0.0, 500_000_000);
            assert_eq!(down.start, 0.0, "full duplex: directions do not serialize");
            assert!(down.end < up.end);
            assert_eq!(bus.busy_time(BusDir::D2h), 0.5);
        }
    }

    #[test]
    fn arbiter_respects_data_readiness() {
        for mut bus in [
            BusArbiter::shared(gigabyte_bus()),
            BusArbiter::private(gigabyte_bus()),
        ] {
            let g = bus.acquire(BusDir::D2h, 2.0, 1000);
            assert_eq!(g.start, 2.0, "transfer cannot start before its data");
            assert!(!g.contended, "waiting for one's own data is not contention");
        }
    }

    #[test]
    fn ready_transfer_backfills_idle_gaps() {
        let mut bus = BusArbiter::shared(gigabyte_bus());
        // One device trickles uploads late in the timeline...
        let g1 = bus.acquire(BusDir::H2d, 10.0, 1_000_000_000);
        assert_eq!(g1.start, 10.0);
        // ...another device's upload, requested afterwards but ready at
        // t=0, uses the idle channel instead of queueing behind it.
        let g2 = bus.acquire(BusDir::H2d, 0.0, 1_000_000_000);
        assert_eq!(g2.start, 0.0, "no head-of-line blocking on an idle channel");
        assert!((g2.end - 1.0).abs() < 1e-12);
        assert!(!g2.contended);
        // A third transfer that overlaps the gap's tail slots in after it.
        let g3 = bus.acquire(BusDir::H2d, 0.5, 2_000_000_000);
        assert!((g3.start - 1.0).abs() < 1e-12, "partial gap: waits for it");
        assert!(g3.contended, "held past its ready time by other traffic");
        // Saturated channel: no gap left before 10.0 fits a 8s transfer,
        // so it goes after the late upload.
        let g4 = bus.acquire(BusDir::H2d, 0.0, 8_000_000_000);
        assert!((g4.start - 11.0).abs() < 1e-12, "{g4:?}");
    }

    #[test]
    fn private_link_keeps_issue_order() {
        // The same request sequence as the backfill test: on a device's own
        // DMA engine the late first upload holds back everything behind it.
        let mut bus = BusArbiter::private(gigabyte_bus());
        let g1 = bus.acquire(BusDir::H2d, 10.0, 1_000_000_000);
        assert_eq!(g1.start, 10.0);
        let g2 = bus.acquire(BusDir::H2d, 0.0, 1_000_000_000);
        assert_eq!(g2.start, g1.end, "no overtaking on an in-order engine");
        assert!(!g2.contended, "a private engine is never contended");
    }
}
