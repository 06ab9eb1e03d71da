//! The fault injector: a [`FaultSpec`] resolved against one concrete run.
//!
//! Every injection decision is a *pure function* of
//! `(seed, class, site, attempt)` — the injector mixes those four words
//! through the SplitMix64 finalizer and compares the result against the
//! class rate. No shared stream is consumed, so the answer for a given
//! site never depends on how many other sites were queried first or in
//! what order. That property is what lets two structurally different
//! executions of the same plan (say, before and after a replanning pass
//! reorders queries) still agree on which kernels fault — and what makes
//! the determinism property test meaningful rather than vacuous.

use crate::rng::{mix, mix_f64};
use crate::spec::{FaultSpec, LossTime};

/// The injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Transient kernel-launch failure.
    Kernel,
    /// Transfer corruption requiring retransmit.
    Transfer,
    /// Transient device-allocation failure.
    Alloc,
    /// Hard device loss.
    DeviceLoss,
}

impl FaultClass {
    /// Stable label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Kernel => "kernel",
            FaultClass::Transfer => "transfer",
            FaultClass::Alloc => "alloc",
            FaultClass::DeviceLoss => "device-loss",
        }
    }

    fn salt(self) -> u64 {
        match self {
            FaultClass::Kernel => 0x4B45_524E,
            FaultClass::Transfer => 0x5846_4552,
            FaultClass::Alloc => 0x414C_4C4F,
            FaultClass::DeviceLoss => 0x4C4F_5353,
        }
    }
}

/// One injected fault, for the event log.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Fault class.
    pub class: FaultClass,
    /// Simulated time of injection, seconds.
    pub at_s: f64,
    /// The site the fault hit (step index, unit index, …) as reported by
    /// the executor.
    pub site: u64,
    /// Which attempt at the site faulted (0-based).
    pub attempt: u32,
}

/// A [`FaultSpec`] bound to one run: loss fractions resolved against the
/// fault-free makespan, plus a log of everything injected.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
    /// Resolved absolute loss time, if the spec loses a device.
    loss_at_s: Option<f64>,
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Bind `spec` to a run whose fault-free makespan is
    /// `faultfree_makespan_s` (used to resolve [`LossTime::Fraction`]).
    pub fn new(spec: &FaultSpec, faultfree_makespan_s: f64) -> FaultInjector {
        let loss_at_s = spec.device_loss.map(|l| match l.at {
            LossTime::Seconds(t) => t,
            LossTime::Fraction(f) => f * faultfree_makespan_s,
        });
        FaultInjector {
            spec: spec.clone(),
            loss_at_s,
            events: Vec::new(),
        }
    }

    /// The bound spec.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Pure decision: would `class` fault at `(site, attempt)`?
    fn decide(&self, class: FaultClass, site: u64, attempt: u32) -> bool {
        let rate = match class {
            FaultClass::Kernel => self.spec.kernel_rate,
            FaultClass::Transfer => self.spec.transfer_rate,
            FaultClass::Alloc => self.spec.alloc_rate,
            FaultClass::DeviceLoss => return false,
        };
        if rate <= 0.0 {
            return false;
        }
        let word = mix(self.spec.seed ^ class.salt())
            ^ mix(site
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(attempt as u64));
        mix_f64(word) < rate
    }

    fn query(&mut self, class: FaultClass, t: f64, site: u64, attempt: u32) -> bool {
        let fault = self.decide(class, site, attempt);
        if fault {
            self.events.push(FaultEvent {
                class,
                at_s: t,
                site,
                attempt,
            });
        }
        fault
    }

    /// Does the kernel launch at `site` fault on `attempt` (0-based), at
    /// simulated time `t`? Logs the fault when it fires.
    pub fn kernel_faults(&mut self, t: f64, site: u64, attempt: u32) -> bool {
        self.query(FaultClass::Kernel, t, site, attempt)
    }

    /// Does the transfer at `site` corrupt on `attempt`?
    pub fn transfer_faults(&mut self, t: f64, site: u64, attempt: u32) -> bool {
        self.query(FaultClass::Transfer, t, site, attempt)
    }

    /// Does the allocation at `site` fail transiently on `attempt`?
    pub fn alloc_faults(&mut self, t: f64, site: u64, attempt: u32) -> bool {
        self.query(FaultClass::Alloc, t, site, attempt)
    }

    /// Bus bandwidth multiplier at simulated time `t`: 1.0 outside any
    /// brown-out window, the window's factor inside it.
    pub fn bandwidth_factor(&self, t: f64) -> f64 {
        match self.spec.brownout {
            Some(b) if t >= b.start_s && t < b.start_s + b.duration_s => b.factor,
            _ => 1.0,
        }
    }

    /// Index of the device the spec loses, if any.
    pub fn lost_device(&self) -> Option<usize> {
        self.spec.device_loss.map(|l| l.device)
    }

    /// Is `device` dead at simulated time `t`?
    pub fn device_lost(&self, device: usize, t: f64) -> bool {
        match (self.spec.device_loss, self.loss_at_s) {
            (Some(l), Some(at)) => l.device == device && t >= at,
            _ => false,
        }
    }

    /// Record the moment a device loss was *observed* by the executor (the
    /// injector itself only defines when it happened).
    pub fn log_device_loss(&mut self, t: f64, device: usize) {
        self.events.push(FaultEvent {
            class: FaultClass::DeviceLoss,
            at_s: t,
            site: device as u64,
            attempt: 0,
        });
    }

    /// Everything injected so far, in query order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of injected faults of `class`.
    pub fn count(&self, class: FaultClass) -> u64 {
        self.events.iter().filter(|e| e.class == class).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Brownout, DeviceLoss, FaultSpec};

    fn spec(kernel: f64) -> FaultSpec {
        FaultSpec {
            kernel_rate: kernel,
            ..FaultSpec::quiet(42)
        }
    }

    #[test]
    fn decisions_are_order_independent() {
        let mut a = FaultInjector::new(&spec(0.5), 1.0);
        let mut b = FaultInjector::new(&spec(0.5), 1.0);
        let fwd: Vec<bool> = (0..64).map(|s| a.kernel_faults(0.0, s, 0)).collect();
        let mut rev: Vec<bool> = (0..64).rev().map(|s| b.kernel_faults(0.0, s, 0)).collect();
        rev.reverse();
        assert_eq!(fwd, rev);
        // And the rate is roughly honoured.
        let hits = fwd.iter().filter(|&&f| f).count();
        assert!((16..=48).contains(&hits), "{hits}");
    }

    #[test]
    fn seeds_change_the_schedule_and_rate_zero_never_fires() {
        let mut a = FaultInjector::new(&spec(0.5), 1.0);
        let mut c = FaultInjector::new(
            &FaultSpec {
                seed: 43,
                ..spec(0.5)
            },
            1.0,
        );
        let xs: Vec<bool> = (0..64).map(|s| a.kernel_faults(0.0, s, 0)).collect();
        let ys: Vec<bool> = (0..64).map(|s| c.kernel_faults(0.0, s, 0)).collect();
        assert_ne!(xs, ys);
        let mut q = FaultInjector::new(&FaultSpec::quiet(42), 1.0);
        assert!((0..256).all(|s| !q.kernel_faults(0.0, s, 0)));
        assert!(q.events().is_empty());
    }

    #[test]
    fn attempts_are_independent_sites() {
        // With rate 0.5 some site must fault on attempt 0 but not 1.
        let mut inj = FaultInjector::new(&spec(0.5), 1.0);
        let differs = (0..64).any(|s| {
            let a0 = inj.kernel_faults(0.0, s, 0);
            let a1 = inj.kernel_faults(0.0, s, 1);
            a0 != a1
        });
        assert!(differs);
    }

    #[test]
    fn classes_have_independent_streams() {
        let full = FaultSpec {
            kernel_rate: 0.5,
            transfer_rate: 0.5,
            alloc_rate: 0.5,
            ..FaultSpec::quiet(42)
        };
        let mut inj = FaultInjector::new(&full, 1.0);
        let k: Vec<bool> = (0..64).map(|s| inj.kernel_faults(0.0, s, 0)).collect();
        let x: Vec<bool> = (0..64).map(|s| inj.transfer_faults(0.0, s, 0)).collect();
        assert_ne!(k, x, "kernel and transfer decisions must not be coupled");
        assert_eq!(
            inj.count(FaultClass::Kernel) + inj.count(FaultClass::Transfer),
            inj.events().len() as u64
        );
    }

    #[test]
    fn loss_fraction_resolves_against_the_baseline() {
        let s = FaultSpec {
            device_loss: Some(DeviceLoss {
                device: 1,
                at: LossTime::Fraction(0.5),
            }),
            ..FaultSpec::quiet(0)
        };
        let inj = FaultInjector::new(&s, 4.0);
        assert_eq!(inj.lost_device(), Some(1));
        assert!(!inj.device_lost(1, 1.9));
        assert!(inj.device_lost(1, 2.0));
        assert!(!inj.device_lost(0, 3.0), "only the named device dies");
    }

    #[test]
    fn brownout_window_scales_bandwidth() {
        let s = FaultSpec {
            brownout: Some(Brownout {
                start_s: 1.0,
                duration_s: 0.5,
                factor: 0.25,
            }),
            ..FaultSpec::quiet(0)
        };
        let inj = FaultInjector::new(&s, 1.0);
        assert_eq!(inj.bandwidth_factor(0.5), 1.0);
        assert_eq!(inj.bandwidth_factor(1.0), 0.25);
        assert_eq!(inj.bandwidth_factor(1.49), 0.25);
        assert_eq!(inj.bandwidth_factor(1.5), 1.0);
    }
}
