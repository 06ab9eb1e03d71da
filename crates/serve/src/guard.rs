//! gpuflow-guard: per-request deadlines and the overload breaker.
//!
//! Two mechanisms keep the daemon's *admitted* latency bounded when the
//! offered load is not:
//!
//! * [`Deadline`] — a per-request budget (`deadline_ms` on the wire, or
//!   the server-wide default) checked at every phase boundary
//!   (cache-probe, queue-wait, compile, execute). An expired budget is a
//!   typed `deadline_exceeded` reject; queued work whose deadline passes
//!   is cancelled *before* it executes, so the cluster never burns cycles
//!   on a reply no client is waiting for.
//! * [`Breaker`] — a sliding-window circuit breaker over the health
//!   signal `windowed service p99 × (1 + queue depth)`. When the signal
//!   crosses the configured limit the breaker trips **open** and new
//!   work is shed with fast typed rejects carrying `retry_after_ms`
//!   (diagnostic `GF0072`); after a cooldown it goes **half-open** and
//!   admits a few probes, reclosing only when they come back healthy.
//!
//! Half-open probe slots are **accounted**: an admission that consumed a
//! slot ([`Breaker::admit`] returned `Ok(true)`) owes the breaker exactly
//! one settlement — a completed-service sample via [`Breaker::observe`]
//! with `probe = true`, or [`Breaker::probe_aborted`] on any path that
//! exits without one (compile-only requests, parse/plan errors, deadline
//! rejects). Aborts return the slot to the pool, so the breaker can never
//! strand half-open with every slot consumed and no observation owed.
//! Conversely, while half-open only probe-tagged samples move the state
//! machine: a straggler admitted before the trip carries overload-era
//! latency and must not pollute the probe verdict.
//!
//! The breaker is deliberately time-explicit — [`Breaker::admit`] and
//! [`Breaker::observe`] take `now` — so the state machine is unit-testable
//! without sleeping.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// `p` in [0, 1] percentile of an unsorted latency sample (nearest-rank).
/// Exact, for the breaker's bounded window; the server's phase latencies
/// use log-bucketed histograms instead.
pub fn percentile_us(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A request's time budget, started when the request is parsed.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Option<Duration>,
}

impl Deadline {
    /// Start the clock: the request's own `deadline_ms` wins over the
    /// server default; neither means no budget (never expires).
    pub fn start(request_ms: Option<u64>, default_ms: Option<u64>) -> Deadline {
        Deadline {
            start: Instant::now(),
            budget: request_ms.or(default_ms).map(Duration::from_millis),
        }
    }

    /// The budget in milliseconds, if one applies.
    pub fn budget_ms(&self) -> Option<u64> {
        self.budget.map(|d| d.as_millis() as u64)
    }

    /// Microseconds elapsed since the request started.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Has the budget run out?
    pub fn expired(&self) -> bool {
        match self.budget {
            Some(b) => self.start.elapsed() >= b,
            None => false,
        }
    }

    /// Time left before expiry. `None` = unbudgeted; `Some(0)` = expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.budget.map(|b| b.saturating_sub(self.start.elapsed()))
    }
}

/// Breaker tuning knobs (part of [`crate::server::ServeConfig`]).
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Sliding-window length in service samples.
    pub window: usize,
    /// Minimum samples before the closed breaker may trip (guards
    /// against tripping on one cold-start outlier).
    pub min_samples: usize,
    /// Trip threshold for `p99(window) × (1 + queue_depth)` in µs.
    pub health_limit_us: u64,
    /// How long the breaker stays open before half-open probing.
    pub cooldown_ms: u64,
    /// Probes admitted in half-open; that many healthy completions
    /// reclose the breaker, one unhealthy completion reopens it.
    pub probes: usize,
    /// `retry_after_ms` hint carried by shed rejects while half-open
    /// probing (open-state rejects hint the remaining cooldown).
    pub retry_after_ms: u64,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            window: 64,
            min_samples: 16,
            health_limit_us: 2_000_000,
            cooldown_ms: 250,
            probes: 3,
            retry_after_ms: 100,
        }
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: everything is admitted.
    Closed,
    /// Cooling down after a trip: everything is shed.
    Open,
    /// Probing: a bounded number of requests are admitted.
    HalfOpen,
}

impl BreakerState {
    /// Gauge encoding for `serve.guard.breaker_state` (0 closed,
    /// 1 half-open, 2 open).
    pub fn gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

/// A state change worth surfacing (trip counter and state gauge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Closed → open: the health signal crossed the limit.
    Tripped,
    /// Open → half-open: cooldown elapsed, probing begins.
    HalfOpened,
    /// Half-open → closed: probes came back healthy.
    Reclosed,
    /// Half-open → open: a probe came back unhealthy.
    Reopened,
}

enum State {
    Closed,
    Open {
        until: Instant,
    },
    HalfOpen {
        probes_left: usize,
        successes: usize,
    },
}

/// The overload circuit breaker.
pub struct Breaker {
    cfg: GuardConfig,
    state: State,
    window: VecDeque<u64>,
    trips: u64,
}

impl Breaker {
    /// A closed breaker with an empty window.
    pub fn new(cfg: GuardConfig) -> Breaker {
        Breaker {
            cfg,
            state: State::Closed,
            window: VecDeque::new(),
            trips: 0,
        }
    }

    /// Externally visible state.
    pub fn state(&self) -> BreakerState {
        match self.state {
            State::Closed => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Times the breaker has opened (trips + reopens).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// The health signal at `queue_depth`: windowed service p99 × (1 +
    /// depth), saturating.
    pub fn health_us(&self, queue_depth: usize) -> u64 {
        let samples: Vec<u64> = self.window.iter().copied().collect();
        percentile_us(&samples, 0.99).saturating_mul(1 + queue_depth as u64)
    }

    /// Gate one request. `Ok(probe)` admits — `probe` is true when the
    /// admission consumed a half-open probe slot, which the caller must
    /// settle exactly once: feed the completed-service sample to
    /// [`Breaker::observe`] with `probe = true`, or return the slot via
    /// [`Breaker::probe_aborted`] if the request exits without producing
    /// one. `Err(retry_after_ms)` sheds.
    pub fn admit(&mut self, now: Instant) -> (Result<bool, u64>, Option<Transition>) {
        match &mut self.state {
            State::Closed => (Ok(false), None),
            State::Open { until } => {
                if now >= *until {
                    // Cooldown over: start probing, with a cleared window
                    // so probe health is judged on probe samples, not the
                    // flood that tripped us. This admit is itself probe #1.
                    self.state = State::HalfOpen {
                        probes_left: self.cfg.probes.saturating_sub(1),
                        successes: 0,
                    };
                    self.window.clear();
                    (Ok(true), Some(Transition::HalfOpened))
                } else {
                    let left_ms = until.duration_since(now).as_millis() as u64;
                    (Err(left_ms.max(1)), None)
                }
            }
            State::HalfOpen { probes_left, .. } => {
                if *probes_left > 0 {
                    *probes_left -= 1;
                    (Ok(true), None)
                } else {
                    (Err(self.cfg.retry_after_ms), None)
                }
            }
        }
    }

    /// Return a half-open probe slot without a verdict: the admitted
    /// request exited before producing a service sample. No-op outside
    /// half-open (the state machine moved on; the slot is moot).
    pub fn probe_aborted(&mut self) {
        if let State::HalfOpen {
            probes_left,
            successes,
        } = &mut self.state
        {
            // Never accumulate more slots than are still unsettled.
            let cap = self.cfg.probes.saturating_sub(*successes);
            *probes_left = (*probes_left + 1).min(cap);
        }
    }

    /// Feed one completed-service sample (µs) at the current queue depth.
    /// `probe` marks a sample that settles a half-open probe slot (see
    /// [`Breaker::admit`]); while half-open, non-probe samples — requests
    /// admitted before the trip — are discarded entirely.
    pub fn observe(
        &mut self,
        service_us: u64,
        queue_depth: usize,
        now: Instant,
        probe: bool,
    ) -> Option<Transition> {
        if matches!(self.state, State::HalfOpen { .. }) && !probe {
            return None;
        }
        if self.window.len() >= self.cfg.window.max(1) {
            self.window.pop_front();
        }
        self.window.push_back(service_us);
        let health = self.health_us(queue_depth);
        match &mut self.state {
            State::Closed => {
                if self.window.len() >= self.cfg.min_samples && health > self.cfg.health_limit_us {
                    self.state = State::Open {
                        until: now + Duration::from_millis(self.cfg.cooldown_ms),
                    };
                    self.trips += 1;
                    Some(Transition::Tripped)
                } else {
                    None
                }
            }
            State::HalfOpen { successes, .. } => {
                if health > self.cfg.health_limit_us {
                    self.state = State::Open {
                        until: now + Duration::from_millis(self.cfg.cooldown_ms),
                    };
                    self.trips += 1;
                    Some(Transition::Reopened)
                } else {
                    *successes += 1;
                    if *successes >= self.cfg.probes {
                        self.state = State::Closed;
                        self.window.clear();
                        Some(Transition::Reclosed)
                    } else {
                        None
                    }
                }
            }
            State::Open { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GuardConfig {
        GuardConfig {
            window: 8,
            min_samples: 4,
            health_limit_us: 10_000,
            cooldown_ms: 100,
            probes: 2,
            retry_after_ms: 25,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentile_us(&[], 0.5), 0);
        assert_eq!(percentile_us(&[7], 0.5), 7);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&s, 0.50), 50);
        assert_eq!(percentile_us(&s, 0.99), 99);
        assert_eq!(percentile_us(&s, 1.0), 100);
    }

    #[test]
    fn deadline_expiry_and_remaining() {
        let d = Deadline::start(Some(10_000), None);
        assert_eq!(d.budget_ms(), Some(10_000));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_millis(9_000));
        let zero = Deadline::start(Some(0), None);
        assert!(zero.expired());
        assert_eq!(zero.remaining(), Some(Duration::ZERO));
        let none = Deadline::start(None, None);
        assert!(!none.expired());
        assert_eq!(none.remaining(), None);
        // The server default applies when the request carries none.
        let defaulted = Deadline::start(None, Some(0));
        assert!(defaulted.expired());
        // …and the request's own value wins over the default.
        let own = Deadline::start(Some(10_000), Some(0));
        assert!(!own.expired());
    }

    #[test]
    fn breaker_trips_cools_probes_and_recloses() {
        let mut b = Breaker::new(cfg());
        let t0 = Instant::now();
        assert_eq!(b.state(), BreakerState::Closed);
        // Healthy load admits (not as probes) and never trips.
        for _ in 0..8 {
            assert_eq!(b.admit(t0).0, Ok(false));
            assert_eq!(b.observe(1_000, 0, t0, false), None);
        }
        // Flood: p99 × depth crosses the limit once min_samples is met.
        let mut tripped = false;
        for _ in 0..8 {
            if b.observe(50_000, 3, t0, false) == Some(Transition::Tripped) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // While open: shed with a cooldown-derived hint.
        let (d, t) = b.admit(t0 + Duration::from_millis(10));
        assert!(t.is_none());
        let hint = d.unwrap_err();
        assert!((1..=100).contains(&hint), "{hint}");
        // Cooldown over: half-open, the admit itself is probe #1.
        let late = t0 + Duration::from_millis(150);
        let (d, t) = b.admit(late);
        assert_eq!(d, Ok(true));
        assert_eq!(t, Some(Transition::HalfOpened));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe #2 admitted, #3 shed.
        assert_eq!(b.admit(late).0, Ok(true));
        assert_eq!(b.admit(late).0.unwrap_err(), 25);
        // Two healthy probe completions reclose.
        assert_eq!(b.observe(1_000, 0, late, true), None);
        assert_eq!(b.observe(1_200, 0, late, true), Some(Transition::Reclosed));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(late).0, Ok(false));
    }

    #[test]
    fn unhealthy_probe_reopens() {
        let mut b = Breaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..4 {
            b.observe(50_000, 3, t0, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let late = t0 + Duration::from_millis(150);
        assert_eq!(b.admit(late).0, Ok(true));
        // The probe itself comes back slow: straight back to open.
        assert_eq!(
            b.observe(500_000, 0, late, true),
            Some(Transition::Reopened)
        );
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn closed_breaker_needs_min_samples_to_trip() {
        let mut b = Breaker::new(cfg());
        let t0 = Instant::now();
        // Three huge samples: below min_samples, stays closed.
        for _ in 0..3 {
            assert_eq!(b.observe(1_000_000, 10, t0, false), None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(
            b.observe(1_000_000, 10, t0, false),
            Some(Transition::Tripped)
        );
    }

    /// Trip `b` and advance to half-open; returns the half-open instant.
    /// The half-opening admit's probe slot is immediately settled
    /// healthy, so `cfg.probes - 1` slots remain for the test body.
    fn half_open(b: &mut Breaker) -> Instant {
        let t0 = Instant::now();
        for _ in 0..4 {
            b.observe(50_000, 3, t0, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let late = t0 + Duration::from_millis(150);
        assert_eq!(b.admit(late).0, Ok(true));
        assert_eq!(b.observe(1_000, 0, late, true), None);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        late
    }

    #[test]
    fn aborted_probes_return_their_slots() {
        // Regression: a probe admission that exits without a service
        // sample (compile request, plan error, deadline reject) must
        // return its slot, or the breaker sheds forever once the slots
        // are consumed with fewer than `probes` observations owed.
        let mut b = Breaker::new(cfg());
        let late = half_open(&mut b);
        // Burn the last slot over and over: every abort returns it.
        for _ in 0..10 {
            assert_eq!(b.admit(late).0, Ok(true));
            assert_eq!(b.admit(late).0.unwrap_err(), 25, "slot not returned");
            b.probe_aborted();
        }
        // The returned slot still carries a real verdict: one healthy
        // completion recloses (the first success happened in half_open).
        assert_eq!(b.admit(late).0, Ok(true));
        assert_eq!(b.observe(1_200, 0, late, true), Some(Transition::Reclosed));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn probe_abort_never_mints_extra_slots() {
        let mut b = Breaker::new(cfg());
        let late = half_open(&mut b);
        // Spurious aborts cannot grow the pool past the unsettled count.
        for _ in 0..5 {
            b.probe_aborted();
        }
        assert_eq!(b.admit(late).0, Ok(true));
        assert_eq!(b.admit(late).0.unwrap_err(), 25);
        // Outside half-open it is a no-op.
        b.observe(1_000, 0, late, true);
        assert_eq!(b.state(), BreakerState::Closed);
        b.probe_aborted();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn stale_pre_trip_completions_do_not_pollute_half_open() {
        let mut b = Breaker::new(cfg());
        let late = half_open(&mut b);
        // A slow run admitted before the trip finishes during probing:
        // ignored — no reopen, no window pollution, no bogus success.
        assert_eq!(b.observe(900_000, 4, late, false), None);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.health_us(0), 1_000, "stale sample entered the window");
        // The actual probe verdict still decides: healthy recloses.
        assert_eq!(b.admit(late).0, Ok(true));
        assert_eq!(b.observe(1_200, 0, late, true), Some(Transition::Reclosed));
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
