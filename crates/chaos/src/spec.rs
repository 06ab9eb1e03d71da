//! The fault model: what can go wrong, how often, and when.

/// A temporary bandwidth degradation of the shared bus ("brown-out").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brownout {
    /// Simulated start time, seconds.
    pub start_s: f64,
    /// Duration, seconds.
    pub duration_s: f64,
    /// Bandwidth multiplier in `(0, 1]` while the brown-out lasts.
    pub factor: f64,
}

/// When a hard device loss strikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossTime {
    /// Absolute simulated time, seconds.
    Seconds(f64),
    /// Fraction of the fault-free makespan in `[0, 1]` — `Fraction(0.5)`
    /// is "the temporal midpoint of the run".
    Fraction(f64),
}

/// Hard loss of one device at a chosen simulated time. The device's memory
/// contents are gone; it accepts no further work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceLoss {
    /// Index of the device that dies.
    pub device: usize,
    /// When it dies.
    pub at: LossTime,
}

/// A complete, seeded fault model for one run.
///
/// The seed plus the per-class rates fully determine every injection
/// decision (see [`crate::FaultInjector`]); two runs with equal specs see
/// bit-identical fault schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Master seed: all per-class decision streams derive from it.
    pub seed: u64,
    /// Per-attempt probability a kernel launch fails transiently, `[0, 1]`.
    pub kernel_rate: f64,
    /// Per-attempt probability a host↔device transfer is corrupted and
    /// must be retransmitted (ECC-style), `[0, 1]`.
    pub transfer_rate: f64,
    /// Per-attempt probability a device allocation fails transiently,
    /// `[0, 1]`.
    pub alloc_rate: f64,
    /// Optional bus brown-out window.
    pub brownout: Option<Brownout>,
    /// Optional hard device loss.
    pub device_loss: Option<DeviceLoss>,
    /// Per-request probability the client connection drops mid-request
    /// (before the reply is read), `[0, 1]`. Network-level; injected at
    /// the transport seam by `gpuflow-serve`.
    pub conn_drop_rate: f64,
    /// Per-request probability the client trickles its request bytes
    /// slowly instead of writing them in one piece, `[0, 1]`.
    pub slow_client_rate: f64,
    /// Per-request probability the client sends a garbage (non-protocol)
    /// frame instead of its real request, `[0, 1]`.
    pub garbage_rate: f64,
    /// Per-request probability the client writes only a prefix of its
    /// request frame and then disconnects, `[0, 1]`.
    pub partial_write_rate: f64,
}

impl FaultSpec {
    /// A spec that injects nothing — used to establish the fault-free
    /// baseline makespan that overhead and `loss=DEV@P%` resolve against.
    pub const fn quiet(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            kernel_rate: 0.0,
            transfer_rate: 0.0,
            alloc_rate: 0.0,
            brownout: None,
            device_loss: None,
            conn_drop_rate: 0.0,
            slow_client_rate: 0.0,
            garbage_rate: 0.0,
            partial_write_rate: 0.0,
        }
    }

    /// True when the spec can inject anything at all.
    pub fn is_quiet(&self) -> bool {
        self.kernel_rate == 0.0
            && self.transfer_rate == 0.0
            && self.alloc_rate == 0.0
            && self.brownout.is_none()
            && self.device_loss.is_none()
            && !self.has_net_faults()
    }

    /// Check the spec against a machine of `devices` devices: a
    /// `loss=DEV` clause must name one of them.
    pub fn check_devices(&self, devices: usize) -> Result<(), String> {
        match self.device_loss {
            Some(l) if l.device >= devices => Err(format!(
                "loss names device {} but the machine has {devices} device(s)",
                l.device
            )),
            _ => Ok(()),
        }
    }

    /// True when any network-level fault class has a nonzero rate.
    pub fn has_net_faults(&self) -> bool {
        self.conn_drop_rate > 0.0
            || self.slow_client_rate > 0.0
            || self.garbage_rate > 0.0
            || self.partial_write_rate > 0.0
    }

    /// Parse the CLI `--faults` grammar: a comma-separated list of
    /// `key=value` clauses, all optional:
    ///
    /// * `seed=N` — master seed (default 0);
    /// * `kernel=R`, `transfer=R`, `alloc=R` — per-class rates in `[0, 1]`;
    /// * `loss=DEV@TIME` — hard loss of device `DEV` at `TIME`, where
    ///   `TIME` is seconds (`0.02`) or a percentage of the fault-free
    ///   makespan (`50%`);
    /// * `brownout=START:DURATION:FACTOR` — bus bandwidth scaled by
    ///   `FACTOR` in `(0, 1]` for `DURATION` seconds from `START`;
    /// * `conn_drop=R`, `slow_client=R`, `garbage=R`, `partial_write=R` —
    ///   per-request network fault rates in `[0, 1]`, injected at the
    ///   transport seam by `gpuflow-serve` (see [`crate::NetFaultPlan`]).
    ///
    /// Example: `seed=7,kernel=0.05,transfer=0.02,loss=1@50%`.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::quiet(0);
        for clause in s.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                return Err(format!("empty clause in fault spec '{s}'"));
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause '{clause}' is not key=value"))?;
            match key {
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| format!("bad fault seed '{value}'"))?;
                }
                "kernel" => spec.kernel_rate = parse_rate(key, value)?,
                "transfer" => spec.transfer_rate = parse_rate(key, value)?,
                "alloc" => spec.alloc_rate = parse_rate(key, value)?,
                "conn_drop" => spec.conn_drop_rate = parse_rate(key, value)?,
                "slow_client" => spec.slow_client_rate = parse_rate(key, value)?,
                "garbage" => spec.garbage_rate = parse_rate(key, value)?,
                "partial_write" => spec.partial_write_rate = parse_rate(key, value)?,
                "loss" => {
                    let (dev, time) = value
                        .split_once('@')
                        .ok_or_else(|| format!("loss clause '{value}' is not DEV@TIME"))?;
                    let device: usize = dev
                        .parse()
                        .map_err(|_| format!("bad device index '{dev}' in loss clause"))?;
                    let at = if let Some(pct) = time.strip_suffix('%') {
                        let p: f64 = pct
                            .parse()
                            .map_err(|_| format!("bad loss percentage '{pct}'"))?;
                        if !(0.0..=100.0).contains(&p) {
                            return Err(format!("loss percentage '{pct}' outside [0, 100]"));
                        }
                        LossTime::Fraction(p / 100.0)
                    } else {
                        let t: f64 = time
                            .parse()
                            .map_err(|_| format!("bad loss time '{time}'"))?;
                        if !t.is_finite() || t < 0.0 {
                            return Err(format!("loss time '{time}' must be finite and >= 0"));
                        }
                        LossTime::Seconds(t)
                    };
                    spec.device_loss = Some(DeviceLoss { device, at });
                }
                "brownout" => {
                    let parts: Vec<&str> = value.split(':').collect();
                    if parts.len() != 3 {
                        return Err(format!(
                            "brownout clause '{value}' is not START:DURATION:FACTOR"
                        ));
                    }
                    let num = |what: &str, v: &str| -> Result<f64, String> {
                        let x: f64 = v
                            .parse()
                            .map_err(|_| format!("bad brownout {what} '{v}'"))?;
                        if !x.is_finite() || x < 0.0 {
                            return Err(format!("brownout {what} '{v}' must be finite and >= 0"));
                        }
                        Ok(x)
                    };
                    let b = Brownout {
                        start_s: num("start", parts[0])?,
                        duration_s: num("duration", parts[1])?,
                        factor: num("factor", parts[2])?,
                    };
                    if b.factor <= 0.0 || b.factor > 1.0 {
                        return Err(format!("brownout factor '{}' outside (0, 1]", parts[2]));
                    }
                    spec.brownout = Some(b);
                }
                other => {
                    return Err(format!(
                        "unknown fault clause '{other}' (expected seed, kernel, transfer, alloc, \
                         loss, brownout, conn_drop, slow_client, garbage, partial_write)"
                    ))
                }
            }
        }
        Ok(spec)
    }
}

fn parse_rate(key: &str, value: &str) -> Result<f64, String> {
    let r: f64 = value
        .parse()
        .map_err(|_| format!("bad {key} rate '{value}'"))?;
    if !(0.0..=1.0).contains(&r) {
        // NaN fails `contains` too.
        return Err(format!("{key} rate '{value}' outside [0, 1]"));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let s = FaultSpec::parse("seed=7,kernel=0.05,transfer=0.02,alloc=0.01,loss=1@50%").unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.kernel_rate, 0.05);
        assert_eq!(s.transfer_rate, 0.02);
        assert_eq!(s.alloc_rate, 0.01);
        assert_eq!(
            s.device_loss,
            Some(DeviceLoss {
                device: 1,
                at: LossTime::Fraction(0.5)
            })
        );
        assert!(!s.is_quiet());
    }

    #[test]
    fn parse_loss_seconds_and_brownout() {
        let s = FaultSpec::parse("loss=0@0.125,brownout=0.1:0.05:0.25").unwrap();
        assert_eq!(
            s.device_loss,
            Some(DeviceLoss {
                device: 0,
                at: LossTime::Seconds(0.125)
            })
        );
        let b = s.brownout.unwrap();
        assert_eq!(b.start_s, 0.1);
        assert_eq!(b.duration_s, 0.05);
        assert_eq!(b.factor, 0.25);
    }

    #[test]
    fn parse_rejects_bad_clauses() {
        assert!(FaultSpec::parse("kernel=1.5").is_err());
        assert!(FaultSpec::parse("kernel=NaN").is_err());
        assert!(FaultSpec::parse("transfer=-0.1").is_err());
        assert!(FaultSpec::parse("loss=0").is_err());
        assert!(FaultSpec::parse("loss=x@50%").is_err());
        assert!(FaultSpec::parse("loss=0@150%").is_err());
        assert!(FaultSpec::parse("loss=0@-1").is_err());
        assert!(FaultSpec::parse("brownout=1:2").is_err());
        assert!(FaultSpec::parse("brownout=0:1:0").is_err());
        assert!(FaultSpec::parse("brownout=0:1:1.5").is_err());
        assert!(FaultSpec::parse("warp=0.5").is_err());
        assert!(FaultSpec::parse("").is_err());
        assert!(FaultSpec::parse("seed").is_err());
    }

    #[test]
    fn loss_must_name_a_device_of_the_machine() {
        let s = FaultSpec::parse("seed=1,loss=3@50%").unwrap();
        assert!(s.check_devices(4).is_ok());
        let err = s.check_devices(3).unwrap_err();
        assert!(
            err.contains("device 3") && err.contains("3 device(s)"),
            "{err}"
        );
        assert!(FaultSpec::quiet(0).check_devices(1).is_ok());
    }

    #[test]
    fn quiet_spec_is_quiet() {
        assert!(FaultSpec::quiet(99).is_quiet());
        assert!(FaultSpec::parse("seed=3").unwrap().is_quiet());
    }

    #[test]
    fn parse_net_fault_clauses() {
        let s = FaultSpec::parse(
            "seed=11,conn_drop=0.1,slow_client=0.2,garbage=0.05,partial_write=0.02",
        )
        .unwrap();
        assert_eq!(s.conn_drop_rate, 0.1);
        assert_eq!(s.slow_client_rate, 0.2);
        assert_eq!(s.garbage_rate, 0.05);
        assert_eq!(s.partial_write_rate, 0.02);
        assert!(s.has_net_faults());
        assert!(!s.is_quiet());
        assert!(FaultSpec::parse("conn_drop=1.5").is_err());
        assert!(FaultSpec::parse("garbage=NaN").is_err());
        assert!(!FaultSpec::quiet(0).has_net_faults());
    }
}
