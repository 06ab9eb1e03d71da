//! Compile-and-run helpers shared by the harness binaries.

use gpuflow_core::{
    baseline_plan, CompileOptions, Framework, FrameworkError, Machine, ResilientExecutor,
};
use gpuflow_graph::Graph;
use gpuflow_sim::DeviceSpec;

/// Margins tried, in order, when planning: the framework plans against a
/// de-rated capacity (§3.3.2) and escalates if first-fit fragmentation
/// still defeats the plan on the real allocator.
pub const MARGIN_LADDER: [f64; 4] = [0.05, 0.1, 0.2, 0.3];

/// Summary of one analytic execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomeSummary {
    /// Floats moved host↔device.
    pub transfer_floats: u64,
    /// Simulated end-to-end time, seconds.
    pub time_s: f64,
    /// Simulated transfer time, seconds.
    pub transfer_time_s: f64,
    /// Simulated kernel time, seconds.
    pub kernel_time_s: f64,
    /// Peak device bytes.
    pub peak_bytes: u64,
    /// Split factor applied by the framework (1 for baseline runs).
    pub split_parts: usize,
    /// Memory margin the plan finally succeeded with.
    pub margin: f64,
}

/// Compile `g` for `device` with the paper-default options (overridable via
/// `tweak`) and run analytically, escalating the fragmentation margin when
/// the real allocator defeats a plan.
pub fn optimized_outcome(
    device: &DeviceSpec,
    g: &Graph,
    tweak: impl Fn(&mut CompileOptions),
) -> Result<OutcomeSummary, FrameworkError> {
    let mut last_err = None;
    for &margin in &MARGIN_LADDER {
        let mut opts = CompileOptions {
            memory_margin: margin,
            ..CompileOptions::default()
        };
        tweak(&mut opts);
        let compiled = match Framework::new(device.clone()).with_options(opts).compile(g) {
            Ok(c) => c,
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        match compiled.run_analytic() {
            Ok(out) => {
                let c = out.timeline.counters();
                return Ok(OutcomeSummary {
                    transfer_floats: c.total_transfer_floats(),
                    time_s: c.total_time(),
                    transfer_time_s: c.transfer_time,
                    kernel_time_s: c.kernel_time,
                    peak_bytes: out.peak_device_bytes,
                    split_parts: compiled.split.parts,
                    margin,
                });
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one margin attempted"))
}

/// Run the paper's baseline execution pattern analytically. Returns the
/// framework error (typically [`FrameworkError::BaselineInfeasible`] — the
/// paper's "N/A" cells) when it cannot run.
pub fn baseline_outcome(device: &DeviceSpec, g: &Graph) -> Result<OutcomeSummary, FrameworkError> {
    let plan = baseline_plan(g, device.memory_bytes)?;
    let out = ResilientExecutor::quiet(g, &plan, &Machine::single(device))
        .run_analytic()?
        .exec;
    let c = out.timeline.counters();
    Ok(OutcomeSummary {
        transfer_floats: c.total_transfer_floats(),
        time_s: c.total_time(),
        transfer_time_s: c.transfer_time,
        kernel_time_s: c.kernel_time,
        peak_bytes: out.peak_device_bytes,
        split_parts: 1,
        margin: 0.0,
    })
}

/// Format a float count with thousands separators, like the paper's tables.
pub fn commas(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Format seconds with adaptive precision.
pub fn secs(t: f64) -> String {
    if t < 0.01 {
        format!("{:.4}", t)
    } else if t < 1.0 {
        format!("{:.3}", t)
    } else {
        format!("{:.2}", t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_sim::device::tesla_c870;
    use gpuflow_templates::edge::{find_edges, CombineOp};

    #[test]
    fn optimized_and_baseline_summaries() {
        let g = find_edges(256, 256, 9, 4, CombineOp::Max).graph;
        let dev = tesla_c870();
        let opt = optimized_outcome(&dev, &g, |_| {}).unwrap();
        let base = baseline_outcome(&dev, &g).unwrap();
        assert!(opt.transfer_floats < base.transfer_floats);
        assert!(opt.time_s > 0.0 && base.time_s > 0.0);
        assert!(opt.time_s <= base.time_s);
        assert_eq!(opt.split_parts, 1); // everything fits
        assert!((opt.transfer_time_s + opt.kernel_time_s - opt.time_s).abs() < 1e-12);
    }

    #[test]
    fn margin_ladder_rescues_fragmented_plans() {
        // Tiny device relative to the working set: the 5% margin may fail,
        // but the ladder must find a feasible margin.
        let g = find_edges(120, 120, 9, 4, CombineOp::Max).graph;
        let dev = tesla_c870().with_memory(120 * 1024);
        let out = optimized_outcome(&dev, &g, |_| {}).unwrap();
        assert!(out.split_parts >= 2);
        assert!(out.peak_bytes <= dev.memory_bytes);
    }

    #[test]
    fn baseline_infeasible_propagates() {
        let g = find_edges(1000, 1000, 16, 4, CombineOp::Max).graph;
        // max working set ≈ 5·985² floats ≈ 19 MB; give the device 4 MB.
        let dev = tesla_c870().with_memory(4 << 20);
        assert!(matches!(
            baseline_outcome(&dev, &g),
            Err(FrameworkError::BaselineInfeasible { .. })
        ));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(commas(0), "0");
        assert_eq!(commas(999), "999");
        assert_eq!(commas(1000), "1,000");
        assert_eq!(commas(13_000_512), "13,000,512");
        assert_eq!(secs(0.0001), "0.0001");
        assert_eq!(secs(0.123), "0.123");
        assert_eq!(secs(54.0), "54.00");
    }
}
