//! Cluster descriptions: a set of (possibly heterogeneous) devices hanging
//! off one host, sharing a single PCIe fabric.

use gpuflow_core::Machine;
use gpuflow_sim::{BusSpec, DeviceSpec};

/// A simulated multi-GPU machine: N devices behind one shared bus.
///
/// The devices may be heterogeneous (different memory capacities, core
/// counts, clocks); the bus they share is conservatively modelled as the
/// *slowest* individual link of the cluster (see [`BusSpec::shared_by`]) —
/// every host↔device transfer of every device serializes on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// The devices, indexed by the device ids used throughout the crate.
    pub devices: Vec<DeviceSpec>,
    /// The shared PCIe fabric all transfers arbitrate for.
    pub bus: BusSpec,
}

impl Cluster {
    /// Build a cluster from `devices`; the shared bus is derived from the
    /// member links. Panics on an empty device list.
    pub fn new(devices: Vec<DeviceSpec>) -> Cluster {
        let bus = BusSpec::shared_by(&devices);
        Cluster { devices, bus }
    }

    /// `n` identical copies of `dev` behind one bus.
    pub fn homogeneous(dev: DeviceSpec, n: usize) -> Cluster {
        assert!(n > 0, "a cluster needs at least one device");
        Cluster::new(vec![dev; n])
    }

    /// The cluster as a simulated machine: its devices behind the shared,
    /// backfilling fabric.
    pub fn machine(&self) -> Machine<'_> {
        Machine::cluster(&self.devices, &self.bus)
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the cluster has no devices (never, for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Per-device planner budgets: each device's capacity de-rated by
    /// `margin` (§3.3.2 of the paper).
    pub fn plannable_budgets(&self, margin: f64) -> Vec<u64> {
        self.devices
            .iter()
            .map(|d| d.plannable_memory(margin))
            .collect()
    }

    /// The smallest planner budget across the cluster — the per-piece
    /// memory bound the sharding pass splits against, so every shard fits
    /// on *any* device it may be assigned to.
    pub fn min_plannable_budget(&self, margin: f64) -> u64 {
        self.plannable_budgets(margin)
            .into_iter()
            .min()
            .expect("cluster is non-empty")
    }

    /// Short human description, e.g. `4 x GeForce 8800 GTX`.
    pub fn describe(&self) -> String {
        let first = &self.devices[0].name;
        if self.devices.iter().all(|d| &d.name == first) {
            format!("{} x {}", self.len(), first)
        } else {
            let names: Vec<&str> = self.devices.iter().map(|d| d.name.as_str()).collect();
            names.join(" + ")
        }
    }
}

/// Parse a cluster specification string.
///
/// Grammar: a comma-separated list of members, each `NAME` or `NAMExN`
/// (count suffix). Names match the CLI's single-device vocabulary:
/// `c870`/`tesla`, `8800gtx`/`gtx8800`/`8800`/`geforce`, and
/// `modern`/`c2050`. Examples: `gtx8800x4`, `c870x2`, `modernx8`,
/// `c870,8800gtx`.
pub fn parse_cluster(spec: &str) -> Result<Cluster, String> {
    let mut devices = Vec::new();
    for member in spec.split(',') {
        let member = member.trim();
        if member.is_empty() {
            return Err(format!("empty device in cluster spec '{spec}'"));
        }
        // Split a trailing xN count — but a member that is already a
        // device name on its own (e.g. `gtx8800`) keeps its digits.
        let (name, count) = if parse_device(member).is_ok() {
            (member, 1)
        } else {
            match member.rsplit_once(['x', 'X']) {
                Some((head, digits))
                    if !head.is_empty()
                        && !digits.is_empty()
                        && digits.chars().all(|c| c.is_ascii_digit()) =>
                {
                    let n: usize = digits
                        .parse()
                        .map_err(|_| format!("bad device count in '{member}'"))?;
                    (head, n)
                }
                _ => (member, 1),
            }
        };
        if count == 0 || count > 64 {
            return Err(format!(
                "device count in '{member}' must be between 1 and 64"
            ));
        }
        let dev = parse_device(name)?;
        devices.extend(std::iter::repeat_n(dev, count));
    }
    if devices.is_empty() {
        return Err(format!("cluster spec '{spec}' names no devices"));
    }
    for dev in &devices {
        dev.validate()
            .map_err(|e| format!("invalid device in cluster spec '{spec}': {e}"))?;
    }
    let cluster = Cluster::new(devices);
    cluster
        .bus
        .validate()
        .map_err(|e| format!("invalid bus derived from cluster spec '{spec}': {e}"))?;
    Ok(cluster)
}

fn parse_device(name: &str) -> Result<DeviceSpec, String> {
    match name.to_ascii_lowercase().as_str() {
        "c870" | "tesla" | "tesla_c870" => Ok(gpuflow_sim::device::tesla_c870()),
        "8800gtx" | "gtx8800" | "8800" | "geforce" => Ok(gpuflow_sim::device::geforce_8800_gtx()),
        "modern" | "c2050" | "tesla_c2050" => Ok(gpuflow_sim::device::modern()),
        other => Err(format!(
            "unknown device '{other}' (expected c870, 8800gtx, or modern)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_sim::device::MIB;

    #[test]
    fn parse_count_suffix() {
        let c = parse_cluster("gtx8800x4").unwrap();
        assert_eq!(c.len(), 4);
        assert!(c.devices.iter().all(|d| d.name == "GeForce 8800 GTX"));
        assert_eq!(c.describe(), "4 x GeForce 8800 GTX");
    }

    #[test]
    fn parse_comma_list_is_heterogeneous() {
        let c = parse_cluster("c870,8800gtx,modern").unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.devices[0].name, "Tesla C870");
        assert_eq!(c.devices[2].name, "Tesla C2050");
        // The shared bus is the slowest member link (the 2009 cards).
        assert!((c.bus.bandwidth - 1.5e9).abs() < 1.0);
        assert!(c.describe().contains('+'));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_cluster("quantum9000").is_err());
        assert!(parse_cluster("c870x0").is_err());
        assert!(parse_cluster("c870x100").is_err());
        assert!(parse_cluster("").is_err());
        assert!(parse_cluster("c870,,c870").is_err());
    }

    #[test]
    fn gtx8800_name_survives_the_x_split() {
        // `gtx8800` ends in digits after an x; the count parser must not
        // mistake `8800` for a count of a device named `gt`.
        let c = parse_cluster("gtx8800").unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.devices[0].memory_bytes, 768 * MIB);
    }

    #[test]
    fn budgets_and_capacities_track_members() {
        let c = parse_cluster("c870x2").unwrap();
        let b = c.plannable_budgets(0.1);
        assert!(b[0] < 1500 * MIB);
        assert_eq!(c.min_plannable_budget(0.1), b[0]);
        let het = parse_cluster("c870,8800gtx").unwrap();
        assert_eq!(
            het.min_plannable_budget(0.0),
            768 * MIB,
            "smallest member bounds the shard size"
        );
    }
}
