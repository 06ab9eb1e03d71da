//! Data-transfer scheduling (§3.3.1).
//!
//! Given an operator (offload-unit) schedule, decide when each data
//! structure is copied to a device, copied back to the host, and freed —
//! minimizing transfer volume under the device memory constraint. The
//! paper's heuristic:
//!
//! 1. compute each data structure's uses statically from the schedule;
//! 2. when space is needed, evict the resident structure whose next use is
//!    furthest in the future (Belady's insight from optimal cache
//!    replacement; the paper words it as "furthest latest time of use");
//! 3. delete data eagerly the moment it becomes dead.
//!
//! Evicting a structure that is still needed later (or is a template
//! output not yet on the host) costs a device→host copy; evicting one that
//! is still valid on the host (inputs, constants, or previously copied-out
//! data — data is single-assignment, so host copies never go stale) is
//! free. LRU and FIFO eviction are provided for the ablation study.
//!
//! There is one scheduler body, [`schedule_device_transfers`], and a
//! single GPU is a cluster of one. It consumes one **global** topological
//! unit order (avoiding the cross-device deadlocks independent per-device
//! schedules can produce) and walks it once, maintaining residency and
//! occupancy *per device* plus one host-validity bit per data structure.
//! Data crossing devices moves as an explicit **staged copy**: `CopyOut`
//! on the producer's device makes the bytes host-valid, a later `CopyIn`
//! on the consumer's device materializes them there — there is no
//! peer-to-peer path, matching the PCIe fabrics of the paper's era.
//! Eviction on a device considers only that device's future reads, but
//! whether eviction must first copy the victim out considers future reads
//! on **every** device — a producer must not discard the only copy of data
//! a peer still needs.

use std::collections::{BTreeMap, HashSet};

use gpuflow_graph::{DataId, DataKind, Graph};

use crate::error::FrameworkError;
use crate::partition::OffloadUnit;
use crate::plan::{ExecutionPlan, Step};

/// Eviction policy used when device memory runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Evict the structure whose next read is furthest in the future
    /// (the paper's heuristic; optimal for uniform sizes).
    #[default]
    Belady,
    /// Evict the structure whose *last* read in the whole schedule is
    /// furthest — the paper's literal "latest time of use" phrasing.
    LatestUse,
    /// Least-recently-used.
    Lru,
    /// First-in-first-out by time of arrival on the device.
    Fifo,
}

/// Options for [`schedule_transfers`].
#[derive(Debug, Clone, Copy)]
pub struct XferOptions {
    /// Device memory budget in bytes.
    pub memory_bytes: u64,
    /// Eviction policy.
    pub policy: EvictionPolicy,
    /// Delete dead data immediately (§3.3.1 step 3). Disabling this is an
    /// ablation; dead data then lingers until evicted for space.
    pub eager_free: bool,
}

/// Where a schedule runs: the per-device form of [`XferOptions`], taken
/// by [`schedule_device_transfers`] (`gpuflow-multi` re-exports it).
#[derive(Debug, Clone)]
pub struct MultiXferOptions {
    /// Per-device planner memory budgets in bytes.
    pub budgets: Vec<u64>,
    /// Delete dead data immediately on the launching device (§3.3.1
    /// step 3).
    pub eager_free: bool,
    /// Produced data to treat as already valid on the host when the plan
    /// starts. Failover replanning uses this to pin the completed
    /// prefix's results host-side: the suffix plan stages them in with a
    /// plain `CopyIn` instead of recomputing or staging them out of a
    /// (possibly dead) device. Empty for ordinary compilations.
    pub pinned_host: Vec<DataId>,
}

struct Resident {
    bytes: u64,
    arrived: u64,
    last_touch: u64,
}

/// The scheduler's running state: the steps emitted so far, what is
/// resident where (ordered by `DataId`, so no iteration order can leak
/// into a plan), per-device occupancy, and host validity.
struct Residency<'g> {
    g: &'g Graph,
    steps: Vec<Step>,
    resident: Vec<BTreeMap<DataId, Resident>>,
    used: Vec<u64>,
    on_cpu: Vec<bool>,
}

impl Residency<'_> {
    /// Evict or free `victim` on `device`, staging it to the host first if
    /// the only valid copy would otherwise be lost (a future read on ANY
    /// device, or a template output, keeps it alive on the host side).
    fn drop_data(&mut self, device: usize, victim: DataId, still_needed: bool) {
        let needed_on_host = still_needed || self.g.data(victim).kind == DataKind::Output;
        if needed_on_host && !self.on_cpu[victim.index()] {
            self.steps.push(Step::CopyOut {
                device,
                data: victim,
            });
            self.on_cpu[victim.index()] = true;
        }
        self.steps.push(Step::Free {
            device,
            data: victim,
        });
        let r = self.resident[device]
            .remove(&victim)
            .expect("victim resident");
        self.used[device] -= r.bytes;
    }
}

/// First element of the sorted `reads` at or after position `t`.
fn next_read(reads: &[usize], t: usize) -> Option<usize> {
    reads.get(reads.partition_point(|&r| r < t)).copied()
}

/// Produce an execution plan for `units` executed in `order` on one
/// device. The single-GPU entry point: a cluster of one, scheduled by
/// [`schedule_device_transfers`].
// Survives as an adapter: `Framework`, the stream scheduler and
// perf/src/layers.rs all plan one device through this name and `XferOptions`.
pub fn schedule_transfers(
    g: &Graph,
    units: &[OffloadUnit],
    order: &[usize],
    opts: XferOptions,
) -> Result<ExecutionPlan, FrameworkError> {
    let place = MultiXferOptions {
        budgets: vec![opts.memory_bytes],
        eager_free: opts.eager_free,
        pinned_host: Vec::new(),
    };
    schedule_device_transfers(g, units, &vec![0; units.len()], order, &place, opts.policy)
}

/// Produce a plan for `units` (each assigned the device in `unit_device`)
/// executed in the global topological order `order`, evicting by `policy`
/// within each device's budget.
pub fn schedule_device_transfers(
    g: &Graph,
    units: &[OffloadUnit],
    unit_device: &[usize],
    order: &[usize],
    opts: &MultiXferOptions,
    policy: EvictionPolicy,
) -> Result<ExecutionPlan, FrameworkError> {
    assert_eq!(order.len(), units.len(), "order must cover every unit");
    assert_eq!(unit_device.len(), units.len());
    let ndev = opts.budgets.len();
    assert!(unit_device.iter().all(|&d| d < ndev), "device out of range");
    // Error messages name the device only where there is a choice of one.
    let on_device = |dev: usize| {
        if ndev > 1 {
            format!(" on device {dev}")
        } else {
            String::new()
        }
    };

    // Static use analysis: the positions (in `order`) at which each data
    // structure is an external input of a unit — overall, and per reading
    // device. On one device the two indices coincide, so only the first
    // is built.
    let mut reads: Vec<Vec<usize>> = vec![Vec::new(); g.num_data()];
    let mut reads_on: Vec<BTreeMap<usize, Vec<usize>>> =
        vec![BTreeMap::new(); if ndev > 1 { g.num_data() } else { 0 }];
    for (t, &u) in order.iter().enumerate() {
        for d in units[u].external_inputs(g) {
            reads[d.index()].push(t);
            if ndev > 1 {
                reads_on[d.index()]
                    .entry(unit_device[u])
                    .or_default()
                    .push(t);
            }
        }
    }
    let reads_on_device = |d: DataId, dev: usize| -> &[usize] {
        if ndev > 1 {
            reads_on[d.index()].get(&dev).map_or(&[], Vec::as_slice)
        } else {
            &reads[d.index()]
        }
    };

    let mut st = Residency {
        g,
        steps: Vec::new(),
        resident: (0..ndev).map(|_| BTreeMap::new()).collect(),
        used: vec![0u64; ndev],
        on_cpu: g
            .data_ids()
            .map(|d| g.data(d).kind.starts_on_cpu())
            .collect(),
    };
    for &d in &opts.pinned_host {
        st.on_cpu[d.index()] = true;
    }
    let mut tick = 0u64;

    for (t, &u) in order.iter().enumerate() {
        let unit = &units[u];
        let dev = unit_device[u];
        let ext_inputs = unit.external_inputs(g);
        let outputs = unit.outputs(g);
        // Data that must not be evicted while staging this unit.
        let protected: HashSet<DataId> = ext_inputs.iter().chain(outputs.iter()).copied().collect();

        // Stage inputs, then reserve output space.
        let mut wanted: Vec<(DataId, bool)> = ext_inputs.iter().map(|&d| (d, true)).collect();
        wanted.extend(outputs.iter().map(|&d| (d, false)));

        for (d, is_input) in wanted {
            if let Some(r) = st.resident[dev].get_mut(&d) {
                r.last_touch = tick;
                continue;
            }
            let need = g.data(d).bytes();
            // Make space on this unit's device.
            while opts.budgets[dev] - st.used[dev] < need {
                let victim = st.resident[dev]
                    .iter()
                    .filter(|(v, _)| !protected.contains(v))
                    .min_by_key(|&(&v, r)| {
                        let key = match policy {
                            EvictionPolicy::Belady => {
                                // Furthest next read on this device first;
                                // never read here again = ∞.
                                let nr = next_read(reads_on_device(v, dev), t + 1);
                                u64::MAX - nr.unwrap_or(usize::MAX) as u64
                            }
                            EvictionPolicy::LatestUse => {
                                let lr = reads_on_device(v, dev).last().copied();
                                u64::MAX - lr.unwrap_or(usize::MAX) as u64
                            }
                            EvictionPolicy::Lru => r.last_touch,
                            EvictionPolicy::Fifo => r.arrived,
                        };
                        (key, v.0)
                    })
                    .map(|(&v, _)| v);
                let Some(v) = victim else {
                    return Err(FrameworkError::InvalidPlan(format!(
                        "cannot stage {} for unit {u}{}: {} B needed, {} B free, nothing evictable",
                        g.data(d).name,
                        on_device(dev),
                        need,
                        opts.budgets[dev] - st.used[dev]
                    )));
                };
                let needed = next_read(&reads[v.index()], t + 1).is_some();
                st.drop_data(dev, v, needed);
            }
            if is_input {
                if !st.on_cpu[d.index()] {
                    // Staged inter-device transfer: copy out from whichever
                    // device still holds the bytes, then upload here.
                    let Some(src) = (0..ndev).find(|&e| st.resident[e].contains_key(&d)) else {
                        return Err(FrameworkError::DataUnavailable {
                            data: d,
                            context: format!(
                                "needed{} for unit {u} but resident nowhere",
                                on_device(dev)
                            ),
                        });
                    };
                    st.steps.push(Step::CopyOut {
                        device: src,
                        data: d,
                    });
                    st.on_cpu[d.index()] = true;
                }
                st.steps.push(Step::CopyIn {
                    device: dev,
                    data: d,
                });
            }
            st.resident[dev].insert(
                d,
                Resident {
                    bytes: need,
                    arrived: tick,
                    last_touch: tick,
                },
            );
            st.used[dev] += need;
            tick += 1;
        }

        st.steps.push(Step::Launch(u));
        tick += 1;

        if opts.eager_free {
            // Delete data on the launching device whose last read on any
            // device is behind us.
            let dead: Vec<DataId> = st.resident[dev]
                .keys()
                .copied()
                .filter(|&d| next_read(&reads[d.index()], t + 1).is_none())
                .collect();
            for d in dead {
                st.drop_data(dev, d, false);
            }
        }
    }

    // Drain every device: anything still resident that the host needs.
    for dev in 0..ndev {
        while let Some((&d, _)) = st.resident[dev].first_key_value() {
            st.drop_data(dev, d, false);
        }
    }

    let plan = ExecutionPlan {
        units: units.to_vec(),
        unit_device: unit_device.to_vec(),
        steps: st.steps,
        pinned_host: opts.pinned_host.clone(),
        streams: None,
    };
    #[cfg(debug_assertions)]
    crate::plan::debug_check_plan(g, &plan, &opts.budgets, "schedule_device_transfers");
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{
        fig3_graph, fig3_memory_bytes, fig3_schedule_a, fig3_schedule_b, fig3_units,
        floats_to_units, FIG3_UNIT_FLOATS,
    };
    use crate::opschedule::{schedule_units, OpScheduler};
    use crate::partition::{partition_offload_units, PartitionPolicy};
    use crate::plan::validate_plan;
    use gpuflow_graph::OpId;

    fn singleton_units(g: &Graph) -> Vec<OffloadUnit> {
        g.op_ids().map(|o| OffloadUnit { ops: vec![o] }).collect()
    }

    fn opts() -> XferOptions {
        XferOptions {
            memory_bytes: fig3_memory_bytes(),
            policy: EvictionPolicy::Belady,
            eager_free: true,
        }
    }

    /// Paper Fig. 3(a): the depth-per-branch order costs 15 units.
    #[test]
    fn fig3_schedule_a_costs_15_units() {
        let g = fig3_graph();
        let units = fig3_units(&g);
        let order = fig3_schedule_a(&g, &units);
        let plan = schedule_transfers(&g, &units, &order, opts()).unwrap();
        validate_plan(&g, &plan, fig3_memory_bytes()).unwrap();
        let stats = plan.stats(&g);
        assert_eq!(
            floats_to_units(stats.total_floats()),
            15.0,
            "\n{}",
            plan.render(&g)
        );
    }

    /// Paper Fig. 3(b)/Fig. 6: the interleaved order costs 8 units.
    #[test]
    fn fig3_schedule_b_costs_8_units() {
        let g = fig3_graph();
        let units = fig3_units(&g);
        let order = fig3_schedule_b(&g, &units);
        let plan = schedule_transfers(&g, &units, &order, opts()).unwrap();
        validate_plan(&g, &plan, fig3_memory_bytes()).unwrap();
        let stats = plan.stats(&g);
        assert_eq!(
            floats_to_units(stats.total_floats()),
            8.0,
            "\n{}",
            plan.render(&g)
        );
    }

    /// The DFS heuristic should find a schedule no worse than (a).
    #[test]
    fn dfs_schedule_beats_naive() {
        let g = fig3_graph();
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let order = schedule_units(&g, &units, OpScheduler::DepthFirst);
        let plan = schedule_transfers(&g, &units, &order, opts()).unwrap();
        validate_plan(&g, &plan, fig3_memory_bytes()).unwrap();
        let cost = floats_to_units(plan.stats(&g).total_floats());
        assert!(cost <= 15.0, "DFS cost {cost}");
        // At single-operator granularity (C1 split in two) the true
        // optimum is 6 units, so the heuristic cannot go below that.
        assert!(cost >= 6.0, "cannot beat the optimum: {cost}");
    }

    #[test]
    fn ample_memory_transfers_io_only() {
        let g = fig3_graph();
        let units = singleton_units(&g);
        let order: Vec<usize> = (0..units.len()).collect();
        let plan = schedule_transfers(
            &g,
            &units,
            &order,
            XferOptions {
                memory_bytes: u64::MAX,
                ..opts()
            },
        )
        .unwrap();
        validate_plan(&g, &plan, u64::MAX).unwrap();
        let stats = plan.stats(&g);
        // Only Im in (2 units) and E', E'' out (1 unit each).
        assert_eq!(stats.floats_in, 2 * FIG3_UNIT_FLOATS as u64);
        assert_eq!(stats.floats_out, 2 * FIG3_UNIT_FLOATS as u64);
    }

    #[test]
    fn eviction_policies_all_produce_valid_plans() {
        let g = fig3_graph();
        let units = singleton_units(&g);
        let order: Vec<usize> = (0..units.len()).collect();
        let mut costs = Vec::new();
        for policy in [
            EvictionPolicy::Belady,
            EvictionPolicy::LatestUse,
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
        ] {
            let plan =
                schedule_transfers(&g, &units, &order, XferOptions { policy, ..opts() }).unwrap();
            validate_plan(&g, &plan, fig3_memory_bytes()).unwrap();
            costs.push((policy, floats_to_units(plan.stats(&g).total_floats())));
        }
        // Belady is never worse than FIFO here.
        let get = |p: EvictionPolicy| costs.iter().find(|(q, _)| *q == p).unwrap().1;
        assert!(
            get(EvictionPolicy::Belady) <= get(EvictionPolicy::Fifo),
            "{costs:?}"
        );
    }

    #[test]
    fn eager_free_reduces_peak_memory() {
        let g = fig3_graph();
        let units = singleton_units(&g);
        let order: Vec<usize> = (0..units.len()).collect();
        let eager = schedule_transfers(&g, &units, &order, opts()).unwrap();
        let lazy = schedule_transfers(
            &g,
            &units,
            &order,
            XferOptions {
                eager_free: false,
                ..opts()
            },
        )
        .unwrap();
        validate_plan(&g, &lazy, fig3_memory_bytes()).unwrap();
        assert!(eager.stats(&g).peak_bytes <= lazy.stats(&g).peak_bytes);
    }

    #[test]
    fn infeasible_memory_is_an_error() {
        let g = fig3_graph();
        let units = singleton_units(&g);
        let order: Vec<usize> = (0..units.len()).collect();
        // Less than one unit's working set (C1 needs Im=2 + out=1 units).
        let err = schedule_transfers(
            &g,
            &units,
            &order,
            XferOptions {
                memory_bytes: 2 * FIG3_UNIT_FLOATS as u64 * 4,
                ..opts()
            },
        )
        .unwrap_err();
        assert!(matches!(err, FrameworkError::InvalidPlan(_)));
    }

    #[test]
    fn plans_respect_tight_but_sufficient_memory() {
        // The minimum feasible memory is the max working set (5 units for
        // the 4-ary maxes); traffic there far exceeds the I/O lower bound.
        let g = fig3_graph();
        let units = singleton_units(&g);
        let order: Vec<usize> = (0..units.len()).collect();
        let mem = fig3_memory_bytes();
        let plan = schedule_transfers(
            &g,
            &units,
            &order,
            XferOptions {
                memory_bytes: mem,
                ..opts()
            },
        )
        .unwrap();
        validate_plan(&g, &plan, mem).unwrap();
        // More traffic than the 4-unit I/O lower bound.
        assert!(floats_to_units(plan.stats(&g).total_floats()) > 4.0);
    }

    /// Evicting host-backed data must not emit a CopyOut.
    #[test]
    fn host_backed_eviction_is_free() {
        let g = fig3_graph();
        let units = singleton_units(&g);
        let order: Vec<usize> = (0..units.len()).collect();
        let plan = schedule_transfers(&g, &units, &order, opts()).unwrap();
        // Im (DataId 0) may be freed but never copied out.
        assert!(!plan
            .steps
            .iter()
            .any(|s| matches!(s, Step::CopyOut { data, .. } if data.index() == 0)));
    }

    /// Outputs must be copied out exactly once even when evicted early.
    #[test]
    fn outputs_reach_host_once() {
        let g = fig3_graph();
        let units = singleton_units(&g);
        let order: Vec<usize> = (0..units.len()).collect();
        let plan = schedule_transfers(&g, &units, &order, opts()).unwrap();
        for out in g.outputs() {
            let n = plan
                .steps
                .iter()
                .filter(|s| matches!(s, Step::CopyOut { data, .. } if *data == out))
                .count();
            assert_eq!(n, 1, "output {} copied {n} times", g.data(out).name);
        }
    }

    #[test]
    fn unsatisfiable_unit_with_huge_broadcast_reports_nicely() {
        // One op whose working set alone exceeds memory.
        let mut g = Graph::new();
        let a = g.add("a", 100, 100, gpuflow_graph::DataKind::Input);
        let b = g.add("b", 100, 100, gpuflow_graph::DataKind::Output);
        g.add_op("t", gpuflow_graph::OpKind::Tanh, vec![a], b)
            .unwrap();
        let units = vec![OffloadUnit { ops: vec![OpId(0)] }];
        let err = schedule_transfers(
            &g,
            &units,
            &[0],
            XferOptions {
                memory_bytes: 100 * 100 * 4, // half the working set
                policy: EvictionPolicy::Belady,
                eager_free: true,
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("nothing evictable"), "{err}");
    }
}
