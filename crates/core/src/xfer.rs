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
//! The scheduler's state is flat, so a run allocates a fixed number of
//! buffers whatever the length of the order. The read positions of every
//! datum on every device are compressed sparse rows ([`Csr`]), and so are
//! the deaths: a datum dies after its last read in the order (an output
//! nobody reads, right after the launch producing it), and each device
//! frees at its launch what died since its previous one — dead data is
//! never staged again, so what of it is still resident was resident when
//! it died — instead of rescanning everything resident. Residency is one
//! `u32` slot per datum and device into a dense slab of records.
//!
//! Victims come from a per-device lazy-deletion min-heap keyed `(policy
//! key, DataId, stamp)`, not from a scan of everything resident; the four
//! policies all fit that shape (Belady: furthest next read on the device,
//! latest use: furthest last read there, LRU: last touch, FIFO: arrival).
//! A datum's key is computed when it is placed or touched, at position `p`
//! as if for an eviction there, and that is exact: every datum a unit reads
//! at position `q` is in the unit's wanted set, so a resident datum is
//! touched — and re-keyed, under a new stamp that makes its older entries
//! stale — at every read on its device. Between two touches it has no read
//! there, so its next read after `p` is its next read after any later
//! eviction position, and its other keys do not move at all. An eviction
//! at the position of a read cannot take the datum being read: everything
//! the unit wants is protected, and popped protected entries are held
//! aside and pushed back. A device's heap is built at its first eviction,
//! so a schedule that never evicts pays nothing for it. The linear scan
//! survives as the `cfg(test)` oracle the heaps are checked against.
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

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gpuflow_graph::{Csr, DataId, DataKind, Graph};

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
    arrived: u64,
    last_touch: u64,
    /// Which victim-heap entry carries this residency's current key (see
    /// [`VictimHeaps`]); older entries for the datum are stale.
    stamp: u64,
}

/// No record: the datum is not resident there.
const EMPTY: u32 = u32::MAX;

/// Residency: one slot per `(datum, device)`, datum-major, naming a record
/// in a dense slab or [`EMPTY`]. A record keeps the slot that names it, so
/// a removal can move the last record into the hole.
struct Residents {
    devices: usize,
    slot: Vec<u32>,
    slab: Vec<(u32, Resident)>,
}

impl Residents {
    fn new(data: usize, devices: usize) -> Self {
        assert!(data * devices < EMPTY as usize, "slots are u32");
        let (slot, slab) = (vec![EMPTY; data * devices], Vec::new());
        Residents {
            devices,
            slot,
            slab,
        }
    }

    // `EMPTY` indexes past the end of the slab, which the slots outnumber.
    fn get(&self, device: usize, d: DataId) -> Option<&Resident> {
        let s = self.slot[d.index() * self.devices + device];
        self.slab.get(s as usize).map(|(_, r)| r)
    }

    fn get_mut(&mut self, device: usize, d: DataId) -> Option<&mut Resident> {
        let s = self.slot[d.index() * self.devices + device];
        self.slab.get_mut(s as usize).map(|(_, r)| r)
    }

    fn insert(&mut self, device: usize, d: DataId, r: Resident) {
        let i = d.index() * self.devices + device;
        self.slot[i] = self.slab.len() as u32;
        self.slab.push((i as u32, r));
    }

    /// Take the resident `d` off `device`.
    fn remove(&mut self, device: usize, d: DataId) {
        let i = d.index() * self.devices + device;
        let s = std::mem::replace(&mut self.slot[i], EMPTY) as usize;
        self.slab.swap_remove(s);
        if let Some(&(moved, _)) = self.slab.get(s) {
            self.slot[moved as usize] = s as u32;
        }
    }

    /// The data resident on `device`, in no particular order.
    fn on(&self, device: usize) -> impl Iterator<Item = (DataId, &Resident)> + '_ {
        self.slab
            .iter()
            .filter(move |&&(i, _)| i as usize % self.devices == device)
            .map(|(i, r)| (DataId(*i / self.devices as u32), r))
    }
}

/// Where the scheduler finds eviction victims. The scheduler body is
/// generic over it so that the tests can run that same body with the
/// linear scan the heaps replace.
trait Victims {
    /// `v` was placed on, or re-keyed on, `device` under `stamp`; `key`
    /// computes its policy key.
    fn rekey(&mut self, device: usize, v: DataId, stamp: u64, key: impl FnOnce() -> u64);

    /// The resident datum on `device` outside `protected` with the least
    /// `(key, id)`, if there is one.
    fn pick(
        &mut self,
        device: usize,
        resident: &Residents,
        protected: &[DataId],
        key: impl Fn(DataId, &Resident) -> u64,
    ) -> Option<DataId>;
}

/// A victim heap entry: `(policy key, id, stamp)`, least first.
type Entry = Reverse<(u64, u32, u64)>;

/// One lazy-deletion min-heap of `(policy key, id, stamp)` per device,
/// built at the device's first eviction (a device that never evicts never
/// pays for one). After that every placement and every key-moving touch
/// pushes an entry; an entry whose datum has left the device, or whose
/// stamp is not the datum's current one, is stale and skipped when popped.
/// Popped entries of protected data are held aside and pushed back.
struct VictimHeaps {
    heaps: Vec<Option<BinaryHeap<Entry>>>,
    aside: Vec<Entry>,
}

impl VictimHeaps {
    fn new(devices: usize) -> Self {
        VictimHeaps {
            heaps: (0..devices).map(|_| None).collect(),
            aside: Vec::new(),
        }
    }
}

impl Victims for VictimHeaps {
    fn rekey(&mut self, device: usize, v: DataId, stamp: u64, key: impl FnOnce() -> u64) {
        if let Some(heap) = &mut self.heaps[device] {
            heap.push(Reverse((key(), v.0, stamp)));
        }
    }

    fn pick(
        &mut self,
        device: usize,
        resident: &Residents,
        protected: &[DataId],
        key: impl Fn(DataId, &Resident) -> u64,
    ) -> Option<DataId> {
        let heap = self.heaps[device].get_or_insert_with(|| {
            resident
                .on(device)
                .map(|(v, r)| Reverse((key(v, r), v.0, r.stamp)))
                .collect()
        });
        let mut victim = None;
        while let Some(entry) = heap.pop() {
            let Reverse((_, id, stamp)) = entry;
            let v = DataId(id);
            if resident.get(device, v).is_none_or(|r| r.stamp != stamp) {
                continue;
            }
            if protected.contains(&v) {
                self.aside.push(entry);
                continue;
            }
            victim = Some(v);
            break;
        }
        heap.extend(self.aside.drain(..));
        victim
    }
}

/// The scheduler's running state: the steps emitted so far, what is
/// resident where, per-device occupancy, and host validity.
struct Residency<'g> {
    g: &'g Graph,
    steps: Vec<Step>,
    resident: Residents,
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
        self.resident.remove(device, victim);
        self.used[device] -= self.g.data(victim).bytes();
    }
}

/// First element of the sorted `reads` at or after position `t`.
fn next_read(reads: &[u32], t: usize) -> Option<u32> {
    let first = reads.partition_point(|&r| (r as usize) < t);
    reads.get(first).copied()
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
    schedule_device_transfers(g, units, vec![0; units.len()], order, &place, opts.policy)
}

/// Produce a plan for `units` (each assigned the device in `unit_device`)
/// executed in the global topological order `order`, evicting by `policy`
/// within each device's budget. Owned units and devices move into the
/// plan; borrowed ones are cloned into it.
pub fn schedule_device_transfers<'u>(
    g: &Graph,
    units: impl Into<Cow<'u, [OffloadUnit]>>,
    unit_device: impl Into<Cow<'u, [usize]>>,
    order: &[usize],
    opts: &MultiXferOptions,
    policy: EvictionPolicy,
) -> Result<ExecutionPlan, FrameworkError> {
    let mut heaps = VictimHeaps::new(opts.budgets.len());
    schedule_with(g, units, unit_device, order, opts, policy, &mut heaps)
}

/// The body of [`schedule_device_transfers`], finding victims in
/// `victims`.
fn schedule_with<'u>(
    g: &Graph,
    units: impl Into<Cow<'u, [OffloadUnit]>>,
    unit_device: impl Into<Cow<'u, [usize]>>,
    order: &[usize],
    opts: &MultiXferOptions,
    policy: EvictionPolicy,
    victims: &mut impl Victims,
) -> Result<ExecutionPlan, FrameworkError> {
    let (units, unit_device) = (units.into(), unit_device.into());
    assert_eq!(order.len(), units.len(), "order must cover every unit");
    assert_eq!(unit_device.len(), units.len());
    assert!(order.len() < u32::MAX as usize, "positions are u32");
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
    // structure is an external input of a unit on each device, one row
    // per `(datum, device)`, datum-major; each row is ascending.
    let reads = Csr::build(g.num_data() * ndev, || {
        order.iter().enumerate().flat_map(|(t, &u)| {
            let dev = unit_device[u];
            units[u]
                .external_inputs(g)
                .map(move |d| (d.index() * ndev + dev, t as u32))
        })
    });
    let reads_on_device = |d: DataId, dev: usize| reads.row(d.index() * ndev + dev);
    // The last read of each datum on any device: its rows sit side by side.
    let last_read = |d: DataId| {
        let rows = d.index() * ndev..(d.index() + 1) * ndev;
        reads.rows(rows).iter().max().copied()
    };
    let read_after = |d: DataId, t: usize| last_read(d).is_some_and(|l| l as usize > t);
    // Eager free: the data whose last read is at each position, ascending.
    // A datum dies after that position; an output nobody reads dies at the
    // launch that produces it.
    let die_at = Csr::build(order.len(), || {
        g.data_ids()
            .filter_map(|d| last_read(d).map(|t| (t as usize, d)))
    });
    // The policy key of resident `v` on `dev` for an eviction at position
    // `t`; the least `(key, id)` is evicted.
    let key = |v: DataId, r: &Resident, dev: usize, t: usize| -> u64 {
        match policy {
            EvictionPolicy::Belady => {
                // Furthest next read on this device first; never read here
                // again = ∞.
                let nr = next_read(reads_on_device(v, dev), t + 1);
                u64::MAX - nr.map_or(u64::MAX, u64::from)
            }
            EvictionPolicy::LatestUse => {
                let lr = reads_on_device(v, dev).last().copied();
                u64::MAX - lr.map_or(u64::MAX, u64::from)
            }
            EvictionPolicy::Lru => r.last_touch,
            EvictionPolicy::Fifo => r.arrived,
        }
    };
    // Only these keys move when a resident datum is touched again.
    let touch_rekeys = matches!(policy, EvictionPolicy::Belady | EvictionPolicy::Lru);

    let mut st = Residency {
        g,
        steps: Vec::new(),
        resident: Residents::new(g.num_data(), ndev),
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
    let mut stamps = 0u64;
    // What the current unit stages: its inputs, then its outputs.
    let mut wanted: Vec<DataId> = Vec::new();
    // Eager free: each device has freed what died before `freed_to[dev]`;
    // `dead` is what its launch frees, sorted by `DataId` so no discovery
    // order can leak into a plan.
    let mut freed_to = vec![0usize; ndev];
    let mut dead: Vec<DataId> = Vec::new();

    for (t, &u) in order.iter().enumerate() {
        let unit = &units[u];
        let dev = unit_device[u];
        // Stage inputs, then reserve output space. None of these may be
        // evicted while the unit is staged.
        wanted.clear();
        wanted.extend(unit.external_inputs(g));
        let inputs = wanted.len();
        wanted.extend(unit.outputs(g));

        for (i, &d) in wanted.iter().enumerate() {
            if let Some(r) = st.resident.get_mut(dev, d) {
                r.last_touch = tick;
                if touch_rekeys {
                    stamps += 1;
                    r.stamp = stamps;
                    victims.rekey(dev, d, stamps, || key(d, r, dev, t));
                }
                continue;
            }
            let need = g.data(d).bytes();
            // Make space on this unit's device.
            while opts.budgets[dev] - st.used[dev] < need {
                let victim = victims.pick(dev, &st.resident, &wanted, |v, r| key(v, r, dev, t));
                let Some(v) = victim else {
                    return Err(FrameworkError::InvalidPlan(format!(
                        "cannot stage {} for unit {u}{}: {} B needed, {} B free, nothing evictable",
                        g.data(d).name,
                        on_device(dev),
                        need,
                        opts.budgets[dev] - st.used[dev]
                    )));
                };
                st.drop_data(dev, v, read_after(v, t));
            }
            if i < inputs {
                if !st.on_cpu[d.index()] {
                    // Staged inter-device transfer: copy out from whichever
                    // device still holds the bytes, then upload here.
                    let Some(src) = (0..ndev).find(|&e| st.resident.get(e, d).is_some()) else {
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
            stamps += 1;
            let r = Resident {
                arrived: tick,
                last_touch: tick,
                stamp: stamps,
            };
            victims.rekey(dev, d, stamps, || key(d, &r, dev, t));
            st.resident.insert(dev, d, r);
            st.used[dev] += need;
            tick += 1;
        }

        st.steps.push(Step::Launch(u));
        tick += 1;

        if opts.eager_free {
            // Delete the dead data on the launching device, in `DataId`
            // order: what died since its last launch and is still resident
            // (not evicted for space meanwhile), and this unit's outputs
            // nobody reads. Other devices free theirs at their next launch.
            let unread = wanted[inputs..].iter().filter(|&&o| last_read(o).is_none());
            dead.clear();
            dead.extend(
                die_at
                    .rows(freed_to[dev]..t + 1)
                    .iter()
                    .chain(unread)
                    .filter(|&&d| st.resident.get(dev, d).is_some()),
            );
            freed_to[dev] = t + 1;
            dead.sort_unstable();
            #[cfg(debug_assertions)]
            {
                // The full rescan the death buckets replace.
                let mut rescan: Vec<DataId> = st
                    .resident
                    .on(dev)
                    .map(|(d, _)| d)
                    .filter(|&d| !read_after(d, t))
                    .collect();
                rescan.sort_unstable();
                assert!(
                    dead == rescan,
                    "schedule_device_transfers: death buckets free {dead:?} on device {dev} \
                     after position {t}, the rescan {rescan:?}"
                );
            }
            for &d in &dead {
                st.drop_data(dev, d, false);
            }
        }
    }

    // Drain every device: anything still resident that the host needs.
    for dev in 0..ndev {
        for d in g.data_ids() {
            if st.resident.get(dev, d).is_some() {
                st.drop_data(dev, d, false);
            }
        }
    }

    let plan = ExecutionPlan {
        units: units.into_owned(),
        unit_device: unit_device.into_owned(),
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

    /// The victim search the heaps replace: a scan of everything resident
    /// for the least `(key, id)`. The oracle they must agree with.
    struct Scan;

    impl Victims for Scan {
        fn rekey(&mut self, _: usize, _: DataId, _: u64, _: impl FnOnce() -> u64) {}

        fn pick(
            &mut self,
            device: usize,
            resident: &Residents,
            protected: &[DataId],
            key: impl Fn(DataId, &Resident) -> u64,
        ) -> Option<DataId> {
            resident
                .on(device)
                .filter(|(v, _)| !protected.contains(v))
                .min_by_key(|&(v, r)| (key(v, r), v.0))
                .map(|(v, _)| v)
        }
    }

    const POLICIES: [EvictionPolicy; 4] = [
        EvictionPolicy::Belady,
        EvictionPolicy::LatestUse,
        EvictionPolicy::Lru,
        EvictionPolicy::Fifo,
    ];

    /// A random DAG of element-wise operators over three shape families,
    /// so resident structures differ in size. Operators read one to three
    /// earlier structures of their family, picked anywhere in its history,
    /// so fan-out, long-lived data and re-reads of resident data are
    /// common; unread results become outputs.
    fn random_dag(rng: &mut proptest::TestRng, ops: usize) -> Graph {
        const SHAPES: [(usize, usize); 3] = [(8, 8), (16, 8), (32, 16)];
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        let mut families: Vec<Vec<Vec<usize>>> = vec![Vec::new(); SHAPES.len()];
        for _ in 0..ops {
            let f = pick(SHAPES.len());
            let available = families[f].len() + 1;
            let mut reads: Vec<usize> = (0..1 + pick(3)).map(|_| pick(available)).collect();
            reads.sort_unstable();
            reads.dedup();
            families[f].push(reads);
        }
        let mut g = Graph::new();
        for (f, family) in families.iter().enumerate() {
            if family.is_empty() {
                continue;
            }
            let (rows, cols) = SHAPES[f];
            let mut data = vec![g.add(format!("in{f}"), rows, cols, DataKind::Input)];
            for (k, reads) in family.iter().enumerate() {
                let read_later = family[k + 1..].iter().any(|r| r.contains(&(k + 1)));
                let kind = if read_later {
                    DataKind::Temporary
                } else {
                    DataKind::Output
                };
                let out = g.add(format!("d{f}.{k}"), rows, cols, kind);
                let inputs: Vec<DataId> = reads.iter().map(|&i| data[i]).collect();
                let op = match inputs.len() {
                    1 => gpuflow_graph::OpKind::Tanh,
                    n => gpuflow_graph::OpKind::EwAdd { arity: n as u8 },
                };
                g.add_op(format!("op{f}.{k}"), op, inputs, out).unwrap();
                data.push(out);
            }
        }
        g
    }

    /// Plan `case` (generated from `seed`) with the heaps and with the
    /// scan under every policy and budgets from one byte short of the
    /// largest unit to everything-fits; they must agree step for step, or
    /// fail with the same error. Returns how many plans evicted.
    fn heaps_agree_with_the_scan(
        seed: u64,
        ops: usize,
        devices: usize,
        eager_free: bool,
    ) -> Result<usize, String> {
        let mut rng = proptest::TestRng::for_case(seed, 0);
        let g = random_dag(&mut rng, ops);
        let units = partition_offload_units(&g, PartitionPolicy::PerOperator, u64::MAX);
        let order = schedule_units(&g, &units, OpScheduler::DepthFirst);
        let unit_device: Vec<usize> = (0..units.len())
            .map(|_| (rng.next_u64() % devices as u64) as usize)
            .collect();
        let floor = units.iter().map(|u| u.footprint_bytes(&g)).max().unwrap();
        let total: u64 = g.data_ids().map(|d| g.data(d).bytes()).sum();
        let mut evicting = 0;
        for budget in [
            floor - 1,
            floor,
            floor + (total - floor) / 16,
            floor + (total - floor) / 4,
            floor + (total - floor) / 2,
            total,
        ] {
            let opts = MultiXferOptions {
                budgets: vec![budget; devices],
                eager_free,
                pinned_host: Vec::new(),
            };
            for policy in POLICIES {
                let heaps =
                    schedule_device_transfers(&g, &units, &unit_device, &order, &opts, policy);
                let scan =
                    schedule_with(&g, &units, &unit_device, &order, &opts, policy, &mut Scan);
                let case = format!("seed {seed} ops {ops} devices {devices} eager_free {eager_free} budget {budget} {policy:?}");
                match (heaps, scan) {
                    (Ok(a), Ok(b)) => {
                        if a.steps != b.steps {
                            return Err(format!(
                                "{case}: the heaps and the scan planned differently"
                            ));
                        }
                        evicting += usize::from(a.evictions() > 0);
                    }
                    (Err(a), Err(b)) if a.to_string() == b.to_string() => {}
                    (a, b) => {
                        return Err(format!(
                            "{case}: heaps {:?} but scan {:?}",
                            a.map(|p| p.steps.len()),
                            b.map(|p| p.steps.len())
                        ))
                    }
                }
            }
        }
        Ok(evicting)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Differential oracle for the victim heaps. Replay a failure with
        /// `heaps_agree_with_the_scan(seed, ops, devices, eager_free)`.
        /// Cases where no plan evicted do not count towards the 64.
        #[test]
        fn victim_heaps_match_the_linear_scan(
            seed in 0u64..1_000_000,
            ops in 3usize..40,
            devices in 1usize..4,
            eager in 0usize..2,
        ) {
            let evicting = heaps_agree_with_the_scan(seed, ops, devices, eager == 1);
            proptest::prop_assert!(evicting.is_ok(), "{}", evicting.unwrap_err());
            proptest::prop_assume!(evicting.unwrap() > 0);
        }
    }

    /// `Resident` records for the ids on device 0, each under stamp 1.
    fn residents(ids: &[u32]) -> Residents {
        let mut resident = Residents::new(ids.len(), 1);
        for &i in ids {
            let r = Resident {
                arrived: 0,
                last_touch: 0,
                stamp: 1,
            };
            resident.insert(0, DataId(i), r);
        }
        resident
    }

    #[test]
    fn a_protected_datum_at_the_heap_top_is_held_aside() {
        let mut resident = residents(&[0, 1, 2]);
        // Keys 10, 20, 30: datum 0 is the least.
        let key = |v: DataId, _: &Resident| 10 * (u64::from(v.0) + 1);
        let mut heaps = VictimHeaps::new(1);
        let protected = [DataId(0)];
        assert_eq!(heaps.pick(0, &resident, &protected, key), Some(DataId(1)));
        assert_eq!(Scan.pick(0, &resident, &protected, key), Some(DataId(1)));
        resident.remove(0, DataId(1));
        // Datum 0 went back into the heap and leads it again.
        assert_eq!(heaps.pick(0, &resident, &[], key), Some(DataId(0)));
        // Everything resident protected: nothing to evict, and nothing lost.
        let all = [DataId(0), DataId(2)];
        assert_eq!(heaps.pick(0, &resident, &all, key), None);
        assert_eq!(heaps.pick(0, &resident, &[DataId(0)], key), Some(DataId(2)));
    }

    #[test]
    fn a_rekeyed_datum_leaves_a_stale_entry_behind() {
        let mut resident = residents(&[0, 1]);
        let mut keys = [10u64, 20];
        let mut heaps = VictimHeaps::new(1);
        heaps.pick(0, &resident, &[DataId(0), DataId(1)], |v, _| {
            keys[v.index()]
        });
        // A touch moves datum 0's key past datum 1's under a new stamp.
        keys[0] = 30;
        resident.get_mut(0, DataId(0)).unwrap().stamp = 2;
        heaps.rekey(0, DataId(0), 2, || keys[0]);
        let key = |v: DataId, _: &Resident| keys[v.index()];
        assert_eq!(heaps.pick(0, &resident, &[], key), Some(DataId(1)));
        assert_eq!(Scan.pick(0, &resident, &[], key), Some(DataId(1)));
    }

    /// `in0 → d0`, then one unit per entry of `reads` (indices into the
    /// data added so far), each writing a fresh 8×8 datum; every datum no
    /// later unit reads is an output. Units launch in index order.
    fn tanh_program(inputs: usize, reads: &[usize]) -> (Graph, Vec<OffloadUnit>) {
        let mut g = Graph::new();
        let mut data: Vec<DataId> = (0..inputs)
            .map(|i| g.add(format!("in{i}"), 8, 8, DataKind::Input))
            .collect();
        for (k, &r) in reads.iter().enumerate() {
            let kind = if reads[k + 1..].contains(&(data.len())) {
                DataKind::Temporary
            } else {
                DataKind::Output
            };
            let out = g.add(format!("x{k}"), 8, 8, kind);
            g.add_op(
                format!("t{k}"),
                gpuflow_graph::OpKind::Tanh,
                vec![data[r]],
                out,
            )
            .unwrap();
            data.push(out);
        }
        let units = singleton_units(&g);
        (g, units)
    }

    /// The data a plan frees before launching unit `u`, after launching
    /// the unit before it.
    fn freed_before(plan: &ExecutionPlan, g: &Graph, u: usize) -> Vec<String> {
        let launch = |u| plan.steps.iter().position(|s| *s == Step::Launch(u));
        let (from, to) = (launch(u - 1).unwrap(), launch(u).unwrap());
        plan.steps[from..to]
            .iter()
            .filter_map(|s| match *s {
                Step::Free { data, .. } => Some(g.data(data).name.clone()),
                _ => None,
            })
            .collect()
    }

    /// Plan `program` on one device of `slots` 8×8 data with lingering
    /// dead data, with the heaps, and check it against the scan.
    fn plan_both(
        g: &Graph,
        units: &[OffloadUnit],
        slots: u64,
        policy: EvictionPolicy,
    ) -> ExecutionPlan {
        let opts = MultiXferOptions {
            budgets: vec![slots * 256],
            eager_free: false,
            pinned_host: Vec::new(),
        };
        let order: Vec<usize> = (0..units.len()).collect();
        let unit_device = vec![0; units.len()];
        let heaps =
            schedule_device_transfers(g, units, &unit_device, &order, &opts, policy).unwrap();
        let scan = schedule_with(g, units, &unit_device, &order, &opts, policy, &mut Scan).unwrap();
        assert_eq!(heaps.steps, scan.steps, "{policy:?}:\n{}", heaps.render(g));
        heaps
    }

    #[test]
    fn a_touch_after_the_first_eviction_rekeys_lru() {
        // x0 = t(in0), x1 = t(in1), x2 = t(x0), x3 = t(in2) on three
        // slots. Unit 1 builds the heap (evicting in0); unit 2 touches x0
        // and evicts in1; unit 3 must then take x1 (last touched at unit
        // 1) over x0 (touched at unit 2, arrived at unit 0).
        let (g, units) = tanh_program(3, &[0, 1, 3, 2]);
        let plan = plan_both(&g, &units, 3, EvictionPolicy::Lru);
        assert_eq!(freed_before(&plan, &g, 1), ["in0"]);
        assert_eq!(freed_before(&plan, &g, 2), ["in1"]);
        assert_eq!(freed_before(&plan, &g, 3)[0], "x1");
    }

    #[test]
    fn a_touch_after_the_first_eviction_rekeys_belady() {
        // x0 = t(in0), x1 = t(in1), x2 = t(x0), x3 = t(in2), x4 = t(x1),
        // x5 = t(x0) on three slots. Unit 1 builds the heap while x0's next
        // read is unit 2; unit 2 reads x0 again, so its next read moves to
        // unit 5, past x1's (unit 4). Unit 3 evicts the unread x2 first,
        // then must take x0, not x1.
        let (g, units) = tanh_program(3, &[0, 1, 3, 2, 4, 3]);
        let plan = plan_both(&g, &units, 3, EvictionPolicy::Belady);
        assert_eq!(freed_before(&plan, &g, 1), ["in0"]);
        assert_eq!(freed_before(&plan, &g, 3), ["x2", "x0"]);
    }

    #[test]
    fn a_device_that_never_evicts_builds_no_heap() {
        let (g, units) = tanh_program(3, &[0, 1, 3, 2]);
        let order: Vec<usize> = (0..units.len()).collect();
        // Units 0 and 2 on a roomy device 0, 1 and 3 on a tight device 1.
        let unit_device = [0, 1, 0, 1];
        let opts = MultiXferOptions {
            budgets: vec![u64::MAX, 2 * 256],
            eager_free: false,
            pinned_host: Vec::new(),
        };
        for policy in POLICIES {
            let mut heaps = VictimHeaps::new(2);
            schedule_with(&g, &units, &unit_device, &order, &opts, policy, &mut heaps).unwrap();
            assert!(
                heaps.heaps[0].is_none(),
                "{policy:?}: device 0 built a heap"
            );
            assert!(
                heaps.heaps[1].is_some(),
                "{policy:?}: device 1 evicted without one"
            );
        }
    }
}
