//! Happens-before race detection: the concurrency certifier for plans.
//!
//! The serialized analyzer ([`crate::engine`]) proves a plan correct
//! *when executed in step order on one timeline*. But the
//! framework's execution model is concurrent: the overlap simulator runs
//! one compute lane per `(device, stream)` against two transfer channels
//! — a device's own DMA engines, or the one bus a cluster shares. There
//! the plan's step order is merely an **issue order** — steps on different
//! lanes run whenever their inputs allow, and the only real orderings are
//! the synchronizations the executors enforce.
//!
//! [`certify_concurrency`] rebuilds exactly those synchronizations as an
//! explicit happens-before DAG ([`crate::hb`]) — program order per lane,
//! transfer-completion edges, allocation-lifetime edges around every
//! `Free` — then proves that **every pair of conflicting accesses to the
//! same buffer is ordered**. A certified schedule cannot race no matter
//! how the lanes interleave; an uncertified one is reported through the
//! `GF005x` diagnostics below. The same report drives a dynamic sanitizer
//! ([`ConcurrencyReport::dynamic_violations`]): the simulated executors
//! assert, in debug builds, that every step's HB predecessors retired
//! before it started — so a schedule the static pass certifies can never
//! trip the dynamic check.

use gpuflow_graph::{DataId, Graph};

use crate::diag::{Diagnostic, Location};
use crate::hb::{EdgeKind, HbGraph};
use crate::{PlanView, Step};

/// Diagnostic codes emitted by the concurrency certifier.
pub mod codes {
    /// A read of a device buffer has no happens-before path from any
    /// write of that buffer — it races the write (or reads garbage).
    pub const HAZARD_RAW: &str = "GF0050";
    /// A write of the host copy races a read of it (a download rewrites
    /// bytes an unordered upload is reading).
    pub const HAZARD_WAR: &str = "GF0051";
    /// Two writes of the same device buffer are unordered.
    pub const HAZARD_WAW: &str = "GF0052";
    /// A kernel access of a device buffer races (or follows) its `Free`
    /// with no re-allocation in between — use after free across lanes.
    pub const USE_AFTER_FREE: &str = "GF0053";
    /// A transfer touching a device buffer races (or follows) its `Free`
    /// — the eviction aliases a pending copy's source or target.
    pub const FREE_IN_FLIGHT: &str = "GF0054";
    /// A `CopyIn` of produced data is not ordered after any staging
    /// `CopyOut` — the cross-device read the staging discipline should
    /// have ordered.
    pub const UNSTAGED_READ: &str = "GF0055";
    /// Note: the concurrency certificate for a hazard-free schedule.
    pub const CERTIFIED: &str = "GF0056";
}

/// The engine lane a step executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The host→device DMA channel (shared across the cluster).
    H2d,
    /// The device→host DMA channel (shared across the cluster).
    D2h,
    /// Device `d`'s compute engine (its stream `0` when streams are in
    /// play).
    Compute(usize),
    /// Device `d`'s compute stream `s` (for `s >= 1`; stream `0` keeps
    /// the [`Lane::Compute`] identity so single-stream reports are
    /// unchanged).
    Stream(usize, usize),
    /// Host-side bookkeeping (`Free`): no engine, ordered only by its
    /// lifetime edges.
    Host,
}

impl Lane {
    /// The compute lane of `device`'s stream `stream`.
    pub fn compute(device: usize, stream: usize) -> Lane {
        if stream == 0 {
            Lane::Compute(device)
        } else {
            Lane::Stream(device, stream)
        }
    }

    /// `(device, stream)` of a compute lane; `None` for the DMA channels
    /// and the host.
    pub fn device_stream(self) -> Option<(usize, usize)> {
        match self {
            Lane::Compute(d) => Some((d, 0)),
            Lane::Stream(d, s) => Some((d, s)),
            Lane::H2d | Lane::D2h | Lane::Host => None,
        }
    }

    /// Short label used in reports and JSON (`h2d`, `d2h`, `gpu0`,
    /// `gpu0s1`, `host`).
    pub fn label(self) -> String {
        match self {
            Lane::H2d => "h2d".to_string(),
            Lane::D2h => "d2h".to_string(),
            Lane::Compute(d) => format!("gpu{d}"),
            Lane::Stream(d, s) => format!("gpu{d}s{s}"),
            Lane::Host => "host".to_string(),
        }
    }
}

/// The lane decomposition to certify against: how many devices contribute
/// compute lanes, and how many concurrent compute streams each device
/// exposes. Transfers always share one channel per direction, matching
/// both the single-GPU dual-DMA model and the cluster's shared bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneModel {
    /// Number of devices (one compute-lane group each).
    pub devices: usize,
    /// Concurrent compute streams per device (`1` = the classic
    /// two-engine overlap model).
    pub streams: usize,
}

/// Everything one certification run produces.
#[derive(Debug, Clone)]
pub struct ConcurrencyReport {
    /// The happens-before DAG (sealed).
    pub hb: HbGraph,
    /// Lane of each step (parallel to the plan's steps).
    pub step_lane: Vec<Lane>,
    /// Device each step touches, when it touches one.
    pub step_device: Vec<Option<usize>>,
    /// Number of distinct lanes the plan occupies.
    pub lanes_used: usize,
    /// All findings; the `GF0056` certificate note when hazard-free.
    pub diagnostics: Vec<Diagnostic>,
}

impl ConcurrencyReport {
    /// True when any finding is an error — the schedule must not run
    /// concurrently.
    pub fn has_errors(&self) -> bool {
        crate::diag::has_errors(&self.diagnostics)
    }

    /// The first error in emission order, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == crate::diag::Severity::Error)
    }

    /// True when the schedule certified hazard-free.
    pub fn certified(&self) -> bool {
        !self.has_errors()
    }

    /// Dynamic sanitizer: given each step's simulated `(start, end)`
    /// times, return every happens-before edge `(pred, step)` whose
    /// predecessor had not retired when the step started. A simulated
    /// execution of a statically certified schedule must return no
    /// violations; the executors `debug_assert` exactly that.
    pub fn dynamic_violations(&self, times: &[(f64, f64)]) -> Vec<(usize, usize)> {
        assert_eq!(times.len(), self.hb.len(), "one (start, end) per step");
        self.hb
            .edges()
            .iter()
            .filter(|&&(a, b, _)| times[a].1 > times[b].0 + 1e-9)
            .map(|&(a, b, _)| (a, b))
            .collect()
    }
}

/// How a step touches a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Touch {
    /// Allocates and writes the buffer (`CopyIn`, producing `Launch`).
    Write,
    /// Reads the buffer (`Launch` input, `CopyOut` source).
    Read,
    /// Deallocates the buffer.
    Free,
}

#[derive(Debug, Clone, Copy)]
struct Access {
    step: usize,
    touch: Touch,
    /// True when the access is a bus transfer (classifies free races).
    transfer: bool,
}

/// Ends a [`Chain`].
const NIL: u32 = u32::MAX;

/// One append-only list threaded through a [`Chains`] arena: the walk
/// keeps every access history in one flat vector instead of a `Vec` per
/// buffer or datum.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
    };

    /// True when the list holds fewer than two items.
    fn is_short(self) -> bool {
        self.head == self.tail
    }
}

/// The arena the [`Chain`]s of one walk share: each item with the index
/// of the next item of its list.
struct Chains<T> {
    items: Vec<(T, u32)>,
}

impl<T: Copy> Chains<T> {
    fn new() -> Chains<T> {
        Chains { items: Vec::new() }
    }

    fn push(&mut self, chain: &mut Chain, item: T) {
        let at = u32::try_from(self.items.len())
            .ok()
            .filter(|&at| at != NIL)
            .expect("access histories overflow u32 links");
        self.items.push((item, NIL));
        match chain.tail {
            NIL => chain.head = at,
            tail => self.items[tail as usize].1 = at,
        }
        chain.tail = at;
    }

    /// The items of `chain`, in insertion order.
    fn iter(&self, chain: Chain) -> impl Iterator<Item = T> + '_ {
        let mut at = chain.head;
        std::iter::from_fn(move || {
            let (item, next) = *self.items.get(at as usize)?;
            at = next;
            Some(item)
        })
    }
}

/// Walk state of one `(device, data)` buffer the plan touches.
struct Buffer {
    /// `device * nd + data`.
    slot: usize,
    /// Last step that made the buffer device-ready.
    setter: Option<usize>,
    /// Access history for the hazard checks.
    acc: Chain,
}

/// The touched buffers, found through one flat `device * nd + data` index
/// so a wide cluster pays for the buffers its plan uses, not for
/// `devices × data` empty histories.
struct Buffers {
    /// Position in `touched` per slot; `usize::MAX` until first touched.
    index: Vec<usize>,
    touched: Vec<Buffer>,
    /// Every buffer's accesses.
    acc: Chains<Access>,
}

impl Buffers {
    fn new(slots: usize) -> Buffers {
        Buffers {
            index: vec![usize::MAX; slots],
            touched: Vec::new(),
            acc: Chains::new(),
        }
    }

    /// Position in `touched` of the buffer at `slot`.
    fn at(&mut self, slot: usize) -> usize {
        if self.index[slot] == usize::MAX {
            self.index[slot] = self.touched.len();
            self.touched.push(Buffer {
                slot,
                setter: None,
                acc: Chain::EMPTY,
            });
        }
        self.index[slot]
    }

    /// Record `access` of the buffer at `slot`; returns the buffer's
    /// previous setter.
    fn access(&mut self, slot: usize, access: Access) -> Option<usize> {
        let at = self.at(slot);
        let buf = &mut self.touched[at];
        let setter = buf.setter;
        if access.touch == Touch::Write {
            buf.setter = Some(access.step);
        }
        self.acc.push(&mut buf.acc, access);
        setter
    }
}

/// Build the happens-before DAG of `plan` under `lanes` and prove every
/// pair of conflicting accesses ordered. Assumes the plan already passed
/// the serialized analyzer ([`crate::analyze_plan`]) — steps with
/// out-of-range ids are skipped here, not re-reported.
pub fn certify_concurrency(g: &Graph, plan: &PlanView, lanes: &LaneModel) -> ConcurrencyReport {
    certify_concurrency_streams(g, plan, lanes, &[])
}

/// [`certify_concurrency`], with launches assigned to per-device compute
/// streams: `unit_stream[u]` (clamped to `lanes.streams`, defaulting to
/// `0`) picks unit `u`'s stream, and program order chains launches only
/// within one `(device, stream)` lane. An empty slice reproduces
/// [`certify_concurrency`] exactly.
///
/// The committed-free horizon stays **per device**, not per stream: the
/// executors' allocator is device-global, so the first allocating step of
/// either kind after a `Free` inherits its lifetime edge regardless of
/// stream. The executors enforce a superset of these edges (their free
/// horizon gates *every* later step), so the dynamic sanitizer direction
/// is preserved.
pub fn certify_concurrency_streams(
    g: &Graph,
    plan: &PlanView,
    lanes: &LaneModel,
    unit_stream: &[usize],
) -> ConcurrencyReport {
    let nd = g.num_data();
    let ndev = lanes.devices;
    let n = plan.steps.len();
    let nu = plan.num_units();
    let mut hb = HbGraph::new(n);
    let mut step_lane = vec![Lane::Host; n];
    let mut step_device: Vec<Option<usize>> = vec![None; n];

    // Forward-walk state, all in issue-order step indices.
    let nstreams = lanes.streams.max(1);
    let mut last_h2d: Option<usize> = None;
    let mut last_d2h: Option<usize> = None;
    // `device * nstreams + stream`.
    let mut last_compute: Vec<Option<usize>> = vec![None; ndev * nstreams];
    let mut buffers = Buffers::new(ndev * nd);
    let slot = |device: usize, d: DataId| device * nd + d.index();
    // Last step that made the data host-valid.
    let mut host_setter: Vec<Option<usize>> = vec![None; nd];
    // Step lists, all in one arena: the frees on each device whose
    // committed horizon still gates the next allocation there, per
    // allocating lane (upload vs. launch), and the host-copy access
    // histories per datum for the hazard checks.
    let mut steps: Chains<usize> = Chains::new();
    let mut gating_h2d = vec![Chain::EMPTY; ndev];
    let mut gating_compute = vec![Chain::EMPTY; ndev];
    let mut host_writes = vec![Chain::EMPTY; nd];
    let mut host_reads = vec![Chain::EMPTY; nd];
    let mut initially_host: Vec<bool> = g
        .data_ids()
        .map(|d| g.data(d).kind.starts_on_cpu())
        .collect();
    for &d in plan.pinned_host {
        if d.index() < nd {
            initially_host[d.index()] = true;
        }
    }

    let program = |hb: &mut HbGraph, last: &mut Option<usize>, i: usize| {
        if let Some(p) = *last {
            hb.add_edge(p, i, EdgeKind::Program);
        }
        *last = Some(i);
    };
    let access = |step: usize, touch: Touch, transfer: bool| Access {
        step,
        touch,
        transfer,
    };

    for (i, step) in plan.steps.iter().enumerate() {
        match *step {
            Step::CopyIn { device, data } => {
                if device >= ndev || data.index() >= nd {
                    continue;
                }
                step_lane[i] = Lane::H2d;
                step_device[i] = Some(device);
                program(&mut hb, &mut last_h2d, i);
                // Waits for the staging CopyOut that made the bytes
                // host-valid.
                if let Some(w) = host_setter[data.index()] {
                    hb.add_edge(w, i, EdgeKind::Transfer);
                }
                // Allocates: waits for the device's committed frees.
                for f in steps.iter(std::mem::replace(&mut gating_h2d[device], Chain::EMPTY)) {
                    hb.add_edge(f, i, EdgeKind::Lifetime);
                }
                buffers.access(slot(device, data), access(i, Touch::Write, true));
                steps.push(&mut host_reads[data.index()], i);
            }
            Step::CopyOut { device, data } => {
                if device >= ndev || data.index() >= nd {
                    continue;
                }
                step_lane[i] = Lane::D2h;
                step_device[i] = Some(device);
                program(&mut hb, &mut last_d2h, i);
                // Waits for the write that made the buffer device-ready.
                let setter = buffers.access(slot(device, data), access(i, Touch::Read, true));
                if let Some(w) = setter {
                    hb.add_edge(w, i, EdgeKind::Transfer);
                }
                host_setter[data.index()] = Some(i);
                steps.push(&mut host_writes[data.index()], i);
            }
            Step::Free { device, data } => {
                if device >= ndev || data.index() >= nd {
                    continue;
                }
                step_device[i] = Some(device);
                // The free commits once every earlier access of the buffer
                // has retired…
                let at = buffers.at(slot(device, data));
                let history = buffers.touched[at].acc;
                for a in buffers.acc.iter(history) {
                    if a.touch != Touch::Free {
                        hb.add_edge(a.step, i, EdgeKind::Lifetime);
                    }
                }
                // …and every later allocation on this device waits for it.
                steps.push(&mut gating_h2d[device], i);
                steps.push(&mut gating_compute[device], i);
                buffers.access(slot(device, data), access(i, Touch::Free, false));
            }
            Step::Launch(u) => {
                if u >= nu {
                    continue;
                }
                let dev = plan.unit_device[u];
                if dev >= ndev {
                    continue;
                }
                let s = unit_stream.get(u).copied().unwrap_or(0).min(nstreams - 1);
                step_lane[i] = Lane::compute(dev, s);
                step_device[i] = Some(dev);
                program(&mut hb, &mut last_compute[dev * nstreams + s], i);
                for &d in plan.inputs(u) {
                    if d.index() >= nd {
                        continue;
                    }
                    let setter = buffers.access(slot(dev, d), access(i, Touch::Read, false));
                    if let Some(w) = setter {
                        hb.add_edge(w, i, EdgeKind::Transfer);
                    }
                }
                // Allocates its outputs: waits for committed frees.
                for f in steps.iter(std::mem::replace(&mut gating_compute[dev], Chain::EMPTY)) {
                    hb.add_edge(f, i, EdgeKind::Lifetime);
                }
                for &d in plan.outputs(u) {
                    if d.index() >= nd {
                        continue;
                    }
                    buffers.access(slot(dev, d), access(i, Touch::Write, false));
                }
            }
        }
    }
    hb.seal();

    let mut diags: Vec<Diagnostic> = Vec::new();
    let name = |d: usize| g.data(DataId(d as u32)).name.as_str();

    // Device-buffer hazards, in (device, data) order. The write and free
    // steps of the buffer at hand go to two scratch lists the pass reuses.
    let mut writes: Vec<usize> = Vec::new();
    let mut frees: Vec<usize> = Vec::new();
    buffers.touched.sort_unstable_by_key(|b| b.slot);
    for buf in &buffers.touched {
        let (dev, d) = (buf.slot / nd, buf.slot % nd);
        if buf.acc.is_short() {
            continue;
        }
        let acc = || buffers.acc.iter(buf.acc);
        writes.clear();
        writes.extend(acc().filter(|a| a.touch == Touch::Write).map(|a| a.step));
        frees.clear();
        frees.extend(acc().filter(|a| a.touch == Touch::Free).map(|a| a.step));
        // RAW: every read needs an ordered write.
        for r in acc().filter(|a| a.touch == Touch::Read) {
            if writes.iter().any(|&w| hb.happens_before(w, r.step)) {
                continue;
            }
            let msg = match writes.iter().find(|&&w| !hb.ordered(w, r.step)) {
                Some(w) => format!(
                    "read of {} on device {dev} races the write at step {} \
                     (no happens-before path orders them)",
                    name(d),
                    w
                ),
                None => format!(
                    "read of {} on device {dev} is ordered after no write of it",
                    name(d)
                ),
            };
            diags.push(
                Diagnostic::error(codes::HAZARD_RAW, Some(Location::Step(r.step)), msg).with_help(
                    "issue the CopyIn (or producing launch) on an ordered lane \
                     position before this read",
                ),
            );
        }
        // WAW: unordered write pairs.
        for (k, &w1) in writes.iter().enumerate() {
            for &w2 in &writes[k + 1..] {
                if !hb.ordered(w1, w2) {
                    diags.push(
                        Diagnostic::error(
                            codes::HAZARD_WAW,
                            Some(Location::Step(w2)),
                            format!(
                                "write of {} on device {dev} at step {} is unordered \
                                 with the write at step {}",
                                name(d),
                                w2,
                                w1
                            ),
                        )
                        .with_help("two lanes allocate the same buffer concurrently"),
                    );
                }
            }
        }
        // Free hazards: an access is safe against a free when it
        // retires before the free commits, or belongs to a later
        // re-allocation the free is ordered before.
        for &f in &frees {
            for x in acc().filter(|x| x.step != f) {
                if x.touch == Touch::Free {
                    continue;
                }
                if hb.happens_before(x.step, f) {
                    continue;
                }
                let realloc_protects = writes.iter().any(|&w| {
                    hb.happens_before(f, w) && (w == x.step || hb.happens_before(w, x.step))
                });
                if realloc_protects {
                    continue;
                }
                let (code, what) = if x.transfer {
                    (codes::FREE_IN_FLIGHT, "transfer")
                } else {
                    (codes::USE_AFTER_FREE, "kernel access")
                };
                diags.push(
                    Diagnostic::error(
                        code,
                        Some(Location::Step(x.step)),
                        format!(
                            "{what} of {} on device {dev} races the Free at step {} \
                             (the buffer may be gone or re-used when it runs)",
                            name(d),
                            f
                        ),
                    )
                    .with_help("move the Free after the access, or re-upload first"),
                );
            }
            // Two unordered frees of one buffer race each other.
            for &f2 in &frees {
                if f < f2 && !hb.ordered(f, f2) {
                    diags.push(Diagnostic::error(
                        codes::FREE_IN_FLIGHT,
                        Some(Location::Step(f2)),
                        format!(
                            "Free of {} on device {dev} at step {} races the Free at step {}",
                            name(d),
                            f2,
                            f
                        ),
                    ));
                }
            }
        }
    }

    // Host-copy hazards: staged inter-device movement.
    for d in 0..nd {
        let host_writes = || steps.iter(host_writes[d]);
        for r in steps.iter(host_reads[d]) {
            let staged = host_writes().any(|w| hb.happens_before(w, r));
            if initially_host[d] || staged {
                // Staged (or initially valid): a later unordered download
                // rewriting the host copy is a WAR race on the host buffer.
                for w in host_writes() {
                    if !hb.ordered(w, r) {
                        diags.push(
                            Diagnostic::error(
                                codes::HAZARD_WAR,
                                Some(Location::Step(w)),
                                format!(
                                    "CopyOut of {} rewrites the host copy while the \
                                     unordered CopyIn at step {r} reads it",
                                    name(d)
                                ),
                            )
                            .with_help("order the download after the upload that reads the bytes"),
                        );
                    }
                }
            } else if g.producer(DataId(d as u32)).is_some() {
                let msg = match host_writes().find(|&w| !hb.ordered(w, r)) {
                    Some(w) => format!(
                        "CopyIn of {} races the staging CopyOut at step {w} \
                         (no happens-before path orders the staged hop)",
                        name(d)
                    ),
                    None => format!(
                        "CopyIn of {} is ordered after no staging CopyOut of it",
                        name(d)
                    ),
                };
                diags.push(
                    Diagnostic::error(codes::UNSTAGED_READ, Some(Location::Step(r)), msg)
                        .with_help(
                            "inter-device movement is staged: the producer device's CopyOut \
                             must happen-before the consumer's CopyIn",
                        ),
                );
            }
        }
    }

    diags.sort_by_key(|d| match d.location {
        Some(Location::Step(i)) => i,
        _ => usize::MAX,
    });

    let mut lanes_seen: Vec<Lane> = Vec::new();
    for &l in &step_lane {
        if !lanes_seen.contains(&l) {
            lanes_seen.push(l);
        }
    }
    if !crate::diag::has_errors(&diags) {
        let c = hb.edge_counts();
        diags.push(Diagnostic::note(
            codes::CERTIFIED,
            None,
            format!(
                "concurrency certificate: {n} steps across {} lanes, {} happens-before \
                 edges ({} program, {} transfer, {} lifetime); no hazards",
                lanes_seen.len(),
                c.total(),
                c.program,
                c.transfer,
                c.lifetime
            ),
        ));
    }

    ConcurrencyReport {
        hb,
        step_lane,
        step_device,
        lanes_used: lanes_seen.len(),
        diagnostics: diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::fixtures::{
        chain2, cin, cout, free, good_plan, single, staged_plan, OwnedPlan, UnitView,
    };
    use gpuflow_graph::{DataKind, Graph, OpKind};

    fn lanes(devices: usize, streams: usize) -> LaneModel {
        LaneModel { devices, streams }
    }

    fn codes_of(r: &ConcurrencyReport) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn staged_cross_device_plan_certifies() {
        let g = chain2();
        let r = certify_concurrency(&g, &staged_plan().view(), &lanes(2, 1));
        assert!(r.certified(), "{:?}", r.diagnostics);
        assert_eq!(codes_of(&r), vec![codes::CERTIFIED]);
        // Four lanes: h2d, d2h, both compute engines, plus host frees.
        assert_eq!(r.lanes_used, 5);
        assert_eq!(r.step_lane[0], Lane::H2d);
        assert_eq!(r.step_lane[1], Lane::Compute(0));
        assert_eq!(r.step_lane[6], Lane::Compute(1));
        assert_eq!(r.step_device[5], Some(1));
    }

    #[test]
    fn launch_fronted_past_its_copyin_is_raw() {
        let g = chain2();
        let mut p = staged_plan();
        // Mutation: the launch is issued before its input's upload — on
        // separate lanes nothing orders them.
        p.steps.swap(0, 1);
        let r = certify_concurrency(&g, &p.view(), &lanes(2, 1));
        assert!(
            codes_of(&r).contains(&codes::HAZARD_RAW),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn dropped_staging_hop_is_unstaged_read() {
        let g = chain2();
        let mut p = staged_plan();
        // Mutation: delete the staging CopyOut of mid (and the Free that
        // depended on it keeps its own edges).
        p.steps.remove(3);
        let r = certify_concurrency(&g, &p.view(), &lanes(2, 1));
        assert!(
            codes_of(&r).contains(&codes::UNSTAGED_READ),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn early_free_is_use_after_free() {
        let g = chain2();
        let mut p = staged_plan();
        // Mutation: free mid on device 1 before the launch that reads it.
        p.steps.swap(6, 7);
        let r = certify_concurrency(&g, &p.view(), &lanes(2, 1));
        assert!(
            codes_of(&r).contains(&codes::USE_AFTER_FREE),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn eviction_racing_pending_transfer_is_free_in_flight() {
        let g = chain2();
        let mut p = staged_plan();
        // Mutation: the producer device frees mid before staging it out —
        // the eviction races the pending download.
        p.steps.swap(3, 4);
        let r = certify_concurrency(&g, &p.view(), &lanes(2, 1));
        assert!(
            codes_of(&r).contains(&codes::FREE_IN_FLIGHT),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn single_device_plan_certifies_serial_shape() {
        let g = chain2();
        let p = good_plan();
        let r = certify_concurrency(&g, &p.view(), &lanes(1, 1));
        assert!(r.certified(), "{:?}", r.diagnostics);
        // The dynamic sanitizer accepts any execution that honours the
        // edges — here a fully serialized timeline.
        let times: Vec<(f64, f64)> = (0..p.steps.len())
            .map(|i| (i as f64, i as f64 + 0.5))
            .collect();
        assert!(r.dynamic_violations(&times).is_empty());
        // And flags one that starts a step before its predecessor ends.
        let mut bad = times.clone();
        bad[1].0 = 0.0; // launch starts while the upload is in flight
        assert!(!r.dynamic_violations(&bad).is_empty());
    }

    #[test]
    fn pinned_host_data_needs_no_staging_copyout() {
        let g = chain2();
        let p = OwnedPlan {
            units: vec![UnitView {
                inputs: vec![DataId(1)],
                outputs: vec![DataId(2)],
            }],
            unit_device: vec![1],
            pinned_host: vec![DataId(1)],
            steps: vec![
                cin(1, DataId(1)),
                Step::Launch(0),
                free(1, DataId(1)),
                cout(1, DataId(2)),
                free(1, DataId(2)),
            ],
        };
        let r = certify_concurrency(&g, &p.view(), &lanes(2, 1));
        assert!(r.certified(), "{:?}", r.diagnostics);
        let mut unpinned = p.clone();
        unpinned.pinned_host.clear();
        let r = certify_concurrency(&g, &unpinned.view(), &lanes(2, 1));
        assert!(codes_of(&r).contains(&codes::UNSTAGED_READ));
    }

    #[test]
    fn spill_reload_chain_is_ordered_not_hazardous() {
        // upload, read, spill out, free, reload, read again: every pair is
        // chained through transfer and lifetime edges.
        let mut g = Graph::new();
        let a = g.add("in", 8, 8, DataKind::Input);
        let m = g.add("m", 8, 8, DataKind::Temporary);
        let o = g.add("out", 8, 8, DataKind::Output);
        g.add_op("t0", OpKind::Tanh, vec![a], m).unwrap();
        g.add_op("t1", OpKind::EwAdd { arity: 2 }, vec![a, m], o)
            .unwrap();
        let p = single(
            vec![
                UnitView {
                    inputs: vec![a],
                    outputs: vec![m],
                },
                UnitView {
                    inputs: vec![a, m],
                    outputs: vec![o],
                },
            ],
            vec![
                cin(0, a),
                Step::Launch(0),
                cout(0, m), // spill
                free(0, m),
                cin(0, m), // reload
                Step::Launch(1),
                free(0, a),
                free(0, m),
                cout(0, o),
                free(0, o),
            ],
        );
        let r = certify_concurrency(&g, &p.view(), &lanes(1, 1));
        assert!(r.certified(), "{:?}", r.diagnostics);
    }

    /// in -> (t0 -> l, t1 -> r) -> add -> out: two independent middle
    /// units that a 2-stream schedule runs concurrently.
    fn fork_graph() -> Graph {
        let mut g = Graph::new();
        let a = g.add("in", 8, 8, DataKind::Input);
        let l = g.add("l", 8, 8, DataKind::Temporary);
        let r = g.add("r", 8, 8, DataKind::Temporary);
        let o = g.add("out", 8, 8, DataKind::Output);
        g.add_op("t0", OpKind::Tanh, vec![a], l).unwrap();
        g.add_op("t1", OpKind::Tanh, vec![a], r).unwrap();
        g.add_op("add", OpKind::EwAdd { arity: 2 }, vec![l, r], o)
            .unwrap();
        g
    }

    fn fork_plan() -> OwnedPlan {
        let d = DataId;
        single(
            vec![
                UnitView {
                    inputs: vec![d(0)],
                    outputs: vec![d(1)],
                },
                UnitView {
                    inputs: vec![d(0)],
                    outputs: vec![d(2)],
                },
                UnitView {
                    inputs: vec![d(1), d(2)],
                    outputs: vec![d(3)],
                },
            ],
            vec![
                cin(0, d(0)),
                Step::Launch(0),
                Step::Launch(1),
                free(0, d(0)),
                Step::Launch(2),
                free(0, d(1)),
                free(0, d(2)),
                cout(0, d(3)),
                free(0, d(3)),
            ],
        )
    }

    #[test]
    fn two_stream_fork_certifies_with_stream_lanes() {
        let g = fork_graph();
        let p = fork_plan();
        let r = certify_concurrency_streams(&g, &p.view(), &lanes(1, 2), &[0, 1, 0]);
        assert!(r.certified(), "{:?}", r.diagnostics);
        assert_eq!(r.step_lane[1], Lane::Compute(0));
        assert_eq!(r.step_lane[2], Lane::Stream(0, 1));
        assert_eq!(r.step_lane[2].label(), "gpu0s1");
        // h2d, gpu0, gpu0s1, d2h, host.
        assert_eq!(r.lanes_used, 5);
        // The two parallel launches are deliberately unordered; the join
        // is ordered after both through transfer edges.
        assert!(!r.hb.ordered(1, 2));
        assert!(r.hb.happens_before(1, 4));
        assert!(r.hb.happens_before(2, 4));
    }

    #[test]
    fn empty_stream_map_matches_plain_certification() {
        let g = fork_graph();
        let p = fork_plan();
        let plain = certify_concurrency(&g, &p.view(), &lanes(1, 1));
        let streamed = certify_concurrency_streams(&g, &p.view(), &lanes(1, 1), &[]);
        assert_eq!(plain.step_lane, streamed.step_lane);
        assert_eq!(plain.hb.edges(), streamed.hb.edges());
        assert_eq!(
            codes_of(&plain),
            streamed
                .diagnostics
                .iter()
                .map(|d| d.code)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn cross_stream_raw_is_still_caught() {
        let g = fork_graph();
        let mut p = fork_plan();
        // Mutation: the join launch is issued before one of its producers;
        // on separate streams nothing orders them.
        p.steps.swap(2, 4);
        let r = certify_concurrency_streams(&g, &p.view(), &lanes(1, 2), &[0, 1, 0]);
        assert!(
            r.diagnostics.iter().any(|d| d.code == codes::HAZARD_RAW),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn stream_program_order_chains_within_one_stream_only() {
        let g = fork_graph();
        let p = fork_plan();
        // All launches on stream 1: program order chains 1 -> 2 -> 4.
        let r = certify_concurrency_streams(&g, &p.view(), &lanes(1, 2), &[1, 1, 1]);
        assert!(r.certified(), "{:?}", r.diagnostics);
        assert_eq!(r.step_lane[1], Lane::Stream(0, 1));
        assert!(r.hb.ordered(1, 2));
    }

    #[test]
    fn certificate_note_reports_edge_breakdown() {
        let g = chain2();
        let r = certify_concurrency(&g, &staged_plan().view(), &lanes(2, 1));
        let note = &r.diagnostics[r.diagnostics.len() - 1];
        assert_eq!(note.code, codes::CERTIFIED);
        assert!(note.message.contains("program"), "{}", note.message);
        assert!(note.message.contains("lifetime"), "{}", note.message);
        assert_eq!(
            r.hb.edge_counts().total(),
            r.hb.edges().len(),
            "tallies cover every edge"
        );
    }
}
