//! Allocation tripwires for the transfer scheduler, the overlap simulator
//! and the plan checker.
//!
//! The transfer scheduler builds every plan, `simulate` stands in for the
//! runtime on every `run` of a cluster plan, and the concurrency
//! certifier plus the profile built on its happens-before graph check and
//! explain every such run. A heap allocation per plan step (a read list
//! or residency node per datum, a wanted set per unit, a label string per
//! lane event, a hash set or shape vector per launch, a predecessor or
//! access-history `Vec` per step or buffer, a cloned step list) is most
//! of their cost. This binary counts the allocations of one
//! `schedule_device_transfers`, one `simulate`, one
//! `ExecutionPlan::certify` and one `profile_with` call on two
//! cluster plans of very different lengths (10 136 and 41 012 steps); the
//! counts may differ only by what the machine's size and the growth of
//! the result vectors explain, never by a term per step. Before the flat
//! happens-before graph, `certify` made 35 013 and 138 210 allocations on
//! these plans; before the flat transfer scheduler, the schedule made
//! 110 179 on the longer one.
//!
//! Debug builds run the plan checker and the happens-before sanitizer
//! inside `simulate` and the scheduler, and re-certify inside the
//! profile, which allocate by design, so the count is taken in release
//! builds only: `cargo test --release --test sim_allocations`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpuflow::core::xfer::{schedule_device_transfers, EvictionPolicy, MultiXferOptions};
use gpuflow::core::{
    partition_offload_units, schedule_units, simulate, CompileOptions, OpScheduler,
    PartitionPolicy, Simulation,
};
use gpuflow::multi::{compile_multi, parse_cluster, shard_graph};
use gpuflow::serve::resolve_named;
use gpuflow_profile::profile_with;

/// Counts the allocations (and reallocations) of the thread that has
/// counting switched on; every other thread passes straight through.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn tally() {
    if COUNTING.with(Cell::get) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Compile `template` for `cluster`, then simulate its plan once with the
/// allocation counter on: `(plan steps, allocations)`.
fn simulated(template: &str, cluster: &str) -> (usize, usize) {
    let g = resolve_named(template).unwrap();
    let c = compile_multi(&g, &parse_cluster(cluster).unwrap(), 0.05).unwrap();
    let machine = c.machine();
    COUNT.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let sim: Simulation = simulate(&c.split.graph, &c.plan, &machine);
    COUNTING.with(|on| on.set(false));
    assert!(sim.outcome.makespan > 0.0);
    drop(sim);
    (c.plan.steps.len(), COUNT.with(Cell::get))
}

/// Compile `template` for `cluster`, simulate it, then certify and
/// profile it with the allocation counter on, the way a cluster `run
/// --json` does: `(plan steps, allocations of certify, allocations of
/// profile_with)`.
fn checked(template: &str, cluster: &str) -> (usize, usize, usize) {
    let g = resolve_named(template).unwrap();
    let c = compile_multi(&g, &parse_cluster(cluster).unwrap(), 0.05).unwrap();
    let sim = c.simulate();
    let counted = |f: &mut dyn FnMut()| {
        COUNT.with(|n| n.set(0));
        COUNTING.with(|on| on.set(true));
        f();
        COUNTING.with(|on| on.set(false));
        COUNT.with(Cell::get)
    };
    let mut cert = None;
    let certify = counted(&mut || cert = Some(c.plan.certify(&c.split.graph)));
    let cert = cert.unwrap();
    assert!(cert.certified());
    let mut report = None;
    let profile = counted(&mut || {
        report = Some(profile_with(&c, &CompileOptions::default(), &sim, &cert).unwrap());
    });
    assert!(report.unwrap().makespan_ns > 0);
    (c.plan.steps.len(), certify, profile)
}

/// Shard, partition and order `template` for `cluster` the way
/// `compile_multi` does, then schedule its transfers with the allocation
/// counter on; the units and their devices are built, and moved in,
/// outside it: `(plan steps, allocations)`.
fn scheduled(template: &str, cluster: &str) -> (usize, usize) {
    let g = resolve_named(template).unwrap();
    let cluster = parse_cluster(cluster).unwrap();
    let sharded = shard_graph(&g, &cluster, 0.05).unwrap();
    let sg = &sharded.split.graph;
    let units = partition_offload_units(sg, PartitionPolicy::PerOperator, u64::MAX);
    let unit_device: Vec<usize> = units.iter().map(|u| sharded.device_of(u.ops[0])).collect();
    let order = schedule_units(sg, &units, OpScheduler::DepthFirst);
    let opts = MultiXferOptions {
        budgets: cluster.plannable_budgets(0.05),
        eager_free: true,
        pinned_host: vec![],
    };
    COUNT.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let plan = schedule_device_transfers(
        sg,
        units,
        unit_device,
        &order,
        &opts,
        EvictionPolicy::Belady,
    );
    COUNTING.with(|on| on.set(false));
    let steps = plan.unwrap().steps.len();
    (steps, COUNT.with(Cell::get))
}

#[test]
fn transfer_schedule_allocates_nothing_per_step() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: debug builds rescan residency and check the plan in the scheduler");
        return;
    }
    let (small_steps, small) = scheduled("cnn-small:288x288", "c870x2");
    let (large_steps, large) = scheduled("cnn-small:2000x2000", "c870x8");
    assert!(
        large_steps > small_steps + 30_000,
        "the plans must differ by many steps: {small_steps} vs {large_steps}"
    );
    eprintln!("schedule {small} vs {large}");
    assert!(
        large.abs_diff(small) < 64,
        "{small} allocations for {small_steps} steps, {large} for {large_steps}"
    );
}

#[test]
fn simulate_allocates_nothing_per_step() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: debug builds check the plan inside simulate");
        return;
    }
    let (small_steps, small) = simulated("cnn-small:288x288", "c870x2");
    let (large_steps, large) = simulated("cnn-small:2000x2000", "c870x8");
    assert!(
        large_steps > small_steps + 30_000,
        "the plans must differ by many steps: {small_steps} vs {large_steps}"
    );
    assert!(
        large.abs_diff(small) < 64,
        "{small} allocations for {small_steps} steps, {large} for {large_steps}"
    );
}

#[test]
fn certify_and_profile_allocate_nothing_per_step() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: debug builds re-check the plan and the certificate");
        return;
    }
    let (small_steps, small_certify, small_profile) = checked("cnn-small:288x288", "c870x2");
    let (large_steps, large_certify, large_profile) = checked("cnn-small:2000x2000", "c870x8");
    assert!(
        large_steps > small_steps + 30_000,
        "the plans must differ by many steps: {small_steps} vs {large_steps}"
    );
    eprintln!(
        "certify {small_certify} vs {large_certify}, profile {small_profile} vs {large_profile}"
    );
    assert!(
        large_certify.abs_diff(small_certify) < 64,
        "certify: {small_certify} allocations for {small_steps} steps, \
         {large_certify} for {large_steps}"
    );
    assert!(
        large_profile.abs_diff(small_profile) < 64,
        "profile_with: {small_profile} allocations for {small_steps} steps, \
         {large_profile} for {large_steps}"
    );
}
