//! Allocation budget of a warm grid point: what one
//! `run_scenario_cached` call allocates once its compile stage is
//! cached.
//!
//! A counting global allocator tallies, per thread, every allocator
//! call (alloc, zeroed alloc, realloc and free) and the bytes each
//! allocation asks for or each reallocation grows by. Two points are measured:
//!
//! - `qft_n30` under BISP at the default parameters;
//! - `logical_t_d3x2` under lock-step on contended two-lane links
//!   (`LinkModel::serialized(8)`, capacity 2), averaged over seeds 8–15,
//!   noiseless and noisy.
//!
//! Calls per point may not exceed 1.25× the count this file records
//! (the same in debug and release builds). The BISP point's bytes must
//! also stay below its compiled programs' own size: a warm point shares
//! the cached programs and allocates only its run's mutable state, so a
//! per-point copy of the programs fails the test. The lock-step point
//! gets no byte bound: its programs are small (68 KB) and its run banks
//! every hub broadcast at every subscriber, so its run state alone
//! outweighs them (ROADMAP item 2).
//!
//! Before the compiled artifact was shared, the BISP point made 3,026
//! allocator calls and obtained 1,291,466 bytes, and the lock-step
//! points averaged 21,263 calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use distributed_hisq::compiler::{
    compile_bisp, compile_lockstep, BispOptions, CompiledSystem, LockstepOptions, Scheme,
};
use distributed_hisq::isa::Inst;
use distributed_hisq::net::{LinkModel, TopologyBuilder};
use distributed_hisq::quantum::NoiseModel;
use distributed_hisq::runner::{run_scenario_cached, CompileCache, Scenario};
use distributed_hisq::workloads::WorkloadSpec;

/// Allocator calls of one warm `qft_n30` BISP point.
const QFT_N30_BISP_CALLS: u64 = 1_423;

/// Mean allocator calls of one warm contended lock-step
/// `logical_t_d3x2` point.
const LOGICAL_T_D3X2_LOCKSTEP_CALLS: u64 = 2_056;

/// Headroom over the recorded counts before the budget fails.
const SLACK: f64 = 1.25;

/// Delegates to the system allocator and counts on the calling thread.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Records one allocator call that obtains `bytes` new bytes. The
/// thread-locals are const-initialized and hold no destructor, so
/// touching them here never allocates.
fn record(bytes: usize) {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let _ = BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls and requested bytes on this thread so far.
fn totals() -> (u64, u64) {
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}

/// `(calls, bytes)` of one `run_scenario_cached` of `scenario` on a
/// cache that already holds its artifact.
fn warm_point(scenario: &Scenario, cache: &CompileCache) -> (u64, u64) {
    let (calls, bytes) = totals();
    let record = run_scenario_cached(scenario, cache).expect("the point runs");
    drop(record);
    let (calls_after, bytes_after) = totals();
    (calls_after - calls, bytes_after - bytes)
}

/// Bytes of the machine code the compiler emitted for `compiled`: what
/// one copy of every program costs.
fn program_bytes(compiled: &CompiledSystem) -> u64 {
    let insts: usize = compiled.programs.values().map(|p| p.insts().len()).sum();
    (insts * size_of::<Inst>()) as u64
}

/// The compile a scenario's artifact holds, redone outside the runner
/// for its program size (default system parameters, no surgery).
fn compiled(scenario: &Scenario) -> CompiledSystem {
    let built = scenario.workload.build().expect("suite workload");
    let p = &scenario.params;
    match scenario.scheme {
        Scheme::Bisp => {
            let topology = TopologyBuilder::grid(built.grid.0, built.grid.1)
                .neighbor_latency(p.neighbor_latency)
                .router_latency(p.router_latency)
                .router_arity(p.router_arity)
                .build();
            let options = BispOptions {
                shots: scenario.shots,
                ..BispOptions::default()
            };
            compile_bisp(&built.circuit, &topology, &options).expect("compiles")
        }
        Scheme::Lockstep => {
            let options = LockstepOptions {
                star_up_latency: p.star_up_latency,
                star_down_latency: p.star_down_latency,
                shots: scenario.shots,
                ..LockstepOptions::default()
            };
            compile_lockstep(&built.circuit, &options).expect("compiles")
        }
    }
}

#[test]
fn warm_qft_n30_bisp_point() {
    let scenario = Scenario::new(WorkloadSpec::suite("qft_n30"), Scheme::Bisp);
    let cache = CompileCache::new();
    run_scenario_cached(&scenario, &cache).expect("cold point runs");
    let (calls, bytes) = warm_point(&scenario, &cache);
    let programs = program_bytes(&compiled(&scenario));
    eprintln!("qft_n30/bisp: {calls} calls, {bytes} bytes, programs {programs} bytes");
    assert_within_budget(calls, QFT_N30_BISP_CALLS);
    assert!(
        bytes < programs,
        "a warm point obtained {bytes} bytes, more than its programs' {programs}: \
         is the compiled artifact copied per point?"
    );
}

#[test]
fn warm_contended_lockstep_points() {
    let base = Scenario::new(WorkloadSpec::suite("logical_t_d3x2"), Scheme::Lockstep);
    let cache = CompileCache::new();
    run_scenario_cached(&base, &cache).expect("cold point runs");
    let noisy = NoiseModel::default()
        .with_gate_errors(0.001, 0.01)
        .with_meas_error(0.02);
    let (mut calls, mut bytes, mut points) = (0, 0, 0);
    for noise in [NoiseModel::default(), noisy] {
        for seed in 8..16 {
            let mut scenario = base.clone();
            scenario.seed = seed;
            scenario.params.noise = noise;
            scenario.params.link_model = LinkModel {
                capacity: 2,
                ..LinkModel::serialized(8)
            };
            let (c, b) = warm_point(&scenario, &cache);
            calls += c;
            bytes += b;
            points += 1;
        }
    }
    let programs = program_bytes(&compiled(&base));
    eprintln!(
        "logical_t_d3x2/lockstep: {} calls, {} bytes per point, programs {programs} bytes",
        calls / points,
        bytes / points
    );
    assert_within_budget(calls / points, LOGICAL_T_D3X2_LOCKSTEP_CALLS);
}

/// Fails when `calls` exceeds the recorded count by more than
/// [`SLACK`].
fn assert_within_budget(calls: u64, recorded: u64) {
    let limit = (recorded as f64 * SLACK) as u64;
    assert!(
        calls <= limit,
        "{calls} allocator calls per warm point, above the budget of {limit} \
         ({SLACK}x the recorded {recorded})"
    );
}
