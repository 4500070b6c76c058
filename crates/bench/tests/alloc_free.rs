//! Allocation audit for the polling hot path.
//!
//! The round-index/arena rework's claim is that a fault-free inventory
//! allocates O(rounds) — arena high-water growth — never O(slots). A
//! counting `#[global_allocator]` shim proves it: the allocation count of a
//! full HPP run must stay far below the poll count, and growing the
//! population (hence the slot count) several-fold must not grow the
//! allocation count proportionally. The same shim shows that a population
//! is built and dropped in a fixed handful of heap blocks (its columns), not
//! one or more per tag. The shim lives here, not in a library
//! crate, because every workspace lib `forbid(unsafe_code)`s — an
//! integration test is its own crate root and may implement `GlobalAlloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rfid_protocols::{HppConfig, PollingProtocol};
use rfid_system::{BitVec, SimConfig, SimContext, TagPopulation};
use rfid_workloads::{PayloadKind, Scenario};

/// Counts heap acquisitions (alloc + realloc — the events arena reuse is
/// supposed to eliminate) and releases made by an armed thread.
struct CountingAlloc;

thread_local! {
    /// Arming is per thread, so the test harness's own threads (result
    /// reporting, output capture) never leak into a count.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is counting. A thread whose locals are
/// already torn down is not.
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

fn arm(on: bool) {
    ARMED.with(|a| a.set(on));
}

static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
static RELEASES: AtomicU64 = AtomicU64::new(0);
/// The counters are process-global and the default test harness runs
/// `#[test]`s concurrently: each test holds this while it counts.
static COUNTING: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if armed() {
            RELEASES.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs a fault-free HPP inventory of `n` tags with the counter armed only
/// around the protocol run (population/context construction may allocate
/// freely) and returns (allocations, polls).
fn counted_hpp_run(n: usize) -> (u64, u64) {
    let pop = TagPopulation::sequential(n, |i| BitVec::from_value((i % 16) as u64, 4));
    let mut ctx = SimContext::new(pop, &SimConfig::paper(7));
    let protocol = HppConfig::default().into_protocol();
    ACQUISITIONS.store(0, Ordering::SeqCst);
    arm(true);
    let report = protocol.run(&mut ctx);
    arm(false);
    (ACQUISITIONS.load(Ordering::SeqCst), report.counters.polls)
}

/// Builds and drops the population of an `n`-tag scenario with the
/// counters armed and returns (acquisitions, releases).
fn counted_build_and_drop(n: usize) -> (u64, u64) {
    let scenario = Scenario::uniform(n, 16)
        .with_seed(3)
        .with_payload(PayloadKind::Random);
    ACQUISITIONS.store(0, Ordering::SeqCst);
    RELEASES.store(0, Ordering::SeqCst);
    arm(true);
    let population = scenario.build_population();
    let len = population.len();
    drop(population);
    arm(false);
    assert_eq!(len, n);
    (
        ACQUISITIONS.load(Ordering::SeqCst),
        RELEASES.load(Ordering::SeqCst),
    )
}

/// One test drives both HPP checks, holding the counters throughout.
#[test]
fn hpp_inner_loop_does_not_allocate_per_slot() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let (small_allocs, small_polls) = counted_hpp_run(2_000);
    assert_eq!(small_polls, 2_000);
    // O(rounds) arena growth plus the final report: a couple hundred
    // acquisitions at the most, never one per poll.
    assert!(
        small_allocs < small_polls / 4,
        "HPP allocated {small_allocs} times for {small_polls} polls"
    );

    // Scaling check: 8× the tags (and ≈ 8× the slots) must not cost
    // anywhere near 8× the allocations — arenas grow to a high-water mark,
    // they are not reacquired per slot.
    let (large_allocs, large_polls) = counted_hpp_run(16_000);
    assert_eq!(large_polls, 16_000);
    assert!(
        large_allocs < small_allocs + large_polls / 8,
        "allocations scale with slots: {small_allocs} at n=2k vs {large_allocs} at n=16k"
    );
}

/// A population's tags live in its columns, so building one (IDs drawn
/// without a repeat) and dropping it costs the same handful of heap blocks
/// at any size. A heap payload per tag would cost at least one per tag.
#[test]
fn populations_build_and_drop_in_a_fixed_number_of_blocks() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let (small_allocs, small_frees) = counted_build_and_drop(2_000);
    let (large_allocs, large_frees) = counted_build_and_drop(16_000);
    assert!(
        small_allocs < 16 && small_frees < 16,
        "{small_allocs} acquisitions and {small_frees} releases for 2k tags"
    );
    assert!(
        large_allocs <= small_allocs && large_frees <= small_frees,
        "8× the tags: {small_allocs} → {large_allocs} acquisitions, \
         {small_frees} → {large_frees} releases"
    );
}
