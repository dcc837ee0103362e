//! Allocation pins for the fleet engine's hot path.
//!
//! A one-window run keeps one cell per worker and rebuilds it in place
//! for the worker's next cell, and each control tick reuses its
//! observation, its policies' lists and its command buffer. So once a
//! worker has built its first cell, further cells and their control
//! ticks allocate nothing. A counting global allocator checks that: the
//! same fleet at N cells and at 2N cells, run on the test's own thread,
//! must differ by fewer than N allocations — less than one per extra
//! cell, although each extra cell runs 120 control ticks.

use litegpu_fleet::{run_sharded, FleetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations (new blocks and
/// resizes) each thread makes.
struct Counting;

thread_local! {
    // `const`-initialized and without a destructor, so reading it never
    // allocates: the allocator itself can use it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the counter may be gone while its thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; `count` neither allocates nor touches
// the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator (so from `System`) with
        // `layout`, as `realloc`'s caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (so from `System`) with
        // `layout`, as `dealloc`'s caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// `cells` cells of 8 Lite instances, serving phase-split under the
/// autoscaler, DVFS, power gating and the router, with a 5 s control
/// interval over 10 minutes: one window, no failures, no series.
fn fleet(cells: u32) -> FleetConfig {
    let mut cfg = FleetConfig::lite_ctrl_demo().with_phase_split();
    cfg.ctrl = cfg.ctrl.map(|c| {
        let mut c = c.with_dvfs();
        c.control_interval_s = 5.0;
        c
    });
    cfg.instances = 8 * cells;
    cfg.cell_size = 8;
    cfg.horizon_s = 600.0;
    cfg.failure_acceleration = 0.0;
    cfg
}

#[test]
fn further_cells_and_control_ticks_allocate_nothing() {
    const N: u32 = 16;
    // One worker thread: `run_sharded` then runs it on this thread.
    let count = |cells: u32| {
        let cfg = fleet(cells);
        let mut report = None;
        let n = allocations(|| report = Some(run_sharded(&cfg, 7, 1, 1).expect("valid fleet")));
        // The run serves over the KV link, parks and retunes clocks.
        let report = report.expect("ran");
        let kv = report.kv_transfer.as_ref().expect("phase-split run");
        let dvfs = report.dvfs.as_ref().expect("DVFS run");
        assert!(report.completed > 0 && report.scale_downs > 0);
        assert!(kv.transfers > 0 && dvfs.retunes > 0);
        n
    };
    let (n, n2) = (count(N), count(2 * N));
    assert!(
        n2 < n + N as u64,
        "{N} cells: {n} allocations; {} cells: {n2}",
        2 * N
    );
}
