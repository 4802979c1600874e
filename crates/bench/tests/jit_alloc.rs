//! The native hub step allocates nothing.
//!
//! A hub cycle is a few hundred nanoseconds on the native engine, so one
//! `malloc`/`free` pair per cycle is a tenth of it: that is what building
//! the memory span table per call cost on the rok (17 memories) and
//! boum-2w (26) hubs. The simulator now keeps that table and rebuilds it
//! only after an `&mut` access to a memory. This binary installs a
//! counting global allocator and checks that, once the first step has
//! built the table, 10,000 native steps on the boum-2w free-run hub (what
//! a production session simulates) make no allocation at all — settle
//! and the native memory commit at the edge, which shares the table.
//!
//! The native run loop, which clocks whole quiet runs in generated code
//! between host events, is held to the same bar: 10,000 cycles through
//! `Simulator::run_guarded` with the DRAM model's three guards, no
//! allocation.
//!
//! Skips (with a printed reason) when no `rustc` is on `PATH`, like
//! `jit_golden.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use strober_cores::{build_core, CoreConfig};
use strober_fame::{transform, FameConfig};
use strober_jit::{rustc_version, JitCompiler};
use strober_sim::{Guard, Simulator};

thread_local! {
    /// Allocations made by this thread: other test threads, and the
    /// harness's own, do not count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every call that can hand out memory.
struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// Safety: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The boum-2w free-run hub with the native engine attached, or `None`
/// (with a printed reason) without a `rustc`.
fn native_boum_2w_hub() -> Option<Simulator> {
    if rustc_version().is_none() {
        println!("skipping: no rustc on PATH (the production fallback case)");
        return None;
    }
    let fame =
        transform(&build_core(&CoreConfig::boum_2w()), &FameConfig::default()).expect("transform");
    assert!(
        fame.hub.memories().count() > 16,
        "the hub must have more memories than the old 16-span stack array"
    );
    let mut sim = Simulator::new(&fame.free_run().expect("free-run hub")).expect("valid hub");
    JitCompiler::in_temp().attach(&mut sim).expect("jit attach");
    Some(sim)
}

#[test]
fn native_steps_on_the_boum_2w_hub_do_not_allocate() {
    let Some(mut sim) = native_boum_2w_hub() else {
        return;
    };
    // The first native settle builds the span table.
    sim.step();

    let before = allocations();
    for _ in 0..10_000 {
        sim.step();
    }
    let made = allocations() - before;
    assert_eq!(sim.active_engine_name(), "tape-jit");
    assert_eq!(made, 0, "10,000 native hub steps allocated {made} times");
}

#[test]
fn the_native_run_loop_on_the_boum_2w_hub_does_not_allocate() {
    let Some(mut sim) = native_boum_2w_hub() else {
        return;
    };
    let guards = ["mem_req_valid", "console_valid", "tohost"].map(|name| {
        let node = sim.resolve_output(name).expect("core output");
        Guard::new(sim.output_slot(node).expect("an output"), 1)
    });
    // The first native settle builds the span table.
    sim.step();

    let before = allocations();
    // With no memory responses driven, the core issues its first fetch
    // and then waits: the loop runs until a guard fires, the host steps
    // over that cycle, and the rest of the 10,000 cycles are one quiet run.
    let (mut looped, mut stops) = (0, 0);
    while looped < 10_000 && stops < 100 {
        looped += sim.run_guarded(&guards, 10_000 - looped);
        if looped < 10_000 {
            sim.step();
            stops += 1;
        }
    }
    let made = allocations() - before;
    assert_eq!(looped, 10_000, "{stops} guard stops");
    assert_eq!(
        made, 0,
        "10,000 cycles in the native run loop allocated {made} times"
    );
}
