//! Allocation budget of the reasoner `R` on the paper's program P: heap
//! allocations per input item over one seed-2017 `CorrelatedSparse` window
//! of 10 000 items, counted by a global allocator wrapper.
//!
//! The per-window path is transform → perfect model → answer set. A fact
//! carries its arguments inline (`Args`, up to two terms: every fact of P),
//! so it is made, moved through the grounder into the answer set and
//! dropped without the allocator; only the containers (relations, indexes,
//! the model, the sort) allocate, a bounded number of times per window
//! and not per item. A heap box per fact, atom or candidate anywhere on
//! that path pushes the count past the budget.
//!
//! This file holds exactly one test, so no other test allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use stream_reasoner::prelude::*;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WINDOW: usize = 10_000;
const BUDGET_PER_ITEM: f64 = 0.1;

#[test]
fn single_reasoner_stays_within_its_allocation_budget() {
    let syms = Symbols::new();
    let program = parse_program(&syms, include_str!("../assets/traffic_p.lp")).unwrap();
    let mut reasoner = SingleReasoner::new(&syms, &program, None, SolverConfig::default()).unwrap();
    let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, 2017);
    let warm_up = Window::new(0, generator.window(WINDOW));
    let measured = Window::new(1, generator.window(WINDOW));

    // The warm-up window interns the symbols and fills the processor's
    // identity memo with the generator's shared names, which later windows
    // hit without allocating.
    reasoner.process(&warm_up).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = reasoner.process(&measured).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(out);

    let per_item = allocations as f64 / WINDOW as f64;
    println!("{allocations} allocations for {WINDOW} items: {per_item:.3} per item");
    assert!(
        per_item <= BUDGET_PER_ITEM,
        "R allocated {per_item:.3} times per input item (budget {BUDGET_PER_ITEM})"
    );
}
