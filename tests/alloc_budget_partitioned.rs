//! Allocation budget of the partitioned reasoner PR_Dep on the paper's
//! program P: heap allocations per input item over one tumbling seed-2017
//! `CorrelatedSparse` window of 10 000 items, counted by a global allocator
//! wrapper, under both execution modes.
//!
//! PR_Dep runs R once per community and combines their answers. A tumbling
//! window's answers are held for no later window, so the combining handler
//! moves each community's atoms into the combined answer set instead of
//! cloning them; the budget is then R's own (`tests/alloc_budget.rs`). A
//! clone per atom anywhere between the communities and the combined answer
//! pushes the count past it.
//!
//! This file holds exactly one test, so no other test allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
const WARM_UP_WINDOWS: u64 = 3;
const BUDGET_PER_ITEM: f64 = 1.25;

#[test]
fn partitioned_reasoner_stays_within_rs_allocation_budget() {
    let syms = Symbols::new();
    let program = parse_program(&syms, include_str!("../assets/traffic_p.lp")).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let configs = [
        ReasonerConfig { mode: ParallelMode::Sequential, ..Default::default() },
        ReasonerConfig { mode: ParallelMode::Threads, workers: 2, ..Default::default() },
    ];
    for config in configs {
        let label = format!("{:?} with {} workers", config.mode, config.workers);
        let partitioner =
            Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
        let mut reasoner =
            ParallelReasoner::new(&syms, &program, Some(&analysis.inpre), partitioner, config)
                .unwrap();
        let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, 2017);

        // The warm-up windows intern the symbols, fill every community's
        // identity memo, and pass the stream's first window, which is held
        // in case a sliding window follows it.
        for id in 0..WARM_UP_WINDOWS {
            reasoner.process(&Window::new(id, generator.window(WINDOW))).unwrap();
        }
        let measured = Window::new(WARM_UP_WINDOWS, generator.window(WINDOW));
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = reasoner.process(&measured).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        drop(out);

        let per_item = allocations as f64 / WINDOW as f64;
        println!("{label}: {allocations} allocations for {WINDOW} items: {per_item:.3} per item");
        assert!(
            per_item <= BUDGET_PER_ITEM,
            "PR_Dep ({label}) allocated {per_item:.3} times per input item (budget {BUDGET_PER_ITEM})"
        );
    }
}
