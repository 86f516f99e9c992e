//! Allocation budget of the partitioned reasoner PR_Dep on a *sliding*
//! stream of the paper's program P: heap allocations per input item over
//! one window of 10 000 items sliding by 1 250, seed-2017
//! `CorrelatedSparse`, counted by a global allocator wrapper, under both
//! execution modes.
//!
//! A sliding window is held: PR_Dep keeps each community's answers for the
//! next slide, reuses the communities the slide left clean and recomputes
//! the dirty ones, and combines by borrowing every community's answers, so
//! each atom of the combined answer is a copy. An atom carries its
//! arguments inline (`Args`), so that copy allocates nothing, and routing
//! the delta borrows each item's communities from the plan. A heap box per
//! atom or per delta item pushes the count past the budget.
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
const SLIDE: usize = 1_250;
const WARM_UP_WINDOWS: usize = 4;
const BUDGET_PER_ITEM: f64 = 0.1;

#[test]
fn held_sliding_window_stays_within_the_allocation_budget() {
    let syms = Symbols::new();
    let program = parse_program(&syms, include_str!("../assets/traffic_p.lp")).unwrap();
    let analysis =
        DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default()).unwrap();
    let mut windower = SlidingWindower::new(WINDOW, SLIDE);
    let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, 2017);
    let windows: Vec<Window> = (generator.window(WINDOW + SLIDE * WARM_UP_WINDOWS).into_iter())
        .filter_map(|item| windower.push(item))
        .collect();
    assert_eq!(windows.len(), WARM_UP_WINDOWS + 1);
    let (measured, warm_up) = windows.split_last().unwrap();
    assert!(measured.delta.is_some(), "the measured window slides over the one before it");

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

        // The warm-up windows intern the symbols, fill every community's
        // identity memo and leave the previous window's answers held.
        for window in warm_up {
            reasoner.process(window).unwrap();
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = reasoner.process(measured).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        drop(out);

        let per_item = allocations as f64 / WINDOW as f64;
        println!("{label}: {allocations} allocations for {WINDOW} items: {per_item:.3} per item");
        assert!(
            per_item <= BUDGET_PER_ITEM,
            "PR_Dep ({label}) allocated {per_item:.3} times per input item on a held sliding \
             window (budget {BUDGET_PER_ITEM})"
        );
    }
}
