//! Allocation budget of the analysis fold.
//!
//! Every table folds one per-record view that derives each shared fact
//! once, so folding a record should cost a handful of allocations: the
//! `allow` attribute and header parses, and new rows. This binary
//! installs a counting global allocator and holds a fold of seed 7's
//! ranks 1..=2,000 into every CLI table to an average number of
//! allocations per record. Counts are kept per thread, so the other
//! tests running in this binary cannot disturb them, and they repeat
//! exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use analysis::stream::{Accumulator, TableSelection, TableSet};
use crawler::{CrawlConfig, CrawlDataset, Crawler};
use webgen::{PopulationConfig, WebPopulation};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the counter is a const-initialized thread-local without a destructor,
// so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn fold(dataset: &CrawlDataset, selection: TableSelection) -> TableSet {
    let mut set = TableSet::new(selection);
    for record in &dataset.records {
        set.fold(record);
    }
    set
}

#[test]
fn fold_averages_at_most_12_allocations_per_record() {
    let population = WebPopulation::new(PopulationConfig {
        seed: 7,
        size: 2_000,
    });
    let dataset = Crawler::new(CrawlConfig::default()).crawl(&population);
    // The first fold warms this thread's static-scan memo and interner
    // cache, as the first records of a shard do.
    fold(&dataset, TableSelection::all());
    let (_set, n) = counted(|| fold(&dataset, TableSelection::all()));
    let mean = n as f64 / dataset.records.len() as f64;
    assert!(mean <= 12.0, "fold: {mean:.2} allocations per record");
}
