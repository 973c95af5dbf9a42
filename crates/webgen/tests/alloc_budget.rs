//! Allocation budgets of the page-text path.
//!
//! A crawl generates and scans one landing page per origin, and heap
//! traffic used to dominate both steps. This binary installs a counting
//! global allocator and holds seed 7's ranks 1..=2,000 to an average
//! number of allocations per page for `site::page_html` and for
//! `html::scan`. Counts are kept per thread, so the other tests running
//! in this binary cannot disturb them, and they repeat exactly from run
//! to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const SEED: u64 = 7;
const RANKS: u64 = 2_000;

#[test]
fn page_html_averages_at_most_4_allocations() {
    let mut total = 0;
    for rank in 1..=RANKS {
        let (_page, n) = counted(|| webgen::site::page_html(SEED, rank));
        total += n;
    }
    let mean = total as f64 / RANKS as f64;
    assert!(mean <= 4.0, "page_html: {mean:.2} allocations per page");
}

#[test]
fn scan_averages_at_most_16_allocations_per_landing_page() {
    let mut total = 0;
    for rank in 1..=RANKS {
        let page = webgen::site::page_html(SEED, rank);
        let (_doc, n) = counted(|| html::scan(&page));
        total += n;
    }
    let mean = total as f64 / RANKS as f64;
    assert!(mean <= 16.0, "html::scan: {mean:.2} allocations per page");
}
