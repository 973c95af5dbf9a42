//! Allocation budgets of the crawl path.
//!
//! The census crawl is bound by its visit worker, and heap traffic is a
//! large share of that worker's time. This binary installs a counting
//! global allocator and holds two budgets:
//!
//! * `Crawler::visit_one` over seed 7's ranks 1..=2,000 makes at most
//!   170 allocations per visit on average;
//! * in `job_start`, the shard writer (the calling thread) frees at most
//!   half a block more per record than it allocates: each record goes
//!   back to the worker that built it, which frees it there;
//! * a `ReplayBundle` loaded from seed 7's 2,000-site store holds at most
//!   256 heap bytes per site: an index of frame offsets and the blobs
//!   several sites share, never the manifests or the other blobs;
//! * a `ColshWriter` fed seed 7's first 2,000 crawl records makes fewer
//!   than 0.1 allocations per new dictionary entry: entries go into one
//!   byte arena, never into a string of their own.
//!
//! Counts are kept per thread, so the other tests running in this binary
//! cannot disturb them, and they repeat exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use crawler::{
    job_start, ColshWriter, CrawlConfig, Crawler, DbFormat, JobManifest, JobOptions, ReplayBundle,
};
use webgen::{PopulationConfig, WebPopulation};

struct Counting;

thread_local! {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Live blocks this thread created minus blocks it freed.
    static NET_BLOCKS: Cell<i64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed, growth by
    /// `realloc` included.
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count_allocation(new_block: bool, bytes: i64) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    if new_block {
        NET_BLOCKS.with(|n| n.set(n.get() + 1));
    }
    NET_BYTES.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the counters are const-initialized thread-locals without destructors,
// so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(true, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(true, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(false, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET_BLOCKS.with(|n| n.set(n.get() - 1));
        NET_BYTES.with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SEED: u64 = 7;
const RANKS: u64 = 2_000;

#[test]
fn visit_one_averages_at_most_170_allocations() {
    let population = WebPopulation::new(PopulationConfig {
        seed: SEED,
        size: RANKS,
    });
    let crawler = Crawler::new(CrawlConfig::default());
    let mut total = 0;
    for rank in 1..=RANKS {
        let before = ALLOCATIONS.with(Cell::get);
        let record = crawler.visit_one(&population, rank);
        total += ALLOCATIONS.with(Cell::get) - before;
        drop(record);
    }
    let mean = total as f64 / RANKS as f64;
    assert!(mean <= 170.0, "visit_one: {mean:.1} allocations per visit");
}

/// A fresh job directory for one case, removed when dropped.
struct JobDir(PathBuf);

impl JobDir {
    fn new(tag: &str) -> JobDir {
        let dir = std::env::temp_dir().join(format!(
            "permodyssey-allocbudget-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        JobDir(dir)
    }
}

impl Drop for JobDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn the_shard_writer_frees_no_record_built_by_a_worker() {
    for format in [DbFormat::Jsonl, DbFormat::Colsh] {
        for workers in [1, 4] {
            let dir = JobDir::new(&format!("{format:?}-{workers}"));
            let manifest = JobManifest::new(SEED, RANKS, 4, format);
            let options = JobOptions {
                workers,
                ..JobOptions::default()
            };
            let before = NET_BLOCKS.with(Cell::get);
            let report = job_start(&dir.0, &manifest, &options).expect("job runs");
            let excess_frees = before - NET_BLOCKS.with(Cell::get);
            assert_eq!(report.written, RANKS);
            drop(report);
            let per_record = excess_frees as f64 / RANKS as f64;
            assert!(
                per_record <= 0.5,
                "{format:?} at {workers} workers: the writer thread freed \
                 {per_record:.2} more blocks per record than it allocated"
            );
        }
    }
}

#[test]
fn a_loaded_replay_bundle_holds_at_most_256_bytes_per_site() {
    let dir = JobDir::new("replay-load");
    let mut manifest = JobManifest::new(SEED, RANKS, 1, DbFormat::Jsonl);
    manifest.record_bundle = true;
    job_start(&dir.0, &manifest, &JobOptions::default()).expect("recording job runs");
    let before = NET_BYTES.with(Cell::get);
    let bundle = ReplayBundle::load(&JobManifest::bundle_dir(&dir.0)).expect("store loads");
    let held = NET_BYTES.with(Cell::get) - before;
    assert_eq!(bundle.sites(), RANKS);
    let per_site = held as f64 / RANKS as f64;
    assert!(
        per_site <= 256.0,
        "the loaded store holds {per_site:.0} heap bytes per site"
    );
}

/// New dictionary entries in a `.colsh` file: the leading varint of each
/// DICT block (id `0x02`), walking the `[id][len u32][crc u32][payload]`
/// framing after the 12-byte header.
fn dictionary_entries(bytes: &[u8]) -> u64 {
    let mut at = 12;
    let mut entries = 0;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
        if bytes[at] == 0x02 {
            let (mut value, mut shift) = (0u64, 0);
            for &b in &bytes[at + 9..] {
                value |= u64::from(b & 0x7F) << shift;
                shift += 7;
                if b & 0x80 == 0 {
                    break;
                }
            }
            entries += value;
        }
        at += 9 + len;
    }
    entries
}

#[test]
fn the_colsh_writer_allocates_under_a_tenth_per_dictionary_entry() {
    let population = WebPopulation::new(PopulationConfig {
        seed: SEED,
        size: RANKS,
    });
    let records = Crawler::new(CrawlConfig::default())
        .crawl(&population)
        .records;
    let dir = JobDir::new("colsh-dict");
    std::fs::create_dir_all(&dir.0).unwrap();
    let path = dir.0.join("crawl.colsh");
    let mut writer = ColshWriter::create(&path).expect("create");
    let before = ALLOCATIONS.with(Cell::get);
    for record in &records {
        writer.push(record).expect("push");
    }
    writer.finish().expect("finish");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let entries = dictionary_entries(&std::fs::read(&path).unwrap());
    assert!(entries > RANKS, "{entries} dictionary entries");
    let per_entry = allocations as f64 / entries as f64;
    assert!(
        per_entry < 0.1,
        "{allocations} allocations for {entries} new dictionary entries"
    );
}
