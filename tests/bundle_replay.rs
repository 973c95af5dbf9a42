//! Record/replay bundle-store properties.
//!
//! The content-addressed bundle store must make a crawl perfectly
//! reproducible without the generator: for *arbitrary* crawl
//! parameters — injected panics mid-visit, transient failures eating
//! retries, adversarial populations, degraded visits — recording a
//! crawl and replaying the store must emit byte-identical records.
//! Damage must never pass silently: truncating either pack file at any
//! byte offset is a strict-mode error or a valid shorter prefix (never
//! an invented record), lenient mode counts what it skips, and a
//! flipped byte anywhere in `blobs.bin` trips a frame checksum.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crawler::{
    BundleMeta, BundleStat, CrawlSource, DbFormat, JobManifest, JobOptions, ReplayBundle,
    SiteRecord, StreamMode, BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE,
};
use proptest::prelude::*;

/// A unique scratch directory per call — proptest cases run on several
/// threads inside one process.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("po-bundle-replay-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Silences the default panic hook once: injected visit faults panic on
/// purpose (and replay reproduces those panics), and a backtrace per
/// simulated crash would drown the test output.
fn quiet_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

fn jsonl(records: &[SiteRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| serde_json::to_string(r).expect("encode record"))
        .collect()
}

/// A fault-free crawl of `size` origins of the `seed` population.
fn crawl_of(seed: u64, size: u64) -> JobManifest {
    JobManifest::new(seed, size, 1, DbFormat::Jsonl)
}

/// Records `manifest`'s crawl into a fresh store the way `crawl
/// --record` does, on the worker pool, returning the store directory and
/// the live records in rank order.
fn record_crawl(tag: &str, manifest: &JobManifest) -> (PathBuf, Vec<SiteRecord>) {
    let dir = scratch(tag);
    let out = scratch("live");
    std::fs::create_dir_all(&out).expect("create live dir");
    let paths = [out.join("live.jsonl")];
    let opts = JobOptions {
        workers: 2,
        ..JobOptions::default()
    };
    let source = CrawlSource::Live(manifest, Some(&dir));
    let report = crawler::crawl_shards(source, &paths, DbFormat::Jsonl, &opts).expect("record");
    assert_eq!(report.written, manifest.size, "every rank must be captured");
    let live = crawler::read_jsonl(&paths[0]).expect("read live").records;
    std::fs::remove_dir_all(&out).ok();
    (dir, live)
}

/// Replays a store on the worker pool with `workers` workers, returning
/// the records in rank order.
fn replay_crawl(dir: &std::path::Path, workers: usize) -> Vec<SiteRecord> {
    let bundle = ReplayBundle::load(dir).expect("load store");
    let out = scratch("replayed");
    std::fs::create_dir_all(&out).expect("create replay dir");
    let paths = [out.join("replayed.jsonl")];
    // One-rank leases, so that every worker gets some of a tiny store.
    let opts = JobOptions {
        workers,
        lease_records: 1,
        ..JobOptions::default()
    };
    crawler::crawl_shards(CrawlSource::Replay(&bundle), &paths, DbFormat::Jsonl, &opts)
        .expect("replay reproduces the recording");
    let replayed = crawler::read_jsonl(&paths[0]).expect("read replay").records;
    std::fs::remove_dir_all(&out).ok();
    replayed
}

proptest! {
    /// Record → replay is byte-identical for arbitrary crawl
    /// parameters, including faulted, retried and adversarial visits,
    /// and regardless of the replaying worker count. Each case records
    /// and replays a whole (small) crawl, so sizes stay single-digit.
    /// Stores tagged with the retired tree-walker (`"js_engine":"Interp"`)
    /// replay the same.
    #[test]
    fn record_replay_round_trip_is_byte_identical(
        seed in 0u64..1_000_000,
        size in 1u64..9,
        panic_per_mille in prop_oneof![Just(0u32), Just(60), Just(250)],
        transient_per_mille in prop_oneof![Just(0u32), Just(120), Just(400)],
        max_retries in 0u32..3,
        adversarial in prop::bool::ANY,
        replay_workers in 1usize..4,
        interp_tag in prop::bool::ANY,
    ) {
        quiet_panics();
        let mut manifest = crawl_of(seed, size);
        manifest.adversarial = adversarial;
        manifest.max_retries = max_retries;
        manifest.fault_panics_per_mille = panic_per_mille;
        manifest.fault_transients_per_mille = transient_per_mille;
        let (dir, live) = record_crawl("rt", &manifest);
        if interp_tag {
            let meta = BundleMeta::load(&dir).expect("load metadata");
            prop_assert_eq!(meta.js_engine, browser::ExecEngine::Vm);
            BundleMeta { js_engine: browser::ExecEngine::Interp, ..meta }
                .store(&dir)
                .expect("retag metadata");
        }
        let replayed = replay_crawl(&dir, replay_workers);
        prop_assert_eq!(jsonl(&replayed), jsonl(&live));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A flipped byte anywhere in `blobs.bin` is a strict-mode error
    /// (frame checksum, digest verification, or magic check — nothing
    /// passes silently), and lenient mode still terminates.
    #[test]
    fn blob_corruption_trips_checksums(
        seed in 0u64..100_000,
        offset_frac in 0.0f64..1.0,
        flip in 1u32..256,
    ) {
        quiet_panics();
        let (dir, _) = record_crawl("flip", &crawl_of(seed, 3));
        let path = dir.join(BUNDLE_BLOBS_FILE);
        let mut bytes = std::fs::read(&path).expect("read blobs");
        let at = ((bytes.len() - 1) as f64 * offset_frac) as usize;
        bytes[at] ^= flip as u8;
        std::fs::write(&path, &bytes).expect("write corrupt blobs");
        prop_assert!(
            ReplayBundle::load(&dir).is_err(),
            "flipping byte {at} of {} must fail a strict load",
            bytes.len()
        );
        prop_assert!(BundleStat::scan(&dir, StreamMode::Strict).is_err());
        // Lenient never panics and never invents data beyond the damage.
        BundleStat::scan(&dir, StreamMode::Lenient).expect("lenient scan terminates");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Truncating either pack file at *every* byte offset is loud in Strict
/// mode — either an outright error or a valid shorter store whose
/// replay still matches the corresponding prefix of the live records —
/// and lenient accounting always terminates without inventing sites.
#[test]
fn truncation_at_every_byte_is_loud_or_counted() {
    quiet_panics();
    let mut manifest = crawl_of(11, 4);
    manifest.fault_panics_per_mille = 150;
    manifest.fault_transients_per_mille = 200;
    let (dir, live) = record_crawl("trunc", &manifest);
    let live_jsonl = jsonl(&live);
    for file in [BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE] {
        let path = dir.join(file);
        let full = std::fs::read(&path).expect("read pack file");
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).expect("write truncated");
            match ReplayBundle::load(&dir) {
                Err(_) => {} // loud: torn frame, dangling ref, bad magic
                Ok(bundle) => {
                    // A frame-boundary truncation of manifests.bin is a
                    // valid shorter store (exactly what a checkpointed
                    // recording leaves); it must replay its prefix
                    // byte-identically and never invent sites.
                    let sites = bundle.sites();
                    assert!(
                        sites < live.len() as u64,
                        "{file} cut at {cut}: truncation kept all {sites} sites"
                    );
                    let replayed = replay_crawl(&dir, 1);
                    assert_eq!(
                        jsonl(&replayed),
                        live_jsonl[..sites as usize],
                        "{file} cut at {cut}: prefix replay diverged"
                    );
                }
            }
            let stat =
                BundleStat::scan(&dir, StreamMode::Lenient).expect("lenient scan terminates");
            assert!(
                stat.sites <= live.len() as u64,
                "{file} cut at {cut}: lenient invented sites"
            );
        }
        std::fs::write(&path, &full).expect("restore pack file");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The recorded store is smaller than the JSONL dataset it reproduces:
/// shared scripts and header templates dedup across the population.
#[test]
fn store_is_smaller_than_jsonl_dataset() {
    let (dir, live) = record_crawl("size", &crawl_of(7, 40));
    let jsonl_bytes: u64 = jsonl(&live).iter().map(|l| l.len() as u64 + 1).sum();
    let stat = BundleStat::scan(&dir, StreamMode::Strict).expect("scan store");
    assert!(
        stat.store_file_bytes < jsonl_bytes,
        "store ({} bytes) must be smaller than the JSONL dataset ({jsonl_bytes} bytes)",
        stat.store_file_bytes
    );
    assert!(
        stat.dedup_ratio() > 1.0,
        "a multi-site crawl must share blobs (ratio {})",
        stat.dedup_ratio()
    );
    std::fs::remove_dir_all(&dir).ok();
}
