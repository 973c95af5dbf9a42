//! End-to-end fault-tolerance tests: injected faults, panic isolation,
//! retry accounting, and checkpoint/resume byte-fidelity.

use std::io::Write as _;
use std::path::PathBuf;

use crawler::{
    crawl_shards, read_jsonl, resume_jsonl, CrawlConfig, CrawlDataset, CrawlSource, Crawler,
    DbFormat, FaultSpec, JobManifest, JobOptions, ShardWriter, SiteOutcome, SiteRecord,
};
use webgen::{PopulationConfig, WebPopulation};

const SEED: u64 = 7;
const SIZE: u64 = 80;

/// The panic hook is process-global; tests that silence it (injected
/// panics unwind through `catch_unwind` on purpose, and the default
/// hook would spam backtraces) must not interleave.
static PANIC_HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_quiet_panics<R>(body: impl FnOnce() -> R) -> R {
    let _guard = PANIC_HOOK_LOCK.lock().unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = body();
    std::panic::set_hook(hook);
    result
}

/// A scratch directory named after the test process, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "permodyssey-fault-tolerance-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn population() -> WebPopulation {
    WebPopulation::new(PopulationConfig {
        seed: SEED,
        size: SIZE,
    })
}

fn faulty_config() -> CrawlConfig {
    CrawlConfig {
        faults: FaultSpec {
            seed: 99,
            panic_per_mille: 150,
            transient_per_mille: 250,
            transient_failures: 2,
        },
        ..CrawlConfig::default()
    }
}

/// Injected panics and transient failures must not lose ranks: the
/// crawl still delivers every rank, in order, exactly once.
#[test]
fn injected_faults_do_not_lose_ranks() {
    let pop = population();
    let crawler = Crawler::new(faulty_config());
    let dataset = with_quiet_panics(|| crawler.crawl(&pop));
    let funnel = dataset.funnel();
    let mut ranks = Vec::new();
    let mut panicked = 0u64;
    let mut retried = 0u64;
    for record in &dataset.records {
        ranks.push(record.rank);
        if record.outcome == SiteOutcome::CrawlerError {
            panicked += 1;
        }
        if record.attempts > 1 {
            retried += 1;
        }
    }

    assert_eq!(ranks, (1..=SIZE).collect::<Vec<u64>>());
    assert_eq!(funnel.attempted, SIZE);
    // With 15% panic injection some visits must crash — and be isolated
    // as CrawlerError records rather than poisoning the worker pool.
    assert!(panicked > 0, "expected injected crashes");
    assert!(funnel.crawler_errors >= panicked);
    // Transient faults recover within the retry budget, so they cost
    // attempts, not outcomes.
    assert!(retried > 0, "expected retried visits");
}

/// Runs `manifest`'s crawl on the worker pool with `workers` workers
/// and reads the records back.
fn pool_crawl(manifest: &JobManifest, workers: usize) -> CrawlDataset {
    let dir = Scratch::new(&format!("pool-{workers}"));
    let paths = [dir.0.join("crawl.jsonl")];
    let source = CrawlSource::Live(manifest, None);
    // Small leases, so that every worker gets some of a small crawl.
    let opts = JobOptions {
        workers,
        lease_records: 8,
        ..JobOptions::default()
    };
    crawl_shards(source, &paths, DbFormat::Jsonl, &opts).unwrap();
    read_jsonl(&paths[0]).unwrap()
}

/// The same faulty crawl is deterministic regardless of worker count.
/// A manifest's faults are keyed by its population seed, so these are
/// [`faulty_config`]'s rates under that seed.
#[test]
fn faulty_crawls_are_deterministic_across_worker_counts() {
    let mut manifest = JobManifest::new(SEED, SIZE, 1, DbFormat::Jsonl);
    manifest.fault_panics_per_mille = faulty_config().faults.panic_per_mille;
    manifest.fault_transients_per_mille = faulty_config().faults.transient_per_mille;
    let (one, many) = with_quiet_panics(|| (pool_crawl(&manifest, 1), pool_crawl(&manifest, 6)));
    assert_eq!(one.records.len(), many.records.len());
    for (a, b) in one.records.iter().zip(&many.records) {
        assert_eq!(a.outcome, b.outcome, "rank {}", a.rank);
        assert_eq!(a.attempts, b.attempts, "rank {}", a.rank);
        assert_eq!(a.elapsed_ms, b.elapsed_ms, "rank {}", a.rank);
    }
}

/// Transient-fault recovery: ranks that would fail without retries
/// succeed once the retry budget covers the injected failure count.
#[test]
fn retries_recover_injected_transients() {
    let pop = population();
    let spec = FaultSpec {
        seed: 5,
        panic_per_mille: 0,
        transient_per_mille: 400,
        transient_failures: 2,
    };
    let without = Crawler::new(CrawlConfig {
        max_retries: 0,
        faults: spec,
        ..CrawlConfig::default()
    })
    .crawl(&pop);
    let with = Crawler::new(CrawlConfig {
        max_retries: 2,
        faults: spec,
        ..CrawlConfig::default()
    })
    .crawl(&pop);
    assert!(
        with.funnel().succeeded > without.funnel().succeeded,
        "retries should rescue transiently-failing ranks ({} vs {})",
        with.funnel().succeeded,
        without.funnel().succeeded
    );
}

fn records_to_jsonl(records: &[SiteRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for record in records {
        serde_json::to_writer(&mut out, record).unwrap();
        out.push(b'\n');
    }
    out
}

/// Kill a crawl mid-write (torn final line), resume through the shard
/// writer, and get a database byte-identical to an uninterrupted run.
#[test]
fn resumed_crawl_is_byte_identical() {
    let pop = population();
    let crawler = Crawler::new(CrawlConfig::default());

    // The uninterrupted reference run.
    let full = crawler.crawl(&pop).records;
    let reference = records_to_jsonl(&full);

    // Simulate a crawl killed mid-append: the first 33 records are on
    // disk, the 34th was torn halfway through its line.
    let dir = Scratch::new("resume");
    let path = dir.0.join("interrupted.jsonl");
    let intact = records_to_jsonl(&full[..33]);
    let torn = records_to_jsonl(&full[33..34]);
    let mut file = std::fs::File::create(&path).unwrap();
    file.write_all(&intact).unwrap();
    file.write_all(&torn[..torn.len() / 2]).unwrap();
    drop(file);

    // Resume: recover the intact prefix, truncate the torn tail, and
    // append the remaining ranks in order.
    let state = resume_jsonl(&path, |_| Ok(())).unwrap();
    assert_eq!(state.valid_len, intact.len() as u64);
    assert_eq!(state.records, 33);
    let (mut writer, scan) =
        ShardWriter::open(std::slice::from_ref(&path), DbFormat::Jsonl, true).unwrap();
    assert_eq!(scan.records, vec![33]);
    for rank in 34..=SIZE {
        writer.push(&crawler.visit_one(&pop, rank)).unwrap();
    }
    writer.finish().unwrap();

    let resumed = std::fs::read(&path).unwrap();
    assert_eq!(
        resumed, reference,
        "resumed database differs from uninterrupted run"
    );
}
