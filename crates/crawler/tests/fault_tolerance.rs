//! End-to-end fault-tolerance tests: injected faults, panic isolation,
//! retry accounting, and checkpoint/resume byte-fidelity.

use std::io::Write as _;

use crawler::{
    resume_jsonl, CrawlConfig, Crawler, DbFormat, FaultSpec, ShardWriter, SiteOutcome, SiteRecord,
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

fn population() -> WebPopulation {
    WebPopulation::new(PopulationConfig {
        seed: SEED,
        size: SIZE,
    })
}

fn faulty_config() -> CrawlConfig {
    CrawlConfig {
        workers: 4,
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
/// streaming crawl still delivers every rank, in order, exactly once.
#[test]
fn injected_faults_do_not_lose_ranks() {
    let pop = population();
    let crawler = Crawler::new(faulty_config());
    let mut ranks = Vec::new();
    let mut panicked = 0u64;
    let mut retried = 0u64;
    let funnel = with_quiet_panics(|| {
        crawler.crawl_streaming(&pop, |record: SiteRecord| {
            ranks.push(record.rank);
            if record.outcome == SiteOutcome::CrawlerError {
                panicked += 1;
            }
            if record.attempts > 1 {
                retried += 1;
            }
        })
    });

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

/// The same faulty crawl is deterministic regardless of worker count.
#[test]
fn faulty_crawls_are_deterministic_across_worker_counts() {
    let pop = population();
    let (one, many) = with_quiet_panics(|| {
        let one = Crawler::new(CrawlConfig {
            workers: 1,
            ..faulty_config()
        })
        .crawl(&pop);
        let many = Crawler::new(CrawlConfig {
            workers: 6,
            ..faulty_config()
        })
        .crawl(&pop);
        (one, many)
    });
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
    let crawler = Crawler::new(CrawlConfig {
        workers: 3,
        ..CrawlConfig::default()
    });

    // The uninterrupted reference run.
    let mut full = Vec::new();
    crawler.crawl_streaming(&pop, |record| full.push(record));
    let reference = records_to_jsonl(&full);

    // Simulate a crawl killed mid-append: the first 33 records are on
    // disk, the 34th was torn halfway through its line.
    let dir = std::env::temp_dir().join("permodyssey-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("interrupted.jsonl");
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
    let (mut writer, durable) =
        ShardWriter::open(std::slice::from_ref(&path), DbFormat::Jsonl, true).unwrap();
    assert_eq!(durable, vec![33]);
    for rank in 34..=SIZE {
        writer.push(&crawler.visit_one(&pop, rank)).unwrap();
    }
    writer.finish().unwrap();

    let resumed = std::fs::read(&path).unwrap();
    assert_eq!(
        resumed, reference,
        "resumed database differs from uninterrupted run"
    );
    std::fs::remove_file(&path).ok();
}
