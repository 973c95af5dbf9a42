//! Crawl throughput: single-visit latency and worker-pool scaling (the
//! paper ran 40 parallel crawlers; here workers only change wall-clock,
//! never results — a property the `crawler` tests pin down).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::path::{Path, PathBuf};

use crawler::{
    crawl_shards, CrawlConfig, CrawlSource, Crawler, DbFormat, JobManifest, JobOptions, JobReport,
};
use webgen::{PopulationConfig, WebPopulation};

/// A scratch directory for one benchmark, named after the process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("permodyssey-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One `crawl` on the worker pool into a single JSONL file at `out`.
fn pool_crawl(source: CrawlSource<'_>, out: &Path, workers: usize) -> JobReport {
    let opts = JobOptions {
        workers,
        ..JobOptions::default()
    };
    let paths = [out.to_path_buf()];
    crawl_shards(source, &paths, DbFormat::Jsonl, &opts).expect("crawl runs")
}

fn single_visit(c: &mut Criterion) {
    let population = WebPopulation::new(PopulationConfig { seed: 7, size: 512 });
    let crawler = Crawler::new(CrawlConfig::default());
    c.bench_function("single_site_visit", |b| {
        let mut rank = 0u64;
        b.iter(|| {
            rank = rank % 512 + 1;
            black_box(crawler.visit_one(&population, rank))
        })
    });
}

/// The worker pool behind `crawl`, writing its shard, at 1–8 workers.
fn worker_scaling(c: &mut Criterion) {
    let manifest = JobManifest::new(7, 256, 1, DbFormat::Jsonl);
    let dir = scratch("scaling");
    let out = dir.join("crawl.jsonl");
    let mut group = c.benchmark_group("crawl_worker_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(256));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            let source = || CrawlSource::Live(&manifest, None);
            b.iter(|| black_box(pool_crawl(source(), &out, w)))
        });
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn interaction_overhead(c: &mut Criterion) {
    let population = WebPopulation::new(PopulationConfig { seed: 7, size: 128 });
    let mut group = c.benchmark_group("interaction_mode_overhead");
    group.sample_size(10);
    let plain = Crawler::new(CrawlConfig::default());
    let interactive = Crawler::new(CrawlConfig {
        navigate_links: 2,
        browser: browser::BrowserConfig {
            interaction: true,
            ..browser::BrowserConfig::default()
        },
        ..CrawlConfig::default()
    });
    group.bench_function("no_interaction", |b| {
        let mut rank = 0u64;
        b.iter(|| {
            rank = rank % 128 + 1;
            black_box(plain.visit_one(&population, rank))
        })
    });
    group.bench_function("interaction", |b| {
        let mut rank = 0u64;
        b.iter(|| {
            rank = rank % 128 + 1;
            black_box(interactive.visit_one(&population, rank))
        })
    });
    group.finish();
}

/// Sustained end-to-end throughput of the resumable job engine —
/// population → lease workers → bounded channel → rank-ordered shard
/// writer → disk — recorded in `BENCH_crawl.json` alongside the
/// backpressure evidence (peak writer-queue depth vs its structural
/// bound of `workers × lease + channel`).
fn record_job_engine(_c: &mut Criterion) {
    const JOB_POPULATION: u64 = 20_000;
    const JOB_SHARDS: usize = 4;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = crawler::JobOptions {
        workers: 8,
        ..crawler::JobOptions::default()
    };
    let mut best: Option<crawler::JobReport> = None;
    for round in 0..3 {
        let dir = std::env::temp_dir().join(format!(
            "permodyssey-bench-job-{round}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest =
            crawler::JobManifest::new(7, JOB_POPULATION, JOB_SHARDS, crawler::DbFormat::Jsonl);
        let report = crawler::job_start(&dir, &manifest, &opts).expect("job run succeeds");
        assert_eq!(report.state, crawler::JobState::Complete);
        assert_eq!(report.written, JOB_POPULATION);
        std::fs::remove_dir_all(&dir).ok();
        if best.as_ref().is_none_or(|b| report.wall_secs < b.wall_secs) {
            best = Some(report);
        }
    }
    let report = best.expect("three rounds ran");
    let records_per_sec = report.snapshot.rate_per_sec(report.wall_secs);
    let pending_bound = opts.workers as u64 * opts.lease_records + opts.channel_capacity as u64;
    assert!(
        report.peak_writer_pending <= pending_bound,
        "writer reorder buffer {} exceeded its structural bound {pending_bound}",
        report.peak_writer_pending
    );
    let json = format!(
        "{{\n  \"population\": {JOB_POPULATION},\n  \"shards\": {JOB_SHARDS},\n  \
         \"host_cpus\": {host_cpus},\n  \"workers\": {},\n  \
         \"lease_records\": {},\n  \"channel_capacity\": {},\n  \
         \"wall_ms\": {:.2},\n  \"records_per_sec\": {records_per_sec:.0},\n  \
         \"peak_writer_pending\": {},\n  \"writer_pending_bound\": {pending_bound},\n  \
         \"leases_retried\": {},\n  \"leases_quarantined\": {}\n}}\n",
        opts.workers,
        opts.lease_records,
        opts.channel_capacity,
        report.wall_secs * 1e3,
        report.peak_writer_pending,
        report.leases_retried,
        report.leases_quarantined,
    );
    let out = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_crawl.json");
    std::fs::write(&out, &json).expect("write BENCH_crawl.json");
    println!(
        "job engine: {JOB_POPULATION} records / {JOB_SHARDS} shards in {:.0} ms \
         ({records_per_sec:.0} records/sec), peak writer queue {} (bound {pending_bound})",
        report.wall_secs * 1e3,
        report.peak_writer_pending,
    );
}

/// Record/replay throughput: a 20k-site `crawl --record` captured into
/// a content-addressed bundle store, then `crawl --replay` from the
/// store with the generator never consulted, both on the worker pool
/// writing a JSONL shard — best-of-three replay wall-clock and the
/// store's dedup ratio appended to `BENCH_crawl.json` as the replay leg
/// (after [`record_job_engine`] wrote the base object).
fn record_replay(_c: &mut Criterion) {
    const POPULATION: u64 = 20_000;
    const WORKERS: usize = 8;
    let dir = scratch("replay");
    let store = dir.join("bundle");
    let manifest = JobManifest::new(7, POPULATION, 1, DbFormat::Jsonl);
    let source = CrawlSource::Live(&manifest, Some(&store));
    let start = std::time::Instant::now();
    let recorded = pool_crawl(source, &dir.join("live.jsonl"), WORKERS);
    let record_secs = start.elapsed().as_secs_f64();
    assert_eq!(recorded.written, POPULATION);

    let bundle = crawler::ReplayBundle::load(&store).expect("load bundle store");
    let mut replay_secs = f64::INFINITY;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        let replayed = pool_crawl(
            CrawlSource::Replay(&bundle),
            &dir.join("replayed.jsonl"),
            WORKERS,
        );
        assert_eq!(replayed.written, POPULATION);
        replay_secs = replay_secs.min(start.elapsed().as_secs_f64());
    }
    let stat =
        crawler::BundleStat::scan(&store, crawler::StreamMode::Strict).expect("scan bundle store");
    std::fs::remove_dir_all(&dir).ok();

    // Append the replay leg to the object record_job_engine wrote (or
    // start a fresh one under bench filtering).
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_crawl.json");
    let base = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| s.trim_end().strip_suffix('}').map(str::to_string))
        .unwrap_or_else(|| format!("{{\n  \"population\": {POPULATION}"));
    let json = format!(
        "{},\n  \"record_records_per_sec\": {:.0},\n  \
         \"replay_records_per_sec\": {:.0},\n  \
         \"bundle_dedup_ratio\": {:.2},\n  \"bundle_store_bytes\": {}\n}}\n",
        base.trim_end().trim_end_matches(','),
        POPULATION as f64 / record_secs,
        POPULATION as f64 / replay_secs,
        stat.dedup_ratio(),
        stat.store_file_bytes,
    );
    std::fs::write(&path, &json).expect("write BENCH_crawl.json");
    println!(
        "record/replay: {POPULATION} records recorded in {:.0} ms, replayed in {:.0} ms \
         ({:.0} records/sec), dedup ratio {:.2}",
        record_secs * 1e3,
        replay_secs * 1e3,
        POPULATION as f64 / replay_secs,
        stat.dedup_ratio(),
    );
}

criterion_group!(
    crawl,
    single_visit,
    worker_scaling,
    interaction_overhead,
    record_job_engine,
    record_replay
);
criterion_main!(crawl);
