//! `record-replay`: set-up records a crawl into a bundle store
//! (`JobManifest::record_bundle`) and loads it; the timed phase replays
//! the store with one worker into a `.colsh` shard. The browser does the
//! same work as in `crawl-live` but the page generator is out of the
//! timed path, and this is the only workload that decodes tapes or
//! writes `.colsh`.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crawler::{
    job_start, BundleMeta, BundleRecorder, BundleStat, ColshStream, ColshWriter, CrawlTelemetry,
    Crawler, DbFormat, JobManifest, JobOptions, JobReport, ReplayBundle, StreamMode,
};

use crate::crawl_live;
use crate::live::{overhead, visit_layers};
use crate::report::{self, Report, RoundSample};
use crate::stack::{self, ProbeCounts, SeamCounts};
use crate::stats::{median, per_record};
use crate::trace::{Passes, Tracer};
use crate::{sys, Args, WorkDir};

/// Origins recorded and replayed.
pub const SIZE: u64 = 12_000;
/// Replay workers (the replay pool adds no other busy thread).
pub const WORKERS: usize = 1;
/// Set-ups per run; the median is reported.
pub const SETUPS: usize = 3;

fn manifest(seed: u64) -> JobManifest {
    let mut manifest = JobManifest::new(seed, SIZE, 1, DbFormat::Jsonl);
    manifest.record_bundle = true;
    manifest
}

/// A recorded job and its loaded store.
struct Recorded {
    dir: PathBuf,
    bundle: ReplayBundle,
    report: JobReport,
}

/// Set-up: the recording job plus `ReplayBundle::load`, timed together.
fn record(dir: &Path, seed: u64) -> std::io::Result<(Recorded, f64, f64)> {
    let options = JobOptions {
        workers: WORKERS,
        ..JobOptions::default()
    };
    let started = Instant::now();
    let report = job_start(dir, &manifest(seed), &options)
        .map_err(|e| std::io::Error::other(format!("recording job: {e}")))?;
    let loading = Instant::now();
    let bundle = ReplayBundle::load(&JobManifest::bundle_dir(dir))?;
    let load_s = loading.elapsed().as_secs_f64();
    let setup_s = started.elapsed().as_secs_f64();
    let recorded = Recorded {
        dir: dir.to_path_buf(),
        bundle,
        report,
    };
    Ok((recorded, setup_s, load_s))
}

fn jsonl_path(dir: &Path) -> PathBuf {
    manifest(0).shard_files(dir).remove(0)
}

/// Replays the whole store into a fresh `.colsh` shard at `out`.
fn replay_round(bundle: &ReplayBundle, out: &Path) -> std::io::Result<(RoundSample, u64)> {
    let crawler = Crawler::new(bundle.meta().replay_config(WORKERS));
    let telemetry = CrawlTelemetry::new(WORKERS);
    let phase = sys::Phase::start()?;
    let mut writer = ColshWriter::create(out)?;
    let mut error = None;
    let mut records = 0u64;
    crawler.replay_streaming_observed(bundle, &BTreeSet::new(), &telemetry, |record| {
        if error.is_none() {
            error = writer.push(&record).err();
        }
        records += 1;
    });
    if let Some(e) = error {
        return Err(e);
    }
    writer.finish()?;
    let sample = RoundSample {
        records,
        measured: phase.finish()?,
        bytes: std::fs::metadata(out)?.len(),
    };
    Ok((sample, telemetry.snapshot().panics_caught))
}

/// Ranks whose replayed `.colsh` record, read back, does not serialize
/// byte-identically to the recording job's JSONL line (missing and
/// surplus records included).
fn replay_mismatches(colsh: &Path, jsonl: &Path) -> std::io::Result<u64> {
    let mut lines = BufReader::new(std::fs::File::open(jsonl)?).lines();
    let mut text = String::new();
    let mut matched = 0u64;
    let mut read = 0u64;
    for record in ColshStream::open(colsh, StreamMode::Strict)? {
        let record = record?;
        read += 1;
        text.clear();
        serde_json::to_string_into(&record, &mut text);
        if lines.next().transpose()?.is_some_and(|line| line == text) && record.rank == read {
            matched += 1;
        }
    }
    let surplus = lines.count() as u64;
    Ok(SIZE.saturating_sub(matched) + surplus + read.saturating_sub(SIZE))
}

fn note_shape(report: &mut Report) {
    report.note("population", SIZE);
    report.note("visit_workers", WORKERS);
    report.note("busy_threads", 2);
}

/// Untraced: replay rounds back to back until `--seconds` have passed.
pub fn untraced(args: &Args, work: &WorkDir) -> std::io::Result<Report> {
    let mut report = Report::new();
    note_shape(&mut report);
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        // Free the previous store first so every set-up starts alike.
        if let Some(previous) = kept.take() {
            let Recorded { dir, .. } = previous;
            std::fs::remove_dir_all(dir)?;
        }
        let (recorded, setup_s, _) = record(&work.fresh(&format!("setup-{i}"))?, args.seed)?;
        report.gate(
            "record-replay: recording job",
            crawl_live::job_failures(&recorded.report, SIZE),
        );
        setups.push(setup_s);
        kept = Some(recorded);
    }
    let recorded = kept.expect("at least one set-up");
    let jsonl = jsonl_path(&recorded.dir);
    report::timed_rounds(&mut report, args.seconds, median(&setups), |report| {
        let out = work.fresh("replay.colsh")?;
        let (sample, panics) = replay_round(&recorded.bundle, &out)?;
        report.attempted += SIZE;
        report.gate("record-replay: caught panics", panics);
        report.gate(
            "record-replay: .colsh read back serializes to the recorded JSONL",
            replay_mismatches(&out, &jsonl)?,
        );
        Ok(sample)
    })?;
    Ok(report)
}

/// Traced: the recording set-up layers, then the composed replay stack
/// over every rank in alternating untraced and traced passes until the
/// traced ones have taken half of `--seconds`.
pub fn traced(args: &Args, work: &WorkDir) -> std::io::Result<Report> {
    let mut report = Report::new();
    note_shape(&mut report);
    let (recorded, _, load_s) = record(&work.fresh("setup")?, args.seed)?;
    report.gate(
        "record-replay: recording job",
        crawl_live::job_failures(&recorded.report, SIZE),
    );
    report.set(
        "crawler.job_peak_writer_pending",
        recorded.report.peak_writer_pending as f64,
    );
    report.set("crawler.bundle_load_s", load_s);
    let store = JobManifest::bundle_dir(&recorded.dir);
    let stat = BundleStat::scan(&store, StreamMode::Strict)?;
    report.set("crawler.bundle_dedup_ratio", stat.dedup_ratio());
    report.set(
        "crawler.bundle_store_bytes_per_record",
        per_record(stat.store_file_bytes as f64, stat.sites),
    );

    // Set-up layer: record the same crawl through the composed stack and
    // time each `BundleRecorder::submit`. The store must come out
    // byte-identical to the recording job's.
    let job = manifest(args.seed);
    let config = job.crawl_config(WORKERS);
    let population = job.population();
    let composed_store = work.fresh("composed-bundle")?;
    let recorder = BundleRecorder::create(
        &composed_store,
        &BundleMeta::for_crawl(&config, args.seed, SIZE, false),
    )?;
    let off = Tracer::disabled();
    let off_counts = SeamCounts::default();
    let mut submit_ns = 0u128;
    for rank in 1..=SIZE {
        let (_, bundle) = stack::recording_visit(&config, &population, rank, &off, &off_counts);
        let started = Instant::now();
        recorder.submit(bundle)?;
        submit_ns += started.elapsed().as_nanos();
    }
    recorder.finish()?;
    report.set(
        "crawler.bundle_submit_us_per_record",
        per_record(submit_ns as f64 / 1e3, SIZE),
    );
    let same_store = ["bundle.json", "blobs.bin", "manifests.bin"]
        .iter()
        .all(|f| std::fs::read(store.join(f)).ok() == std::fs::read(composed_store.join(f)).ok());
    report.check(
        "composed recording store equals the job's store",
        same_store,
        SIZE,
    );
    std::fs::remove_dir_all(&composed_store)?;

    let bundle = &recorded.bundle;
    let replay_config = bundle.meta().replay_config(WORKERS);
    let replay = ReplayPass {
        bundle,
        crawler: Crawler::new(replay_config.clone()),
        config: replay_config,
        jsonl: std::fs::read_to_string(jsonl_path(&recorded.dir))?,
        out: work.fresh("replayed.colsh")?,
    };
    let half = args.seconds / 2.0;
    let tracer = Tracer::new();
    let counts = SeamCounts::default();
    let mut probes = ProbeCounts::default();
    let mut passes = Passes::default();
    let mut mismatches = 0u64;
    while passes.more(half) {
        mismatches += passes
            .untraced(|| replay.run(&off, &SeamCounts::default(), &mut ProbeCounts::default()))?;
        let untraced_shard = std::fs::read(&replay.out)?;
        let started = tracer.now_ns();
        mismatches += replay.run(&tracer, &counts, &mut probes)?;
        passes.absorb(&tracer, started);
        report.check(
            "traced and untraced .colsh shards are byte-identical",
            std::fs::read(&replay.out)? == untraced_shard,
            SIZE,
        );
    }
    let records = SIZE * passes.count;
    report.attempted = records;
    report.gate("traced replay equals the recorded visit", mismatches);
    report.gate("composed visits panicked", counts.panics.get());
    visit_layers(&mut report, &passes, &counts, &probes, records)?;
    report::layer_times(
        &mut report,
        &passes.totals,
        records,
        passes.count,
        passes.wall_ns,
    );
    overhead(&mut report, &passes);
    Ok(report)
}

/// One pass of the composed replay stack over every rank.
struct ReplayPass<'a> {
    bundle: &'a ReplayBundle,
    config: crawler::CrawlConfig,
    crawler: Crawler,
    /// The recording job's JSONL shard.
    jsonl: String,
    /// Where each pass writes its `.colsh` shard.
    out: PathBuf,
}

impl ReplayPass<'_> {
    /// Replays every rank into a fresh `.colsh` shard, checks each record
    /// against the recorded JSONL line and `Crawler::replay_one`, and
    /// probes the layers; returns the ranks that differed.
    fn run(
        &self,
        tracer: &Tracer,
        counts: &SeamCounts,
        probes: &mut ProbeCounts,
    ) -> std::io::Result<u64> {
        let mut writer = ColshWriter::create(&self.out)?;
        let mut expected_lines = self.jsonl.lines();
        let mut text = String::new();
        let mut mismatches = 0u64;
        for rank in 1..=SIZE {
            tracer.set_rank(rank);
            let record = tracer.span("bench.rank", || {
                let record = stack::replay_visit(&self.config, self.bundle, rank, tracer, counts);
                tracer.span("crawler.colsh_push", || writer.push(&record))?;
                Ok::<_, std::io::Error>(record)
            })?;
            let reference = tracer.span("crawler.visit", || {
                self.crawler.replay_one(self.bundle, rank)
            });
            tracer.span("bench.check", || {
                let expected = expected_lines.next().unwrap_or("");
                text.clear();
                serde_json::to_string_into(&record, &mut text);
                let composed_ok = text == expected;
                text.clear();
                serde_json::to_string_into(&reference, &mut text);
                mismatches += u64::from(!composed_ok || text != expected);
            });
            let captured = std::mem::take(&mut *counts.captured.borrow_mut());
            stack::probe(
                record.visit.as_ref(),
                &captured,
                tracer,
                self.config.browser.budget.page_script_steps,
                probes,
            );
        }
        tracer.set_rank(0);
        tracer.span("bench.rank", || {
            tracer.span("crawler.colsh_push", || writer.finish())
        })?;
        Ok(mismatches)
    }
}
