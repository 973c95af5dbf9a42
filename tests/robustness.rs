//! Robustness: the whole pipeline must hold up across arbitrary seeds,
//! sizes and configurations — no panics, conserved invariants.

use std::path::{Path, PathBuf};

use permissions_odyssey::prelude::*;
use permissions_odyssey::{browser, crawler};

/// A scratch directory named after the test process, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("odyssey-robustness-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `manifest`'s crawl on the worker pool with `workers` workers
/// into one JSONL shard at `out`, returning the records read back and
/// the run's report.
fn pool_crawl(
    manifest: &crawler::JobManifest,
    workers: usize,
    out: &Path,
) -> (CrawlDataset, crawler::JobReport) {
    let source = crawler::CrawlSource::Live(manifest, None);
    // Small leases, so that every worker gets some of a small crawl.
    let opts = crawler::JobOptions {
        workers,
        lease_records: 8,
        ..crawler::JobOptions::default()
    };
    let paths = [out.to_path_buf()];
    let report = crawler::crawl_shards(source, &paths, crawler::DbFormat::Jsonl, &opts).unwrap();
    (crawler::read_jsonl(out).unwrap(), report)
}

#[test]
fn pipeline_survives_many_seeds() {
    for seed in [0u64, 1, 2, 0xdead_beef, u64::MAX] {
        let population = WebPopulation::new(PopulationConfig { seed, size: 120 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&population);
        let funnel = dataset.funnel();
        assert_eq!(funnel.attempted, 120, "seed {seed}");
        let sum = funnel.succeeded
            + funnel.unreachable
            + funnel.load_timeouts
            + funnel.ephemeral
            + funnel.crawler_errors
            + funnel.excluded;
        assert_eq!(sum, 120, "funnel partitions attempts (seed {seed})");
        // Every analysis runs without panicking.
        let report = analysis::report::full_report(
            &dataset,
            &analysis::report::ReportConfig {
                top_n: 5,
                extensions: true,
            },
        );
        assert!(report.contains("Table 9"), "seed {seed}");
    }
}

#[test]
fn tiny_and_single_site_populations_work() {
    let dir = Scratch::new("tiny");
    for size in [1u64, 2, 3] {
        let manifest = crawler::JobManifest::new(9, size, 1, crawler::DbFormat::Jsonl);
        // More workers than sites.
        let (dataset, _) = pool_crawl(&manifest, 4, &dir.0.join(format!("{size}.jsonl")));
        assert_eq!(dataset.records.len(), size as usize);
        let _ = analysis::usage::usage_summary(&dataset);
    }
}

#[test]
fn frame_invariants_hold_everywhere() {
    let population = WebPopulation::new(PopulationConfig { seed: 3, size: 250 });
    let dataset = Crawler::new(CrawlConfig::default()).crawl(&population);
    for record in dataset.successes() {
        let visit = record.visit.as_ref().unwrap();
        let n = visit.frames.len();
        let mut top_seen = 0;
        for frame in &visit.frames {
            // Frame ids are dense and parents precede children.
            assert!(frame.frame_id < n);
            if let Some(parent) = frame.parent {
                assert!(parent < frame.frame_id, "parent precedes child");
                assert!(frame.depth > 0);
            } else {
                assert!(frame.is_top_level);
            }
            if frame.is_top_level {
                top_seen += 1;
                assert_eq!(frame.depth, 0);
            }
            // Local documents never carry headers.
            if frame.is_local_document {
                assert!(frame.permissions_policy_header.is_none());
                assert!(frame.feature_policy_header.is_none());
            }
            // Invocation dedup invariant: no duplicate
            // (api, permissions, script) triples within a frame.
            for (i, a) in frame.invocations.iter().enumerate() {
                for b in &frame.invocations[i + 1..] {
                    assert!(
                        !(a.api_path == b.api_path
                            && a.script_url == b.script_url
                            && a.permissions == b.permissions),
                        "duplicate invocation record"
                    );
                }
            }
        }
        assert_eq!(top_seen, 1, "exactly one top-level frame per visit");
        // Prompts reference existing frames and powerful permissions.
        for prompt in &visit.prompts {
            assert!(prompt.frame_id < n);
            assert!(prompt.permission.info().powerful);
        }
    }
}

/// The hardening acceptance test: an adversarial population (hostile
/// iframes, runaway/malformed/oversized scripts, oversized headers,
/// redirect loops) crawls to completion with zero caught panics, every
/// degraded visit carries at least one structured degradation event, and
/// same-seed reruns are byte-identical.
#[test]
fn adversarial_crawl_degrades_gracefully_and_deterministically() {
    use std::collections::BTreeSet;

    let dir = Scratch::new("adversarial");
    let mut manifest = crawler::JobManifest::new(11, 300, 1, crawler::DbFormat::Jsonl);
    manifest.adversarial = true;
    let crawl_once = |path: &Path| {
        let (dataset, report) = pool_crawl(&manifest, 4, path);
        (dataset, report.funnel, report.snapshot)
    };

    let (path_a, path_b) = (dir.0.join("a.jsonl"), dir.0.join("b.jsonl"));
    let (dataset, funnel, snapshot) = crawl_once(&path_a);

    // No content-layer panic escaped into the catch-all.
    assert_eq!(snapshot.panics_caught, 0, "hostile input caused a panic");

    // The hostile slice actually degraded visits, every one of them
    // carries at least one event, and telemetry agrees with the records.
    let mut degraded_visits = 0u64;
    let mut total_events = 0u64;
    let mut kinds = BTreeSet::new();
    for record in &dataset.records {
        let Some(visit) = &record.visit else { continue };
        if visit.degradations.is_empty() {
            assert_eq!(visit.schema_version, 0, "clean visits keep the v1 layout");
            continue;
        }
        degraded_visits += 1;
        total_events += visit.degradations.len() as u64;
        assert_eq!(visit.schema_version, browser::SCHEMA_VERSION);
        for event in &visit.degradations {
            assert!(event.frame_id < visit.frames.len().max(1) + 64);
            kinds.insert(event.kind);
        }
    }
    assert!(
        degraded_visits > 0,
        "adversarial mode produced no degradation"
    );
    assert!(
        kinds.len() >= 4,
        "expected several degradation kinds, got {kinds:?}"
    );
    assert_eq!(snapshot.degraded_visits, degraded_visits);
    assert_eq!(snapshot.degradation_events, total_events);
    assert_eq!(funnel.minor_errors, degraded_visits);

    // Degradation events serialize: the dataset round-trips to JSONL and
    // same-seed reruns are byte-identical.
    crawl_once(&path_b);
    let bytes_a = std::fs::read(&path_a).unwrap();
    let bytes_b = std::fs::read(&path_b).unwrap();
    assert_eq!(
        bytes_a, bytes_b,
        "same-seed adversarial crawls must be byte-identical"
    );
    let rewritten = dir.0.join("rewritten.jsonl");
    crawler::write_jsonl(&dataset, &rewritten).unwrap();
    assert_eq!(std::fs::read(&rewritten).unwrap(), bytes_a);
    let reread = crawler::read_jsonl(&path_a).unwrap();
    assert_eq!(reread.records.len(), dataset.records.len());

    // With adversarial mode off, the same population is entirely clean:
    // the governor's caps are headroom for calibrated sites, not a tax.
    let baseline_pop = WebPopulation::new(PopulationConfig {
        seed: 11,
        size: 300,
    });
    let baseline = Crawler::new(CrawlConfig::default()).crawl(&baseline_pop);
    for record in &baseline.records {
        if let Some(visit) = &record.visit {
            assert!(
                visit.degradations.is_empty(),
                "baseline visit degraded at rank {}",
                record.rank
            );
            assert_eq!(visit.schema_version, 0);
        }
    }
}

#[test]
fn worker_counts_never_change_results() {
    let dir = Scratch::new("workers");
    let manifest = crawler::JobManifest::new(77, 60, 1, crawler::DbFormat::Jsonl);
    let summaries: Vec<String> = [1usize, 3, 7]
        .iter()
        .map(|&workers| {
            let out = dir.0.join(format!("{workers}.jsonl"));
            let (dataset, _) = pool_crawl(&manifest, workers, &out);
            analysis::report::full_report(
                &dataset,
                &analysis::report::ReportConfig {
                    top_n: 10,
                    extensions: true,
                },
            )
        })
        .collect();
    assert_eq!(summaries[0], summaries[1]);
    assert_eq!(summaries[1], summaries[2]);
}
