//! Cross-crate integration tests: the whole measurement pipeline, from
//! synthetic population through crawling to the paper's analyses.

use permissions_odyssey::prelude::*;

fn small_dataset(seed: u64, size: u64) -> CrawlDataset {
    let population = WebPopulation::new(PopulationConfig { seed, size });
    Crawler::new(CrawlConfig::default()).crawl(&population)
}

#[test]
fn crawl_is_deterministic_end_to_end() {
    let a = small_dataset(123, 150);
    let b = small_dataset(123, 150);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.outcome, rb.outcome);
        let frames = |r: &crawler::SiteRecord| {
            r.visit
                .as_ref()
                .map(|v| {
                    v.frames
                        .iter()
                        .map(|f| (f.origin.clone(), f.invocations.len(), f.scripts.len()))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default()
        };
        assert_eq!(frames(ra), frames(rb), "rank {}", ra.rank);
    }
}

#[test]
fn different_seeds_give_different_webs() {
    let a = small_dataset(1, 100);
    let b = small_dataset(2, 100);
    let origins = |d: &CrawlDataset| {
        d.records
            .iter()
            .map(|r| r.origin.clone())
            .collect::<Vec<_>>()
    };
    assert_ne!(origins(&a), origins(&b));
}

#[test]
fn every_analysis_runs_on_one_dataset() {
    let dataset = small_dataset(7, 600);
    // Every table/figure function must work on any dataset without
    // panicking and produce renderable output.
    let outputs = vec![
        analysis::census::frame_census(&dataset).table().render(),
        analysis::embeds::top_external_embeds(&dataset)
            .table(10)
            .render(),
        analysis::usage::invocation_table(&dataset)
            .table(10)
            .render(),
        analysis::usage::status_check_table(&dataset)
            .table(10)
            .render(),
        analysis::usage::static_table(&dataset).table(10).render(),
        analysis::usage::usage_summary(&dataset).table().render(),
        analysis::delegation::delegated_embeds(&dataset)
            .table(10)
            .render(),
        analysis::delegation::delegated_permissions(&dataset)
            .table(10)
            .render(),
        analysis::delegation::delegated_permissions(&dataset)
            .directive_table()
            .render(),
        analysis::headers::header_adoption(&dataset)
            .table()
            .render(),
        analysis::headers::top_level_directives(&dataset)
            .table(10)
            .render(),
        analysis::headers::misconfigurations(&dataset)
            .table()
            .render(),
        analysis::overpermission::unused_delegations(&dataset)
            .table(10)
            .render(),
    ];
    for output in outputs {
        assert!(!output.trim().is_empty());
        assert!(output.lines().count() >= 3, "{output}");
    }
}

/// A scratch directory named after the test process, removed on drop.
struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn database_round_trip_preserves_analysis_results() {
    let dataset = small_dataset(7, 300);
    let dir = Scratch(
        std::env::temp_dir().join(format!("permodyssey-integration-{}", std::process::id())),
    );
    std::fs::create_dir_all(&dir.0).unwrap();
    let path = dir.0.join("roundtrip.jsonl");
    crawler::write_jsonl(&dataset, &path).unwrap();
    let loaded = crawler::read_jsonl(&path).unwrap();
    let before = analysis::usage::usage_summary(&dataset);
    let after = analysis::usage::usage_summary(&loaded);
    assert_eq!(before.any, after.any);
    assert_eq!(before.dynamic, after.dynamic);
    assert_eq!(before.static_any, after.static_any);
}

#[test]
fn local_scheme_bug_switch_changes_measured_world() {
    // The same population crawled under the two local-scheme behaviours:
    // the buggy (default) world must grant strictly more than the
    // expected one in documents reached through local-scheme frames.
    let population = WebPopulation::new(PopulationConfig { seed: 7, size: 200 });
    let count_allowed = |behavior| {
        let crawler = Crawler::new(CrawlConfig {
            browser: BrowserConfig {
                local_scheme_behavior: behavior,
                ..BrowserConfig::default()
            },
            ..CrawlConfig::default()
        });
        let dataset = crawler.crawl(&population);
        dataset
            .successes()
            .flat_map(|r| r.visit.as_ref().unwrap().frames.iter())
            .filter(|f| f.is_local_document)
            .map(|f| f.allowed_features.len())
            .sum::<usize>()
    };
    use policy::engine::LocalSchemeBehavior;
    let buggy = count_allowed(LocalSchemeBehavior::FreshPolicy);
    let expected = count_allowed(LocalSchemeBehavior::InheritParent);
    assert!(
        buggy > expected,
        "fresh-policy local docs must be broader ({buggy} vs {expected})"
    );
}

#[test]
fn recommender_tightens_synthetic_sites() {
    let population = WebPopulation::new(PopulationConfig { seed: 7, size: 400 });
    let crawler = Crawler::new(CrawlConfig::default());
    let mut checked = 0;
    for rank in 1..=400 {
        let record = crawler.visit_one(&population, rank);
        let Some(visit) = record.visit else { continue };
        if record.outcome != SiteOutcome::Success {
            continue;
        }
        let rec = tools::recommend::recommend(&visit);
        // The suggested header must always be clean by the linter.
        assert!(
            !policy::validate_header(&rec.header_value).is_misconfigured(),
            "{}",
            rec.header_value
        );
        checked += 1;
        if checked >= 50 {
            break;
        }
    }
    assert!(checked >= 50);
}

use browser::BrowserConfig;
use crawler::CrawlDataset;
