//! Streaming/sharded analysis equivalence.
//!
//! Every table must render byte-identically whether it is computed from
//! an in-memory [`CrawlDataset`] by the batch functions, streamed from a
//! single JSONL file, or streamed from rank-striped shards by a worker
//! pool. Debug builds use a 4k-site crawl to keep `cargo test` quick;
//! release builds (what `scripts/ci.sh` runs for this suite) use the
//! full 20k-site population from the acceptance criteria.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use analysis::stream::{analyze_shards, TableSelection, Tables};
use crawler::{shard_paths, CrawlConfig, CrawlDataset, Crawler, DbFormat, ShardWriter, StreamMode};
use webgen::{PopulationConfig, WebPopulation};

#[cfg(debug_assertions)]
const POPULATION: u64 = 4_000;
#[cfg(not(debug_assertions))]
const POPULATION: u64 = 20_000;

const TOP: usize = 10;

static DATASET: OnceLock<CrawlDataset> = OnceLock::new();

fn dataset() -> &'static CrawlDataset {
    DATASET.get_or_init(|| {
        let pop = WebPopulation::new(PopulationConfig {
            seed: 7,
            size: POPULATION,
        });
        Crawler::new(CrawlConfig::default()).crawl(&pop)
    })
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "po-equivalence-{}-{label}-{POPULATION}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Renders the canonical `analyze --table all` section list from batch
/// functions over the in-memory dataset — the pre-streaming reference.
fn in_memory_render(ds: &CrawlDataset) -> String {
    let delegation = analysis::delegation::delegated_permissions(ds);
    let sections = vec![
        ds.funnel().report(),
        analysis::census::frame_census(ds).table().render(),
        analysis::completeness::data_completeness(ds)
            .table()
            .render(),
        analysis::embeds::top_external_embeds(ds)
            .table(TOP)
            .render(),
        analysis::usage::invocation_table(ds).table(TOP).render(),
        analysis::usage::status_check_table(ds).table(TOP).render(),
        analysis::usage::static_table(ds).table(TOP).render(),
        analysis::usage::usage_summary(ds).table().render(),
        analysis::delegation::delegated_embeds(ds)
            .table(TOP)
            .render(),
        delegation.table(TOP).render(),
        delegation.directive_table().render(),
        analysis::headers::header_adoption(ds).table().render(),
        analysis::headers::top_level_directives(ds)
            .table(TOP)
            .render(),
        analysis::headers::misconfigurations(ds).table().render(),
        analysis::overpermission::unused_delegations(ds)
            .table(TOP.max(30))
            .render(),
        analysis::delegation::purpose_groups(ds).table().render(),
        analysis::vulnerability::local_scheme_exposure(ds)
            .table()
            .render(),
    ];
    sections.join("\n")
}

/// Renders the same section list from a finished streaming [`Tables`].
fn streamed_render(tables: Tables) -> String {
    let delegation = tables.delegated_permissions.expect("t8 selected");
    let sections = vec![
        tables.funnel.expect("funnel selected").report(),
        tables.census.expect("census selected").table().render(),
        tables
            .completeness
            .expect("completeness selected")
            .table()
            .render(),
        tables.embeds.expect("t3 selected").table(TOP).render(),
        tables.invocations.expect("t4 selected").table(TOP).render(),
        tables
            .status_checks
            .expect("t5 selected")
            .table(TOP)
            .render(),
        tables.statics.expect("t6 selected").table(TOP).render(),
        tables.summary.expect("summary selected").table().render(),
        tables
            .delegated_embeds
            .expect("t7 selected")
            .table(TOP)
            .render(),
        delegation.table(TOP).render(),
        delegation.directive_table().render(),
        tables.adoption.expect("f2 selected").table().render(),
        tables
            .top_level_directives
            .expect("t9 selected")
            .table(TOP)
            .render(),
        tables
            .misconfigurations
            .expect("misconfig selected")
            .table()
            .render(),
        tables
            .overpermission
            .expect("t10 selected")
            .table(TOP.max(30))
            .render(),
        tables
            .purpose_groups
            .expect("groups selected")
            .table()
            .render(),
        tables.exposure.expect("exposure selected").table().render(),
    ];
    sections.join("\n")
}

fn analyze(paths: &[PathBuf], workers: usize) -> String {
    let (tables, telemetry) =
        analyze_shards(paths, StreamMode::Strict, workers, TableSelection::all())
            .expect("streaming analysis succeeds");
    assert_eq!(telemetry.shards, paths.len());
    assert_eq!(telemetry.records, dataset().records.len() as u64);
    assert!(telemetry.skipped.is_empty(), "strict mode skips nothing");
    streamed_render(tables)
}

fn write_shards(dir: &Path, shards: usize) -> Vec<PathBuf> {
    write_striped(dir, shards, DbFormat::Jsonl)
}

/// Rank-stripes the dataset into binary columnar (`.colsh`) shards.
fn write_colsh_shards(dir: &Path, shards: usize) -> Vec<PathBuf> {
    write_striped(dir, shards, DbFormat::Colsh)
}

/// Rank-stripes the dataset into `shards` files of `format` through the
/// shard writer the crawl paths use.
fn write_striped(dir: &Path, shards: usize, format: DbFormat) -> Vec<PathBuf> {
    let paths = shard_paths(&dir.join(format!("crawl.{}", format.extension())), shards);
    let mut writer = ShardWriter::create(&paths, format).expect("create shards");
    for record in &dataset().records {
        writer.push(record).expect("write shard");
    }
    writer.finish().expect("finish shards");
    paths
}

#[test]
fn single_shard_stream_is_byte_identical_to_in_memory() {
    let dir = scratch_dir("single");
    let paths = write_shards(&dir, 1);
    let expected = in_memory_render(dataset());
    assert_eq!(analyze(&paths, 1), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_stream_is_byte_identical_for_any_worker_count() {
    let dir = scratch_dir("sharded");
    let paths = write_shards(&dir, 4);
    let expected = in_memory_render(dataset());
    for workers in [1usize, 4, 8] {
        assert_eq!(
            analyze(&paths, workers),
            expected,
            "mismatch at {workers} worker(s)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn columnar_shards_are_byte_identical_for_any_worker_count() {
    let dir = scratch_dir("columnar");
    let paths = write_colsh_shards(&dir, 4);
    let expected = in_memory_render(dataset());
    for workers in [1usize, 4, 8] {
        assert_eq!(
            analyze(&paths, workers),
            expected,
            "columnar mismatch at {workers} worker(s)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every named table, analyzed selectively from columnar shards (which
/// materialize only the columns that table folds over), must agree with
/// the same selective analysis of the full JSONL — the referee for the
/// [`TableSelection::columns`] projection map.
#[test]
fn selective_columnar_analysis_matches_jsonl_per_table() {
    let dir = scratch_dir("selective");
    let jsonl = write_shards(&dir, 1);
    let colsh = write_colsh_shards(&dir, 1);
    for table in [
        "funnel",
        "census",
        "completeness",
        "t3",
        "t4",
        "t5",
        "t6",
        "summary",
        "t7",
        "t8",
        "f2",
        "t9",
        "misconfig",
        "t10",
        "groups",
        "exposure",
    ] {
        let selection = TableSelection::named(table).expect("known table");
        let (from_jsonl, _) = analyze_shards(&jsonl, StreamMode::Strict, 1, selection)
            .expect("jsonl analysis succeeds");
        let (from_colsh, _) = analyze_shards(&colsh, StreamMode::Strict, 1, selection)
            .expect("columnar analysis succeeds");
        assert_eq!(
            format!("{from_colsh:?}"),
            format!("{from_jsonl:?}"),
            "table `{table}` diverges between columnar and JSONL"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lenient_stream_skips_corruption_and_analyzes_the_rest() {
    let dir = scratch_dir("lenient");
    let paths = write_shards(&dir, 1);
    // Corrupt the file: garbage on line 1 and a truncated record at EOF.
    let clean = std::fs::read_to_string(&paths[0]).expect("read shard");
    std::fs::write(
        &paths[0],
        format!("{{not json\n{clean}{{\"rank\":1,\"domain\":"),
    )
    .expect("rewrite shard");
    let (tables, telemetry) = analyze_shards(&paths, StreamMode::Lenient, 1, TableSelection::all())
        .expect("lenient analysis succeeds");
    assert_eq!(telemetry.records, dataset().records.len() as u64);
    let (path, report) = &telemetry.skipped[0];
    assert_eq!(path, &paths[0]);
    // The prepended garbage line is corruption (1-based line number);
    // the truncated record at EOF is a torn live tail, reported as
    // such rather than counted as a skip.
    assert_eq!(report.skipped, 1);
    assert_eq!(report.lines[0], 1);
    assert!(
        report.torn_tail,
        "the unterminated final record is a torn tail"
    );
    assert_eq!(streamed_render(tables), in_memory_render(dataset()));
    let _ = std::fs::remove_dir_all(&dir);
}
