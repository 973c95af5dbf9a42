//! The full measurement campaign: regenerates **every table and figure**
//! of the paper's evaluation over the synthetic population and writes a
//! complete report plus the crawl database.
//!
//! ```sh
//! cargo run --release --example measurement_campaign           # 20k origins
//! CAMPAIGN_SIZE=1000000 cargo run --release --example measurement_campaign
//! ```

use std::fmt::Write as _;
use std::path::Path;

use permissions_odyssey::prelude::*;

fn main() {
    let size: u64 = std::env::var("CAMPAIGN_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let workers: usize = std::env::var("CAMPAIGN_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8)
        });

    // The crawl runs on the worker pool straight into the database,
    // which the analyses then read back.
    let out_dir = Path::new("target/campaign");
    std::fs::create_dir_all(out_dir).expect("create output dir");
    let db = out_dir.join("crawl.jsonl");
    let manifest = crawler::JobManifest::new(7, size, 1, crawler::DbFormat::Jsonl);
    let source = crawler::CrawlSource::Live(&manifest, None);
    let opts = crawler::JobOptions {
        workers,
        ..crawler::JobOptions::default()
    };
    println!("crawling {size} origins with {workers} workers…");
    let started = std::time::Instant::now();
    crawler::crawl_shards(source, std::slice::from_ref(&db), manifest.format, &opts)
        .expect("crawl the population");
    let crawl_secs = started.elapsed().as_secs_f64();
    let dataset = crawler::read_jsonl(&db).expect("read the database");
    println!(
        "crawl finished in {crawl_secs:.1}s wall clock / {:.1} simulated days",
        dataset.total_simulated_ms() as f64 / 86_400_000.0
    );

    let mut report = String::new();
    let funnel = dataset.funnel();
    let _ = writeln!(
        report,
        "{}",
        analysis::report::full_report(&dataset, &analysis::report::ReportConfig::default(),)
    );
    let _ = writeln!(
        report,
        "avg directives per header: {:.2} (paper: 10.01)\nexclusion rate: {:.1}%",
        analysis::headers::top_level_directives(&dataset).avg_directives,
        funnel.exclusion_rate() * 100.0
    );

    print!("{report}");

    // The report goes next to the database.
    std::fs::write(out_dir.join("report.txt"), &report).expect("write report");
    println!(
        "database: target/campaign/crawl.jsonl ({} records); report: target/campaign/report.txt",
        dataset.records.len()
    );
}
