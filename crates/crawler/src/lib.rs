//! The measurement pipeline.
//!
//! The Rust counterpart of the paper's Playwright wrapper (§3.2 /
//! Appendix A.2): it visits each origin of the ranked list once through
//! the simulated browser, classifies failures into the §4 crawl-funnel
//! taxonomy, and stores one record per site — the same shape the paper's
//! pipeline wrote to its database after each site. One worker pool of
//! parallel crawler workers (the paper used 40) serves both `crawl`
//! ([`crawl_shards`]) and resumable jobs ([`job_start`]), writing each
//! record to rank-striped shard files as its visit ends;
//! [`Crawler::crawl`] collects an in-memory dataset on the calling
//! thread.
//!
//! Because the population, network and browser are all deterministic, a
//! crawl with the same seed always produces the same dataset, at any
//! worker count (workers only affect wall-clock time, not results).
//!
//! # Example
//!
//! ```
//! use crawler::{CrawlConfig, Crawler};
//! use webgen::{PopulationConfig, WebPopulation};
//!
//! let population = WebPopulation::new(PopulationConfig { seed: 7, size: 50 });
//! let dataset = Crawler::new(CrawlConfig::default()).crawl(&population);
//! assert_eq!(dataset.records.len(), 50);
//! let funnel = dataset.funnel();
//! assert_eq!(funnel.attempted, 50);
//! assert!(funnel.succeeded > 30);
//! ```

/// Coverage instrumentation for the fuzzable bundle-manifest decoder:
/// compiled away unless the `coverage` feature is on.
#[cfg(feature = "coverage")]
macro_rules! cov {
    ($site:expr) => {
        covmap::hit(covmap::CRAWLER_BASE, $site)
    };
}
#[cfg(not(feature = "coverage"))]
macro_rules! cov {
    ($site:expr) => {};
}

mod bundle;
mod colsh;
mod db;
mod follow;
mod funnel;
mod jobs;
mod run;
mod storage;
mod telemetry;

pub use bundle::{
    digest128, is_bundle_store, AttemptRef, BundleMeta, BundleRecorder, BundleStat, ExchangeRef,
    OutcomeRef, ReplayBundle, SiteBundle, SiteManifest, BLOB_MAGIC, BUNDLE_BLOBS_FILE,
    BUNDLE_MANIFESTS_FILE, BUNDLE_META_FILE, BUNDLE_STORE_FILES, BUNDLE_VERSION, MANIFEST_MAGIC,
};
pub use colsh::{
    read_colsh, resume_colsh, write_colsh, ColshAppendState, ColshStream, ColshWriter, ColumnSet,
    COLSH_MAGIC, COLSH_VERSION, DEFAULT_DICT_EPOCH_GROUPS, DEFAULT_GROUP_RECORDS,
};
pub use db::{
    detect_db_format, expand_db_paths, read_jsonl, refuse_mixed_bundle_dir, resume_jsonl,
    shard_path, shard_paths, write_jsonl, AnyRecordStream, DbFormat, RecordStream, ResumeState,
    ShardScan, ShardWriter,
};
pub use follow::{ShardFollower, ShardFrontier};
pub use funnel::CrawlFunnel;
pub use jobs::{
    crawl_shards, job_resume, job_start, read_status, CrawlSource, JobError, JobManifest,
    JobOptions, JobReport, JobState, JobStatus, COMPLETION_FILE, DEFAULT_LEASE_RECORDS,
    MANIFEST_FILE, MANIFEST_VERSION, STATUS_FILE,
};
pub use netsim::FaultSpec;
pub use run::{CrawlConfig, CrawlDataset, Crawler, SiteOutcome, SiteRecord};
pub use storage::{SkipReport, StreamMode, SKIP_REPORT_LINES};
pub use telemetry::{CrawlTelemetry, TelemetrySnapshot, LATENCY_BOUNDS_MS};

#[cfg(test)]
mod scratch {
    use std::path::{Path, PathBuf};

    /// A unit test's scratch file, alone in a directory named after it
    /// and the test process. Dropping it removes the directory.
    pub(crate) struct ScratchFile(PathBuf);

    impl ScratchFile {
        pub(crate) fn new(prefix: &str, name: &str) -> ScratchFile {
            let dir = std::env::temp_dir().join(format!("{prefix}-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            ScratchFile(dir.join(name))
        }
    }

    impl std::ops::Deref for ScratchFile {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for ScratchFile {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for ScratchFile {
        fn drop(&mut self) {
            if let Some(dir) = self.0.parent() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}
