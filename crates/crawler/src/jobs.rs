//! The resumable crawl job engine.
//!
//! A 1M-origin measurement (the paper's real substrate) needs a *job*:
//! a crawl that survives kills, reports its health, and never holds
//! more than a bounded window of work in memory. The engine layers five
//! pieces over [`Crawler`], [`CrawlTelemetry`] and the one shard writer
//! ([`ShardWriter`]):
//!
//! * **A persistent work queue.** A job directory holds a write-once
//!   [`JobManifest`] (every parameter that determines the dataset
//!   bytes, checksummed, written atomically via temp-file rename) and
//!   the rank-striped shard files themselves. Progress is *derived*,
//!   never separately journaled: because records are persisted in rank
//!   order, each shard's completed ranks are always a prefix of its
//!   stripe, so a killed process recomputes exactly which ranks remain
//!   from per-shard high-water marks, which [`ShardWriter::open`]
//!   measures and stripe-checks in one streaming pass per shard. There
//!   is no checkpoint file to corrupt.
//! * **Leases with bounded in-flight work.** Remaining ranks are
//!   chopped into contiguous lease batches; workers pull leases from a
//!   shared queue and push finished records into a *bounded* channel.
//!   When the shard writer stalls, workers block on the channel instead
//!   of buffering records — backpressure keeps RSS flat no matter how
//!   large the population is. The writer reorders arrivals into global
//!   rank order before appending, and failed leases are re-queued at
//!   the *front* so the rank cursor unstalls quickly and the reorder
//!   buffer stays bounded by `workers × lease_records + channel`. The
//!   writer is the run's one commit point: a recording run's workers
//!   send each site's bundle with its record, and the writer stores the
//!   bundle just before it appends the record, re-capturing on resume
//!   any rank the shards hold but the store lost.
//! * **Supervision.** A lease that panics outside the per-visit
//!   isolation (or is made to, by the deterministic chaos hooks) is
//!   retried with the shared capped sim-clock backoff schedule
//!   ([`netsim::capped_backoff_ms`]); after
//!   [`JobOptions::max_lease_failures`] failures it is quarantined —
//!   its unvisited ranks are recorded as structured
//!   [`SiteOutcome::CrawlerError`] records, so a poison lease can cost
//!   data quality but never a lost rank. A stop file (or the test stop
//!   hook) triggers graceful shutdown: workers finish or wind down
//!   their current lease, the writer drains, sinks checkpoint at a
//!   clean boundary, and the run exits reporting [`JobState::Stopped`].
//!   A write error anywhere, the store's included, stops the run with
//!   an error naming the file and a `failed` status.
//! * **A health surface.** The writer periodically rewrites
//!   `status.json` (atomic temp-file rename): outcome counters,
//!   per-worker throughput, lease-queue depth, writer reorder-buffer
//!   depth and peak, sustained records/sec and ETA — all derived from
//!   [`TelemetrySnapshot`] with the zero-division guards that type
//!   provides.
//! * **A completion certificate.** A run that ends complete writes a
//!   checksummed completion record ([`COMPLETION_FILE`]) holding the
//!   manifest and each shard's byte length and 64-bit digest, which the
//!   shard sinks fold as they write. A resume that finds every shard
//!   still matching it has nothing to re-derive and opens no shard for
//!   writing; anything else resumes through the decoding scan, so the
//!   record only ever saves time, never changes an outcome.
//!
//! The `crawl` verb runs on the same worker pool ([`crawl_shards`]),
//! live or replayed, over fresh shard files and without a job directory.
//!
//! Crash-safety contract, enforced by the chaos harness in
//! `tests/job_engine.rs` and the ci.sh crash gate: for *any* byte
//! prefix of any shard file (a kill tears JSONL lines, `.colsh` row
//! groups and block headers alike), resuming the job reproduces the
//! uninterrupted shard files byte for byte.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use webgen::{PopulationConfig, WebPopulation};

use crate::bundle::{BundleMeta, BundleRecorder, ReplayBundle, SiteBundle};
use crate::colsh::{DEFAULT_DICT_EPOCH_GROUPS, DEFAULT_GROUP_RECORDS};
use crate::db::{shard_index, shard_paths, DbFormat, ShardWriter};
use crate::funnel::CrawlFunnel;
use crate::run::{CrawlConfig, Crawler, SiteOutcome, SiteRecord};
use crate::storage::{load_checksummed, replace, store_checksummed, Checksummed, Digest64};
use crate::telemetry::{CrawlTelemetry, TelemetrySnapshot};

/// Manifest schema version.
pub const MANIFEST_VERSION: u32 = 1;

/// The job manifest's file name inside a job directory.
pub const MANIFEST_FILE: &str = "job.json";

/// The health surface's file name inside a job directory.
pub const STATUS_FILE: &str = "status.json";

/// The completion record's file name inside a job directory.
pub const COMPLETION_FILE: &str = "complete.json";

/// Default ranks per lease batch.
pub const DEFAULT_LEASE_RECORDS: u64 = 256;

/// Everything that determines a job's dataset bytes, persisted once at
/// `crawl-job start` as `job.json` (JSON line + `crc32:` trailer,
/// written via temp-file rename so a kill can never leave a torn
/// manifest behind — only a stale temp file, which resume ignores).
///
/// Deliberately absent: worker count, lease size, channel capacity and
/// every other knob that affects only wall-clock — those live in
/// [`JobOptions`] and may change freely between resumes. Manifests
/// written when the script engine was selectable carry a `js_engine`
/// field; it is ignored on load, since both engines wrote identical
/// datasets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobManifest {
    /// Manifest schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Population seed.
    pub seed: u64,
    /// Population size (ranks 1..=size).
    pub size: u64,
    /// Rank-striped output shards.
    pub shards: usize,
    /// On-disk shard format.
    pub format: DbFormat,
    /// Hostile-site mode (see [`webgen::adversarial`]).
    pub adversarial: bool,
    /// Per-visit transient-failure retry budget.
    pub max_retries: u32,
    /// Base of the shared capped backoff schedule, simulated ms.
    pub retry_backoff_ms: u64,
    /// Injected visit-panic rate, per mille (deterministic, rank-keyed).
    pub fault_panics_per_mille: u32,
    /// Injected transient-failure rate, per mille.
    pub fault_transients_per_mille: u32,
    /// Record every network exchange into a content-addressed bundle
    /// store (`bundle/` inside the job directory) alongside the
    /// dataset, so the whole crawl can later be replayed byte-for-byte
    /// with the generator never invoked. Affects the bundle store's
    /// bytes, never the dataset's. Defaults (also for pre-field
    /// manifests) to off.
    #[serde(default)]
    pub record_bundle: bool,
}

impl JobManifest {
    /// A manifest for a plain (fault-free, non-adversarial) crawl of
    /// `size` origins with `shards` shards in `format`.
    pub fn new(seed: u64, size: u64, shards: usize, format: DbFormat) -> JobManifest {
        let defaults = CrawlConfig::default();
        JobManifest {
            version: MANIFEST_VERSION,
            seed,
            size,
            shards: shards.max(1),
            format,
            adversarial: false,
            max_retries: defaults.max_retries,
            retry_backoff_ms: defaults.retry_backoff_ms,
            fault_panics_per_mille: 0,
            fault_transients_per_mille: 0,
            record_bundle: false,
        }
    }

    /// The bundle-store directory inside `dir` (used when
    /// [`JobManifest::record_bundle`] is on).
    pub fn bundle_dir(dir: &Path) -> PathBuf {
        dir.join("bundle")
    }

    /// The manifest's path inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Atomically writes the manifest into `dir` (temp file + rename).
    pub fn store(&self, dir: &Path) -> std::io::Result<()> {
        store_checksummed(self, dir, MANIFEST_FILE)
    }

    /// Loads and verifies the manifest from `dir`. A torn or corrupt
    /// manifest (truncated JSON, checksum mismatch, missing trailer) is
    /// a loud error naming the file — it can be rewritten with
    /// [`JobManifest::store`] from the original `start` parameters, and
    /// the shard data is untouched either way.
    pub fn load(dir: &Path) -> std::io::Result<JobManifest> {
        let file = Checksummed {
            name: MANIFEST_FILE,
            what: "job manifest",
            creator: "`crawl-job start`",
            repair: "rewrite it with the original `crawl-job start` parameters \
                     — the shard data itself is unaffected",
        };
        load_checksummed(dir, &file, |manifest: &JobManifest| {
            if manifest.version != MANIFEST_VERSION {
                return Err(format!("unsupported manifest version {}", manifest.version));
            }
            if manifest.shards == 0 || manifest.size == 0 {
                return Err("zero shards or size".to_string());
            }
            Ok(())
        })
    }

    /// The population this job crawls.
    pub fn population(&self) -> WebPopulation {
        WebPopulation::new(PopulationConfig {
            seed: self.seed,
            size: self.size,
        })
        .with_adversarial(self.adversarial)
    }

    /// The crawl configuration this job visits with.
    pub fn crawl_config(&self, workers: usize) -> CrawlConfig {
        CrawlConfig {
            workers,
            max_retries: self.max_retries,
            retry_backoff_ms: self.retry_backoff_ms,
            faults: netsim::FaultSpec {
                seed: self.seed,
                panic_per_mille: self.fault_panics_per_mille,
                transient_per_mille: self.fault_transients_per_mille,
                transient_failures: 2,
            },
            ..CrawlConfig::default()
        }
    }

    /// The job's shard file paths inside `dir`, in shard order.
    pub fn shard_files(&self, dir: &Path) -> Vec<PathBuf> {
        let base = dir.join(format!("crawl.{}", self.format.extension()));
        shard_paths(&base, self.shards)
    }
}

/// What a complete run wrote, persisted as `complete.json` (JSON line
/// plus `crc32:` trailer, temp-file rename) once its shards are flushed
/// and before the final `status.json`.
///
/// It never supplies progress — the dataset stays the checkpoint — it
/// only certifies that every shard byte is exactly what a complete run
/// wrote, so [`job_resume`] can return without the decoding scan (see
/// [`completion_certified`]). The manifest it carries binds it to the
/// parameters that produced the bytes: a `job.json` rewritten with other
/// parameters cannot inherit it. Jobs with
/// [`JobManifest::record_bundle`] write none, because certifying them
/// would also have to cover the bundle store. Nothing is fsynced: under
/// process death the record is ordered after the shard flush, and under
/// power loss a record that outlives its data fails the digest check.
#[derive(Debug, Serialize, Deserialize)]
struct CompletionRecord {
    /// The manifest of the run that completed.
    manifest: JobManifest,
    /// Each shard file's length and digest, in shard order.
    shards: Vec<ShardSeal>,
}

/// The completion record as a checksummed file.
const COMPLETION: Checksummed<'static> = Checksummed {
    name: COMPLETION_FILE,
    what: "completion record",
    creator: "a complete run",
    repair: "resume the job to rewrite it",
};

/// One shard file as a complete run left it.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct ShardSeal {
    /// Byte length.
    len: u64,
    /// [`Digest64`] of every byte.
    digest: u64,
}

impl ShardSeal {
    fn of(digest: &Digest64) -> ShardSeal {
        ShardSeal {
            len: digest.len(),
            digest: digest.value(),
        }
    }

    /// Whether the file at `path` still is exactly this shard: the
    /// length from its metadata first, then one read through a fixed
    /// buffer. Any error reads as "no".
    fn matches(&self, path: &Path) -> bool {
        let Ok(file) = std::fs::File::open(path) else {
            return false;
        };
        if file.metadata().ok().map(|m| m.len()) != Some(self.len) {
            return false;
        }
        let mut digest = Digest64::default();
        digest.update_from(file).is_ok() && ShardSeal::of(&digest) == *self
    }
}

/// Whether `dir` holds a completion record for `manifest` that every
/// shard file still matches in length and digest. Anything missing,
/// torn, foreign or different — including an unreadable file — is a
/// plain `false`: the resume then runs the decoding scan, which repairs
/// or reports exactly what it would have without a record.
pub(crate) fn completion_certified(dir: &Path, manifest: &JobManifest) -> bool {
    let Ok(record) = load_checksummed::<CompletionRecord>(dir, &COMPLETION, |_| Ok(())) else {
        return false;
    };
    let paths = manifest.shard_files(dir);
    record.manifest == *manifest
        && record.shards.len() == paths.len()
        && record
            .shards
            .iter()
            .zip(&paths)
            .all(|(seal, path)| seal.matches(path))
}

/// Run-time knobs (never persisted — changing them between resumes
/// cannot change the dataset bytes) plus deterministic test hooks; the
/// two `.colsh` layout hooks change bytes, so a resume must repeat them.
#[derive(Debug, Clone)]
pub struct JobOptions {
    /// Parallel visit workers.
    pub workers: usize,
    /// Bounded record channel between visit workers and the shard
    /// writer — the backpressure window. Workers block when it fills.
    pub channel_capacity: usize,
    /// Ranks per lease batch.
    pub lease_records: u64,
    /// Records between `status.json` rewrites (and progress lines).
    pub status_every: u64,
    /// Graceful-shutdown trigger: checked between leases; when the file
    /// exists, workers wind down, the writer drains and checkpoints,
    /// and the run reports [`JobState::Stopped`].
    pub stop_file: Option<PathBuf>,
    /// Lease failures tolerated before quarantine.
    pub max_lease_failures: u32,
    /// Print progress lines to stderr.
    pub progress: bool,
    /// Test hook: `.colsh` row-group size (`None` = the format default;
    /// tests reach group boundaries on small datasets). Changes bytes.
    pub colsh_group_records: Option<usize>,
    /// Test hook: `.colsh` dictionary-epoch length in row groups (`None`
    /// = [`crate::colsh::DEFAULT_DICT_EPOCH_GROUPS`], `Some(0)` = none).
    /// Changes where the `.colsh` epoch markers land.
    pub colsh_dict_epoch_groups: Option<u64>,
    /// Chaos hook: per-mille of (rank, lease-attempt) pairs whose lease
    /// processing panics *outside* the per-visit isolation, exercising
    /// lease retry and quarantine. Deterministic in the manifest seed.
    pub lease_fault_per_mille: u32,
    /// Chaos hook: abort the engine abruptly after writing this many
    /// records — no drain, no flush, no END markers, simulating a kill
    /// mid-write. The run returns [`JobError::Aborted`].
    pub abort_after_records: Option<u64>,
    /// Test hook: trip the graceful-stop flag after writing this many
    /// records (a deterministic stand-in for the stop file appearing).
    pub stop_after_records: Option<u64>,
}

impl Default for JobOptions {
    fn default() -> JobOptions {
        JobOptions {
            workers: 8,
            channel_capacity: 256,
            lease_records: DEFAULT_LEASE_RECORDS,
            status_every: 1_000,
            stop_file: None,
            max_lease_failures: 3,
            progress: false,
            colsh_group_records: None,
            colsh_dict_epoch_groups: None,
            lease_fault_per_mille: 0,
            abort_after_records: None,
            stop_after_records: None,
        }
    }
}

/// How a finished run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Every rank is persisted.
    Complete,
    /// Graceful shutdown: progress checkpointed, remainder pending.
    Stopped,
}

/// What a job run accomplished.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// How the run ended.
    pub state: JobState,
    /// Funnel over this run's visit plan (`attempted` = ranks that were
    /// not already on disk when the run started).
    pub funnel: CrawlFunnel,
    /// Final telemetry counters for this run.
    pub snapshot: TelemetrySnapshot,
    /// Records handed to shard sinks by this run.
    pub written: u64,
    /// Records durable on disk across all shards, including prior runs
    /// (a graceful `.colsh` checkpoint may drop a partial tail group,
    /// so this can trail `written` by less than one row group/shard).
    pub durable: u64,
    /// Population size (ranks 1..=size).
    pub size: u64,
    /// Peak depth of the writer's rank-reorder buffer.
    pub peak_writer_pending: u64,
    /// Lease attempts that failed and were re-queued.
    pub leases_retried: u64,
    /// Leases quarantined after exhausting their failure budget.
    pub leases_quarantined: u64,
    /// Simulated ms charged to lease-retry backoff.
    pub lease_backoff_ms: u64,
    /// Wall-clock seconds this run spent.
    pub wall_secs: f64,
}

impl JobReport {
    /// Human-readable run summary.
    pub fn render(&self) -> String {
        format!(
            "job {}: {} written ({} durable of {}), {:.0} records/sec, \
             peak writer queue {}, leases retried {} / quarantined {}\n{}\n{}",
            match self.state {
                JobState::Complete => "complete",
                JobState::Stopped => "stopped (resumable)",
            },
            self.written,
            self.durable,
            self.size,
            self.snapshot.rate_per_sec(self.wall_secs),
            self.peak_writer_pending,
            self.leases_retried,
            self.leases_quarantined,
            self.funnel.report(),
            self.snapshot.report(),
        )
    }
}

/// Why a job run failed.
#[derive(Debug)]
pub enum JobError {
    /// Filesystem or database error.
    Io(std::io::Error),
    /// Manifest problem (missing, torn, or conflicting with `start`).
    Manifest(String),
    /// The chaos hook killed the engine mid-write.
    Aborted {
        /// Records handed to sinks before the abort.
        written: u64,
    },
    /// A replay reached a rank its bundle store cannot reproduce. No
    /// record of that rank or any later one was written.
    Diverged {
        /// The rank whose replay failed.
        rank: u64,
        /// What diverged.
        detail: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Io(e) => write!(f, "{e}"),
            JobError::Manifest(m) => write!(f, "{m}"),
            JobError::Aborted { written } => {
                write!(f, "chaos abort after {written} records (simulated kill)")
            }
            JobError::Diverged { rank, detail } => {
                write!(f, "replay diverged at rank {rank}: {detail}")
            }
        }
    }
}

impl std::error::Error for JobError {}

impl From<std::io::Error> for JobError {
    fn from(e: std::io::Error) -> JobError {
        JobError::Io(e)
    }
}

/// The periodically rewritten `status.json` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatus {
    /// `running`, `complete`, `stopped`, or `failed`.
    pub state: String,
    /// Population size.
    pub size: u64,
    /// Ranks persisted before this run started.
    pub resumed_from: u64,
    /// Ranks this run planned to visit.
    pub planned: u64,
    /// Records written by this run so far.
    pub written: u64,
    /// Ranks still unwritten.
    pub remaining: u64,
    /// Sustained records/sec over this run's wall clock.
    pub rate_per_sec: f64,
    /// Estimated seconds to completion (`null`-free: infinity encodes
    /// as a very large number upstream of JSON, so we clamp it).
    pub eta_secs: f64,
    /// Lease batches still queued.
    pub lease_queue_depth: u64,
    /// Records in the writer's reorder buffer right now.
    pub writer_pending: u64,
    /// Peak reorder-buffer depth so far.
    pub writer_peak_pending: u64,
    /// Lease attempts re-queued after a failure.
    pub leases_retried: u64,
    /// Leases quarantined.
    pub leases_quarantined: u64,
    /// Per-outcome visit counts, [`SiteOutcome`] declaration order.
    pub outcomes: Vec<u64>,
    /// Visit re-attempts.
    pub retries: u64,
    /// Visit attempts that panicked and were isolated.
    pub panics_caught: u64,
    /// Visits carrying degradation events.
    pub degraded_visits: u64,
    /// Total degradation events.
    pub degradation_events: u64,
    /// Visits completed per worker.
    pub worker_visits: Vec<u64>,
    /// Simulated ms spent per worker.
    pub worker_sim_ms: Vec<u64>,
    /// Wall-clock seconds this run has spent.
    pub wall_secs: f64,
}

/// Reads the job's `status.json`.
///
/// The writer replaces the file atomically (temp file + rename), but on
/// some filesystems a concurrent reader can still observe the file
/// absent or torn in the window around the rename. A status read races
/// the writer by design — live followers poll it while the job runs —
/// so transient `NotFound`/`InvalidData` results are retried briefly
/// before the error is surfaced. A job directory that genuinely has no
/// status still fails within ~100 ms.
pub fn read_status(dir: &Path) -> std::io::Result<JobStatus> {
    let path = dir.join(STATUS_FILE);
    let mut last_err = None;
    for attempt in 0..50 {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        match try_read_status(&path) {
            Ok(status) => return Ok(status),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::NotFound | std::io::ErrorKind::InvalidData
                ) =>
            {
                last_err = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err.expect("at least one read attempt"))
}

/// One attempt at parsing `status.json`, no retries.
fn try_read_status(path: &Path) -> std::io::Result<JobStatus> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Atomically rewrites the job's `status.json` (temp file + rename, so
/// a kill mid-rewrite never leaves a torn status behind).
fn write_status(dir: &Path, status: &JobStatus) -> std::io::Result<()> {
    let mut text = serde_json::to_string(status)
        .map_err(|e| std::io::Error::other(format!("encoding status: {e}")))?;
    text.push('\n');
    replace(dir, STATUS_FILE, text.as_bytes())
}

/// Starts a fresh job in `dir`: writes the manifest and runs until
/// complete (or stopped/killed). Refuses a directory that already holds
/// a manifest or shard files — resume those with [`job_resume`].
pub fn job_start(
    dir: &Path,
    manifest: &JobManifest,
    opts: &JobOptions,
) -> Result<JobReport, JobError> {
    std::fs::create_dir_all(dir).map_err(JobError::Io)?;
    if JobManifest::path(dir).exists() {
        return Err(JobError::Manifest(format!(
            "{} already holds a job manifest; use `crawl-job resume`",
            dir.display()
        )));
    }
    for path in manifest.shard_files(dir) {
        if path.exists() {
            return Err(JobError::Manifest(format!(
                "{} already exists; `crawl-job start` needs a fresh job directory",
                path.display()
            )));
        }
    }
    manifest.store(dir)?;
    run_job(dir, manifest, opts, false)
}

/// Resumes the job persisted in `dir`: re-derives per-shard high-water
/// marks from the shard files (truncating torn tails) and crawls the
/// remaining ranks. A no-op returning [`JobState::Complete`] when
/// everything is already on disk; when an intact completion record
/// ([`COMPLETION_FILE`]) says so, each shard is read once and never
/// decoded or opened for writing.
pub fn job_resume(dir: &Path, opts: &JobOptions) -> Result<JobReport, JobError> {
    let manifest = JobManifest::load(dir)?;
    run_job(dir, &manifest, opts, true)
}

/// What [`crawl_shards`] crawls.
pub enum CrawlSource<'a> {
    /// `Live(manifest, record)`: the crawl `manifest` describes (only its
    /// dataset parameters are read), recording every exchange into a
    /// fresh bundle store at `record` when given.
    Live(&'a JobManifest, Option<&'a Path>),
    /// A loaded bundle store, replayed under its recorded parameters.
    Replay(&'a ReplayBundle),
}

/// Runs one crawl on the job engine's worker pool, with `opts.workers`
/// workers, into fresh shard files at `paths` in `format`: the shard
/// bytes a [`job_start`] of the same crawl writes, but no job files, so
/// a killed run cannot be resumed. A replay that cannot reproduce its
/// recording fails with [`JobError::Diverged`].
pub fn crawl_shards(
    source: CrawlSource<'_>,
    paths: &[PathBuf],
    format: DbFormat,
    opts: &JobOptions,
) -> Result<JobReport, JobError> {
    let started = Instant::now();
    let workers = opts.workers.max(1);
    let population;
    let (crawler, store, source) = match source {
        CrawlSource::Live(manifest, record) => {
            population = manifest.population();
            let (crawler, store) = live_crawler(manifest, workers, record, false)?;
            (crawler, store, RankSource::Live(&population))
        }
        CrawlSource::Replay(bundle) => {
            let crawler = Crawler::new(bundle.meta().replay_config(workers));
            (crawler, None, RankSource::Replay(bundle))
        }
    };
    let (shards, done) = open_shards(paths, format, false, opts)?;
    let out = Outputs {
        shards: Some(shards),
        store,
    };
    run_pool(&crawler, source, started, out, &done, opts, None)
}

/// The crawler for `manifest`'s crawl, and the bundle store it records
/// into at `record` when given: a fresh store, or with `resume` the one
/// there reopened for appending.
fn live_crawler(
    manifest: &JobManifest,
    workers: usize,
    record: Option<&Path>,
    resume: bool,
) -> std::io::Result<(Crawler, Option<BundleRecorder>)> {
    let config = manifest.crawl_config(workers);
    let meta = BundleMeta::for_crawl(&config, manifest.seed, manifest.size, manifest.adversarial);
    let open = |dir| match resume {
        true => BundleRecorder::resume(dir, &meta),
        false => BundleRecorder::create(dir, &meta),
    };
    let store = record.map(open).transpose()?;
    Ok((Crawler::new(config), store))
}

/// Opens a run's shard files (see [`ShardWriter::open`]) in its
/// `.colsh` layout, with the high-water marks of what they hold.
fn open_shards(
    paths: &[PathBuf],
    format: DbFormat,
    resume: bool,
    opts: &JobOptions,
) -> std::io::Result<(ShardWriter, HighWater)> {
    let (sinks, scan) = ShardWriter::open(paths, format, resume)?;
    let group = opts.colsh_group_records.unwrap_or(DEFAULT_GROUP_RECORDS);
    let epoch = opts.colsh_dict_epoch_groups;
    let sinks = sinks.with_colsh_layout(group, epoch.unwrap_or(DEFAULT_DICT_EPOCH_GROUPS));
    let done = HighWater {
        marks: scan.records,
        quarantined: scan.quarantined,
    };
    Ok((sinks, done))
}

/// One contiguous batch of ranks a worker leases.
#[derive(Debug)]
struct Lease {
    hi: u64,
    /// Next rank to visit — survives a failed attempt, so retries never
    /// re-send records that already reached the writer.
    next: u64,
    attempts: u32,
}

/// What a replay lease that panicked outside the visit isolation reports.
const PANICKED: &str = "panicked outside the per-visit isolation";

/// How processing one lease ended.
enum LeaseRun {
    Done,
    Failed,
    /// A replay reached a rank its store cannot reproduce or read back:
    /// the run stops with this error.
    Fatal(JobError),
    Stopped,
    WriterGone,
}

/// Per-shard high-water marks: the leading `marks[s]` ranks of shard
/// `s` are durable. O(shards) memory no matter the population size,
/// plus one integer per quarantine record among them.
struct HighWater {
    marks: Vec<u64>,
    /// Durable ranks whose record is a quarantine record, ascending.
    quarantined: Vec<u64>,
}

impl HighWater {
    /// Every stripe full: shard `s` of `S` holds ranks `s+1, s+1+S, …`
    /// up to `size`.
    fn complete(size: u64, shards: usize) -> HighWater {
        let stride = shards as u64;
        let marks = (0..stride).map(|s| size.saturating_sub(s).div_ceil(stride));
        HighWater {
            marks: marks.collect(),
            quarantined: Vec::new(),
        }
    }

    fn is_done(&self, rank: u64) -> bool {
        let shards = self.marks.len();
        (rank - 1) / (shards as u64) < self.marks[shard_index(rank, shards)]
    }

    fn is_quarantined(&self, rank: u64) -> bool {
        self.quarantined.binary_search(&rank).is_ok()
    }

    fn total(&self) -> u64 {
        self.marks.iter().sum()
    }
}

/// Deterministic chaos: does lease processing panic at `rank` on lease
/// attempt `attempt`? Keyed so retries of the same rank usually pass
/// (progress) while `per_mille == 1000` never does (poison lease).
fn lease_fault_fires(per_mille: u32, seed: u64, rank: u64, attempt: u32) -> bool {
    if per_mille == 0 {
        return false;
    }
    let mut x = seed
        ^ rank.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(attempt)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x % 1000 < u64::from(per_mille)
}

/// The job layer around the pool: the bundle store under `dir`, and the
/// resume scan or the completion record that spares it. `resume`
/// selects fresh-create vs scan-and-append shard and store handling;
/// everything else is identical for start and resume.
fn run_job(
    dir: &Path,
    manifest: &JobManifest,
    opts: &JobOptions,
    resume: bool,
) -> Result<JobReport, JobError> {
    let started = Instant::now();
    let population = manifest.population();
    let bundle_dir = JobManifest::bundle_dir(dir);
    let record = manifest.record_bundle.then_some(bundle_dir.as_path());
    let (crawler, store) = live_crawler(manifest, opts.workers.max(1), record, resume)?;
    // A certified complete job has every rank on disk: no shard is
    // opened, and the pool finds an empty lease queue. Otherwise the
    // decoding scan measures each shard's durable prefix.
    let certified = resume && !manifest.record_bundle && completion_certified(dir, manifest);
    let (shards, done) = if certified {
        (None, HighWater::complete(manifest.size, manifest.shards))
    } else {
        let paths = manifest.shard_files(dir);
        let (shards, done) = open_shards(&paths, manifest.format, resume, opts)?;
        (Some(shards), done)
    };
    let out = Outputs { shards, store };
    let (source, job) = (RankSource::Live(&population), Some((dir, manifest)));
    run_pool(&crawler, source, started, out, &done, opts, job)
}

/// Where the pool's workers take each rank's record from.
#[derive(Clone, Copy)]
enum RankSource<'a> {
    /// Visit the population live (recording, if the run has a store).
    Live(&'a WebPopulation),
    /// Replay a loaded bundle store.
    Replay(&'a ReplayBundle),
}

/// What the pool's writer commits, rank by rank.
struct Outputs {
    /// The shard files (`None` for a certified complete job).
    shards: Option<ShardWriter>,
    /// The bundle store of a recording crawl.
    store: Option<BundleRecorder>,
}

/// A site's record, with its bundle when the crawl records.
type Site = (SiteRecord, Option<SiteBundle>);

/// Commits rank `rank`'s bundle to `store` if the store lacks it though
/// the shards hold its record: a resumed recording can find such ranks,
/// because the shards and the store flush independently and a kill can
/// leave either side ahead. Visits are deterministic, so a re-visit
/// reproduces the lost tapes exactly; a quarantine record (no visit ever
/// ran) gets its synthesized bundle again.
fn recapture(
    store: &BundleRecorder,
    crawler: &Crawler,
    population: &WebPopulation,
    done: &HighWater,
    rank: u64,
) -> std::io::Result<()> {
    if rank <= store.committed() {
        return Ok(());
    }
    if done.is_quarantined(rank) {
        let origin = population.origin(rank).to_string();
        return store.submit(SiteBundle::synthesized(rank, origin));
    }
    store.submit(crawler.visit_recorded(population, rank, None).1)
}

/// The one worker pool: `crawler`'s workers lease the ranks of `source`
/// that `done` does not hold, and the calling thread is the one commit
/// point. It writes their sites in rank order into `out` — each bundle
/// to the store, then its record to the shards — handing both back to
/// the worker that built them, and reports to `job`'s directory if there
/// is one. Each replay worker reads the store through a reader of its
/// own. A failed live lease is retried, then quarantined; a failed
/// replay lease stops the run with [`JobError::Diverged`], or with the
/// read error of a store that no longer reads as it loaded. Any failure
/// leaves a `failed` health surface.
fn run_pool(
    crawler: &Crawler,
    source: RankSource<'_>,
    started: Instant,
    mut out: Outputs,
    done: &HighWater,
    opts: &JobOptions,
    job: Option<(&Path, &JobManifest)>,
) -> Result<JobReport, JobError> {
    let (size, seed) = match source {
        RankSource::Live(population) => (population.config().size, population.config().seed),
        RankSource::Replay(bundle) => (bundle.sites(), bundle.meta().seed),
    };
    let workers = crawler.config.workers.max(1);
    let resumed_from = done.total();
    let planned = size - resumed_from;
    let recording = out.store.is_some();

    // The lease queue: contiguous rank batches with at least one
    // unvisited rank. Fully-durable batches never enter the queue. No
    // lease is longer than an even share of the ranks to visit, so a
    // crawl smaller than `workers × lease_records` still reaches every
    // worker.
    let even_share = planned.div_ceil(workers as u64).max(1);
    let lease_records = opts.lease_records.clamp(1, even_share);
    let mut queue = VecDeque::new();
    let mut lo = 1u64;
    while lo <= size {
        let hi = (lo + lease_records - 1).min(size);
        if (lo..=hi).any(|r| !done.is_done(r)) {
            queue.push_back(Lease {
                hi,
                next: lo,
                attempts: 0,
            });
        }
        lo = hi + 1;
    }
    // Shared with every worker: the references copy into each closure.
    let queue_depth = &AtomicU64::new(queue.len() as u64);
    let queue = &Mutex::new(queue);
    let stop = &AtomicBool::new(false);
    let telemetry = &CrawlTelemetry::new(workers);
    let leases_retried = &AtomicU64::new(0);
    let leases_quarantined = &AtomicU64::new(0);
    let lease_backoff_ms = &AtomicU64::new(0);
    // How the first failed replay lease failed.
    let fatal = &Mutex::new(None::<JobError>);
    // One reader per replay worker, opened before any worker starts.
    let mut readers = (0..workers)
        .map(|_| match source {
            RankSource::Replay(bundle) => bundle.reader().map(Some),
            RankSource::Live(_) => Ok(None),
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    // Each site travels tagged with its rank and the worker that built it.
    let (sender, receiver) =
        std::sync::mpsc::sync_channel::<(u64, usize, Site)>(opts.channel_capacity.max(1));

    // Writer-side state, mutated only by the scope's own thread.
    let mut pending: BTreeMap<u64, (usize, Site)> = BTreeMap::new();
    let mut peak_pending = 0u64;
    // The writer's cursor is published for the workers' reorder window:
    // a lease starts only when every rank it holds lies below
    // `cursor + reorder_window`, which bounds the reorder map by the
    // window even while one worker stalls and the others run ahead. The
    // lease holding the cursor always qualifies once the writer has
    // moved the cursor past the ranks a resume finds done, which it does
    // before taking any site.
    let mut cursor = 1u64;
    let written_to = &AtomicU64::new(cursor);
    let reorder_window = workers as u64 * lease_records + opts.channel_capacity.max(1) as u64;
    let mut funnel = CrawlFunnel {
        attempted: planned,
        ..CrawlFunnel::default()
    };
    let mut written = 0u64;
    let mut writer_error: Option<JobError> = None;

    let make_status = |state: &str,
                       snapshot: &TelemetrySnapshot,
                       written: u64,
                       writer_pending: u64,
                       peak: u64| {
        let wall_secs = started.elapsed().as_secs_f64();
        let remaining = planned.saturating_sub(written);
        JobStatus {
            state: state.to_string(),
            size,
            resumed_from,
            planned,
            written,
            remaining,
            rate_per_sec: snapshot.rate_per_sec(wall_secs),
            // JSON has no Infinity literal; clamp the not-yet-measurable
            // case to a sentinel the reader can recognize.
            eta_secs: snapshot.eta_secs(remaining, wall_secs).min(f64::MAX),
            lease_queue_depth: queue_depth.load(Ordering::Relaxed),
            writer_pending,
            writer_peak_pending: peak,
            leases_retried: leases_retried.load(Ordering::Relaxed),
            leases_quarantined: leases_quarantined.load(Ordering::Relaxed),
            outcomes: snapshot.outcomes.to_vec(),
            retries: snapshot.retries,
            panics_caught: snapshot.panics_caught,
            degraded_visits: snapshot.degraded_visits,
            degradation_events: snapshot.degradation_events,
            worker_visits: snapshot.worker_visits.clone(),
            worker_sim_ms: snapshot.worker_sim_ms.clone(),
            wall_secs,
        }
    };

    std::thread::scope(|scope| {
        // After writing a site the writer hands it back to the worker
        // that built it, which frees it between visits: a block freed on
        // the thread that allocated it stays in that thread's allocator
        // cache instead of taking the cross-thread path. The return
        // channels are unbounded, so the writer never blocks on one.
        let mut give_back = Vec::with_capacity(workers);
        for (worker, mut reader) in readers.drain(..).enumerate() {
            let sender = sender.clone();
            let (returns, returned) = std::sync::mpsc::channel::<Site>();
            give_back.push(returns);
            scope.spawn(move || {
                let free_returned = || returned.try_iter().for_each(drop);
                let pop_lease = || {
                    let mut q = queue.lock().expect("lease queue");
                    let lease = q.pop_front();
                    queue_depth.store(q.len() as u64, Ordering::Relaxed);
                    lease
                };
                let requeue_front = |lease: Lease| {
                    let mut q = queue.lock().expect("lease queue");
                    q.push_front(lease);
                    queue_depth.store(q.len() as u64, Ordering::Relaxed);
                };
                let mut process = |lease: &mut Lease, sender: &SyncSender<(u64, usize, Site)>| {
                    while lease.next <= lease.hi {
                        if stop.load(Ordering::Relaxed) {
                            return LeaseRun::Stopped;
                        }
                        let rank = lease.next;
                        if done.is_done(rank) {
                            lease.next += 1;
                            continue;
                        }
                        // The closure reports whether the writer is
                        // gone (`Ok(true)`) or why a replay failed
                        // (`Err`), not the rejected site itself.
                        let attempt =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                if lease_fault_fires(
                                    opts.lease_fault_per_mille,
                                    seed,
                                    rank,
                                    lease.attempts,
                                ) {
                                    panic!("chaos: injected lease fault at rank {rank}");
                                }
                                let observer = Some((telemetry, worker));
                                let site = match source {
                                    RankSource::Live(population) if recording => {
                                        let (record, bundle) =
                                            crawler.visit_recorded(population, rank, observer);
                                        (record, Some(bundle))
                                    }
                                    RankSource::Live(population) => {
                                        (crawler.visit_observed(population, rank, observer), None)
                                    }
                                    RankSource::Replay(bundle) => {
                                        let reader = reader.as_mut().expect("a replay reader");
                                        let record = crawler
                                            .replay_observed(bundle, reader, rank, observer)?;
                                        (record, None)
                                    }
                                };
                                Ok::<bool, JobError>(sender.send((rank, worker, site)).is_err())
                            }));
                        // A replay reproduces its recording or fails: it
                        // neither retries a lease nor quarantines a rank.
                        let replay = matches!(source, RankSource::Replay(_));
                        match attempt {
                            Err(_) if replay => {
                                let detail = PANICKED.to_string();
                                return LeaseRun::Fatal(JobError::Diverged { rank, detail });
                            }
                            Err(_) => return LeaseRun::Failed,
                            Ok(Err(error)) => return LeaseRun::Fatal(error),
                            Ok(Ok(true)) => return LeaseRun::WriterGone,
                            Ok(Ok(false)) => {
                                lease.next += 1;
                                free_returned();
                            }
                        }
                    }
                    LeaseRun::Done
                };
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Some(stop_file) = &opts.stop_file {
                        if stop_file.exists() {
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    let Some(mut lease) = pop_lease() else { break };
                    while lease.hi >= written_to.load(Ordering::Relaxed) + reorder_window
                        && !stop.load(Ordering::Relaxed)
                    {
                        free_returned();
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    }
                    match process(&mut lease, &sender) {
                        LeaseRun::Done => {}
                        LeaseRun::Stopped | LeaseRun::WriterGone => break,
                        LeaseRun::Fatal(error) => {
                            fatal.lock().expect("failure slot").get_or_insert(error);
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                        LeaseRun::Failed => {
                            let RankSource::Live(population) = source else {
                                unreachable!("a failed replay lease diverges");
                            };
                            lease.attempts += 1;
                            leases_retried.fetch_add(1, Ordering::Relaxed);
                            lease_backoff_ms.fetch_add(
                                netsim::capped_backoff_ms(
                                    crawler.config.retry_backoff_ms,
                                    lease.attempts,
                                ),
                                Ordering::Relaxed,
                            );
                            if lease.attempts > opts.max_lease_failures {
                                // Poison lease: quarantine the unvisited
                                // remainder as structured CrawlerError
                                // records (with synthesized bundles when
                                // recording) — a rank is never lost.
                                leases_quarantined.fetch_add(1, Ordering::Relaxed);
                                let mut writer_gone = false;
                                for rank in lease.next..=lease.hi {
                                    if done.is_done(rank) {
                                        continue;
                                    }
                                    let record = SiteRecord {
                                        rank,
                                        origin: population.origin(rank).to_string(),
                                        outcome: SiteOutcome::CrawlerError,
                                        visit: None,
                                        elapsed_ms: 0,
                                        attempts: 0,
                                    };
                                    telemetry.record_visit(worker, SiteOutcome::CrawlerError, 0, 1);
                                    let bundle = recording.then(|| {
                                        SiteBundle::synthesized(rank, record.origin.clone())
                                    });
                                    if sender.send((rank, worker, (record, bundle))).is_err() {
                                        writer_gone = true;
                                        break;
                                    }
                                    free_returned();
                                }
                                if writer_gone {
                                    break;
                                }
                            } else {
                                // Front of the queue: the rank cursor is
                                // stalled on this lease, so it must run
                                // next to keep the reorder buffer flat.
                                requeue_front(lease);
                            }
                        }
                    }
                }
                // Out of leases: the writer may still hold sites of this
                // worker, so keep freeing them until it closes the
                // return channel.
                drop(sender);
                returned.iter().for_each(drop);
            });
        }
        drop(sender);

        // The writer: takes each arriving site, then commits every rank
        // it can from the cursor on — a rank the shards already hold only
        // to a store that lacks it, any other its bundle, then its record
        // — and checkpoints the health surface.
        let mut take = |arrival: Option<(u64, usize, Site)>| -> Result<(), JobError> {
            if let Some((rank, worker, site)) = arrival {
                pending.insert(rank, (worker, site));
                peak_pending = peak_pending.max(pending.len() as u64);
            }
            while cursor <= size {
                if done.is_done(cursor) {
                    if let (Some(store), RankSource::Live(population)) = (&out.store, source) {
                        recapture(store, crawler, population, done, cursor)?;
                    }
                    cursor += 1;
                    continue;
                }
                let Some((worker, (record, bundle))) = pending.remove(&cursor) else {
                    break;
                };
                funnel.count_record(&record);
                if let (Some(store), Some(bundle)) = (&out.store, &bundle) {
                    store.submit(bundle)?;
                }
                let shards = out
                    .shards
                    .as_mut()
                    .expect("a certified job has no rank to write");
                shards.push(&record)?;
                // A worker keeps its end open until the writer closes
                // it; only one that panicked has let go, and then the
                // site is freed here.
                let _ = give_back[worker].send((record, bundle));
                written += 1;
                cursor += 1;
                if opts.abort_after_records == Some(written) {
                    return Err(JobError::Aborted { written });
                }
                if opts.stop_after_records == Some(written) {
                    stop.store(true, Ordering::Relaxed);
                }
                if written.is_multiple_of(opts.status_every.max(1)) {
                    let snapshot = telemetry.snapshot();
                    if opts.progress {
                        // A closed stderr must not stop the crawl.
                        let line = snapshot.progress_line(written, funnel.succeeded, planned);
                        let _ = writeln!(std::io::stderr(), "{line}");
                    }
                    if let Some((dir, _)) = job {
                        let pending = pending.len() as u64;
                        let status =
                            make_status("running", &snapshot, written, pending, peak_pending);
                        write_status(dir, &status)?;
                    }
                }
            }
            written_to.store(cursor, Ordering::Relaxed);
            Ok(())
        };
        let wrote = take(None).and_then(|()| receiver.iter().try_for_each(|site| take(Some(site))));
        if let Err(error) = wrote {
            writer_error = Some(error);
            stop.store(true, Ordering::Relaxed);
        }
        // Disconnect the channel so any still-blocked sender unblocks
        // and its worker winds down, close the return channels so the
        // workers stop waiting for sites, then let the scope join them.
        drop(receiver);
        drop(give_back);
    });

    let snapshot = telemetry.snapshot();
    let stopped = stop.load(Ordering::Relaxed);
    let state = if stopped {
        JobState::Stopped
    } else {
        JobState::Complete
    };
    // Closing the outputs: a stopped run checkpoints its shards, a
    // complete one finishes them and, for a job that records no store,
    // certifies them; the store is flushed, then the final status lands.
    let close = |out: Outputs| -> Result<u64, JobError> {
        let durable = match out.shards {
            // Certified: nothing was opened, so there is nothing to close.
            None => resumed_from,
            Some(shards) if stopped => shards.finish_checkpoint()?,
            Some(shards) => {
                let seals = shards.finish_sealed()?;
                if let Some((dir, manifest)) = job.filter(|(_, m)| !m.record_bundle) {
                    let record = CompletionRecord {
                        manifest: manifest.clone(),
                        shards: seals.iter().map(ShardSeal::of).collect(),
                    };
                    store_checksummed(&record, dir, COMPLETION_FILE)?;
                }
                resumed_from + written
            }
        };
        if let Some(store) = &out.store {
            store.finish()?;
        }
        if let Some((dir, _)) = job {
            let label = match state {
                JobState::Complete => "complete",
                JobState::Stopped => "stopped",
            };
            write_status(
                dir,
                &make_status(label, &snapshot, written, 0, peak_pending),
            )?;
        }
        Ok(durable)
    };
    let fatal = fatal.lock().expect("failure slot").take();
    let failure = writer_error.or(fatal);
    let durable = match failure.map_or_else(|| close(out), Err) {
        Ok(durable) => durable,
        Err(error) => {
            if let Some((dir, _)) = job.filter(|_| !matches!(error, JobError::Aborted { .. })) {
                // Best-effort: a real failure still updates the health
                // surface. A chaos abort is a simulated kill and must
                // leave the directory exactly as a kill would.
                let pending = pending.len() as u64;
                let status = make_status("failed", &snapshot, written, pending, peak_pending);
                let _ = write_status(dir, &status);
            }
            return Err(error);
        }
    };
    Ok(JobReport {
        state,
        funnel,
        snapshot,
        written,
        durable,
        size,
        peak_writer_pending: peak_pending,
        leases_retried: leases_retried.load(Ordering::Relaxed),
        leases_quarantined: leases_quarantined.load(Ordering::Relaxed),
        lease_backoff_ms: lease_backoff_ms.load(Ordering::Relaxed),
        wall_secs: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_job_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("permodyssey-jobs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_round_trips_with_checksum() {
        let dir = temp_job_dir("manifest");
        let mut manifest = JobManifest::new(7, 500, 4, DbFormat::Colsh);
        manifest.adversarial = true;
        manifest.fault_panics_per_mille = 3;
        manifest.store(&dir).unwrap();
        assert_eq!(JobManifest::load(&dir).unwrap(), manifest);
        let text = std::fs::read_to_string(JobManifest::path(&dir)).unwrap();
        assert!(text.contains("crc32:"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_is_loud_and_names_the_file() {
        let dir = temp_job_dir("torn-manifest");
        let manifest = JobManifest::new(7, 100, 2, DbFormat::Jsonl);
        manifest.store(&dir).unwrap();
        let path = JobManifest::path(&dir);
        let bytes = std::fs::read(&path).unwrap();
        for cut in [1, bytes.len() / 2, bytes.len() - 2] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = JobManifest::load(&dir).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("job.json"), "{msg}");
            assert!(msg.contains("torn or corrupt"), "{msg}");
        }
        // A flipped byte inside otherwise-intact JSON fails the checksum.
        let mut flipped = bytes.clone();
        let seed_pos = flipped.windows(4).position(|w| w == b"7,\"s");
        if let Some(p) = seed_pos {
            flipped[p] = b'8';
            std::fs::write(&path, &flipped).unwrap();
            let err = JobManifest::load(&dir).unwrap_err();
            assert!(err.to_string().contains("checksum"), "{err}");
        }
        // Rewriting the manifest recovers the job without touching data.
        manifest.store(&dir).unwrap();
        assert_eq!(JobManifest::load(&dir).unwrap(), manifest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn high_water_marks_match_striping() {
        let hw = HighWater {
            marks: vec![2, 1, 0],
            quarantined: Vec::new(),
        };
        // Shard 0 holds ranks 1, 4, 7…: first two durable.
        assert!(hw.is_done(1));
        assert!(hw.is_done(4));
        assert!(!hw.is_done(7));
        // Shard 1 holds ranks 2, 5…: first one durable.
        assert!(hw.is_done(2));
        assert!(!hw.is_done(5));
        // Shard 2 holds ranks 3, 6…: nothing durable.
        assert!(!hw.is_done(3));
        assert_eq!(hw.total(), 3);
        // A complete job's full stripes, including empty ones.
        let full = HighWater::complete(10, 3);
        assert_eq!(full.marks, vec![4, 3, 3]);
        assert!((1..=10).all(|rank| full.is_done(rank)));
        assert!(!full.is_done(11));
        assert_eq!(HighWater::complete(1, 3).marks, vec![1, 0, 0]);
    }

    #[test]
    fn lease_faults_are_deterministic_and_attempt_keyed() {
        assert!(!lease_fault_fires(0, 7, 1, 0));
        for rank in 1..=2000u64 {
            for attempt in 0..3 {
                assert_eq!(
                    lease_fault_fires(250, 7, rank, attempt),
                    lease_fault_fires(250, 7, rank, attempt),
                );
                // Per-mille 1000 always fires: the poison-lease case.
                assert!(lease_fault_fires(1000, 7, rank, attempt));
            }
        }
        // Roughly a quarter fire at 250‰.
        let fired = (1..=2000u64)
            .filter(|&r| lease_fault_fires(250, 7, r, 0))
            .count();
        assert!((300..700).contains(&fired), "{fired}");
    }

    #[test]
    fn status_round_trips_through_json() {
        let dir = temp_job_dir("status");
        let status = JobStatus {
            state: "running".to_string(),
            size: 100,
            resumed_from: 10,
            planned: 90,
            written: 40,
            remaining: 50,
            rate_per_sec: 123.5,
            eta_secs: 0.5,
            lease_queue_depth: 3,
            writer_pending: 2,
            writer_peak_pending: 9,
            leases_retried: 1,
            leases_quarantined: 0,
            outcomes: vec![30, 4, 3, 2, 1, 0],
            retries: 7,
            panics_caught: 0,
            degraded_visits: 2,
            degradation_events: 5,
            worker_visits: vec![20, 20],
            worker_sim_ms: vec![1000, 900],
            wall_secs: 1.25,
        };
        write_status(&dir, &status).unwrap();
        let back = read_status(&dir).unwrap();
        assert_eq!(back.state, "running");
        assert_eq!(back.written, 40);
        assert_eq!(back.outcomes, status.outcomes);
        assert_eq!(back.worker_visits, status.worker_visits);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_status_survives_a_hammering_writer() {
        // The live follower polls status.json while the job rewrites it;
        // the rename window can expose a missing or torn file to the
        // reader on some filesystems. Hammer reads against a loop of
        // rewrites (plus deliberate remove/recreate churn, which is
        // strictly harsher than the rename) and require every read to
        // return a fully parsed status.
        let dir = temp_job_dir("status-hammer");
        let mut status = JobStatus {
            state: "running".to_string(),
            size: 100,
            resumed_from: 0,
            planned: 100,
            written: 0,
            remaining: 100,
            rate_per_sec: 0.0,
            eta_secs: 0.0,
            lease_queue_depth: 0,
            writer_pending: 0,
            writer_peak_pending: 0,
            leases_retried: 0,
            leases_quarantined: 0,
            outcomes: vec![0; 6],
            retries: 0,
            panics_caught: 0,
            degraded_visits: 0,
            degradation_events: 0,
            worker_visits: vec![0],
            worker_sim_ms: vec![0],
            wall_secs: 0.0,
        };
        write_status(&dir, &status).unwrap();
        std::thread::scope(|scope| {
            let writer_dir = dir.clone();
            let writer = scope.spawn(move || {
                for written in 1..=400u64 {
                    status.written = written;
                    // Make the absent-file window real, not just possible.
                    if written.is_multiple_of(10) {
                        let _ = std::fs::remove_file(writer_dir.join(STATUS_FILE));
                    }
                    write_status(&writer_dir, &status).unwrap();
                }
            });
            for _ in 0..400 {
                let back = read_status(&dir).expect("status must always be readable");
                assert_eq!(back.state, "running");
                assert_eq!(back.size, 100);
                assert_eq!(back.outcomes.len(), 6);
            }
            writer.join().unwrap();
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn start_refuses_existing_manifest_or_shards() {
        let dir = temp_job_dir("start-refuses");
        let manifest = JobManifest::new(7, 40, 1, DbFormat::Jsonl);
        manifest.store(&dir).unwrap();
        let err = job_start(&dir, &manifest, &JobOptions::default()).unwrap_err();
        assert!(err.to_string().contains("resume"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_shard_content_fails_the_stripe_check() {
        // Shard 0 of a 3-way stripe holds ranks 1, 4, 7, … in order. Each
        // case breaks that somewhere else, so a check that looked only at
        // the first rank, or only at the record count, misses one of them.
        let cases: [(&str, &[u64]); 3] = [
            ("wrong-first", &[2]),
            ("gap", &[1, 7]),
            ("duplicate", &[1, 4, 4]),
        ];
        for format in [DbFormat::Jsonl, DbFormat::Colsh] {
            for (name, ranks) in cases {
                let dir = temp_job_dir(&format!("stripe-{name}-{}", format.extension()));
                let manifest = JobManifest::new(7, 40, 3, format);
                manifest.store(&dir).unwrap();
                let population = manifest.population();
                let crawler = Crawler::new(manifest.crawl_config(1));
                let records = ranks
                    .iter()
                    .map(|&rank| crawler.visit_one(&population, rank))
                    .collect();
                let dataset = crate::run::CrawlDataset { records };
                crate::db::write_db(&dataset, &manifest.shard_files(&dir)[0], format).unwrap();
                let err = job_resume(&dir, &JobOptions::default()).unwrap_err();
                assert!(
                    err.to_string().contains("stripe prefix"),
                    "{format:?} {name}: {err}"
                );
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    // --- the completion record -------------------------------------------

    /// A small job whose `.colsh` shards span several row groups.
    fn small_job(format: DbFormat) -> JobManifest {
        JobManifest::new(7, 45, 3, format)
    }

    /// One worker, so that two runs over the same work report the same
    /// per-worker telemetry.
    fn small_options() -> JobOptions {
        JobOptions {
            workers: 1,
            channel_capacity: 8,
            lease_records: 8,
            status_every: 10,
            colsh_group_records: Some(4),
            ..JobOptions::default()
        }
    }

    /// Every shard file's bytes, in shard order (`None` if missing).
    fn shard_bytes(manifest: &JobManifest, dir: &Path) -> Vec<Option<Vec<u8>>> {
        let files = manifest.shard_files(dir);
        files.iter().map(|path| std::fs::read(path).ok()).collect()
    }

    /// A report with its wall-clock time zeroed, for comparison.
    fn untimed(report: &JobReport) -> String {
        format!(
            "{:?}",
            JobReport {
                wall_secs: 0.0,
                ..report.clone()
            }
        )
    }

    /// `status.json` with its timing fields zeroed, for comparison.
    fn untimed_status(dir: &Path) -> String {
        let status = read_status(dir).unwrap();
        let status = JobStatus {
            rate_per_sec: 0.0,
            eta_secs: 0.0,
            wall_secs: 0.0,
            ..status
        };
        format!("{status:?}")
    }

    /// Starts a job in a fresh directory and runs it to completion.
    fn completed_job(tag: &str, manifest: &JobManifest) -> PathBuf {
        let dir = temp_job_dir(tag);
        let report = job_start(&dir, manifest, &small_options()).unwrap();
        assert_eq!(report.state, JobState::Complete);
        dir
    }

    fn set_shard_len(path: &Path, len: u64) {
        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.set_len(len).unwrap();
    }

    #[test]
    fn completion_check_accepts_jobs_finished_by_start_and_by_resume() {
        for format in [DbFormat::Jsonl, DbFormat::Colsh] {
            let manifest = small_job(format);
            let ext = format.extension();
            let reference = completed_job(&format!("cert-start-{ext}"), &manifest);
            assert!(completion_certified(&reference, &manifest), "{format:?}");
            let expected = shard_bytes(&manifest, &reference);

            // A kill mid-write, then tails shredded further: one shard
            // torn inside its header, one mid-file, one left alone.
            let dir = temp_job_dir(&format!("cert-resume-{ext}"));
            let killed = JobOptions {
                abort_after_records: Some(20),
                ..small_options()
            };
            let err = job_start(&dir, &manifest, &killed).unwrap_err();
            assert!(matches!(err, JobError::Aborted { .. }), "{err}");
            assert!(!completion_certified(&dir, &manifest));
            let files = manifest.shard_files(&dir);
            set_shard_len(&files[0], 5);
            let len = std::fs::metadata(&files[1]).unwrap().len();
            set_shard_len(&files[1], len / 2);
            let report = job_resume(&dir, &small_options()).unwrap();
            assert_eq!(report.state, JobState::Complete);
            assert_eq!(shard_bytes(&manifest, &dir), expected, "{format:?}");
            assert!(completion_certified(&dir, &manifest), "{format:?}");
            std::fs::remove_dir_all(&reference).ok();
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Every file in `dir` with its bytes.
    fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let files = std::fs::read_dir(dir).unwrap();
        let path = |entry: std::io::Result<std::fs::DirEntry>| entry.unwrap().path();
        let read = |path: PathBuf| (path.clone(), std::fs::read(path).unwrap());
        files.map(path).map(read).collect()
    }

    /// Puts `dir` back exactly as [`snapshot`] found it.
    fn restore(dir: &Path, files: &[(PathBuf, Vec<u8>)]) {
        for entry in std::fs::read_dir(dir).unwrap() {
            std::fs::remove_file(entry.unwrap().path()).unwrap();
        }
        for (path, bytes) in files {
            std::fs::write(path, bytes).unwrap();
        }
    }

    /// Resumes a damaged job twice from the same bytes: with its stale
    /// completion record, and with none — how every job resumed before
    /// records existed. Requires one outcome and returns it.
    fn resume_as_without_a_record(
        dir: &Path,
        manifest: &JobManifest,
        case: &str,
    ) -> Result<JobReport, String> {
        assert!(!completion_certified(dir, manifest), "{case}: certified");
        let damaged = snapshot(dir);
        let with_record = job_resume(dir, &small_options()).map_err(|e| e.to_string());
        let bytes_with_record = shard_bytes(manifest, dir);

        restore(dir, &damaged);
        let _ = std::fs::remove_file(dir.join(COMPLETION_FILE));
        let without = job_resume(dir, &small_options()).map_err(|e| e.to_string());
        assert_eq!(shard_bytes(manifest, dir), bytes_with_record, "{case}");
        match (&with_record, &without) {
            (Ok(a), Ok(b)) => assert_eq!(untimed(a), untimed(b), "{case}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "{case}"),
            (a, b) => panic!("{case}: {a:?} with the record, {b:?} without"),
        }
        without
    }

    #[test]
    fn completion_check_refuses_damage_and_the_scan_decides() {
        type Damage = fn(&Path, &JobManifest);
        let cases: [(&str, Damage); 7] = [
            ("record missing", |dir, _| {
                std::fs::remove_file(dir.join(COMPLETION_FILE)).unwrap();
            }),
            ("record torn", |dir, _| {
                let path = dir.join(COMPLETION_FILE);
                let text = std::fs::read_to_string(&path).unwrap();
                let (body, _) = text.split_once("crc32:").unwrap();
                std::fs::write(&path, format!("{body}crc32:00000000\n")).unwrap();
            }),
            ("record of another manifest", |dir, _| {
                let load = load_checksummed::<CompletionRecord>(dir, &COMPLETION, |_| Ok(()));
                let mut record = load.unwrap();
                record.manifest.seed += 1;
                store_checksummed(&record, dir, COMPLETION_FILE).unwrap();
            }),
            ("shard one byte shorter", |dir, manifest| {
                let path = &manifest.shard_files(dir)[1];
                set_shard_len(path, std::fs::metadata(path).unwrap().len() - 1);
            }),
            ("shard one byte longer", |dir, manifest| {
                let path = &manifest.shard_files(dir)[1];
                let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
                file.write_all(b"{").unwrap();
            }),
            ("one byte flipped in place", |dir, manifest| {
                let path = &manifest.shard_files(dir)[0];
                let mut bytes = std::fs::read(path).unwrap();
                let middle = bytes.len() / 2;
                bytes[middle] ^= 0x01;
                std::fs::write(path, bytes).unwrap();
            }),
            ("shard missing", |dir, manifest| {
                std::fs::remove_file(&manifest.shard_files(dir)[2]).unwrap();
            }),
        ];
        for format in [DbFormat::Jsonl, DbFormat::Colsh] {
            let manifest = small_job(format);
            let ext = format.extension();
            let dir = completed_job(&format!("cert-damage-{ext}"), &manifest);
            let reference = shard_bytes(&manifest, &dir);
            let pristine = snapshot(&dir);
            for (case, damage) in cases {
                restore(&dir, &pristine);
                assert!(completion_certified(&dir, &manifest), "{case}");
                damage(&dir, &manifest);
                let case = format!("{format:?}, {case}");
                let outcome = resume_as_without_a_record(&dir, &manifest, &case);
                if case.ends_with("flipped in place") {
                    // Whatever the scan makes of it — a loud error where
                    // it reads a checksum or a line it cannot parse,
                    // acceptance where it does not — was checked above.
                    continue;
                }
                // Every other damage is repaired byte for byte, and the
                // repairing run leaves a record the next resume takes
                // the fast path on.
                let report = outcome.unwrap_or_else(|e| panic!("{case}: {e}"));
                assert_eq!(report.state, JobState::Complete, "{case}");
                assert_eq!(shard_bytes(&manifest, &dir), reference, "{case}");
                assert!(completion_certified(&dir, &manifest), "{case}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn mid_file_damage_fails_loudly_with_or_without_a_record() {
        let manifest = small_job(DbFormat::Jsonl);
        let dir = completed_job("cert-loud", &manifest);
        // Break the second line of shard 0: mid-file damage, which the
        // scan reports by file and line rather than repairs.
        let path = &manifest.shard_files(&dir)[0];
        let mut bytes = std::fs::read(path).unwrap();
        let second = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[second] = b'#';
        std::fs::write(path, bytes).unwrap();
        let err = resume_as_without_a_record(&dir, &manifest, "mid-file").unwrap_err();
        assert!(err.contains("crawl-000.jsonl"), "{err}");
        assert!(err.contains("line 2"), "{err}");
        std::fs::remove_dir_all(&dir).ok();

        // Flip one payload byte of a `.colsh` SCRIPTS block: a column the
        // scan does not decode, but whose checksum it must check.
        let manifest = small_job(DbFormat::Colsh);
        let dir = completed_job("cert-loud-colsh", &manifest);
        let record = std::fs::read(dir.join(COMPLETION_FILE)).unwrap();
        let path = &manifest.shard_files(&dir)[0];
        let mut bytes = std::fs::read(path).unwrap();
        let payload = column_block_payload(&bytes, crate::colsh::C_SCRIPTS);
        bytes[payload.start + payload.len() / 2] ^= 0x01;
        std::fs::write(path, bytes).unwrap();
        let err = job_resume(&dir, &small_options()).unwrap_err().to_string();
        assert!(err.contains("crawl-000.colsh"), "{err}");
        assert!(err.contains("checksum"), "{err}");
        assert_eq!(std::fs::read(dir.join(COMPLETION_FILE)).unwrap(), record);
        let without = resume_as_without_a_record(&dir, &manifest, "colsh block").unwrap_err();
        assert_eq!(without, err);
        assert!(!dir.join(COMPLETION_FILE).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The payload range of the first non-empty block of column `column`
    /// in a `.colsh` file: past the 8-byte magic and 4-byte version,
    /// every block is framed `[id: u8][len: u32 LE][crc32: u32 LE]`.
    fn column_block_payload(bytes: &[u8], column: usize) -> std::ops::Range<usize> {
        let id = crate::colsh::BLOCK_COLUMN_BASE + column as u8;
        let mut at = 12;
        loop {
            let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
            let payload = at + 9..at + 9 + len;
            if bytes[at] == id && len > 0 {
                return payload;
            }
            at = payload.end;
        }
    }

    #[test]
    fn recordless_complete_job_scans_once_then_takes_the_fast_path() {
        for format in [DbFormat::Jsonl, DbFormat::Colsh] {
            let manifest = small_job(format);
            let dir = completed_job(&format!("cert-parent-{}", format.extension()), &manifest);
            let reference = shard_bytes(&manifest, &dir);
            // A job completed before completion records existed.
            std::fs::remove_file(dir.join(COMPLETION_FILE)).unwrap();
            assert!(!completion_certified(&dir, &manifest));
            let scanned = job_resume(&dir, &small_options()).unwrap();
            let scanned_status = untimed_status(&dir);
            assert_eq!(shard_bytes(&manifest, &dir), reference, "{format:?}");
            assert!(completion_certified(&dir, &manifest), "{format:?}");

            let fast = job_resume(&dir, &small_options()).unwrap();
            assert_eq!(untimed(&fast), untimed(&scanned), "{format:?}");
            assert_eq!(untimed_status(&dir), scanned_status, "{format:?}");
            assert_eq!(fast.state, JobState::Complete);
            assert_eq!((fast.written, fast.durable), (0, manifest.size));
            assert_eq!(shard_bytes(&manifest, &dir), reference, "{format:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn certified_resume_opens_no_shard_for_writing() {
        // An old, exact modification time survives only if nothing
        // writes or truncates the file.
        let old = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000_000);
        let mtimes = |manifest: &JobManifest, dir: &Path| -> Vec<std::time::SystemTime> {
            let files = manifest.shard_files(dir);
            let mtime = |path: &PathBuf| std::fs::metadata(path).unwrap().modified().unwrap();
            files.iter().map(mtime).collect()
        };
        for format in [DbFormat::Jsonl, DbFormat::Colsh] {
            let manifest = small_job(format);
            let dir = completed_job(&format!("cert-mtime-{}", format.extension()), &manifest);
            for path in manifest.shard_files(&dir) {
                std::fs::File::open(&path)
                    .unwrap()
                    .set_modified(old)
                    .unwrap();
            }
            job_resume(&dir, &small_options()).unwrap();
            assert_eq!(mtimes(&manifest, &dir), vec![old; 3], "{format:?}");
            if format == DbFormat::Colsh {
                // The scan rewrites each END marker: the probe sees it.
                std::fs::remove_file(dir.join(COMPLETION_FILE)).unwrap();
                job_resume(&dir, &small_options()).unwrap();
                assert!(mtimes(&manifest, &dir).iter().all(|&t| t != old));
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn recording_jobs_write_no_completion_record() {
        let mut manifest = small_job(DbFormat::Jsonl);
        manifest.record_bundle = true;
        let dir = completed_job("cert-recording", &manifest);
        assert!(!dir.join(COMPLETION_FILE).exists());
        let report = job_resume(&dir, &small_options()).unwrap();
        assert_eq!(report.state, JobState::Complete);
        assert!(!dir.join(COMPLETION_FILE).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
