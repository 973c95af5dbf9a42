//! The job engine's deterministic chaos harness.
//!
//! The crash-safety contract under test: a crawl job killed at *any*
//! point mid-write — tearing a JSONL line, a `.colsh` row group, even
//! the file headers or the job manifest — resumes to a dataset that is
//! byte-identical to an uninterrupted run. Kills are simulated with the
//! engine's deterministic chaos hooks (`abort_after_records` returns
//! without draining or flushing anything) followed by seeded random
//! truncation of every shard file: since shard files grow append-only,
//! every state a real SIGKILL can leave behind is some byte prefix of
//! the uninterrupted file, and random truncation explores exactly that
//! space.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crawler::{
    crawl_shards, job_resume, job_start, read_colsh, read_jsonl, read_status, AnyRecordStream,
    BundleMeta, BundleRecorder, BundleStat, ColshWriter, ColumnSet, CrawlSource, CrawlTelemetry,
    Crawler, DbFormat, JobError, JobManifest, JobOptions, JobReport, JobState, ReplayBundle,
    ShardFollower, ShardFrontier, SiteBundle, SiteOutcome, SiteRecord, StreamMode,
    BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE, BUNDLE_META_FILE,
};

const SEED: u64 = 7;
const SIZE: u64 = 163;
const SHARDS: usize = 3;
const COLSH_GROUP: usize = 16;

/// The panic hook is process-global; tests that silence it (injected
/// lease faults unwind through `catch_unwind` on purpose, and the
/// default hook would spam backtraces) must not interleave.
static PANIC_HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_quiet_panics<R>(body: impl FnOnce() -> R) -> R {
    let _guard = PANIC_HOOK_LOCK.lock().unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = body();
    std::panic::set_hook(hook);
    result
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("permodyssey-jobeng-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn manifest(format: DbFormat) -> JobManifest {
    let mut manifest = JobManifest::new(SEED, SIZE, SHARDS, format);
    // Exercise the per-visit retry/panic machinery inside the engine too.
    manifest.fault_panics_per_mille = 20;
    manifest.fault_transients_per_mille = 60;
    manifest
}

fn options() -> JobOptions {
    JobOptions {
        workers: 4,
        channel_capacity: 8,
        lease_records: 16,
        status_every: 10,
        colsh_group_records: Some(COLSH_GROUP),
        ..JobOptions::default()
    }
}

/// Reads every shard file's bytes, in shard order.
fn shard_bytes(manifest: &JobManifest, dir: &Path) -> Vec<Vec<u8>> {
    manifest
        .shard_files(dir)
        .iter()
        .map(|path| std::fs::read(path).unwrap())
        .collect()
}

/// An uninterrupted engine run's shard bytes, used as the reference the
/// chaos runs must reproduce exactly.
fn reference_bytes(manifest: &JobManifest, tag: &str) -> Vec<Vec<u8>> {
    let dir = temp_dir(tag);
    let report = with_quiet_panics(|| job_start(&dir, manifest, &options()).unwrap());
    assert_eq!(report.state, JobState::Complete);
    assert_eq!(report.written, SIZE);
    let bytes = shard_bytes(manifest, &dir);
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// CRC-32 (IEEE), the checksum in the job manifest's trailer.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &byte| {
        (0..8).fold(crc ^ u32::from(byte), |c, _| {
            (c >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(c & 1))
        })
    })
}

/// Tiny deterministic generator for truncation offsets.
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 17
}

/// Truncates each shard file to a seeded random prefix — the header
/// region included, so some iterations tear the `.colsh` magic itself.
fn truncate_shards(manifest: &JobManifest, dir: &Path, rng: &mut u64) {
    for path in manifest.shard_files(dir) {
        let len = std::fs::metadata(&path).unwrap().len();
        let cut = next_rand(rng) % (len + 1);
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
    }
}

/// An order-sensitive chained hash over a record stream; the live
/// follower and the post-hoc verifier must fold the same records in the
/// same order to land on the same value.
fn fold_digest(digest: u64, record: &SiteRecord) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    digest.hash(&mut hasher);
    serde_json::to_string(record).unwrap().hash(&mut hasher);
    hasher.finish()
}

/// One observation from the live-follower thread: each shard's frontier
/// and the digest of everything folded up to it.
#[derive(Clone, PartialEq, Eq)]
struct FrontierObservation {
    shards: Vec<(ShardFrontier, u64)>,
}

/// A background thread polling every shard of a job with persistent
/// [`ShardFollower`]s while the harness kills, shreds and resumes the
/// job around it. No monotonicity is asserted: the harness's random
/// truncation legitimately cuts files below an already-observed
/// frontier, and the follower simply holds position until the resume
/// regrows the bytes (byte-identically, per the live-follow contract).
struct LiveFollower {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<Vec<FrontierObservation>>>,
}

impl LiveFollower {
    fn spawn(manifest: &JobManifest, dir: &Path) -> LiveFollower {
        let stop = Arc::new(AtomicBool::new(false));
        let paths = manifest.shard_files(dir);
        let format = manifest.format;
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut followers: Vec<(ShardFollower, u64)> = paths
                .iter()
                .map(|p| (ShardFollower::new(p, format, ColumnSet::ALL), 0u64))
                .collect();
            let mut observations: Vec<FrontierObservation> = Vec::new();
            loop {
                // Read the flag *before* polling so the final poll runs
                // after the job finished and covers the whole dataset.
                let done = stop_flag.load(Ordering::SeqCst);
                let mut shards = Vec::with_capacity(followers.len());
                for (follower, digest) in &mut followers {
                    let frontier = follower.poll(|r| *digest = fold_digest(*digest, r))?;
                    shards.push((frontier, *digest));
                }
                let obs = FrontierObservation { shards };
                if observations.last() != Some(&obs) {
                    observations.push(obs);
                }
                if done {
                    return Ok(observations);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        LiveFollower { stop, handle }
    }

    fn finish(self) -> Vec<FrontierObservation> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("follower thread")
            .expect("live following a chaos job never errors")
    }
}

/// Post-hoc check of every live observation: truncate byte copies of
/// the *final* shards to each recorded frontier and fold from scratch —
/// the record counts and digests must match what the live follower saw
/// mid-chaos.
fn verify_observations(reference: &[Vec<u8>], observations: &[FrontierObservation], tag: &str) {
    let scratch = temp_dir(&format!("{tag}-posthoc"));
    for (i, obs) in observations.iter().enumerate() {
        assert_eq!(obs.shards.len(), reference.len());
        for (s, ((frontier, digest), full)) in obs.shards.iter().zip(reference).enumerate() {
            assert!(
                frontier.bytes as usize <= full.len(),
                "observation {i} shard {s}: frontier beyond the uninterrupted bytes"
            );
            let path = scratch.join(format!("obs{i}-s{s}"));
            std::fs::write(&path, &full[..frontier.bytes as usize]).unwrap();
            let mut post = 0u64;
            let mut count = 0u64;
            if frontier.bytes > 0 {
                for record in AnyRecordStream::open(&path, StreamMode::Resume).unwrap() {
                    post = fold_digest(post, &record.unwrap());
                    count += 1;
                }
            }
            assert_eq!(
                count, frontier.records,
                "observation {i} shard {s}: record count diverges at the frontier"
            );
            assert_eq!(
                post, *digest,
                "observation {i} shard {s}: post-hoc fold diverges from the live fold"
            );
            std::fs::remove_file(&path).ok();
        }
    }
    std::fs::remove_dir_all(&scratch).ok();
}

/// The core kill-at-random-offset loop shared by both formats: abort
/// the engine mid-write at various points, shred the shard tails, and
/// require resume (possibly through a second kill) to land on the
/// reference bytes — all while a live follower thread reads the shards
/// and records frontiers that must verify post hoc.
fn kill_and_resume_round_trip(format: DbFormat, tag: &str) {
    let manifest = manifest(format);
    let reference = reference_bytes(&manifest, &format!("{tag}-ref"));
    let mut rng = 0x00dd_5eed ^ SEED;
    for (round, abort_at) in [1u64, 7, 23, 61, 97, 140].into_iter().enumerate() {
        let dir = temp_dir(&format!("{tag}-kill{round}"));
        let follower = LiveFollower::spawn(&manifest, &dir);
        let mut opts = options();
        opts.abort_after_records = Some(abort_at);
        let err = with_quiet_panics(|| job_start(&dir, &manifest, &opts).unwrap_err());
        assert!(
            matches!(err, JobError::Aborted { written } if written == abort_at),
            "{err}"
        );
        truncate_shards(&manifest, &dir, &mut rng);

        // Odd rounds resume with other run-time knobs, which must not
        // change the bytes, and die a second time mid-resume before
        // recovering.
        let mut resume_opts = options();
        if round % 2 == 1 {
            resume_opts = JobOptions {
                workers: 2,
                lease_records: 5,
                channel_capacity: 3,
                ..options()
            };
            let mut again = resume_opts.clone();
            again.abort_after_records = Some(11);
            let err = with_quiet_panics(|| job_resume(&dir, &again).unwrap_err());
            assert!(matches!(err, JobError::Aborted { written: 11 }), "{err}");
            truncate_shards(&manifest, &dir, &mut rng);
        }

        let report = with_quiet_panics(|| job_resume(&dir, &resume_opts).unwrap());
        assert_eq!(report.state, JobState::Complete);
        assert_eq!(report.durable, SIZE);
        assert_eq!(
            shard_bytes(&manifest, &dir),
            reference,
            "round {round}: resumed shards diverge from the uninterrupted run"
        );
        let observations = follower.finish();
        let last = observations.last().expect("at least one observation");
        assert_eq!(
            last.shards.iter().map(|(f, _)| f.records).sum::<u64>(),
            SIZE,
            "round {round}: the final observation covers the whole job"
        );
        verify_observations(&reference, &observations, &format!("{tag}-kill{round}"));
        // Resuming a complete job is a no-op that leaves the bytes alone.
        let report = job_resume(&dir, &options()).unwrap();
        assert_eq!(report.state, JobState::Complete);
        assert_eq!(report.written, 0);
        assert_eq!(shard_bytes(&manifest, &dir), reference);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Records `manifest`'s crawl into a bundle store with a recording job
/// in `dir`, and loads the store.
fn recorded_store(manifest: &JobManifest, dir: &Path) -> ReplayBundle {
    let mut recording = manifest.clone();
    recording.record_bundle = true;
    let report = with_quiet_panics(|| job_start(dir, &recording, &options()).unwrap());
    assert_eq!(report.state, JobState::Complete);
    ReplayBundle::load(&JobManifest::bundle_dir(dir)).unwrap()
}

#[test]
fn uninterrupted_job_matches_hand_striped_crawl() {
    // The engine's output must equal a single-threaded rank-order crawl
    // striped by hand — workers, leases, reordering and the records
    // handed back to their workers are invisible, at any worker count,
    // whether the pool runs a job or replays the job's recording.
    let recording = temp_dir("handref-recording");
    let bundle = recorded_store(&manifest(DbFormat::Jsonl), &recording);
    for format in [DbFormat::Jsonl, DbFormat::Colsh] {
        let manifest = manifest(format);
        let dir = temp_dir(&format!("handref-{format:?}"));
        let population = manifest.population();
        let crawler = Crawler::new(manifest.crawl_config(1));
        let paths = manifest.shard_files(&dir);
        match format {
            DbFormat::Jsonl => {
                let mut outs: Vec<String> = vec![String::new(); SHARDS];
                for rank in 1..=SIZE {
                    let record = with_quiet_panics(|| crawler.visit_one(&population, rank));
                    let shard = (rank - 1) as usize % SHARDS;
                    serde_json::to_string_into(&record, &mut outs[shard]);
                    outs[shard].push('\n');
                }
                for (path, text) in paths.iter().zip(&outs) {
                    std::fs::write(path, text).unwrap();
                }
            }
            DbFormat::Colsh => {
                let mut writers: Vec<ColshWriter> = paths
                    .iter()
                    .map(|p| ColshWriter::create_grouped(p, COLSH_GROUP).unwrap())
                    .collect();
                for rank in 1..=SIZE {
                    let record = with_quiet_panics(|| crawler.visit_one(&population, rank));
                    writers[(rank - 1) as usize % SHARDS].push(&record).unwrap();
                }
                for writer in writers {
                    writer.finish().unwrap();
                }
            }
        }
        let hand = shard_bytes(&manifest, &dir);
        std::fs::remove_dir_all(&dir).ok();
        type Leg<'a> = &'a dyn Fn(&Path, &JobOptions) -> Result<JobReport, JobError>;
        let legs: [(&str, Leg); 2] = [
            ("job", &|dir, opts| job_start(dir, &manifest, opts)),
            ("replay", &|dir, opts| {
                let paths = manifest.shard_files(dir);
                crawl_shards(CrawlSource::Replay(&bundle), &paths, format, opts)
            }),
        ];
        for (leg, run) in legs {
            for workers in [1, 2, 4, 8] {
                let dir = temp_dir(&format!("engine-{leg}-{format:?}-{workers}"));
                let opts = JobOptions {
                    workers,
                    ..options()
                };
                let report = with_quiet_panics(|| run(&dir, &opts).unwrap());
                assert_eq!(report.state, JobState::Complete);
                assert_eq!(
                    shard_bytes(&manifest, &dir),
                    hand,
                    "{leg}, {format:?} at {workers} workers: \
                     pool output diverges from a hand-striped crawl"
                );
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
    std::fs::remove_dir_all(&recording).ok();
}

/// Copies the store at `from` to `to` with one byte of rank 1's first
/// recorded URL changed: a store that passes every store rule, but whose
/// tape no longer matches the visit it claims to record.
fn misrecord_first_url(from: &Path, to: &Path) {
    let bundle = ReplayBundle::load(from).unwrap();
    let recorder = BundleRecorder::create(to, bundle.meta()).unwrap();
    for rank in 1..=bundle.sites() {
        let manifest = bundle.manifest(rank).unwrap();
        let tapes = 0..manifest.attempts.len();
        let mut attempts: Vec<_> = tapes.map(|a| bundle.tape(rank, a).unwrap()).collect();
        if rank == 1 {
            let url = &mut attempts[0].exchanges[0].url;
            let mut bytes = std::mem::take(url).into_bytes();
            *bytes.last_mut().unwrap() ^= 0x01;
            *url = String::from_utf8(bytes).unwrap();
        }
        let origin = manifest.origin.clone();
        let synthesized = manifest.synthesized;
        recorder
            .submit(SiteBundle {
                rank,
                origin,
                synthesized,
                attempts,
            })
            .unwrap();
    }
    recorder.finish().unwrap();
}

/// A replay reproduces its recording or fails. A store whose metadata
/// grants more retries than the recording had needs an attempt the store
/// lacks, one that grants fewer leaves a recorded attempt unused, and a
/// tape recorded for another URL strays inside the first attempt: each
/// time the pool stops with an error naming the rank, instead of
/// retrying the lease, quarantining the rank or recording a crash.
#[test]
fn replay_divergence_fails_naming_the_rank() {
    let manifest = JobManifest::new(SEED, SIZE, SHARDS, DbFormat::Jsonl);
    let dir = temp_dir("diverge");
    recorded_store(&manifest, &dir);
    let store = JobManifest::bundle_dir(&dir);
    let misrecorded = dir.join("misrecorded");
    misrecord_first_url(&store, &misrecorded);
    let recorded = BundleMeta::load(&store).unwrap();
    // (case, store, max_retries written into its metadata)
    let cases = [
        ("more-retries", &store, Some(recorded.max_retries + 3)),
        ("fewer-retries", &store, Some(recorded.max_retries - 1)),
        ("misrecorded-url", &misrecorded, None),
    ];
    for (name, store, max_retries) in cases {
        if let Some(max_retries) = max_retries {
            BundleMeta {
                max_retries,
                ..recorded.clone()
            }
            .store(store)
            .unwrap();
        }
        let bundle = ReplayBundle::load(store).unwrap();
        let out = temp_dir(&format!("diverge-{name}"));
        let paths = manifest.shard_files(&out);
        let err = crawl_shards(
            CrawlSource::Replay(&bundle),
            &paths,
            manifest.format,
            &options(),
        )
        .unwrap_err();
        let JobError::Diverged { rank, .. } = err else {
            panic!("{name}: {err}");
        };
        assert!(err.to_string().contains(&format!("rank {rank}")), "{err}");
        if max_retries.is_none() {
            assert_eq!(rank, 1, "{name}: {err}");
        }
        // The writer stops at the divergent rank: it wrote a prefix of
        // the ranks below it, and no record of its own.
        for path in &paths {
            for record in read_jsonl(path).unwrap().records {
                assert!(record.rank < rank, "{name}: {record:?}");
                assert!(record.attempts > 0, "quarantined: {record:?}");
            }
        }
        std::fs::remove_dir_all(&out).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_and_resume_is_byte_identical_jsonl() {
    kill_and_resume_round_trip(DbFormat::Jsonl, "jsonl");
}

#[test]
fn kill_and_resume_is_byte_identical_colsh() {
    kill_and_resume_round_trip(DbFormat::Colsh, "colsh");
}

#[test]
fn torn_manifest_is_loud_then_recoverable() {
    let manifest = manifest(DbFormat::Colsh);
    let reference = reference_bytes(&manifest, "tornman-ref");
    let dir = temp_dir("tornman");
    let mut opts = options();
    opts.abort_after_records = Some(40);
    let err = with_quiet_panics(|| job_start(&dir, &manifest, &opts).unwrap_err());
    assert!(matches!(err, JobError::Aborted { .. }), "{err}");

    // The kill also tore the manifest header: resume must fail loudly,
    // naming the file, without touching the shard data.
    let manifest_path = JobManifest::path(&dir);
    let intact = std::fs::read(&manifest_path).unwrap();
    std::fs::write(&manifest_path, &intact[..9]).unwrap();
    let before = shard_bytes(&manifest, &dir);
    let err = job_resume(&dir, &options()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("job.json") && msg.contains("torn or corrupt"),
        "{msg}"
    );
    assert_eq!(shard_bytes(&manifest, &dir), before);

    // Rewriting the manifest from the original parameters recovers the
    // job; the resumed dataset still matches the uninterrupted run. The
    // rewrite is what a job started with the retired `--js-engine interp`
    // wrote: the manifest loads, and the unknown field changes nothing.
    let body = serde_json::to_string(&manifest).unwrap().replace(
        r#","record_bundle":"#,
        r#","js_engine":"Interp","record_bundle":"#,
    );
    assert!(body.contains(r#""js_engine":"Interp""#), "{body}");
    let text = format!("{body}\n");
    std::fs::write(
        &manifest_path,
        format!("{text}crc32:{:08x}\n", crc32(text.as_bytes())),
    )
    .unwrap();
    assert_eq!(JobManifest::load(&dir).unwrap(), manifest);
    let report = with_quiet_panics(|| job_resume(&dir, &options()).unwrap());
    assert_eq!(report.state, JobState::Complete);
    assert_eq!(shard_bytes(&manifest, &dir), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lease_retries_leave_no_trace_in_the_dataset() {
    let manifest = manifest(DbFormat::Jsonl);
    let reference = reference_bytes(&manifest, "leasechaos-ref");
    let dir = temp_dir("leasechaos");
    let mut opts = options();
    opts.lease_fault_per_mille = 200;
    opts.max_lease_failures = 30;
    let report = with_quiet_panics(|| job_start(&dir, &manifest, &opts).unwrap());
    assert_eq!(report.state, JobState::Complete);
    assert!(report.leases_retried > 0, "chaos rate should force retries");
    assert_eq!(report.leases_quarantined, 0);
    assert!(report.lease_backoff_ms > 0);
    assert_eq!(shard_bytes(&manifest, &dir), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poison_leases_quarantine_without_losing_ranks() {
    let manifest = manifest(DbFormat::Jsonl);
    let dir = temp_dir("poison");
    let mut opts = options();
    // Every (rank, attempt) pair faults: no lease can ever make progress.
    opts.lease_fault_per_mille = 1000;
    opts.max_lease_failures = 2;
    let report = with_quiet_panics(|| job_start(&dir, &manifest, &opts).unwrap());
    assert_eq!(report.state, JobState::Complete);
    assert!(report.leases_quarantined > 0);
    let mut ranks = Vec::new();
    for path in manifest.shard_files(&dir) {
        for record in read_jsonl(&path).unwrap().records {
            assert_eq!(
                record.outcome,
                SiteOutcome::CrawlerError,
                "rank {}",
                record.rank
            );
            assert_eq!(record.attempts, 0);
            ranks.push(record.rank);
        }
    }
    ranks.sort_unstable();
    assert_eq!(ranks, (1..=SIZE).collect::<Vec<_>>(), "a rank went missing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_stop_checkpoints_cleanly_and_resumes_byte_identical() {
    for format in [DbFormat::Jsonl, DbFormat::Colsh] {
        let manifest = manifest(format);
        let reference = reference_bytes(&manifest, &format!("stop-{format:?}-ref"));
        let dir = temp_dir(&format!("stop-{format:?}"));
        let mut opts = options();
        opts.stop_after_records = Some(70);
        let report = with_quiet_panics(|| job_start(&dir, &manifest, &opts).unwrap());
        assert_eq!(report.state, JobState::Stopped);
        assert!(report.durable < SIZE);
        let status = read_status(&dir).unwrap();
        assert_eq!(status.state, "stopped");

        // Checkpointed shards are strictly readable — no torn tails.
        for path in manifest.shard_files(&dir) {
            match format {
                DbFormat::Jsonl => {
                    read_jsonl(&path).unwrap();
                }
                DbFormat::Colsh => {
                    read_colsh(&path).unwrap();
                }
            }
        }

        let report = with_quiet_panics(|| job_resume(&dir, &options()).unwrap());
        assert_eq!(report.state, JobState::Complete);
        assert_eq!(
            shard_bytes(&manifest, &dir),
            reference,
            "{format:?}: stop/resume diverges from the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn stop_file_halts_between_leases_and_clears_for_resume() {
    let manifest = manifest(DbFormat::Jsonl);
    let reference = reference_bytes(&manifest, "stopfile-ref");
    let dir = temp_dir("stopfile");
    let stop_file = dir.join("STOP");
    std::fs::write(&stop_file, b"drain\n").unwrap();
    let mut opts = options();
    opts.stop_file = Some(stop_file.clone());
    let report = job_start(&dir, &manifest, &opts).unwrap();
    assert_eq!(report.state, JobState::Stopped);
    assert_eq!(report.written, 0, "stop file was present before any lease");
    assert_eq!(read_status(&dir).unwrap().state, "stopped");

    std::fs::remove_file(&stop_file).unwrap();
    let report = with_quiet_panics(|| job_resume(&dir, &opts).unwrap());
    assert_eq!(report.state, JobState::Complete);
    assert_eq!(shard_bytes(&manifest, &dir), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// Reads the three bundle-store files' bytes (meta, blobs, manifests).
fn bundle_bytes(dir: &Path) -> Vec<Vec<u8>> {
    let bundle = JobManifest::bundle_dir(dir);
    [BUNDLE_META_FILE, BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE]
        .iter()
        .map(|file| std::fs::read(bundle.join(file)).unwrap())
        .collect()
}

/// Truncates both bundle pack files to seeded random prefixes — the
/// same SIGKILL model as [`truncate_shards`]: the packs grow
/// append-only, so every real crash state is some byte prefix,
/// including a torn magic.
fn truncate_bundle(dir: &Path, rng: &mut u64) {
    let bundle = JobManifest::bundle_dir(dir);
    for name in [BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE] {
        let path = bundle.join(name);
        let len = std::fs::metadata(&path).unwrap().len();
        let cut = next_rand(rng) % (len + 1);
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
    }
}

/// Every dataset record of a job, in rank order.
fn dataset_records(manifest: &JobManifest, dir: &Path) -> Vec<String> {
    let mut records = Vec::new();
    for path in manifest.shard_files(dir) {
        for record in AnyRecordStream::open(&path, StreamMode::Strict).unwrap() {
            records.push(record.unwrap());
        }
    }
    records.sort_by_key(|r| r.rank);
    records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect()
}

/// Replays a job's bundle store without the generator, returning the
/// records serialized in rank order.
fn replay_records(dir: &Path) -> Vec<String> {
    let bundle = ReplayBundle::load(&JobManifest::bundle_dir(dir)).unwrap();
    let crawler = Crawler::new(bundle.meta().replay_config(1));
    let telemetry = CrawlTelemetry::new(1);
    let mut replayed = Vec::new();
    crawler.replay_streaming_observed(
        &bundle,
        &std::collections::BTreeSet::new(),
        &telemetry,
        |record| replayed.push(serde_json::to_string(&record).unwrap()),
    );
    replayed
}

/// The recording extension of the kill-and-resume contract: a job with
/// `record_bundle` killed at any point — shards *and* bundle packs
/// shredded to random prefixes — resumes to a bundle store
/// byte-identical to an uninterrupted recording (so no blob is orphaned
/// or duplicated: the reference commits in strict rank order and dedups
/// on first reference), and replaying that store reproduces the dataset
/// record for record with the generator never consulted.
#[test]
fn recording_job_kill_and_resume_reproduces_the_bundle_store() {
    let mut manifest = manifest(DbFormat::Jsonl);
    manifest.record_bundle = true;

    let ref_dir = temp_dir("recjob-ref");
    let report = with_quiet_panics(|| job_start(&ref_dir, &manifest, &options()).unwrap());
    assert_eq!(report.state, JobState::Complete);
    let ref_shards = shard_bytes(&manifest, &ref_dir);
    let ref_bundle = bundle_bytes(&ref_dir);
    let ref_records = dataset_records(&manifest, &ref_dir);
    let stat = BundleStat::scan(&JobManifest::bundle_dir(&ref_dir), StreamMode::Strict).unwrap();
    assert_eq!(stat.sites, SIZE);
    std::fs::remove_dir_all(&ref_dir).ok();

    let mut rng = 0xb0d1_5eed ^ SEED;
    for (round, abort_at) in [3u64, 29, 83, 151].into_iter().enumerate() {
        let dir = temp_dir(&format!("recjob-kill{round}"));
        let mut opts = options();
        opts.abort_after_records = Some(abort_at);
        let err = with_quiet_panics(|| job_start(&dir, &manifest, &opts).unwrap_err());
        assert!(
            matches!(err, JobError::Aborted { written } if written == abort_at),
            "{err}"
        );
        truncate_shards(&manifest, &dir, &mut rng);
        truncate_bundle(&dir, &mut rng);

        // Odd rounds die a second time mid-resume before recovering.
        if round % 2 == 1 {
            let mut again = options();
            again.abort_after_records = Some(17);
            let err = with_quiet_panics(|| job_resume(&dir, &again).unwrap_err());
            assert!(matches!(err, JobError::Aborted { written: 17 }), "{err}");
            truncate_shards(&manifest, &dir, &mut rng);
            truncate_bundle(&dir, &mut rng);
        }

        let report = with_quiet_panics(|| job_resume(&dir, &options()).unwrap());
        assert_eq!(report.state, JobState::Complete);
        assert_eq!(
            shard_bytes(&manifest, &dir),
            ref_shards,
            "round {round}: resumed shards diverge from the uninterrupted run"
        );
        assert_eq!(
            bundle_bytes(&dir),
            ref_bundle,
            "round {round}: resumed bundle store diverges from the uninterrupted store"
        );
        let replayed = with_quiet_panics(|| replay_records(&dir));
        assert_eq!(
            replayed, ref_records,
            "round {round}: replaying the resumed store diverges from the dataset"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A recording job stopped gracefully leaves a strictly scannable
/// bundle store (the checkpoint flushes whole frames only) and resumes
/// to the uninterrupted store byte for byte.
#[test]
fn recording_job_graceful_stop_resumes_to_the_reference_store() {
    let mut manifest = manifest(DbFormat::Colsh);
    manifest.record_bundle = true;

    let ref_dir = temp_dir("recstop-ref");
    let report = with_quiet_panics(|| job_start(&ref_dir, &manifest, &options()).unwrap());
    assert_eq!(report.state, JobState::Complete);
    let ref_shards = shard_bytes(&manifest, &ref_dir);
    let ref_bundle = bundle_bytes(&ref_dir);
    std::fs::remove_dir_all(&ref_dir).ok();

    let dir = temp_dir("recstop");
    let mut opts = options();
    opts.stop_after_records = Some(70);
    let report = with_quiet_panics(|| job_start(&dir, &manifest, &opts).unwrap());
    assert_eq!(report.state, JobState::Stopped);
    let stat = BundleStat::scan(&JobManifest::bundle_dir(&dir), StreamMode::Strict).unwrap();
    assert!(stat.sites < SIZE, "a stopped job checkpointed a prefix");

    let report = with_quiet_panics(|| job_resume(&dir, &options()).unwrap());
    assert_eq!(report.state, JobState::Complete);
    assert_eq!(shard_bytes(&manifest, &dir), ref_shards);
    assert_eq!(
        bundle_bytes(&dir),
        ref_bundle,
        "stop/resume diverges from the uninterrupted store"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Poison leases quarantine their ranks as synthesized bundles: the
/// store captures that the rank was never visited, and replay
/// reproduces the exact `CrawlerError` records the job wrote.
#[test]
fn quarantined_ranks_record_synthesized_bundles_that_replay() {
    let mut manifest = manifest(DbFormat::Jsonl);
    manifest.record_bundle = true;
    let dir = temp_dir("recjob-poison");
    let mut opts = options();
    // Every (rank, attempt) pair faults: no lease ever makes progress.
    opts.lease_fault_per_mille = 1000;
    opts.max_lease_failures = 2;
    let report = with_quiet_panics(|| job_start(&dir, &manifest, &opts).unwrap());
    assert_eq!(report.state, JobState::Complete);
    assert!(report.leases_quarantined > 0);
    let stat = BundleStat::scan(&JobManifest::bundle_dir(&dir), StreamMode::Strict).unwrap();
    assert_eq!(stat.sites, SIZE);
    assert_eq!(stat.synthesized, SIZE, "every rank was quarantined");
    assert_eq!(
        replay_records(&dir),
        dataset_records(&manifest, &dir),
        "replaying synthesized bundles diverges from the quarantine records"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The reorder map never holds more than `workers × lease_records +
/// channel_capacity` records, however unevenly the workers progress:
/// with one-rank leases and many workers, any visit slower than its
/// neighbours would otherwise let the others run arbitrarily far ahead.
#[test]
fn reorder_buffer_stays_within_its_window() {
    let manifest = JobManifest::new(SEED, 1_500, SHARDS, DbFormat::Jsonl);
    let dir = temp_dir("window");
    let opts = JobOptions {
        workers: 8,
        channel_capacity: 1,
        lease_records: 1,
        ..JobOptions::default()
    };
    let report = with_quiet_panics(|| job_start(&dir, &manifest, &opts).unwrap());
    assert_eq!(report.state, JobState::Complete);
    let window = opts.workers as u64 * opts.lease_records + opts.channel_capacity as u64;
    assert!(
        report.peak_writer_pending <= window,
        "reorder map peaked at {} records, window {window}",
        report.peak_writer_pending
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A crawl smaller than `workers × lease_records` still spreads over the
/// workers: no lease is longer than an even share of the ranks to visit.
#[test]
fn a_small_crawl_reaches_more_than_one_worker() {
    let manifest = JobManifest::new(11, 250, 1, DbFormat::Jsonl);
    let dir = temp_dir("small-crawl");
    let paths = manifest.shard_files(&dir);
    let opts = JobOptions::default();
    assert_eq!(opts.workers, 8);
    let source = CrawlSource::Live(&manifest, None);
    let report = crawl_shards(source, &paths, manifest.format, &opts).unwrap();
    let visits = &report.snapshot.worker_visits;
    assert!(visits.iter().filter(|&&v| v > 0).count() > 1, "{visits:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_surface_tracks_a_completed_run() {
    let manifest = manifest(DbFormat::Jsonl);
    let dir = temp_dir("statusfinal");
    let report = with_quiet_panics(|| job_start(&dir, &manifest, &options()).unwrap());
    assert_eq!(report.state, JobState::Complete);
    let status = read_status(&dir).unwrap();
    assert_eq!(status.state, "complete");
    assert_eq!(status.size, SIZE);
    assert_eq!(status.written, SIZE);
    assert_eq!(status.remaining, 0);
    assert_eq!(status.writer_pending, 0);
    assert_eq!(status.worker_visits.len(), options().workers);
    assert_eq!(status.outcomes.iter().sum::<u64>(), SIZE);
    assert!(status.rate_per_sec > 0.0);
    assert!(status.writer_peak_pending >= 1);
    std::fs::remove_dir_all(&dir).ok();
}
