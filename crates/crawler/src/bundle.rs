//! Content-addressed record/replay crawl bundles — the storage-scale
//! counterpart of `netsim`'s visit tapes.
//!
//! A recording crawl captures every network exchange of every visit
//! attempt (request URL, response headers, body, redirect chain,
//! fetch errors, injected panics, simulated-clock timing) into a
//! per-site **bundle** inside one store directory:
//!
//! ```text
//! bundle.json     store metadata: the crawl parameters a replay needs
//!                 (seed, size, retries, fault rates, JS engine, …),
//!                 JSON + `crc32:` trailer like `job.json`
//! blobs.bin       magic b"PBNDLB1\n", then content-addressed blobs:
//!                 [len: u32 LE][crc32: u32 LE][digest: 16][bytes]
//! manifests.bin   magic b"PBNDLM1\n", then one binary site manifest
//!                 per rank, in rank order:
//!                 [len: u32 LE][crc32: u32 LE][payload]
//! ```
//!
//! Bodies and header templates are hashed (128-bit FNV-1a) and stored
//! once; manifests reference them by digest, so the dramatic sharing in
//! the synthetic population (tracker scripts, header templates, shared
//! page archetypes) collapses into a store far smaller than the dataset
//! it reproduces. Both binary files are CRC-framed and torn-tail
//! recoverable exactly like `.colsh`: a killed recording resumes by
//! truncating each file at its last valid record boundary, and the
//! deterministic commit order (manifests strictly in rank order, blobs
//! in first-reference order) makes the resumed store byte-identical to
//! an uninterrupted one.
//!
//! [`ReplayBundle`] loads a store and serves every visit byte-for-byte
//! through [`netsim::ReplayNetwork`] — original timing, faults and
//! crashes included — so a replayed crawl reproduces the recorded
//! dataset exactly, with the page generator never invoked.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use bytes::Bytes;
use netsim::{Exchange, ExchangeOutcome, FetchError, PostFetchProbe, VisitTape};
use serde::{Deserialize, Serialize};

use crate::colsh::crc32;
use crate::db::{SkipReport, StreamMode};
use crate::run::CrawlConfig;

/// Store metadata file (JSON + checksum trailer).
pub const BUNDLE_META_FILE: &str = "bundle.json";
/// Content-addressed blob pack.
pub const BUNDLE_BLOBS_FILE: &str = "blobs.bin";
/// Per-site manifest pack.
pub const BUNDLE_MANIFESTS_FILE: &str = "manifests.bin";
/// First eight bytes of `blobs.bin`.
pub const BLOB_MAGIC: [u8; 8] = *b"PBNDLB1\n";
/// First eight bytes of `manifests.bin`.
pub const MANIFEST_MAGIC: [u8; 8] = *b"PBNDLM1\n";
/// Bundle format version recorded in [`BundleMeta`].
pub const BUNDLE_VERSION: u32 = 1;

/// Whether `dir` looks like (or contains) a bundle store: any of the
/// three store files present.
pub fn is_bundle_store(dir: &Path) -> bool {
    [BUNDLE_META_FILE, BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE]
        .iter()
        .any(|f| dir.join(f).exists())
}

/// 128-bit FNV-1a over `bytes`. Not cryptographic — the store hashes
/// its own deterministic simulator output, never adversarial content —
/// but 128 bits make accidental collisions across a 1M-site population
/// a non-event.
pub fn digest128(bytes: &[u8]) -> [u8; 16] {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(PRIME);
    }
    hash.to_le_bytes()
}

fn invalid<T>(message: String) -> std::io::Result<T> {
    Err(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        message,
    ))
}

// --- store metadata -------------------------------------------------------

/// Everything a replay needs to reconstruct the recording crawl's
/// configuration, written at store creation so `crawl --replay DIR`
/// takes no other parameters (and cannot be mis-parameterized).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BundleMeta {
    /// Bundle format version.
    pub version: u32,
    /// Population seed of the recorded crawl.
    pub seed: u64,
    /// Number of ranked origins recorded.
    pub size: u64,
    /// Whether the population ran in adversarial mode.
    pub adversarial: bool,
    /// Retry budget of the recording crawl.
    pub max_retries: u32,
    /// Retry backoff base of the recording crawl.
    pub retry_backoff_ms: u64,
    /// Injected panic rate (provenance only; faults replay from tape).
    pub fault_panics_per_mille: u32,
    /// Injected transient-failure rate (provenance only).
    pub fault_transients_per_mille: u32,
    /// Per-visit response-cache capacity.
    pub cache_capacity: usize,
    /// Interaction-mode link budget.
    pub navigate_links: usize,
    /// Script engine of the recording crawl: always written as `Vm`.
    /// Stores recorded with the retired tree-walker say `Interp`; they
    /// load and replay the same, since both engines produced identical
    /// records.
    pub js_engine: browser::ExecEngine,
}

impl BundleMeta {
    /// Metadata describing a crawl under `config` over (`seed`, `size`,
    /// `adversarial`).
    pub fn for_crawl(config: &CrawlConfig, seed: u64, size: u64, adversarial: bool) -> BundleMeta {
        BundleMeta {
            version: BUNDLE_VERSION,
            seed,
            size,
            adversarial,
            max_retries: config.max_retries,
            retry_backoff_ms: config.retry_backoff_ms,
            fault_panics_per_mille: config.faults.panic_per_mille,
            fault_transients_per_mille: config.faults.transient_per_mille,
            cache_capacity: config.cache_capacity,
            navigate_links: config.navigate_links,
            js_engine: browser::ExecEngine::Vm,
        }
    }

    /// The crawl configuration a faithful replay must run under.
    /// Faults stay disabled: recorded faults replay from the tapes.
    pub fn replay_config(&self, workers: usize) -> CrawlConfig {
        CrawlConfig {
            workers,
            browser: browser::BrowserConfig::default(),
            navigate_links: self.navigate_links,
            cache_capacity: self.cache_capacity,
            max_retries: self.max_retries,
            retry_backoff_ms: self.retry_backoff_ms,
            faults: netsim::FaultSpec::disabled(),
        }
    }

    /// Atomically writes the metadata into `dir` (temp file + rename),
    /// with the same checksum-trailer idiom as `job.json`.
    pub fn store(&self, dir: &Path) -> std::io::Result<()> {
        crate::jobs::store_checksummed(self, dir, BUNDLE_META_FILE)
    }

    /// Loads and verifies the metadata from `dir`; a torn or corrupt
    /// file is a loud error naming the path.
    pub fn load(dir: &Path) -> std::io::Result<BundleMeta> {
        let path = dir.join(BUNDLE_META_FILE);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!(
                    "no readable bundle metadata at {}: {e}; `crawl --record` creates one",
                    path.display()
                ),
            )
        })?;
        let torn = |detail: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "bundle metadata {} is torn or corrupt ({detail}); \
                     re-record the bundle to regenerate it",
                    path.display()
                ),
            )
        };
        let meta: BundleMeta =
            crate::jobs::parse_checksummed(&text).map_err(|detail| torn(&detail))?;
        if meta.version != BUNDLE_VERSION {
            return Err(torn(&format!(
                "unsupported bundle version {}",
                meta.version
            )));
        }
        Ok(meta)
    }
}

// --- site manifests (binary codec) ----------------------------------------

/// One recorded exchange, with body and headers replaced by blob
/// references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeRef {
    /// The requested URL.
    pub url: String,
    /// Simulated milliseconds the fetch advanced the clock.
    pub advance_ms: u64,
    /// The recorded outcome.
    pub outcome: OutcomeRef,
}

/// [`ExchangeOutcome`] with content swapped for digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeRef {
    /// A served response.
    Content {
        /// Status code.
        status: u16,
        /// Digest of the encoded header template blob.
        headers: [u8; 16],
        /// Digest of the body blob.
        body: [u8; 16],
        /// URL after redirects.
        final_url: String,
        /// Redirects followed.
        redirects: u32,
    },
    /// A fetch error.
    Error(FetchError),
    /// An injected panic with its recorded message.
    Panic(String),
}

/// One visit attempt: exchanges plus post-fetch probes, in call order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttemptRef {
    /// Fetches (cache misses), in order.
    pub exchanges: Vec<ExchangeRef>,
    /// Post-fetch failure probes, in order.
    pub probes: Vec<PostFetchProbe>,
}

/// One site's recorded visit: every attempt's tape, by reference into
/// the blob store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteManifest {
    /// Rank in the origin list (1-based).
    pub rank: u64,
    /// The origin visited.
    pub origin: String,
    /// Quarantined by the job engine: the dataset carries a synthesized
    /// `CrawlerError` record and no visit ever ran — replay synthesizes
    /// the same record without a network.
    pub synthesized: bool,
    /// Visit attempts, in order (empty iff `synthesized`).
    pub attempts: Vec<AttemptRef>,
}

const FETCH_ERROR_CODES: [FetchError; 6] = [
    FetchError::DnsFailure,
    FetchError::ConnectionFailure,
    FetchError::ResponseTimeout,
    FetchError::TooManyRedirects,
    FetchError::EphemeralContext,
    FetchError::CrawlerCrash,
];

fn fetch_error_code(err: FetchError) -> u8 {
    FETCH_ERROR_CODES
        .iter()
        .position(|&e| e == err)
        .expect("every FetchError variant has a code") as u8
}

fn wu16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn wu32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn wu64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn wstr(buf: &mut Vec<u8>, s: &str) {
    wu32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Byte cursor for the manifest decoder. Every read is bounds-checked;
/// a short buffer is a decode error, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("truncated at byte {} (need {n} more)", self.at))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn digest(&mut self) -> Result<[u8; 16], String> {
        Ok(self.take(16)?.try_into().unwrap())
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| format!("non-UTF-8 string at byte {}", self.at))
    }
}

impl SiteManifest {
    /// A manifest for a quarantined rank (no visit ran).
    pub fn synthesized(rank: u64, origin: String) -> SiteManifest {
        SiteManifest {
            rank,
            origin,
            synthesized: true,
            attempts: Vec::new(),
        }
    }

    /// Canonical binary encoding. [`SiteManifest::decode`] is its exact
    /// inverse: `decode(encode(m)) == m` and, on every accepted input,
    /// `encode(decode(bytes)) == bytes`.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        wu64(&mut buf, self.rank);
        wstr(&mut buf, &self.origin);
        buf.push(self.synthesized as u8);
        wu32(&mut buf, self.attempts.len() as u32);
        for attempt in &self.attempts {
            wu32(&mut buf, attempt.exchanges.len() as u32);
            for exchange in &attempt.exchanges {
                wstr(&mut buf, &exchange.url);
                wu64(&mut buf, exchange.advance_ms);
                match &exchange.outcome {
                    OutcomeRef::Content {
                        status,
                        headers,
                        body,
                        final_url,
                        redirects,
                    } => {
                        buf.push(0);
                        wu16(&mut buf, *status);
                        buf.extend_from_slice(headers);
                        buf.extend_from_slice(body);
                        wstr(&mut buf, final_url);
                        wu32(&mut buf, *redirects);
                    }
                    OutcomeRef::Error(err) => {
                        buf.push(1);
                        buf.push(fetch_error_code(*err));
                    }
                    OutcomeRef::Panic(message) => {
                        buf.push(2);
                        wstr(&mut buf, message);
                    }
                }
            }
            wu32(&mut buf, attempt.probes.len() as u32);
            for probe in &attempt.probes {
                wstr(&mut buf, &probe.url);
                match probe.failure {
                    None => buf.push(0),
                    Some(err) => {
                        buf.push(1);
                        buf.push(fetch_error_code(err));
                    }
                }
            }
        }
        buf
    }

    /// Decodes a manifest, rejecting trailing bytes, unknown tag codes,
    /// and non-canonical flags — so every accepted input re-encodes to
    /// the same bytes (the property the fuzz target enforces).
    pub fn decode(bytes: &[u8]) -> Result<SiteManifest, String> {
        let mut c = Cursor { bytes, at: 0 };
        cov!(0);
        let rank = c.u64()?;
        let origin = c.str()?;
        let synthesized = match c.u8()? {
            0 => false,
            1 => {
                cov!(1);
                true
            }
            flag => return Err(format!("bad synthesized flag {flag}")),
        };
        let n_attempts = c.u32()?;
        let mut attempts = Vec::new();
        for _ in 0..n_attempts {
            cov!(2);
            let n_exchanges = c.u32()?;
            let mut exchanges = Vec::new();
            for _ in 0..n_exchanges {
                let url = c.str()?;
                let advance_ms = c.u64()?;
                let outcome = match c.u8()? {
                    0 => {
                        cov!(3);
                        OutcomeRef::Content {
                            status: c.u16()?,
                            headers: c.digest()?,
                            body: c.digest()?,
                            final_url: c.str()?,
                            redirects: c.u32()?,
                        }
                    }
                    1 => {
                        cov!(4);
                        let code = c.u8()? as usize;
                        OutcomeRef::Error(
                            *FETCH_ERROR_CODES
                                .get(code)
                                .ok_or_else(|| format!("bad fetch-error code {code}"))?,
                        )
                    }
                    2 => {
                        cov!(5);
                        OutcomeRef::Panic(c.str()?)
                    }
                    kind => return Err(format!("bad exchange kind {kind}")),
                };
                exchanges.push(ExchangeRef {
                    url,
                    advance_ms,
                    outcome,
                });
            }
            let n_probes = c.u32()?;
            let mut probes = Vec::new();
            for _ in 0..n_probes {
                cov!(6);
                let url = c.str()?;
                let failure = match c.u8()? {
                    0 => None,
                    1 => {
                        let code = c.u8()? as usize;
                        Some(
                            *FETCH_ERROR_CODES
                                .get(code)
                                .ok_or_else(|| format!("bad probe fetch-error code {code}"))?,
                        )
                    }
                    tag => return Err(format!("bad probe tag {tag}")),
                };
                probes.push(PostFetchProbe { url, failure });
            }
            attempts.push(AttemptRef { exchanges, probes });
        }
        if c.at != bytes.len() {
            cov!(7);
            return Err(format!(
                "{} trailing bytes after manifest",
                bytes.len() - c.at
            ));
        }
        if synthesized && !attempts.is_empty() {
            cov!(8);
            return Err("synthesized manifest carries attempts".to_string());
        }
        cov!(9);
        Ok(SiteManifest {
            rank,
            origin,
            synthesized,
            attempts,
        })
    }
}

/// Canonical header-template blob: count then `(name, value)` pairs.
fn encode_headers(headers: &[(String, String)]) -> Vec<u8> {
    let mut buf = Vec::new();
    wu32(&mut buf, headers.len() as u32);
    for (name, value) in headers {
        wstr(&mut buf, name);
        wstr(&mut buf, value);
    }
    buf
}

fn decode_headers(bytes: &[u8]) -> Result<Vec<(String, String)>, String> {
    let mut c = Cursor { bytes, at: 0 };
    let count = c.u32()?;
    let mut headers = Vec::new();
    for _ in 0..count {
        headers.push((c.str()?, c.str()?));
    }
    if c.at != bytes.len() {
        return Err("trailing bytes after header template".to_string());
    }
    Ok(headers)
}

// --- framed pack files ----------------------------------------------------

/// One scanned record: payload plus its start offset in the file.
struct Framed {
    offset: u64,
    payload: Vec<u8>,
}

/// Reads a CRC-framed pack file. `Strict` makes any damage (bad magic,
/// checksum mismatch, torn tail) a loud error naming the path and byte
/// offset; `Lenient` skips corrupt records it can frame past and counts
/// them, flagging a torn tail; `Resume` stops cleanly at the first
/// damage and reports `valid_len` — the truncation point an append
/// resumes from.
fn read_pack(
    path: &Path,
    magic: [u8; 8],
    mode: StreamMode,
) -> std::io::Result<(Vec<Framed>, SkipReport, u64)> {
    let bytes = std::fs::read(path)?;
    let name = path.display();
    let mut report = SkipReport::default();
    let mut records = Vec::new();
    if bytes.len() < 8 || bytes[..8] != magic {
        return match mode {
            StreamMode::Strict => invalid(format!("{name}: missing or wrong pack magic")),
            _ => {
                report.torn_tail = true;
                Ok((records, report, 0))
            }
        };
    }
    let mut at = 8usize;
    let mut valid_len = at as u64;
    while at < bytes.len() {
        let header_end = at + 8;
        let frame = header_end
            .checked_add(u32::from_le_bytes(
                bytes.get(at..at + 4).unwrap_or(&[0; 4]).try_into().unwrap(),
            ) as usize)
            .filter(|&end| header_end <= bytes.len() && end <= bytes.len());
        let Some(end) = frame else {
            // Torn tail: the record header or payload runs past EOF.
            match mode {
                StreamMode::Strict => {
                    return invalid(format!("{name}: torn record at byte {at}"));
                }
                StreamMode::Lenient => {
                    report.torn_tail = true;
                    break;
                }
                StreamMode::Resume => break,
            }
        };
        let expected = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        let payload = &bytes[header_end..end];
        if crc32(payload) != expected {
            match mode {
                StreamMode::Strict => {
                    return invalid(format!("{name}: checksum mismatch at byte {at}"));
                }
                StreamMode::Lenient => {
                    // The frame is intact, only the payload is damaged:
                    // skip this record and keep going.
                    report.record(records.len() as u64 + report.skipped + 1);
                    at = end;
                    continue;
                }
                StreamMode::Resume => break,
            }
        }
        records.push(Framed {
            offset: at as u64,
            payload: payload.to_vec(),
        });
        at = end;
        valid_len = at as u64;
    }
    Ok((records, report, valid_len))
}

fn write_framed(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(&crc32(payload).to_le_bytes())?;
    writer.write_all(payload)
}

// --- recording ------------------------------------------------------------

/// One site's recorded visit, as submitted by the crawler: the raw
/// per-attempt tapes before content addressing.
#[derive(Debug, Clone)]
pub struct SiteBundle {
    /// Rank in the origin list (1-based).
    pub rank: u64,
    /// The origin visited.
    pub origin: String,
    /// Quarantined — no visit ran (see [`SiteManifest::synthesized`]).
    pub synthesized: bool,
    /// One tape per visit attempt, in order.
    pub attempts: Vec<VisitTape>,
}

impl SiteBundle {
    /// A bundle for a quarantined rank.
    pub fn synthesized(rank: u64, origin: String) -> SiteBundle {
        SiteBundle {
            rank,
            origin,
            synthesized: true,
            attempts: Vec::new(),
        }
    }
}

struct RecorderInner {
    blobs: BufWriter<File>,
    manifests: BufWriter<File>,
    /// Digests already durable in `blobs.bin`.
    index: HashSet<[u8; 16]>,
    /// Next rank to commit; ranks below it are already durable.
    cursor: u64,
    /// Ranks durable in `manifests.bin` when the store was opened.
    durable_prefix: u64,
    /// Out-of-order submissions waiting for the cursor.
    pending: BTreeMap<u64, SiteBundle>,
}

/// Append-side of a bundle store. Workers submit completed sites in any
/// order; the recorder commits them strictly in rank order (manifests
/// are a rank-contiguous sequence, blobs land in first-reference
/// order), so the store's bytes are independent of worker count and any
/// crash leaves a valid prefix of the uninterrupted store.
pub struct BundleRecorder {
    dir: PathBuf,
    inner: Mutex<RecorderInner>,
}

impl BundleRecorder {
    /// Creates a fresh store in `dir` (created if missing); refuses a
    /// directory that already holds one.
    pub fn create(dir: &Path, meta: &BundleMeta) -> std::io::Result<BundleRecorder> {
        std::fs::create_dir_all(dir)?;
        if is_bundle_store(dir) {
            return invalid(format!(
                "refusing to record into {}: it already holds a bundle store \
                 (resume it or choose an empty directory)",
                dir.display()
            ));
        }
        meta.store(dir)?;
        let mut blobs = BufWriter::new(File::create(dir.join(BUNDLE_BLOBS_FILE))?);
        blobs.write_all(&BLOB_MAGIC)?;
        let mut manifests = BufWriter::new(File::create(dir.join(BUNDLE_MANIFESTS_FILE))?);
        manifests.write_all(&MANIFEST_MAGIC)?;
        Ok(BundleRecorder {
            dir: dir.to_path_buf(),
            inner: Mutex::new(RecorderInner {
                blobs,
                manifests,
                index: HashSet::new(),
                cursor: 1,
                durable_prefix: 0,
                pending: BTreeMap::new(),
            }),
        })
    }

    /// Opens `dir` for appending, creating a fresh store if none exists.
    /// An existing store must match `meta` (same crawl parameters), and
    /// both pack files are truncated at their last valid record — with
    /// manifests additionally rolled back past any record whose blobs
    /// did not survive, so "manifest durable ⇒ blobs durable" holds no
    /// matter where a kill landed.
    pub fn resume(dir: &Path, meta: &BundleMeta) -> std::io::Result<BundleRecorder> {
        if !is_bundle_store(dir) {
            return BundleRecorder::create(dir, meta);
        }
        let stored = BundleMeta::load(dir)?;
        if &stored != meta {
            return invalid(format!(
                "bundle store {} was recorded under different crawl parameters; \
                 refusing to mix recordings",
                dir.display()
            ));
        }
        let blobs_path = dir.join(BUNDLE_BLOBS_FILE);
        let manifests_path = dir.join(BUNDLE_MANIFESTS_FILE);
        let (blob_records, _, mut blobs_valid) = if blobs_path.exists() {
            read_pack(&blobs_path, BLOB_MAGIC, StreamMode::Resume)?
        } else {
            (Vec::new(), SkipReport::default(), 0)
        };
        let mut index = HashSet::new();
        for record in &blob_records {
            if record.payload.len() < 16 {
                // Damage: truncate here, so neither this record nor any
                // blob after it stays on disk unindexed.
                blobs_valid = record.offset;
                break;
            }
            let digest: [u8; 16] = record.payload[..16].try_into().unwrap();
            index.insert(digest);
        }
        let (manifest_records, _, mut manifests_valid) = if manifests_path.exists() {
            read_pack(&manifests_path, MANIFEST_MAGIC, StreamMode::Resume)?
        } else {
            (Vec::new(), SkipReport::default(), 0)
        };
        let mut durable_prefix = 0u64;
        for record in &manifest_records {
            let Ok(manifest) = SiteManifest::decode(&record.payload) else {
                manifests_valid = record.offset;
                break;
            };
            let refs_resolve = manifest.attempts.iter().all(|attempt| {
                attempt.exchanges.iter().all(|e| match &e.outcome {
                    OutcomeRef::Content { headers, body, .. } => {
                        index.contains(headers) && index.contains(body)
                    }
                    _ => true,
                })
            });
            if manifest.rank != durable_prefix + 1 || !refs_resolve {
                manifests_valid = record.offset;
                break;
            }
            durable_prefix = manifest.rank;
        }
        let reopen = |path: &Path, magic: &[u8], valid: u64| -> std::io::Result<BufWriter<File>> {
            let file = OpenOptions::new().read(true).write(true).open(path)?;
            file.set_len(valid.max(magic.len() as u64))?;
            let mut file = file;
            use std::io::Seek;
            if valid < magic.len() as u64 {
                file.set_len(0)?;
                file.write_all(magic)?;
            }
            file.seek(std::io::SeekFrom::End(0))?;
            Ok(BufWriter::new(file))
        };
        let blobs = if blobs_path.exists() {
            reopen(&blobs_path, &BLOB_MAGIC, blobs_valid)?
        } else {
            let mut w = BufWriter::new(File::create(&blobs_path)?);
            w.write_all(&BLOB_MAGIC)?;
            w
        };
        let manifests = if manifests_path.exists() {
            reopen(&manifests_path, &MANIFEST_MAGIC, manifests_valid)?
        } else {
            let mut w = BufWriter::new(File::create(&manifests_path)?);
            w.write_all(&MANIFEST_MAGIC)?;
            w
        };
        Ok(BundleRecorder {
            dir: dir.to_path_buf(),
            inner: Mutex::new(RecorderInner {
                blobs,
                manifests,
                index,
                cursor: durable_prefix + 1,
                durable_prefix,
                pending: BTreeMap::new(),
            }),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Ranks already durable when the store was opened (a resumed
    /// recording backfills captures for dataset ranks above this).
    pub fn durable_prefix(&self) -> u64 {
        self.inner.lock().expect("recorder lock").durable_prefix
    }

    /// Submits one completed site. Sites may arrive in any order;
    /// commits happen strictly at the rank cursor. Re-submissions of
    /// already-durable ranks are dropped.
    pub fn submit(&self, bundle: SiteBundle) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("recorder lock");
        if bundle.rank < inner.cursor {
            return Ok(());
        }
        inner.pending.insert(bundle.rank, bundle);
        while let Some(bundle) = {
            let next = inner.cursor;
            inner.pending.remove(&next)
        } {
            commit_site(&mut inner, &bundle)?;
            inner.cursor += 1;
        }
        Ok(())
    }

    /// Flushes the store and returns the number of durable sites. Errs
    /// if submissions left a gap (a rank never arrived).
    pub fn finish(&self) -> std::io::Result<u64> {
        let mut inner = self.inner.lock().expect("recorder lock");
        if let Some((&rank, _)) = inner.pending.iter().next() {
            let cursor = inner.cursor;
            return invalid(format!(
                "bundle store {} has a gap: rank {cursor} never arrived \
                 but rank {rank} is pending",
                self.dir.display()
            ));
        }
        inner.blobs.flush()?;
        inner.manifests.flush()?;
        Ok(inner.cursor - 1)
    }

    /// Graceful-shutdown checkpoint: flushes every committed frame (the
    /// durable store is then exactly a prefix of the uninterrupted
    /// store's bytes) and returns the number of durable sites. Unlike
    /// [`BundleRecorder::finish`] this tolerates gaps — out-of-order
    /// submissions still pending stay in memory and are re-captured by
    /// the resume backfill.
    pub fn checkpoint(&self) -> std::io::Result<u64> {
        let mut inner = self.inner.lock().expect("recorder lock");
        inner.blobs.flush()?;
        inner.manifests.flush()?;
        Ok(inner.cursor - 1)
    }
}

fn commit_site(inner: &mut RecorderInner, bundle: &SiteBundle) -> std::io::Result<()> {
    let mut attempts = Vec::with_capacity(bundle.attempts.len());
    for tape in &bundle.attempts {
        let mut exchanges = Vec::with_capacity(tape.exchanges.len());
        for exchange in &tape.exchanges {
            let outcome = match &exchange.outcome {
                ExchangeOutcome::Content {
                    status,
                    headers,
                    body,
                    final_url,
                    redirects,
                } => {
                    let header_blob = encode_headers(headers);
                    let headers = put_blob(inner, &header_blob)?;
                    let body = put_blob(inner, body)?;
                    OutcomeRef::Content {
                        status: *status,
                        headers,
                        body,
                        final_url: final_url.clone(),
                        redirects: *redirects,
                    }
                }
                ExchangeOutcome::Error(err) => OutcomeRef::Error(*err),
                ExchangeOutcome::Panic(message) => OutcomeRef::Panic(message.clone()),
            };
            exchanges.push(ExchangeRef {
                url: exchange.url.clone(),
                advance_ms: exchange.advance_ms,
                outcome,
            });
        }
        attempts.push(AttemptRef {
            exchanges,
            probes: tape.probes.clone(),
        });
    }
    let manifest = SiteManifest {
        rank: bundle.rank,
        origin: bundle.origin.clone(),
        synthesized: bundle.synthesized,
        attempts,
    };
    // Blobs land (and flush) before the manifest referencing them: a
    // manifest record is the site's commit point.
    inner.blobs.flush()?;
    write_framed(&mut inner.manifests, &manifest.encode())
}

fn put_blob(inner: &mut RecorderInner, bytes: &[u8]) -> std::io::Result<[u8; 16]> {
    let digest = digest128(bytes);
    if inner.index.insert(digest) {
        let mut payload = Vec::with_capacity(16 + bytes.len());
        payload.extend_from_slice(&digest);
        payload.extend_from_slice(bytes);
        write_framed(&mut inner.blobs, &payload)?;
    }
    Ok(digest)
}

// --- replay ---------------------------------------------------------------

/// A fully loaded bundle store, ready to serve visits.
#[derive(Debug)]
pub struct ReplayBundle {
    meta: BundleMeta,
    blobs: HashMap<[u8; 16], Bytes>,
    manifests: BTreeMap<u64, SiteManifest>,
}

impl ReplayBundle {
    /// Strict load: any damage — bad magic, checksum mismatch, torn
    /// tail, rank gap, dangling blob reference — is a loud error naming
    /// the file.
    pub fn load(dir: &Path) -> std::io::Result<ReplayBundle> {
        let meta = BundleMeta::load(dir)?;
        let blobs_path = dir.join(BUNDLE_BLOBS_FILE);
        let (blob_records, _, _) = read_pack(&blobs_path, BLOB_MAGIC, StreamMode::Strict)?;
        let mut blobs = HashMap::new();
        for record in blob_records {
            if record.payload.len() < 16 {
                return invalid(format!(
                    "{}: blob record at byte {} shorter than its digest",
                    blobs_path.display(),
                    record.offset
                ));
            }
            let digest: [u8; 16] = record.payload[..16].try_into().unwrap();
            if digest128(&record.payload[16..]) != digest {
                return invalid(format!(
                    "{}: blob at byte {} does not hash to its stored digest",
                    blobs_path.display(),
                    record.offset
                ));
            }
            blobs.insert(digest, Bytes::copy_from_slice(&record.payload[16..]));
        }
        let manifests_path = dir.join(BUNDLE_MANIFESTS_FILE);
        let (records, _, _) = read_pack(&manifests_path, MANIFEST_MAGIC, StreamMode::Strict)?;
        let mut manifests = BTreeMap::new();
        for record in records {
            let manifest = SiteManifest::decode(&record.payload).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: bad site manifest at byte {}: {e}",
                        manifests_path.display(),
                        record.offset
                    ),
                )
            })?;
            let expected = manifests.len() as u64 + 1;
            if manifest.rank != expected {
                return invalid(format!(
                    "{}: manifest at byte {} has rank {} where {expected} was expected",
                    manifests_path.display(),
                    record.offset,
                    manifest.rank
                ));
            }
            for attempt in &manifest.attempts {
                for exchange in &attempt.exchanges {
                    if let OutcomeRef::Content { headers, body, .. } = &exchange.outcome {
                        if !blobs.contains_key(headers) || !blobs.contains_key(body) {
                            return invalid(format!(
                                "{}: manifest for rank {} references a blob missing \
                                 from {}",
                                manifests_path.display(),
                                manifest.rank,
                                blobs_path.display()
                            ));
                        }
                    }
                }
            }
            manifests.insert(manifest.rank, manifest);
        }
        Ok(ReplayBundle {
            meta,
            blobs,
            manifests,
        })
    }

    /// The recorded crawl's metadata.
    pub fn meta(&self) -> &BundleMeta {
        &self.meta
    }

    /// Sites in the store (contiguous ranks `1..=sites()`).
    pub fn sites(&self) -> u64 {
        self.manifests.len() as u64
    }

    /// One site's manifest, if recorded.
    pub fn manifest(&self, rank: u64) -> Option<&SiteManifest> {
        self.manifests.get(&rank)
    }

    /// Rebuilds the raw visit tape for one attempt of one rank.
    pub fn tape(&self, rank: u64, attempt: usize) -> Option<VisitTape> {
        let manifest = self.manifests.get(&rank)?;
        let attempt = manifest.attempts.get(attempt)?;
        let mut tape = VisitTape::default();
        for exchange in &attempt.exchanges {
            let outcome = match &exchange.outcome {
                OutcomeRef::Content {
                    status,
                    headers,
                    body,
                    final_url,
                    redirects,
                } => {
                    let headers = decode_headers(&self.blobs[headers])
                        .expect("strict load validated header blobs");
                    ExchangeOutcome::Content {
                        status: *status,
                        headers,
                        body: self.blobs[body].clone(),
                        final_url: final_url.clone(),
                        redirects: *redirects,
                    }
                }
                OutcomeRef::Error(err) => ExchangeOutcome::Error(*err),
                OutcomeRef::Panic(message) => ExchangeOutcome::Panic(message.clone()),
            };
            tape.exchanges.push(Exchange {
                url: exchange.url.clone(),
                advance_ms: exchange.advance_ms,
                outcome,
            });
        }
        tape.probes = attempt.probes.clone();
        Some(tape)
    }
}

// --- stat -----------------------------------------------------------------

/// Store accounting for `bundle stat`: sizes, counts, and the dedup
/// ratio (bytes the manifests reference vs bytes the store holds).
#[derive(Debug, Clone, Default)]
pub struct BundleStat {
    /// Recorded sites.
    pub sites: u64,
    /// Quarantined (synthesized) sites among them.
    pub synthesized: u64,
    /// Visit attempts across all sites.
    pub attempts: u64,
    /// Recorded exchanges across all attempts.
    pub exchanges: u64,
    /// Unique blobs in the store.
    pub unique_blobs: u64,
    /// Blob content bytes actually stored (after dedup).
    pub stored_bytes: u64,
    /// Blob content bytes the manifests reference (before dedup).
    pub referenced_bytes: u64,
    /// Total store size on disk (all three files).
    pub store_file_bytes: u64,
    /// Damage skipped in `blobs.bin` (Lenient only).
    pub blob_skips: SkipReport,
    /// Damage skipped in `manifests.bin` (Lenient only).
    pub manifest_skips: SkipReport,
}

impl BundleStat {
    /// Scans a store. `Strict` errors loudly on any damage; `Lenient`
    /// counts skipped records instead.
    pub fn scan(dir: &Path, mode: StreamMode) -> std::io::Result<BundleStat> {
        let mut stat = BundleStat::default();
        let blobs_path = dir.join(BUNDLE_BLOBS_FILE);
        let manifests_path = dir.join(BUNDLE_MANIFESTS_FILE);
        let (blob_records, blob_skips, _) = read_pack(&blobs_path, BLOB_MAGIC, mode)?;
        stat.blob_skips = blob_skips;
        let mut sizes: HashMap<[u8; 16], u64> = HashMap::new();
        for record in &blob_records {
            if record.payload.len() < 16 {
                match mode {
                    StreamMode::Strict => {
                        return invalid(format!(
                            "{}: blob record at byte {} shorter than its digest",
                            blobs_path.display(),
                            record.offset
                        ));
                    }
                    _ => {
                        stat.blob_skips.skipped += 1;
                        continue;
                    }
                }
            }
            let digest: [u8; 16] = record.payload[..16].try_into().unwrap();
            let len = (record.payload.len() - 16) as u64;
            sizes.insert(digest, len);
            stat.stored_bytes += len;
        }
        stat.unique_blobs = sizes.len() as u64;
        let (records, manifest_skips, _) = read_pack(&manifests_path, MANIFEST_MAGIC, mode)?;
        stat.manifest_skips = manifest_skips;
        for record in &records {
            let manifest = match SiteManifest::decode(&record.payload) {
                Ok(manifest) => manifest,
                Err(e) => match mode {
                    StreamMode::Strict => {
                        return invalid(format!(
                            "{}: bad site manifest at byte {}: {e}",
                            manifests_path.display(),
                            record.offset
                        ));
                    }
                    _ => {
                        stat.manifest_skips.skipped += 1;
                        continue;
                    }
                },
            };
            stat.sites += 1;
            stat.synthesized += manifest.synthesized as u64;
            stat.attempts += manifest.attempts.len() as u64;
            for attempt in &manifest.attempts {
                stat.exchanges += attempt.exchanges.len() as u64;
                for exchange in &attempt.exchanges {
                    if let OutcomeRef::Content { headers, body, .. } = &exchange.outcome {
                        for digest in [headers, body] {
                            match sizes.get(digest) {
                                Some(len) => stat.referenced_bytes += len,
                                None if mode == StreamMode::Strict => {
                                    return invalid(format!(
                                        "{}: manifest for rank {} references a blob \
                                         missing from {}",
                                        manifests_path.display(),
                                        manifest.rank,
                                        blobs_path.display()
                                    ));
                                }
                                None => stat.manifest_skips.skipped += 1,
                            }
                        }
                    }
                }
            }
        }
        for file in [BUNDLE_META_FILE, BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE] {
            if let Ok(meta) = std::fs::metadata(dir.join(file)) {
                stat.store_file_bytes += meta.len();
            }
        }
        Ok(stat)
    }

    /// Referenced bytes per stored byte (≥ 1.0; higher = more sharing).
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 1.0;
        }
        self.referenced_bytes as f64 / self.stored_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> SiteManifest {
        SiteManifest {
            rank: 3,
            origin: "https://site-3.example/".to_string(),
            synthesized: false,
            attempts: vec![
                AttemptRef {
                    exchanges: vec![
                        ExchangeRef {
                            url: "https://site-3.example/".to_string(),
                            advance_ms: 155,
                            outcome: OutcomeRef::Content {
                                status: 200,
                                headers: digest128(b"h"),
                                body: digest128(b"b"),
                                final_url: "https://site-3.example/".to_string(),
                                redirects: 1,
                            },
                        },
                        ExchangeRef {
                            url: "https://cdn.example/t.js".to_string(),
                            advance_ms: 35,
                            outcome: OutcomeRef::Error(FetchError::ConnectionFailure),
                        },
                        ExchangeRef {
                            url: "https://site-3.example/x".to_string(),
                            advance_ms: 0,
                            outcome: OutcomeRef::Panic(
                                "injected fault: simulated crawler crash fetching x".to_string(),
                            ),
                        },
                    ],
                    probes: vec![PostFetchProbe {
                        url: "https://site-3.example/".to_string(),
                        failure: Some(FetchError::EphemeralContext),
                    }],
                },
                AttemptRef::default(),
            ],
        }
    }

    #[test]
    fn manifest_codec_round_trips() {
        let manifest = sample_manifest();
        let bytes = manifest.encode();
        let decoded = SiteManifest::decode(&bytes).expect("decodes");
        assert_eq!(decoded, manifest);
        assert_eq!(decoded.encode(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn manifest_decode_is_total_and_canonical() {
        let bytes = sample_manifest().encode();
        // Truncation at every byte must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(
                SiteManifest::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage is rejected (full-consumption decode).
        let mut long = bytes.clone();
        long.push(0);
        assert!(SiteManifest::decode(&long).is_err());
        // Non-canonical flag bytes are rejected.
        let mut manifest = sample_manifest();
        manifest.attempts.clear();
        let mut flagged = manifest.encode();
        let flag_at = 8 + 4 + manifest.origin.len();
        flagged[flag_at] = 2;
        assert!(SiteManifest::decode(&flagged).is_err());
    }

    #[test]
    fn synthesized_manifests_carry_no_attempts() {
        let ok = SiteManifest::synthesized(9, "https://q.example/".to_string());
        assert_eq!(SiteManifest::decode(&ok.encode()).unwrap(), ok);
        let mut bad = sample_manifest();
        bad.synthesized = true;
        assert!(SiteManifest::decode(&bad.encode()).is_err());
    }

    #[test]
    fn header_template_codec_round_trips() {
        let headers = vec![
            ("content-type".to_string(), "text/html".to_string()),
            ("permissions-policy".to_string(), "camera=()".to_string()),
        ];
        let blob = encode_headers(&headers);
        assert_eq!(decode_headers(&blob).unwrap(), headers);
        assert!(decode_headers(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn store_round_trips_and_dedups() {
        let dir = std::env::temp_dir().join(format!("permodyssey-bundle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = BundleMeta::for_crawl(&CrawlConfig::default(), 7, 2, false);
        let recorder = BundleRecorder::create(&dir, &meta).expect("create");
        let body = Bytes::copy_from_slice(b"<html>shared</html>");
        let tape = |url: &str| VisitTape {
            exchanges: vec![Exchange {
                url: url.to_string(),
                advance_ms: 155,
                outcome: ExchangeOutcome::Content {
                    status: 200,
                    headers: vec![("content-type".to_string(), "text/html".to_string())],
                    body: body.clone(),
                    final_url: url.to_string(),
                    redirects: 0,
                },
            }],
            probes: vec![PostFetchProbe {
                url: url.to_string(),
                failure: None,
            }],
        };
        // Out-of-order submission: rank 2 first.
        recorder
            .submit(SiteBundle {
                rank: 2,
                origin: "https://b.example/".to_string(),
                synthesized: false,
                attempts: vec![tape("https://b.example/")],
            })
            .unwrap();
        recorder
            .submit(SiteBundle {
                rank: 1,
                origin: "https://a.example/".to_string(),
                synthesized: false,
                attempts: vec![tape("https://a.example/")],
            })
            .unwrap();
        assert_eq!(recorder.finish().unwrap(), 2);

        let bundle = ReplayBundle::load(&dir).expect("strict load");
        assert_eq!(bundle.sites(), 2);
        assert_eq!(
            bundle.tape(1, 0).unwrap(),
            tape("https://a.example/"),
            "tape survives the store round trip"
        );
        let stat = BundleStat::scan(&dir, StreamMode::Strict).unwrap();
        assert_eq!(stat.sites, 2);
        assert_eq!(stat.unique_blobs, 2, "shared body + shared headers");
        assert!(stat.dedup_ratio() > 1.5, "ratio {}", stat.dedup_ratio());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_loud_in_strict_and_counted_in_lenient() {
        let dir =
            std::env::temp_dir().join(format!("permodyssey-bundle-cor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = BundleMeta::for_crawl(&CrawlConfig::default(), 7, 1, false);
        let recorder = BundleRecorder::create(&dir, &meta).unwrap();
        recorder
            .submit(SiteBundle::synthesized(1, "https://a.example/".to_string()))
            .unwrap();
        recorder.finish().unwrap();
        // Flip a byte inside the manifest payload.
        let path = dir.join(BUNDLE_MANIFESTS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = ReplayBundle::load(&dir).unwrap_err();
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "strict error names the file: {err}"
        );
        let stat = BundleStat::scan(&dir, StreamMode::Lenient).unwrap();
        assert_eq!(stat.sites, 0);
        assert_eq!(stat.manifest_skips.skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_truncates_torn_tails_and_rolls_back_blobless_manifests() {
        let dir =
            std::env::temp_dir().join(format!("permodyssey-bundle-res-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = BundleMeta::for_crawl(&CrawlConfig::default(), 7, 2, false);
        let recorder = BundleRecorder::create(&dir, &meta).unwrap();
        let tape = VisitTape {
            exchanges: vec![Exchange {
                url: "https://a.example/".to_string(),
                advance_ms: 155,
                outcome: ExchangeOutcome::Content {
                    status: 200,
                    headers: vec![("content-type".to_string(), "text/html".to_string())],
                    body: Bytes::copy_from_slice(b"<html>a</html>"),
                    final_url: "https://a.example/".to_string(),
                    redirects: 0,
                },
            }],
            probes: Vec::new(),
        };
        recorder
            .submit(SiteBundle {
                rank: 1,
                origin: "https://a.example/".to_string(),
                synthesized: false,
                attempts: vec![tape],
            })
            .unwrap();
        recorder.finish().unwrap();
        // Shred the blob pack: rank 1's manifest now references blobs
        // that no longer exist, so resume must roll the manifest back.
        let blobs_path = dir.join(BUNDLE_BLOBS_FILE);
        let len = std::fs::metadata(&blobs_path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&blobs_path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let resumed = BundleRecorder::resume(&dir, &meta).unwrap();
        assert_eq!(resumed.durable_prefix(), 0, "manifest rolled back");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_truncates_at_a_blob_record_shorter_than_its_digest() {
        let dir =
            std::env::temp_dir().join(format!("permodyssey-bundle-short-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = BundleMeta::for_crawl(&CrawlConfig::default(), 7, 2, false);
        let site = |rank: u64| {
            let url = format!("https://site-{rank}.example/");
            SiteBundle {
                rank,
                origin: url.clone(),
                synthesized: false,
                attempts: vec![VisitTape {
                    exchanges: vec![Exchange {
                        url: url.clone(),
                        advance_ms: 155,
                        outcome: ExchangeOutcome::Content {
                            status: 200,
                            headers: vec![("content-type".to_string(), "text/html".to_string())],
                            body: Bytes::copy_from_slice(format!("<html>{rank}</html>").as_bytes()),
                            final_url: url,
                            redirects: 0,
                        },
                    }],
                    probes: Vec::new(),
                }],
            }
        };
        let recorder = BundleRecorder::create(&dir, &meta).unwrap();
        recorder.submit(site(1)).unwrap();
        recorder.finish().unwrap();
        // Splice a CRC-valid record with a 10-byte payload in after the
        // first blob: every check but the digest length passes it.
        let blobs_path = dir.join(BUNDLE_BLOBS_FILE);
        let bytes = std::fs::read(&blobs_path).unwrap();
        let first_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let cut = 8 + 8 + first_len;
        let mut spliced = bytes[..cut].to_vec();
        write_framed(&mut spliced, &[0u8; 10]).unwrap();
        spliced.extend_from_slice(&bytes[cut..]);
        std::fs::write(&blobs_path, &spliced).unwrap();

        // The cut drops rank 1's second blob, so its manifest rolls back
        // and both ranks are captured again.
        let resumed = BundleRecorder::resume(&dir, &meta).unwrap();
        assert_eq!(resumed.durable_prefix(), 0);
        resumed.submit(site(1)).unwrap();
        resumed.submit(site(2)).unwrap();
        assert_eq!(resumed.finish().unwrap(), 2);
        let bundle = ReplayBundle::load(&dir).expect("strict load of the resumed store");
        assert_eq!(bundle.sites(), 2);
        assert_eq!(bundle.tape(1, 0).unwrap(), site(1).attempts[0]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
