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
//! an uninterrupted one. [`BundleRecorder`] commits one site at a time
//! at its rank cursor and keeps no pending sites: in a crawl its one
//! caller is the worker pool's writer thread, which already holds sites
//! in rank order and commits each bundle just before the site's record.
//!
//! Every reader makes the same single pass over a store (`pass_store`):
//! `bundle.json`, `blobs.bin`, then `manifests.bin`, under one rule set,
//! with damage mapped by [`StreamMode::recover`]. The readers differ
//! only in what they keep: [`ReplayBundle::load`] an index of frame
//! offsets plus the blobs several sites share, [`BundleStat::scan`] blob
//! sizes and counts, and [`BundleRecorder::resume`] the digest index and
//! each pack's valid length.
//!
//! [`ReplayBundle`] serves every visit byte-for-byte through
//! [`netsim::ReplayNetwork`] — original timing, faults and crashes
//! included — so a replayed crawl reproduces the recorded dataset
//! exactly, with the page generator never invoked. A visit reads its
//! manifest and blobs from the packs through a `BundleReader`, which
//! checks every frame again, so replay memory grows with the number of
//! unique blobs, not with the store's bytes.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use bytes::Bytes;
use netsim::{Exchange, ExchangeOutcome, FetchError, PostFetchProbe, VisitTape};
use serde::{Deserialize, Serialize};

use crate::run::CrawlConfig;
use crate::storage::{
    check_frame, load_checksummed, reopen_at, store_checksummed, write_frame, Checksummed, Damage,
    Fault, Frame, FrameReader, Recovery, SkipReport, StreamMode,
};

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

/// The three files of a bundle store.
pub const BUNDLE_STORE_FILES: [&str; 3] =
    [BUNDLE_META_FILE, BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE];

/// Whether `dir` looks like (or contains) a bundle store: any of the
/// three store files present.
pub fn is_bundle_store(dir: &Path) -> bool {
    BUNDLE_STORE_FILES.iter().any(|f| dir.join(f).exists())
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
        store_checksummed(self, dir, BUNDLE_META_FILE)
    }

    /// Loads and verifies the metadata from `dir`; a missing, torn or
    /// corrupt file is a loud error naming the path.
    pub fn load(dir: &Path) -> std::io::Result<BundleMeta> {
        let file = Checksummed {
            name: BUNDLE_META_FILE,
            what: "bundle metadata",
            creator: "`crawl --record`",
            repair: "re-record the bundle to regenerate it",
        };
        load_checksummed(dir, &file, |meta: &BundleMeta| match meta.version {
            BUNDLE_VERSION => Ok(()),
            version => Err(format!("unsupported bundle version {version}")),
        })
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

    /// The digests of every blob the manifest names, in exchange order.
    fn blob_refs(&self) -> impl Iterator<Item = &[u8; 16]> {
        self.attempts
            .iter()
            .flat_map(|attempt| &attempt.exchanges)
            .filter_map(|exchange| match &exchange.outcome {
                OutcomeRef::Content { headers, body, .. } => Some([headers, body]),
                _ => None,
            })
            .flatten()
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

/// Streams one pack, handing each intact payload to `rule` with its byte
/// offset and 1-based frame number. Damage goes through the one mapping
/// ([`StreamMode::recover`]): a frame or a magic that runs short is
/// torn, and a frame that fails its checksum or `rule` can be stepped
/// over, since pack frames carry no state for later ones. Every error
/// names the file. In `Resume` any damage cuts the pack there. Returns
/// the skips and the length of the pack's valid prefix, which is where
/// a resumed append starts.
fn pass_pack(
    path: &Path,
    magic: [u8; 8],
    mode: StreamMode,
    mut rule: impl FnMut(&[u8], u64, u64) -> Result<(), String>,
) -> std::io::Result<(SkipReport, u64)> {
    let mut report = SkipReport::default();
    let fault = |damage, detail: &str| Fault::new(damage, format!("{}: {detail}", path.display()));
    let mut pack = match FrameReader::open(path, false) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        pack => Some(pack?),
    };
    if let Some(reader) = &mut pack {
        let mut head = [0u8; 8];
        if !reader.head(&mut head)? || head != magic {
            pack = None;
        }
    }
    let Some(mut pack) = pack else {
        let missing = fault(Damage::Torn, "missing or wrong pack magic");
        mode.recover(missing, true, &mut report, 1, 1)?;
        return Ok((report, 0));
    };
    let mut payload = Vec::new();
    for number in 1.. {
        let (at, failure) = match pack.next(Some(&mut payload))? {
            Frame::End => break,
            Frame::Torn { at } => (
                at,
                fault(Damage::Torn, &format!("torn record at byte {at}")),
            ),
            Frame::Corrupt { at, .. } => {
                let detail = format!("checksum mismatch at byte {at}");
                (at, fault(Damage::Skippable, &detail))
            }
            Frame::Intact { at, .. } => match rule(&payload, at, number) {
                Ok(()) => continue,
                Err(failure) => (at, fault(Damage::Skippable, &failure)),
            },
        };
        if mode.recover(failure, true, &mut report, number, 1)? == Recovery::Cut {
            return Ok((report, at));
        }
    }
    Ok((report, pack.at()))
}

/// Splits the payload of the blob frame at byte `at` into its stored
/// digest and its content, which must hash to that digest.
fn blob_payload(payload: &[u8], at: u64) -> Result<(&[u8; 16], &[u8]), String> {
    let Some((digest, content)) = payload.split_first_chunk::<16>() else {
        return Err(format!("blob record at byte {at} shorter than its digest"));
    };
    if digest128(content) != *digest {
        return Err(format!(
            "blob at byte {at} does not hash to its stored digest"
        ));
    }
    Ok((digest, content))
}

/// What one [`pass_store`] accepted, and where each pack's valid prefix
/// ends.
struct StorePass<B> {
    /// The store's `bundle.json`.
    meta: BundleMeta,
    /// Every accepted blob by digest, as the caller kept it.
    blobs: HashMap<[u8; 16], B>,
    blob_skips: SkipReport,
    manifest_skips: SkipReport,
    blobs_valid: u64,
    manifests_valid: u64,
}

/// The one pass every store reader makes: `bundle.json` through the
/// checksummed-file load, in every mode, then `blobs.bin` and
/// `manifests.bin`, each streamed once under one rule set.
///
/// - A blob payload is at least 16 bytes, and its content hashes to the
///   digest those bytes store.
/// - The n-th manifest frame decodes, carries rank n, and names only
///   blobs this pass accepted.
///
/// `keep_blob` turns an accepted blob's content and frame offset into
/// what the caller keeps of it; `keep_manifest` receives each accepted
/// manifest and its frame offset, together with the blobs kept so far.
fn pass_store<B>(
    dir: &Path,
    mode: StreamMode,
    mut keep_blob: impl FnMut(&[u8], u64) -> B,
    mut keep_manifest: impl FnMut(SiteManifest, u64, &mut HashMap<[u8; 16], B>),
) -> std::io::Result<StorePass<B>> {
    let meta = BundleMeta::load(dir)?;
    let blobs_path = dir.join(BUNDLE_BLOBS_FILE);
    let mut blobs = HashMap::new();
    let (blob_skips, blobs_valid) = pass_pack(&blobs_path, BLOB_MAGIC, mode, |payload, at, _| {
        let (digest, content) = blob_payload(payload, at)?;
        blobs.insert(*digest, keep_blob(content, at));
        Ok(())
    })?;
    let manifests_path = dir.join(BUNDLE_MANIFESTS_FILE);
    let (manifest_skips, manifests_valid) = pass_pack(
        &manifests_path,
        MANIFEST_MAGIC,
        mode,
        |payload, at, number| {
            let manifest = SiteManifest::decode(payload)
                .map_err(|e| format!("bad site manifest at byte {at}: {e}"))?;
            if manifest.rank != number {
                return Err(format!(
                    "manifest at byte {at} has rank {} where {number} was expected",
                    manifest.rank
                ));
            }
            if !manifest
                .blob_refs()
                .all(|digest| blobs.contains_key(digest))
            {
                return Err(format!(
                    "manifest for rank {} references a blob missing from {}",
                    manifest.rank,
                    blobs_path.display()
                ));
            }
            keep_manifest(manifest, at, &mut blobs);
            Ok(())
        },
    )?;
    Ok(StorePass {
        meta,
        blobs,
        blob_skips,
        manifest_skips,
        blobs_valid,
        manifests_valid,
    })
}

// --- recording ------------------------------------------------------------

/// One site's recorded visit, as the crawler captured it: the raw
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
    index: HashMap<[u8; 16], ()>,
    /// Next rank to commit; ranks below it are committed.
    cursor: u64,
}

/// Append-side of a bundle store. Sites are committed strictly in rank
/// order (manifests are a rank-contiguous sequence, blobs land in
/// first-reference order), so the store's bytes are independent of
/// worker count and any crash leaves a valid prefix of the
/// uninterrupted store. The worker pool commits from its writer thread,
/// which already holds records in rank order.
pub struct BundleRecorder {
    dir: PathBuf,
    inner: RefCell<RecorderInner>,
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
        BundleRecorder::append(dir, [0, 0], HashMap::new(), 0)
    }

    /// Opens `dir` for appending, creating a fresh store if none exists.
    /// An existing store must match `meta` (same crawl parameters), and
    /// both pack files are truncated at their first record that fails the
    /// store rules — so a manifest whose blobs did not survive rolls back
    /// too, and "manifest durable ⇒ blobs durable" holds no matter where
    /// a kill landed.
    pub fn resume(dir: &Path, meta: &BundleMeta) -> std::io::Result<BundleRecorder> {
        if !is_bundle_store(dir) {
            return BundleRecorder::create(dir, meta);
        }
        let mut durable_prefix = 0u64;
        let pass = pass_store(
            dir,
            StreamMode::Resume,
            |_, _| (),
            |_, _, _| durable_prefix += 1,
        )?;
        if &pass.meta != meta {
            return invalid(format!(
                "bundle store {} was recorded under different crawl parameters; \
                 refusing to mix recordings",
                dir.display()
            ));
        }
        let valid = [pass.blobs_valid, pass.manifests_valid];
        BundleRecorder::append(dir, valid, pass.blobs, durable_prefix)
    }

    /// A recorder appending to `dir`'s blob and manifest packs after
    /// their first `valid` bytes (0 starts a pack over at its magic), with
    /// `index`'s blobs and ranks `1..=durable_prefix` already durable.
    fn append(
        dir: &Path,
        valid: [u64; 2],
        index: HashMap<[u8; 16], ()>,
        durable_prefix: u64,
    ) -> std::io::Result<BundleRecorder> {
        let open = |file: &str, magic: [u8; 8], valid: u64| -> std::io::Result<BufWriter<File>> {
            let mut file = reopen_at(&dir.join(file), valid, None)?;
            if valid == 0 {
                file.write_all(&magic)?;
            }
            Ok(BufWriter::new(file))
        };
        Ok(BundleRecorder {
            dir: dir.to_path_buf(),
            inner: RefCell::new(RecorderInner {
                blobs: open(BUNDLE_BLOBS_FILE, BLOB_MAGIC, valid[0])?,
                manifests: open(BUNDLE_MANIFESTS_FILE, MANIFEST_MAGIC, valid[1])?,
                index,
                cursor: durable_prefix + 1,
            }),
        })
    }

    /// Ranks committed so far (`1..=committed()`); when the store was
    /// just opened, the prefix that survived in it.
    pub fn committed(&self) -> u64 {
        self.inner.borrow().cursor - 1
    }

    /// Commits one site, owned or borrowed, at the rank cursor: a rank
    /// already committed is dropped, and a rank past the cursor is an
    /// error that leaves the store unchanged. A write error names the
    /// pack file.
    pub fn submit(&self, bundle: impl Borrow<SiteBundle>) -> std::io::Result<()> {
        let bundle = bundle.borrow();
        let mut inner = self.inner.borrow_mut();
        if bundle.rank < inner.cursor {
            return Ok(());
        }
        if bundle.rank > inner.cursor {
            return invalid(format!(
                "bundle store {}: rank {} submitted before rank {}",
                self.dir.display(),
                bundle.rank,
                inner.cursor
            ));
        }
        commit_site(&self.dir, &mut inner, bundle)?;
        inner.cursor += 1;
        Ok(())
    }

    /// Flushes the store and returns the number of committed sites.
    pub fn finish(&self) -> std::io::Result<u64> {
        let mut inner = self.inner.borrow_mut();
        let blobs = writing(&self.dir, BUNDLE_BLOBS_FILE);
        inner.blobs.flush().map_err(blobs)?;
        let manifests = writing(&self.dir, BUNDLE_MANIFESTS_FILE);
        inner.manifests.flush().map_err(manifests)?;
        Ok(inner.cursor - 1)
    }
}

/// Names the store `dir`'s `file` in a write error.
fn writing(dir: &Path, file: &str) -> impl Fn(std::io::Error) -> std::io::Error {
    let path = dir.join(file);
    move |e| crate::db::at("writing", &path, e)
}

fn commit_site(dir: &Path, inner: &mut RecorderInner, bundle: &SiteBundle) -> std::io::Result<()> {
    let blobs = writing(dir, BUNDLE_BLOBS_FILE);
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
                    let headers = put_blob(inner, &header_blob).map_err(&blobs)?;
                    let body = put_blob(inner, body).map_err(&blobs)?;
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
    inner.blobs.flush().map_err(&blobs)?;
    write_frame(&mut inner.manifests, None, &manifest.encode())
        .map_err(writing(dir, BUNDLE_MANIFESTS_FILE))
}

fn put_blob(inner: &mut RecorderInner, bytes: &[u8]) -> std::io::Result<[u8; 16]> {
    let digest = digest128(bytes);
    if inner.index.insert(digest, ()).is_none() {
        let mut payload = Vec::with_capacity(16 + bytes.len());
        payload.extend_from_slice(&digest);
        payload.extend_from_slice(bytes);
        write_frame(&mut inner.blobs, None, &payload)?;
    }
    Ok(digest)
}

// --- replay ---------------------------------------------------------------

/// Bytes a pack reader reads ahead. A rank-order replay reads both packs
/// forward, so one read call serves every frame the window holds.
const READ_WINDOW: usize = 64 * 1024;

/// How many sites name a blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Naming {
    None,
    One,
    /// More than one: the replay keeps the blob in memory.
    Shared,
}

/// Where a blob's frame lies in `blobs.bin`.
#[derive(Debug, Clone, Copy)]
struct BlobEntry {
    /// Byte offset of the frame.
    at: u64,
    /// Payload length: the digest, then the content.
    len: u32,
    naming: Naming,
}

/// A bundle store indexed for replay. [`ReplayBundle::load`] makes the
/// strict pass and keeps where each manifest and blob frame lies, plus
/// the content of the blobs more than one site names; a visit reads the
/// rest through a `BundleReader`.
pub struct ReplayBundle {
    dir: PathBuf,
    meta: BundleMeta,
    blobs: HashMap<[u8; 16], BlobEntry>,
    /// The content of every blob named by more than one site.
    shared: HashMap<[u8; 16], Bytes>,
    /// Rank r's manifest frame offset at index r − 1: the store rules
    /// admit ranks 1..=n only, in rank order.
    manifests: Vec<u64>,
    /// Where the last manifest frame ends.
    manifests_end: u64,
    /// The reader of [`manifest`](ReplayBundle::manifest),
    /// [`tape`](ReplayBundle::tape), `Crawler::replay_one` and
    /// `Crawler::replay_streaming_observed`.
    reader: Mutex<BundleReader>,
}

impl std::fmt::Debug for ReplayBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayBundle")
            .field("dir", &self.dir)
            .field("sites", &self.sites())
            .field("blobs", &self.blobs.len())
            .field("shared", &self.shared.len())
            .finish()
    }
}

impl ReplayBundle {
    /// Strict load: any damage — bad magic, checksum mismatch, torn
    /// tail, rank gap, dangling blob reference — is a loud error naming
    /// the file.
    pub fn load(dir: &Path) -> std::io::Result<ReplayBundle> {
        let mut manifests = Vec::new();
        let mut named = Vec::new();
        let pass = pass_store(
            dir,
            StreamMode::Strict,
            |content, at| BlobEntry {
                at,
                len: (16 + content.len()) as u32,
                naming: Naming::None,
            },
            |manifest, at, blobs| {
                manifests.push(at);
                // A blob one site names twice is still that site's own.
                named.clear();
                named.extend(manifest.blob_refs().copied());
                named.sort_unstable();
                named.dedup();
                for digest in &named {
                    // The pass admits a manifest only once every blob it
                    // names is in `blobs`.
                    let entry = blobs.get_mut(digest).expect("an accepted blob");
                    entry.naming = match entry.naming {
                        Naming::None => Naming::One,
                        _ => Naming::Shared,
                    };
                }
            },
        )?;
        // Shared blobs are read once, in file order.
        let mut reader = BundleReader::open(dir)?;
        let mut shared: Vec<_> = pass
            .blobs
            .iter()
            .filter(|(_, entry)| entry.naming == Naming::Shared)
            .map(|(digest, entry)| (entry.at, *digest))
            .collect();
        shared.sort_unstable();
        let shared = shared
            .into_iter()
            .map(|(_, digest)| {
                let content = reader.blob(&digest, &pass.blobs[&digest])?;
                Ok((digest, Bytes::copy_from_slice(content)))
            })
            .collect::<std::io::Result<_>>()?;
        Ok(ReplayBundle {
            dir: dir.to_path_buf(),
            meta: pass.meta,
            blobs: pass.blobs,
            shared,
            manifests,
            manifests_end: pass.manifests_valid,
            reader: Mutex::new(reader),
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

    /// A reader of its own on the store's packs, for one worker.
    pub(crate) fn reader(&self) -> std::io::Result<BundleReader> {
        BundleReader::open(&self.dir)
    }

    /// Runs `f` with the bundle's own reader.
    pub(crate) fn with_reader<T>(&self, f: impl FnOnce(&mut BundleReader) -> T) -> T {
        f(&mut self.reader.lock().expect("bundle reader"))
    }

    /// Reads one site's manifest through `reader`: `None` for a rank the
    /// store does not hold. An error names the file and the byte offset
    /// where the pack no longer matches what [`load`](ReplayBundle::load)
    /// accepted.
    pub(crate) fn read_manifest(
        &self,
        reader: &mut BundleReader,
        rank: u64,
    ) -> std::io::Result<Option<SiteManifest>> {
        let Some(index) = rank.checked_sub(1).and_then(|i| usize::try_from(i).ok()) else {
            return Ok(None);
        };
        let Some(&at) = self.manifests.get(index) else {
            return Ok(None);
        };
        // Manifest frames lie back to back, so each ends where the next
        // begins.
        let end = self.manifests.get(index + 1).copied();
        let len = end.unwrap_or(self.manifests_end) - at - 8;
        let payload = reader.manifests.frame(at, len as u32)?;
        let pack = &reader.manifests;
        let manifest = SiteManifest::decode(&pack.window[payload])
            .map_err(|e| pack.error(format!("bad site manifest at byte {at}: {e}")))?;
        if manifest.rank != rank {
            let found = manifest.rank;
            let detail =
                format!("manifest at byte {at} has rank {found} where {rank} was expected");
            return Err(pack.error(detail));
        }
        Ok(Some(manifest))
    }

    /// Rebuilds one recorded attempt's raw visit tape, moving its strings
    /// in and reading each blob that only this site names through
    /// `reader`.
    pub(crate) fn read_tape(
        &self,
        reader: &mut BundleReader,
        attempt: AttemptRef,
    ) -> std::io::Result<VisitTape> {
        let mut exchanges = Vec::with_capacity(attempt.exchanges.len());
        for exchange in attempt.exchanges {
            let outcome = match exchange.outcome {
                OutcomeRef::Content {
                    status,
                    headers,
                    body,
                    final_url,
                    redirects,
                } => {
                    let (at, blob) = self.blob(reader, &headers)?;
                    let headers = decode_headers(blob.content()).map_err(|e| {
                        reader
                            .blobs
                            .error(format!("bad header template at byte {at}: {e}"))
                    })?;
                    ExchangeOutcome::Content {
                        status,
                        headers,
                        body: self.blob(reader, &body)?.1.into_bytes(),
                        final_url,
                        redirects,
                    }
                }
                OutcomeRef::Error(err) => ExchangeOutcome::Error(err),
                OutcomeRef::Panic(message) => ExchangeOutcome::Panic(message),
            };
            exchanges.push(Exchange {
                url: exchange.url,
                advance_ms: exchange.advance_ms,
                outcome,
            });
        }
        Ok(VisitTape {
            exchanges,
            probes: attempt.probes,
        })
    }

    /// Blob `digest`'s frame offset and content: a shared blob from
    /// memory, any other read through `reader`.
    fn blob<'a>(
        &'a self,
        reader: &'a mut BundleReader,
        digest: &[u8; 16],
    ) -> std::io::Result<(u64, Blob<'a>)> {
        let Some(entry) = self.blobs.get(digest) else {
            let detail = "a manifest names a blob the store did not hold when it was loaded";
            return Err(reader.blobs.error(detail.to_string()));
        };
        let content = match entry.naming {
            Naming::Shared => Blob::Shared(&self.shared[digest]),
            _ => Blob::Read(reader.blob(digest, entry)?),
        };
        Ok((entry.at, content))
    }

    /// One site's manifest, if recorded, read through the bundle's own
    /// reader.
    ///
    /// # Panics
    ///
    /// If the store no longer reads as it did when loaded.
    pub fn manifest(&self, rank: u64) -> Option<SiteManifest> {
        self.with_reader(|reader| self.read_manifest(reader, rank))
            .unwrap_or_else(|e| panic!("reading the manifest of rank {rank}: {e}"))
    }

    /// Rebuilds the raw visit tape for one attempt of one rank, read
    /// through the bundle's own reader.
    ///
    /// # Panics
    ///
    /// If the store no longer reads as it did when loaded.
    pub fn tape(&self, rank: u64, attempt: usize) -> Option<VisitTape> {
        let tape = self.with_reader(|reader| {
            let Some(manifest) = self.read_manifest(reader, rank)? else {
                return Ok(None);
            };
            let Some(attempt) = manifest.attempts.into_iter().nth(attempt) else {
                return Ok(None);
            };
            self.read_tape(reader, attempt).map(Some)
        });
        tape.unwrap_or_else(|e| panic!("reading the tape of rank {rank}: {e}"))
    }
}

/// A blob's content, where [`ReplayBundle::blob`] found it.
enum Blob<'a> {
    /// In memory: more than one site names it.
    Shared(&'a Bytes),
    /// In a reader's window.
    Read(&'a [u8]),
}

impl Blob<'_> {
    fn content(&self) -> &[u8] {
        match self {
            Blob::Shared(bytes) => bytes,
            Blob::Read(content) => content,
        }
    }

    /// The content as a body: a shared blob's buffer is shared again.
    fn into_bytes(self) -> Bytes {
        match self {
            Blob::Shared(bytes) => bytes.clone(),
            Blob::Read(content) => Bytes::copy_from_slice(content),
        }
    }
}

/// A replay's own read handles on a store's two packs. Every frame it
/// reads is checked again: its length against the index, its CRC, and
/// for a blob the digest its content hashes to. So a store that changed
/// after [`ReplayBundle::load`] fails, naming the file and byte offset.
pub(crate) struct BundleReader {
    blobs: PackWindow,
    manifests: PackWindow,
}

impl BundleReader {
    fn open(dir: &Path) -> std::io::Result<BundleReader> {
        Ok(BundleReader {
            blobs: PackWindow::open(dir.join(BUNDLE_BLOBS_FILE))?,
            manifests: PackWindow::open(dir.join(BUNDLE_MANIFESTS_FILE))?,
        })
    }

    /// The content of blob `digest`, read from its frame at `entry`.
    fn blob(&mut self, digest: &[u8; 16], entry: &BlobEntry) -> std::io::Result<&[u8]> {
        let at = entry.at;
        let payload = self.blobs.frame(at, entry.len)?;
        let pack = &self.blobs;
        let (stored, content) =
            blob_payload(&pack.window[payload], at).map_err(|e| pack.error(e))?;
        if stored != digest {
            return Err(pack.error(format!("blob at byte {at} is not the one the index names")));
        }
        Ok(content)
    }
}

/// One read handle on a pack file, and the window of it read last.
struct PackWindow {
    path: PathBuf,
    file: File,
    /// Bytes read from file offset `start` on, of which the first
    /// `filled` are valid. The handle's position is `start + filled`.
    window: Vec<u8>,
    start: u64,
    filled: usize,
}

impl PackWindow {
    fn open(path: PathBuf) -> std::io::Result<PackWindow> {
        let file = File::open(&path).map_err(|e| crate::db::at("opening", &path, e))?;
        Ok(PackWindow {
            path,
            file,
            window: Vec::new(),
            start: 0,
            filled: 0,
        })
    }

    /// An `InvalidData` error naming the pack.
    fn error(&self, detail: String) -> std::io::Error {
        let message = format!("{}: {detail}", self.path.display());
        std::io::Error::new(std::io::ErrorKind::InvalidData, message)
    }

    /// Where the window holds the payload of the frame at byte `at`,
    /// which the index says is `len` bytes long: read through the
    /// window, then checked against that length and its CRC.
    fn frame(&mut self, at: u64, len: u32) -> std::io::Result<std::ops::Range<usize>> {
        let size = 8 + len as usize;
        let end = self.start + self.filled as u64;
        if at < self.start || at + size as u64 > end {
            self.fill(at, size)?;
        }
        let from = (at - self.start) as usize;
        check_frame(&self.window[from..from + size], at, len).map_err(|e| self.error(e))?;
        Ok(from + 8..from + size)
    }

    /// Refills the window from byte `at` with at least `size` bytes. The
    /// window's bytes from `at` on move to its front, and reading goes on
    /// from the handle's position; only a frame outside the window (or a
    /// window that holds nothing) seeks.
    fn fill(&mut self, at: u64, size: usize) -> std::io::Result<()> {
        let capacity = size.max(READ_WINDOW);
        if self.window.len() < capacity {
            self.window.resize(capacity, 0);
        }
        let end = self.start + self.filled as u64;
        if self.filled > 0 && (self.start..=end).contains(&at) {
            let from = (at - self.start) as usize;
            self.window.copy_within(from..self.filled, 0);
            self.filled -= from;
        } else {
            self.filled = 0;
            let seek = self.file.seek(SeekFrom::Start(at));
            seek.map_err(|e| crate::db::at("reading", &self.path, e))?;
        }
        self.start = at;
        while self.filled < size {
            match self.file.read(&mut self.window[self.filled..capacity]) {
                Ok(0) => return Err(self.error(format!("torn record at byte {at}"))),
                Ok(read) => self.filled += read,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(crate::db::at("reading", &self.path, e)),
            }
        }
        Ok(())
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
    /// Scans a store. `Strict` errors loudly on any damage, exactly where
    /// [`ReplayBundle::load`] does; `Lenient` skips and counts each record
    /// that fails the store rules instead. A `Resume` scan counts the
    /// prefix [`BundleRecorder::resume`] would keep.
    pub fn scan(dir: &Path, mode: StreamMode) -> std::io::Result<BundleStat> {
        let mut stat = BundleStat::default();
        let pass = pass_store(
            dir,
            mode,
            |content, _| content.len() as u64,
            |manifest, _, sizes| {
                stat.sites += 1;
                stat.synthesized += manifest.synthesized as u64;
                stat.attempts += manifest.attempts.len() as u64;
                for attempt in &manifest.attempts {
                    stat.exchanges += attempt.exchanges.len() as u64;
                }
                // The pass admits a manifest only once every blob it
                // names is in `sizes`.
                stat.referenced_bytes += manifest.blob_refs().map(|d| sizes[d]).sum::<u64>();
            },
        )?;
        stat.unique_blobs = pass.blobs.len() as u64;
        stat.stored_bytes = pass.blobs.values().sum();
        stat.blob_skips = pass.blob_skips;
        stat.manifest_skips = pass.manifest_skips;
        for file in BUNDLE_STORE_FILES {
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
    use crate::scratch::ScratchFile;
    use crate::storage::crc32;
    use std::fs::OpenOptions;

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

    /// A store directory of its own, removed with its parent when
    /// dropped.
    fn scratch(name: &str) -> ScratchFile {
        ScratchFile::new("permodyssey-bundle", name)
    }

    /// Rank `rank`'s visit: a page whose header template and body are
    /// its own, then a script every site shares. The browser replays it
    /// exactly: it fetches the page, probes it, then fetches the script.
    fn site(rank: u64) -> SiteBundle {
        let url = format!("https://site-{rank}.example/");
        let exchange = |url: &str, headers: Vec<(String, String)>, body: String| Exchange {
            url: url.to_string(),
            advance_ms: 155,
            outcome: ExchangeOutcome::Content {
                status: 200,
                headers,
                body: Bytes::copy_from_slice(body.as_bytes()),
                final_url: url.to_string(),
                redirects: 0,
            },
        };
        let page_headers = vec![
            ("content-type".to_string(), "text/html".to_string()),
            (
                "permissions-policy".to_string(),
                format!("camera=(self \"{url}\")"),
            ),
        ];
        let script_headers = vec![("content-type".to_string(), "text/javascript".to_string())];
        SiteBundle {
            rank,
            origin: url.clone(),
            synthesized: false,
            attempts: vec![VisitTape {
                exchanges: vec![
                    exchange(
                        &url,
                        page_headers,
                        format!("<html>{rank}<script src=\"https://cdn.example/t.js\"></script>"),
                    ),
                    exchange(
                        "https://cdn.example/t.js",
                        script_headers,
                        "track();".into(),
                    ),
                ],
                probes: vec![PostFetchProbe { url, failure: None }],
            }],
        }
    }

    /// Records ranks `1..=sites` into a fresh store at `dir`. Its blob
    /// frames are rank 1's page headers, page, script headers and script,
    /// then each later rank's page headers and page.
    fn record_sites(dir: &Path, sites: u64) -> BundleMeta {
        let meta = BundleMeta::for_crawl(&CrawlConfig::default(), 7, sites, false);
        let recorder = BundleRecorder::create(dir, &meta).unwrap();
        for rank in 1..=sites {
            recorder.submit(site(rank)).unwrap();
        }
        assert_eq!(recorder.finish().unwrap(), sites);
        meta
    }

    /// Byte ranges of a pack's frames, in file order.
    fn frames(pack: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut frames = Vec::new();
        let mut at = 8;
        while at < pack.len() {
            let len = u32::from_le_bytes(pack[at..at + 4].try_into().unwrap()) as usize;
            frames.push(at..at + 8 + len);
            at += 8 + len;
        }
        frames
    }

    fn edit_pack(dir: &Path, file: &str, edit: impl FnOnce(&mut Vec<u8>)) {
        let path = dir.join(file);
        let mut bytes = std::fs::read(&path).unwrap();
        edit(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn store_round_trips_and_dedups() {
        let dir = scratch("store");
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
        let site = |rank: u64, origin: &str| SiteBundle {
            rank,
            origin: origin.to_string(),
            synthesized: false,
            attempts: vec![tape(origin)],
        };
        // Sites commit strictly in rank order: rank 2 before rank 1 is an
        // error that leaves the store unchanged.
        let packs =
            || [BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE].map(|f| std::fs::read(dir.join(f)));
        assert_eq!(recorder.finish().unwrap(), 0);
        let empty = packs().map(Result::unwrap);
        let err = recorder.submit(site(2, "https://b.example/")).unwrap_err();
        let expected = "rank 2 submitted before rank 1";
        assert!(err.to_string().contains(expected), "{err}");
        assert_eq!(recorder.finish().unwrap(), 0);
        assert_eq!(packs().map(Result::unwrap), empty, "the store is unchanged");
        recorder.submit(site(1, "https://a.example/")).unwrap();
        recorder.submit(site(2, "https://b.example/")).unwrap();
        // A rank already committed is dropped.
        recorder.submit(site(1, "https://a.example/")).unwrap();
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
    }

    #[test]
    fn corruption_is_loud_in_strict_and_counted_in_lenient() {
        let dir = scratch("corrupt");
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
    }

    /// A manifest that fails a store rule counts once among the lenient
    /// skips and adds nothing to the site, attempt, exchange or
    /// referenced-byte counts.
    #[test]
    fn lenient_stat_counts_a_failing_manifest_once() {
        let dir = scratch("lenient");
        record_sites(&dir, 5);
        // Cut blobs.bin after rank 3's page: ranks 4 and 5 each name two
        // blobs it no longer holds.
        edit_pack(&dir, BUNDLE_BLOBS_FILE, |pack| {
            pack.truncate(frames(pack)[7].end)
        });
        let stat = BundleStat::scan(&dir, StreamMode::Lenient).unwrap();
        assert_eq!(stat.manifest_skips.skipped, 2);
        assert_eq!(stat.manifest_skips.lines, [4, 5]);
        assert_eq!(stat.blob_skips, SkipReport::default());

        // Everything else reads as a store that only ever held ranks 1..=3.
        let three = scratch("lenient-three");
        record_sites(&three, 3);
        let expected = BundleStat::scan(&three, StreamMode::Strict).unwrap();
        let counts = |s: &BundleStat| {
            let blobs = (s.referenced_bytes, s.unique_blobs, s.stored_bytes);
            (s.sites, s.synthesized, s.attempts, s.exchanges, blobs)
        };
        assert_eq!(counts(&stat), counts(&expected));
    }

    #[test]
    fn resume_truncates_torn_tails_and_rolls_back_blobless_manifests() {
        let dir = scratch("resume");
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
        assert_eq!(resumed.committed(), 0, "manifest rolled back");
    }

    /// Every reader applies one rule set: on each damage shape a strict
    /// `bundle stat` fails exactly when a replay load does, with the same
    /// message, and a resume keeps the prefix before the damage and,
    /// once every rank is submitted again, finishes a store that loads.
    /// A corrupt or missing `bundle.json` fails all three.
    #[test]
    fn readers_agree_on_every_damage_shape() {
        type Damage = fn(&Path);
        // (shape, damage, ranks a resume keeps: `None` if it fails)
        let shapes: [(&str, Damage, Option<u64>); 10] = [
            ("intact", |_| {}, Some(5)),
            (
                "rank-gap",
                |dir| {
                    edit_pack(dir, BUNDLE_MANIFESTS_FILE, |pack| {
                        drop(pack.drain(frames(pack)[2].clone()))
                    })
                },
                Some(2),
            ),
            (
                // Rank 2's page changes and its CRC is recomputed.
                "digest-mismatch",
                |dir| {
                    edit_pack(dir, BUNDLE_BLOBS_FILE, |pack| {
                        let frame = frames(pack)[5].clone();
                        pack[frame.end - 1] ^= 0xFF;
                        let crc = crc32(&pack[frame.start + 8..frame.end]);
                        pack[frame.start + 4..frame.start + 8].copy_from_slice(&crc.to_le_bytes());
                    })
                },
                Some(1),
            ),
            (
                // A CRC-valid 10-byte record after the first blob.
                "short-blob-record",
                |dir| {
                    edit_pack(dir, BUNDLE_BLOBS_FILE, |pack| {
                        let at = frames(pack)[0].end;
                        let mut short = Vec::new();
                        write_frame(&mut short, None, &[0u8; 10]).unwrap();
                        pack.splice(at..at, short);
                    })
                },
                Some(0),
            ),
            (
                // Rank 3's page headers leave blobs.bin.
                "missing-blob",
                |dir| {
                    edit_pack(dir, BUNDLE_BLOBS_FILE, |pack| {
                        drop(pack.drain(frames(pack)[6].clone()))
                    })
                },
                Some(2),
            ),
            (
                "torn-blobs-tail",
                |dir| edit_pack(dir, BUNDLE_BLOBS_FILE, |pack| pack.truncate(pack.len() - 3)),
                Some(4),
            ),
            (
                "torn-manifests-tail",
                |dir| {
                    edit_pack(dir, BUNDLE_MANIFESTS_FILE, |pack| {
                        pack.truncate(pack.len() - 3)
                    })
                },
                Some(4),
            ),
            (
                // The last byte of rank 3's page.
                "flipped-byte",
                |dir| {
                    edit_pack(dir, BUNDLE_BLOBS_FILE, |pack| {
                        let end = frames(pack)[7].end;
                        pack[end - 1] ^= 0x01;
                    })
                },
                Some(2),
            ),
            (
                // The seed edited without updating the CRC trailer.
                "corrupt-bundle-json",
                |dir| {
                    let path = dir.join(BUNDLE_META_FILE);
                    let text = std::fs::read_to_string(&path).unwrap();
                    assert!(text.contains("\"seed\":7"), "{text}");
                    std::fs::write(&path, text.replace("\"seed\":7", "\"seed\":8")).unwrap();
                },
                None,
            ),
            (
                "missing-bundle-json",
                |dir| std::fs::remove_file(dir.join(BUNDLE_META_FILE)).unwrap(),
                None,
            ),
        ];
        for (shape, damage, kept) in shapes {
            let dir = scratch(shape);
            let meta = record_sites(&dir, 5);
            damage(&dir);

            let load = ReplayBundle::load(&dir)
                .map(|_| ())
                .map_err(|e| e.to_string());
            let stat = BundleStat::scan(&dir, StreamMode::Strict)
                .map(|_| ())
                .map_err(|e| e.to_string());
            assert_eq!(
                load.is_ok(),
                shape == "intact",
                "{shape}: load gave {load:?}"
            );
            assert_eq!(stat, load, "{shape}: bundle stat and load disagree");

            let resumed = BundleRecorder::resume(&dir, &meta);
            let Some(kept) = kept else {
                let err = load.unwrap_err();
                assert!(err.contains(BUNDLE_META_FILE), "{shape}: {err}");
                let resumed = resumed.map(|_| ()).map_err(|e| e.to_string());
                assert!(resumed.is_err(), "{shape}: resume accepted the store");
                continue;
            };
            let resumed = resumed.unwrap();
            assert_eq!(resumed.committed(), kept, "{shape}: durable prefix");
            for rank in 1..=5 {
                resumed.submit(site(rank)).unwrap();
            }
            assert_eq!(resumed.finish().unwrap(), 5);
            let bundle = ReplayBundle::load(&dir)
                .unwrap_or_else(|e| panic!("{shape}: the resumed store fails to load: {e}"));
            for rank in 1..=5 {
                assert_eq!(
                    bundle.tape(rank, 0).unwrap(),
                    site(rank).attempts[0],
                    "{shape}"
                );
            }
        }
    }

    /// A store that changes after it was loaded fails its replay loudly.
    /// Whether a byte of rank 3's page frame flips or `blobs.bin` is cut
    /// inside that frame, replaying rank 3 errs naming `blobs.bin` and
    /// the frame's byte offset, and a pool replay stops with the read
    /// error instead of panicking.
    #[test]
    fn a_store_changed_after_load_fails_its_replay() {
        type Damage = fn(&mut Vec<u8>, std::ops::Range<usize>);
        let damages: [(&str, Damage); 2] = [
            ("flipped-page-byte", |pack, page| pack[page.end - 1] ^= 0x01),
            ("truncated-blobs", |pack, page| {
                pack.truncate(page.start + 10)
            }),
        ];
        for (damage, edit) in damages {
            let dir = scratch(damage);
            record_sites(&dir, 5);
            let bundle = ReplayBundle::load(&dir).unwrap();
            let crawler = crate::Crawler::new(bundle.meta().replay_config(2));
            for rank in 1..=5 {
                let mut reader = bundle.reader().unwrap();
                let replayed = crawler.replay_observed(&bundle, &mut reader, rank, None);
                replayed.unwrap_or_else(|e| panic!("rank {rank} replays before the damage: {e}"));
            }
            let page = frames(&std::fs::read(dir.join(BUNDLE_BLOBS_FILE)).unwrap())[7].clone();
            let at = format!("byte {}", page.start);
            edit_pack(&dir, BUNDLE_BLOBS_FILE, |pack| edit(pack, page));
            let blobs = dir.join(BUNDLE_BLOBS_FILE).display().to_string();

            let mut reader = bundle.reader().unwrap();
            let err = crawler
                .replay_observed(&bundle, &mut reader, 3, None)
                .unwrap_err();
            let message = err.to_string();
            assert!(matches!(err, crate::JobError::Io(_)), "{damage}: {message}");
            assert!(message.contains(&blobs), "{damage}: {message}");
            assert!(message.contains(&at), "{damage}: {message}");

            let out = scratch(&format!("{damage}.jsonl"));
            let opts = crate::JobOptions {
                workers: 2,
                ..crate::JobOptions::default()
            };
            let paths = [out.to_path_buf()];
            let source = crate::CrawlSource::Replay(&bundle);
            let err = crate::crawl_shards(source, &paths, crate::DbFormat::Jsonl, &opts)
                .expect_err("a pool replay of a changed store fails");
            let message = err.to_string();
            assert!(matches!(err, crate::JobError::Io(_)), "{damage}: {message}");
            assert!(message.contains(&blobs), "{damage}: {message}");
        }
    }
}
