//! JSONL record database.
//!
//! The paper's pipeline wrote each site's collected data to a database
//! as soon as its visit finished (Appendix A.2, C14). We persist the
//! same way: one JSON object per line, append-friendly, streamable.
//!
//! [`RecordStream`] is the single reader every consumer shares: it
//! iterates [`SiteRecord`]s straight off the file without materializing
//! the dataset, so analysis memory stays independent of database size.
//! A line that fails to parse is damage for [`StreamMode::recover`]: a
//! failed final line is torn, any earlier one can be skipped, and a
//! strict error names the 1-based line.
//!
//! [`ShardWriter`] is the single writer, in either format: large crawls
//! shard the database (`crawl --shards N` writes `crawl-000.jsonl` …
//! rank-striped), [`shard_paths`] names the pieces, and
//! [`expand_db_paths`] turns an `analyze --db` argument (file,
//! directory, or glob) back into the ordered shard list.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::colsh::ColshWriter;
use crate::run::{CrawlDataset, SiteRecord};
use crate::storage::{
    reopen_at, Damage, Digest64, DigestWriter, Fault, FrameReader, Recovery, SkipReport, StreamMode,
};

/// Streaming JSONL reader: yields [`SiteRecord`]s one line at a time
/// without ever holding the dataset in memory.
pub struct RecordStream {
    reader: BufReader<File>,
    mode: StreamMode,
    line_no: u64,
    /// Byte length of the valid prefix consumed so far (terminated
    /// blank or parsed lines only) — [`ResumeState::valid_len`].
    valid_len: u64,
    /// Lines (blank or parsed) inside the valid prefix — the `line_no`
    /// rewind point for [`RecordStream::refresh`].
    valid_lines: u64,
    skip: SkipReport,
    buf: Vec<u8>,
    done: bool,
    /// The digest of the valid prefix, folded only when a resume asks
    /// for it ([`resume_jsonl_digested`]).
    digest: Option<Digest64>,
}

impl RecordStream {
    /// Opens a database file for streaming in the given mode.
    pub fn open(path: &Path, mode: StreamMode) -> std::io::Result<RecordStream> {
        Ok(RecordStream {
            reader: BufReader::new(File::open(path)?),
            mode,
            line_no: 0,
            valid_len: 0,
            valid_lines: 0,
            skip: SkipReport::default(),
            buf: Vec::new(),
            done: false,
            digest: None,
        })
    }

    /// Re-arms an exhausted stream against a file that may have grown
    /// since: seeks back to the end of the last valid line and clears
    /// the terminal state so iteration resumes with newly appended
    /// lines only (a previously torn final line is re-read — by then the
    /// writer has completed it or a resume has rewritten it
    /// byte-identically). Must only be called once the stream has
    /// returned `None`.
    pub fn refresh(&mut self) -> std::io::Result<()> {
        self.reader.seek(SeekFrom::Start(self.valid_len))?;
        self.line_no = self.valid_lines;
        self.done = false;
        Ok(())
    }

    /// What a lenient stream skipped so far.
    pub fn skip_report(&self) -> &SkipReport {
        &self.skip
    }

    /// Consumes the stream, returning its skip report.
    pub fn into_skip_report(self) -> SkipReport {
        self.skip
    }

    /// Byte length of the valid prefix read so far (resume mode: the
    /// offset to truncate to before appending).
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Extends the valid prefix by the line just read into `buf`.
    fn accept_line(&mut self) {
        self.valid_len += self.buf.len() as u64;
        self.valid_lines = self.line_no;
        if let Some(digest) = &mut self.digest {
            digest.update(&self.buf);
        }
    }

    fn next_record(&mut self) -> Option<std::io::Result<SiteRecord>> {
        loop {
            if self.done {
                return None;
            }
            self.buf.clear();
            let n = match self.reader.read_until(b'\n', &mut self.buf) {
                Ok(n) => n,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            if n == 0 {
                self.done = true;
                return None;
            }
            self.line_no += 1;
            let terminated = self.buf.last() == Some(&b'\n');
            if !terminated && self.mode == StreamMode::Resume {
                // Unterminated final line: torn mid-write, excluded from
                // the valid prefix.
                self.done = true;
                return None;
            }
            let line = if terminated {
                &self.buf[..self.buf.len() - 1]
            } else {
                &self.buf[..]
            };
            let blank = match line.first() {
                None => true,
                Some(b) if b.is_ascii_whitespace() || *b >= 0x80 => {
                    // Match the old `str::trim().is_empty()` semantics
                    // (unicode whitespace counts as blank) without paying
                    // a UTF-8 pass on ordinary record lines.
                    line.iter().all(u8::is_ascii_whitespace)
                        || std::str::from_utf8(line)
                            .is_ok_and(|t| t.chars().all(char::is_whitespace))
                }
                _ => false,
            };
            if blank {
                // Blank line: fine, still part of the valid prefix.
                self.accept_line();
                continue;
            }
            match serde_json::from_slice::<SiteRecord>(line) {
                Ok(record) => {
                    self.accept_line();
                    return Some(Ok(record));
                }
                Err(e) => match self.damaged_line(terminated, &e) {
                    Ok(Recovery::Skip) => continue,
                    Ok(Recovery::Cut) => {
                        self.done = true;
                        return None;
                    }
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                },
            }
        }
    }

    /// Maps a line that failed to parse through the stream mode. A failed
    /// final line is torn, whether or not its newline made it to disk.
    fn damaged_line(
        &mut self,
        terminated: bool,
        e: &serde_json::Error,
    ) -> std::io::Result<Recovery> {
        let at_eof = self.reader.fill_buf()?.is_empty();
        let damage = match !terminated || at_eof {
            true => Damage::Torn,
            false => Damage::Skippable,
        };
        let fault = Fault::new(damage, format!("line {}: {e}", self.line_no));
        self.mode
            .recover(fault, false, &mut self.skip, self.line_no, 1)
    }
}

impl Iterator for RecordStream {
    type Item = std::io::Result<SiteRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record()
    }
}

/// Writes a dataset as JSONL.
pub fn write_jsonl(dataset: &CrawlDataset, path: &Path) -> std::io::Result<()> {
    write_db(dataset, path, DbFormat::Jsonl)
}

/// Writes a whole dataset as one database file in `format`.
pub(crate) fn write_db(
    dataset: &CrawlDataset,
    path: &Path,
    format: DbFormat,
) -> std::io::Result<()> {
    let mut writer = ShardWriter::create(&[path.into()], format)?;
    for record in &dataset.records {
        writer.push(record)?;
    }
    writer.finish()
}

/// Reads a dataset back from JSONL. Malformed lines are reported as
/// errors (the database is machine-written; corruption should be loud).
pub fn read_jsonl(path: &Path) -> std::io::Result<CrawlDataset> {
    let mut records: Vec<SiteRecord> = Vec::new();
    for record in RecordStream::open(path, StreamMode::Strict)? {
        records.push(record?);
    }
    Ok(CrawlDataset { records })
}

/// What an interrupted write left behind, recovered by [`resume_jsonl`]
/// (or [`crate::resume_colsh`]) in one streaming pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeState {
    /// Complete, valid records on disk.
    pub records: u64,
    /// Byte length of the valid prefix of the file. A torn final line
    /// (the writer was killed mid-append) lies beyond this offset;
    /// truncate to it before appending.
    pub valid_len: u64,
}

/// Scans a possibly-interrupted JSONL database for resumption, calling
/// `check` on every valid record in file order; its first error aborts
/// the scan (pass `|_| Ok(())` to accept any records).
///
/// Unlike [`read_jsonl`] — which stays strict, for finished datasets —
/// this tolerates exactly one kind of damage: a torn *final* line, the
/// signature of a writer killed mid-append. The torn line is excluded
/// from [`ResumeState::valid_len`]; corruption anywhere earlier is still
/// a loud error, which is why every record is fully decoded. Streams
/// line by line — the database is never held in memory.
pub fn resume_jsonl(
    path: &Path,
    check: impl FnMut(&SiteRecord) -> std::io::Result<()>,
) -> std::io::Result<ResumeState> {
    resume_jsonl_digested(path, check).map(|(state, _)| state)
}

/// [`resume_jsonl`], also returning the digest of the valid prefix,
/// folded over the lines the scan reads anyway — the seed of an
/// appending sink's digest.
pub(crate) fn resume_jsonl_digested(
    path: &Path,
    mut check: impl FnMut(&SiteRecord) -> std::io::Result<()>,
) -> std::io::Result<(ResumeState, Digest64)> {
    let mut stream = RecordStream::open(path, StreamMode::Resume)?;
    stream.digest = Some(Digest64::default());
    let mut records = 0u64;
    for record in &mut stream {
        check(&record?)?;
        records += 1;
    }
    let state = ResumeState {
        records,
        valid_len: stream.valid_len(),
    };
    Ok((state, stream.digest.unwrap_or_default()))
}

/// The shard a record of `rank` is striped to on an `shards`-way write.
///
/// Ranks are 1-based, so rank *r* lands on shard `(r - 1) % shards` —
/// with checked arithmetic: a rank-0 record (lenient-parsed or
/// hand-crafted; real crawls never emit one) goes to shard 0 instead of
/// underflowing, which used to panic in debug builds and stripe to an
/// arbitrary shard in release.
pub(crate) fn shard_index(rank: u64, shards: usize) -> usize {
    (rank.saturating_sub(1) % shards.max(1) as u64) as usize
}

/// One shard file's record sink, in either database format.
// One sink exists per shard, so the size gap between variants is moot.
#[allow(clippy::large_enum_variant)]
enum Sink {
    Jsonl {
        out: BufWriter<DigestWriter<File>>,
        records: u64,
    },
    Colsh(ColshWriter),
}

impl Sink {
    /// Creates `path`, or with `resume` reopens an existing file after
    /// its valid prefix (torn tail dropped), passing each record on disk
    /// to `check`. Returns the sink and its record count.
    fn open(
        path: &Path,
        format: DbFormat,
        resume: bool,
        check: impl FnMut(&SiteRecord) -> std::io::Result<()>,
    ) -> std::io::Result<(Sink, u64)> {
        Ok(match (format, resume && path.exists()) {
            (DbFormat::Jsonl, false) => {
                let file = File::create(path)?;
                let out = BufWriter::new(DigestWriter::new(file, Digest64::default()));
                (Sink::Jsonl { out, records: 0 }, 0)
            }
            (DbFormat::Colsh, false) => (Sink::Colsh(ColshWriter::create(path)?), 0),
            (DbFormat::Jsonl, true) => {
                let (ResumeState { records, valid_len }, digest) =
                    resume_jsonl_digested(path, check)?;
                let file = reopen_at(path, valid_len, None)?;
                let out = BufWriter::new(DigestWriter::new(file, digest));
                (Sink::Jsonl { out, records }, records)
            }
            (DbFormat::Colsh, true) => {
                let (state, append) = crate::colsh::resume_colsh(path, check)?;
                let writer = ColshWriter::append(path, state.valid_len, append)?;
                (Sink::Colsh(writer), state.records)
            }
        })
    }

    /// Appends one record. `line` is the writer's scratch buffer, so the
    /// JSONL path reuses one allocation across records.
    fn push(&mut self, record: &SiteRecord, line: &mut String) -> std::io::Result<()> {
        match self {
            Sink::Jsonl { out, records } => {
                line.clear();
                serde_json::to_string_into(record, line);
                line.push('\n');
                out.write_all(line.as_bytes())?;
                *records += 1;
                Ok(())
            }
            Sink::Colsh(writer) => writer.push(record),
        }
    }
}

/// What [`ShardWriter::open`] found in the shard files it reopened.
#[derive(Debug)]
pub struct ShardScan {
    /// Each shard's durable record count, in shard order.
    pub records: Vec<u64>,
    /// Ranks whose durable record is a quarantine record (`attempts ==
    /// 0`: the job engine wrote it without a visit), ascending.
    pub quarantined: Vec<u64>,
}

/// The one writer of record databases: a set of rank-striped shard
/// files in either format, where rank *r* lands in shard
/// `(r - 1) % shards` and a single shard is a plain database file. The
/// job engine, `crawl`, `convert`, [`write_jsonl`] and
/// [`crate::write_colsh`] all write through it. Every I/O error names
/// the file it happened to.
pub struct ShardWriter {
    shards: Vec<(PathBuf, Sink)>,
    /// JSONL encoding scratch, reused across records.
    line: String,
}

/// Prefixes an I/O error with what was being done to which file.
pub(crate) fn at(what: &str, path: &Path, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()))
}

impl ShardWriter {
    /// Creates (or truncates) one shard file per path, in shard order.
    pub fn create(paths: &[PathBuf], format: DbFormat) -> std::io::Result<ShardWriter> {
        ShardWriter::open(paths, format, false).map(|(writer, _)| writer)
    }

    /// Opens one shard file per path, in shard order, returning the
    /// writer and what the files already hold. Without `resume` every
    /// file is created empty. With it, an existing file keeps its valid
    /// prefix (a torn tail is dropped) and is appended to: shard `s` of
    /// `S` holds ranks `s+1, s+1+S, …` in order, so the file must hold
    /// exactly the first `k` of those, which is checked rank by rank in
    /// the same streaming pass that measures the prefix — recovery keeps
    /// one integer per shard, and the rank of each quarantine record.
    pub fn open(
        paths: &[PathBuf],
        format: DbFormat,
        resume: bool,
    ) -> std::io::Result<(ShardWriter, ShardScan)> {
        let stride = paths.len() as u64;
        let mut shards = Vec::with_capacity(paths.len());
        let mut scan = ShardScan {
            records: Vec::with_capacity(paths.len()),
            quarantined: Vec::new(),
        };
        for (shard, path) in paths.iter().enumerate() {
            let mut expected = shard as u64 + 1;
            let stripe = |record: &SiteRecord| {
                let rank = record.rank;
                if rank != expected {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "not a rank-ordered stripe prefix (found rank {rank} where \
                             {expected} belongs); it was not written by this job"
                        ),
                    ));
                }
                if record.attempts == 0 {
                    scan.quarantined.push(rank);
                }
                expected += stride;
                Ok(())
            };
            let (sink, records) =
                Sink::open(path, format, resume, stripe).map_err(|e| at("opening", path, e))?;
            shards.push((path.clone(), sink));
            scan.records.push(records);
        }
        scan.quarantined.sort_unstable();
        let line = String::new();
        Ok((ShardWriter { shards, line }, scan))
    }

    /// Sets the `.colsh` row-group size and dictionary-epoch length
    /// (`0` disables epochs); JSONL shards ignore both.
    pub fn with_colsh_layout(self, group_records: usize, dict_epoch_groups: u64) -> ShardWriter {
        let layout = |sink| match sink {
            Sink::Colsh(writer) => Sink::Colsh(
                writer
                    .with_group_records(group_records)
                    .with_dict_epoch_groups(dict_epoch_groups),
            ),
            jsonl => jsonl,
        };
        let shards = self.shards.into_iter();
        let shards = shards.map(|(path, sink)| (path, layout(sink))).collect();
        ShardWriter { shards, ..self }
    }

    /// Appends `record` to the shard its rank stripes to.
    pub fn push(&mut self, record: &SiteRecord) -> std::io::Result<()> {
        let shard = shard_index(record.rank, self.shards.len());
        let (path, sink) = &mut self.shards[shard];
        sink.push(record, &mut self.line)
            .map_err(|e| at("writing", path, e))
    }

    /// Completes every shard: flushes, and columnar shards write END.
    pub fn finish(self) -> std::io::Result<()> {
        self.finish_sealed().map(|_| ())
    }

    /// [`ShardWriter::finish`], returning the digest of each finished
    /// shard file, in shard order.
    pub(crate) fn finish_sealed(self) -> std::io::Result<Vec<Digest64>> {
        self.shards
            .into_iter()
            .map(|(path, sink)| {
                match sink {
                    Sink::Jsonl { mut out, .. } => out.flush().map(|()| out.get_ref().digest()),
                    Sink::Colsh(writer) => writer.finish_sealed(),
                }
                .map_err(|e| at("finishing", &path, e))
            })
            .collect()
    }

    /// Graceful-shutdown checkpoint: flushes every shard to a clean
    /// resume point and returns how many records are durable across
    /// them. JSONL loses nothing; columnar drops each partial tail row
    /// group so a resumed file stays byte-identical to an uninterrupted
    /// one.
    pub(crate) fn finish_checkpoint(self) -> std::io::Result<u64> {
        let mut durable = 0;
        for (path, sink) in self.shards {
            durable += match sink {
                Sink::Jsonl { mut out, records } => out.flush().map(|()| records),
                Sink::Colsh(writer) => writer.finish_checkpoint(),
            }
            .map_err(|e| at("finishing", &path, e))?;
        }
        Ok(durable)
    }
}

/// The path of shard `index` for a database rooted at `base`:
/// `crawl.jsonl` → `crawl-000.jsonl`, `crawl-001.jsonl`, …
pub fn shard_path(base: &Path, index: usize) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("crawl");
    let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("jsonl");
    base.with_file_name(format!("{stem}-{index:03}.{ext}"))
}

/// The shard files of a `shards`-way database rooted at `base`, in
/// shard order: `base` itself when there is one shard.
pub fn shard_paths(base: &Path, shards: usize) -> Vec<PathBuf> {
    if shards <= 1 {
        vec![base.to_path_buf()]
    } else {
        (0..shards).map(|i| shard_path(base, i)).collect()
    }
}

/// Splits a file name of the shard shape `{prefix}-{digits}.{ext}` into
/// its parts. `None` for anything else.
fn shard_name_parts(name: &str) -> Option<(&str, u64, &str)> {
    let (stem, ext) = name.rsplit_once('.')?;
    let (prefix, digits) = stem.rsplit_once('-')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let index: u64 = digits.parse().ok()?;
    Some((prefix, index, ext))
}

/// Sorts database paths into merge order: shard files (`prefix-NNN.ext`)
/// numerically by index, everything else lexicographically. A plain
/// name sort breaks byte-identity past 999 shards — `{index:03}` padding
/// stops padding there, so `crawl-1000.jsonl` sorts before
/// `crawl-999.jsonl` lexicographically and shard-order merge diverges
/// from shard index order.
fn sort_db_paths(paths: &mut [PathBuf]) {
    paths.sort_by(|a, b| {
        let key = |p: &PathBuf| -> (PathBuf, String, Option<u64>, String) {
            let name = p
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let parent = p.parent().map(Path::to_path_buf).unwrap_or_default();
            match shard_name_parts(&name) {
                Some((prefix, index, _ext)) => (parent, prefix.to_string(), Some(index), name),
                None => {
                    let prefix = name.rsplit_once('.').map(|(s, _)| s).unwrap_or(&name);
                    (parent, prefix.to_string(), None, name)
                }
            }
        };
        key(a).cmp(&key(b))
    });
}

/// Rejects a database list that contains both an unsharded base file and
/// its own shards (`crawl.jsonl` next to `crawl-NNN.jsonl`): analyzing
/// such a directory would double-count every record in the base file.
fn check_base_shard_conflict(paths: &[PathBuf], arg: &str) -> std::io::Result<()> {
    let names: BTreeSet<&str> = paths
        .iter()
        .filter_map(|p| p.file_name().and_then(|n| n.to_str()))
        .collect();
    for name in &names {
        if let Some((prefix, _, ext)) = shard_name_parts(name) {
            let base = format!("{prefix}.{ext}");
            if names.contains(base.as_str()) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "{arg} contains both {base} and its shards ({name}, …): \
                         records in {base} would be double-counted; remove one"
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Extensions `expand_db_paths` treats as database files in a directory.
const DB_EXTENSIONS: [&str; 2] = ["jsonl", "colsh"];

/// Refuses a directory that mixes a record/replay bundle store with
/// record shards. The store's pack files are not `*.jsonl`/`*.colsh`,
/// so shard-oriented readers would silently skip the recording half of
/// the data — and re-encoders would drop new shards between the store's
/// pack files. Every path that expands or re-encodes a shard directory
/// calls this first; the error is loud and names the path.
pub fn refuse_mixed_bundle_dir(dir: &Path) -> std::io::Result<()> {
    if !dir.is_dir() || !crate::bundle::is_bundle_store(dir) {
        return Ok(());
    }
    let has_shards = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .any(|p| {
            p.is_file()
                && p.extension()
                    .and_then(|e| e.to_str())
                    .is_some_and(|e| DB_EXTENSIONS.contains(&e))
        });
    if has_shards {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{} mixes a record/replay bundle store with record shards; \
                 keep the store in its own directory — replay it with \
                 `crawl --replay`, or point at the shard files directly",
                dir.display()
            ),
        ));
    }
    Ok(())
}

/// Expands an `analyze --db` argument into the ordered list of database
/// files it names:
///
/// * a directory — every `*.jsonl` / `*.colsh` inside, shards sorted
///   numerically by index;
/// * a pattern containing `*` — matching files in the parent directory,
///   same order;
/// * anything else — the single file.
///
/// Directory and pattern expansion refuse a base file coexisting with
/// its own shards (see `check_base_shard_conflict`).
pub fn expand_db_paths(arg: &str) -> std::io::Result<Vec<PathBuf>> {
    let path = Path::new(arg);
    let not_found = |what: &str| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{what} matched no database files"),
        )
    };
    if path.is_dir() {
        // A job directory owns exactly the shards its manifest declares.
        // Globbing it loosely would also pick up non-shard artifacts a
        // job can leave next to them (operator-converted copies, scratch
        // exports) and double-count or mis-count records.
        if path.join(crate::jobs::MANIFEST_FILE).exists() {
            let manifest = crate::jobs::JobManifest::load(path)?;
            let paths: Vec<PathBuf> = manifest
                .shard_files(path)
                .into_iter()
                .filter(|p| p.is_file())
                .collect();
            if paths.is_empty() {
                return Err(not_found(&format!(
                    "job directory {arg} (no shards written yet)"
                )));
            }
            return Ok(paths);
        }
        refuse_mixed_bundle_dir(path)?;
        let mut paths: Vec<PathBuf> = std::fs::read_dir(path)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.is_file()
                    && p.extension()
                        .and_then(|e| e.to_str())
                        .is_some_and(|e| DB_EXTENSIONS.contains(&e))
            })
            .collect();
        sort_db_paths(&mut paths);
        if paths.is_empty() {
            return Err(not_found(&format!("directory {arg}")));
        }
        check_base_shard_conflict(&paths, arg)?;
        return Ok(paths);
    }
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.contains('*') {
        let dir = match path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
            _ => PathBuf::from("."),
        };
        refuse_mixed_bundle_dir(&dir)?;
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.is_file()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| glob_match(name, n))
            })
            .collect();
        sort_db_paths(&mut paths);
        if paths.is_empty() {
            return Err(not_found(&format!("pattern {arg}")));
        }
        check_base_shard_conflict(&paths, arg)?;
        return Ok(paths);
    }
    Ok(vec![path.to_path_buf()])
}

/// On-disk database formats a shard file can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DbFormat {
    /// One JSON object per line — the interchange format.
    Jsonl,
    /// Binary columnar row groups (`.colsh`) — the analysis-scale format.
    Colsh,
}

impl DbFormat {
    /// The file extension of the format (`jsonl` / `colsh`).
    pub fn extension(self) -> &'static str {
        match self {
            DbFormat::Jsonl => "jsonl",
            DbFormat::Colsh => "colsh",
        }
    }
}

/// Sniffs a database file's format from its magic bytes. Anything that
/// does not start with the `.colsh` magic is treated as JSONL (whose
/// own parser reports corruption with line numbers).
pub fn detect_db_format(path: &Path) -> std::io::Result<DbFormat> {
    let mut magic = [0u8; 8];
    let sniffed = FrameReader::open(path, true)?.head(&mut magic)?;
    Ok(match sniffed && magic == crate::colsh::COLSH_MAGIC {
        true => DbFormat::Colsh,
        false => DbFormat::Jsonl,
    })
}

/// A [`RecordStream`]-shaped reader over either database format,
/// selected per file by magic sniffing — what lets `analyze` fold a
/// directory of mixed JSONL and columnar shards transparently.
// One stream exists per shard file, so the size gap between the two
// readers is irrelevant; boxing would tax every record decode instead.
#[allow(clippy::large_enum_variant)]
pub enum AnyRecordStream {
    /// Line-by-line JSONL (projection is a no-op: rows are monolithic).
    Jsonl(RecordStream),
    /// Columnar row groups honoring the projection.
    Colsh(crate::colsh::ColshStream),
}

impl AnyRecordStream {
    /// Opens a database file reading every column.
    pub fn open(path: &Path, mode: StreamMode) -> std::io::Result<AnyRecordStream> {
        AnyRecordStream::open_projected(path, mode, crate::colsh::ColumnSet::ALL)
    }

    /// Opens a database file materializing only `columns` where the
    /// format supports projection (JSONL always decodes full records).
    pub fn open_projected(
        path: &Path,
        mode: StreamMode,
        columns: crate::colsh::ColumnSet,
    ) -> std::io::Result<AnyRecordStream> {
        AnyRecordStream::open_as(path, detect_db_format(path)?, mode, columns)
    }

    /// Opens a database file as `format`, without sniffing its magic.
    pub(crate) fn open_as(
        path: &Path,
        format: DbFormat,
        mode: StreamMode,
        columns: crate::colsh::ColumnSet,
    ) -> std::io::Result<AnyRecordStream> {
        match format {
            DbFormat::Jsonl => RecordStream::open(path, mode).map(AnyRecordStream::Jsonl),
            DbFormat::Colsh => crate::colsh::ColshStream::open_projected(path, mode, columns)
                .map(AnyRecordStream::Colsh),
        }
    }

    /// What a lenient stream skipped so far (lines for JSONL, records
    /// for columnar).
    pub fn skip_report(&self) -> &SkipReport {
        match self {
            AnyRecordStream::Jsonl(s) => s.skip_report(),
            AnyRecordStream::Colsh(s) => s.skip_report(),
        }
    }

    /// Consumes the stream, returning its skip report.
    pub fn into_skip_report(self) -> SkipReport {
        match self {
            AnyRecordStream::Jsonl(s) => s.into_skip_report(),
            AnyRecordStream::Colsh(s) => s.into_skip_report(),
        }
    }

    /// Byte length of the valid prefix read so far.
    pub fn valid_len(&self) -> u64 {
        match self {
            AnyRecordStream::Jsonl(s) => s.valid_len(),
            AnyRecordStream::Colsh(s) => s.valid_len(),
        }
    }

    /// Re-arms an exhausted stream against a file that may have grown,
    /// resuming at the end of the valid prefix (see
    /// [`RecordStream::refresh`] / [`crate::ColshStream::refresh`]).
    pub fn refresh(&mut self) -> std::io::Result<()> {
        match self {
            AnyRecordStream::Jsonl(s) => s.refresh(),
            AnyRecordStream::Colsh(s) => s.refresh(),
        }
    }
}

impl Iterator for AnyRecordStream {
    type Item = std::io::Result<SiteRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            AnyRecordStream::Jsonl(s) => s.next(),
            AnyRecordStream::Colsh(s) => s.next(),
        }
    }
}

/// Matches `pattern` (with `*` wildcards) against `name`.
fn glob_match(pattern: &str, name: &str) -> bool {
    let parts: Vec<&str> = pattern.split('*').collect();
    let mut rest = name;
    for (i, part) in parts.iter().enumerate() {
        if i == 0 {
            let Some(after) = rest.strip_prefix(part) else {
                return false;
            };
            rest = after;
        } else if i == parts.len() - 1 {
            // Last fragment must anchor at the end.
            return part.is_empty() || rest.ends_with(part) && rest.len() >= part.len();
        } else if part.is_empty() {
            continue;
        } else {
            let Some(pos) = rest.find(part) else {
                return false;
            };
            rest = &rest[pos + part.len()..];
        }
    }
    // Pattern ended with a literal fragment and consumed everything.
    parts.len() == 1 && rest.is_empty() || parts.len() > 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{CrawlConfig, Crawler};
    use crate::scratch::ScratchFile;
    use crate::storage::SKIP_REPORT_LINES;
    use webgen::{PopulationConfig, WebPopulation};

    #[test]
    fn jsonl_round_trip() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 30 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let path = ScratchFile::new("permodyssey-db", "crawl.jsonl");
        write_jsonl(&dataset, &path).unwrap();
        let loaded = read_jsonl(&path).unwrap();
        assert_eq!(dataset.records.len(), loaded.records.len());
        for (a, b) in dataset.records.iter().zip(&loaded.records) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(
                a.visit.as_ref().map(|v| v.frames.len()),
                b.visit.as_ref().map(|v| v.frames.len())
            );
        }
    }

    #[test]
    fn mixed_bundle_store_dir_is_refused() {
        let dir =
            std::env::temp_dir().join(format!("permodyssey-mixed-bundle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("crawl.jsonl"), "{}\n").unwrap();
        // Shards alone: fine, both directly and via directory expansion.
        refuse_mixed_bundle_dir(&dir).unwrap();
        expand_db_paths(dir.to_str().unwrap()).unwrap();
        // Drop a bundle-store file next to them: refused, naming the dir.
        std::fs::write(dir.join(crate::bundle::BUNDLE_MANIFESTS_FILE), b"").unwrap();
        let direct = refuse_mixed_bundle_dir(&dir).unwrap_err();
        assert!(direct.to_string().contains("bundle store"), "{direct}");
        assert!(
            direct.to_string().contains(dir.to_str().unwrap()),
            "error must name the path: {direct}"
        );
        let expanded = expand_db_paths(dir.to_str().unwrap()).unwrap_err();
        assert!(expanded.to_string().contains("bundle store"), "{expanded}");
        let pattern = format!("{}/*.jsonl", dir.display());
        let globbed = expand_db_paths(&pattern).unwrap_err();
        assert!(globbed.to_string().contains("bundle store"), "{globbed}");
        // A pure bundle store (no shards) is not "mixed".
        std::fs::remove_file(dir.join("crawl.jsonl")).unwrap();
        refuse_mixed_bundle_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_lines_are_loud() {
        let path = ScratchFile::new("permodyssey-db", "corrupt.jsonl");
        std::fs::write(&path, "{not json}\n").unwrap();
        assert!(read_jsonl(&path).is_err());
    }

    #[test]
    fn strict_errors_carry_one_based_line_numbers() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 3 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let path = ScratchFile::new("permodyssey-db", "strict-lineno.jsonl");
        write_jsonl(&dataset, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = "{broken".to_string();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = read_jsonl(&path).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    /// Every record a lenient stream salvages, plus what it skipped.
    fn read_lenient(path: &Path) -> (Vec<SiteRecord>, SkipReport) {
        let mut stream = RecordStream::open(path, StreamMode::Lenient).unwrap();
        let records = (&mut stream).map(|r| r.unwrap()).collect();
        (records, stream.into_skip_report())
    }

    #[test]
    fn lenient_reader_skips_and_reports_corrupt_line_numbers() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 6 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let path = ScratchFile::new("permodyssey-db", "lenient.jsonl");
        write_jsonl(&dataset, &path).unwrap();

        // Corrupt two lines in the middle of the file: one mangled JSON,
        // one raw garbage. The strict reader refuses; the lenient one
        // salvages everything else and localizes the damage.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert!(lines.len() >= 5);
        lines[1] = lines[1][..lines[1].len() / 2].to_string();
        lines[3] = "\u{fffd}\u{fffd} not a record".to_string();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        assert!(read_jsonl(&path).is_err());
        let (salvaged, report) = read_lenient(&path);
        assert_eq!(report.skipped, 2);
        // 1-based numbering, matching the strict reader's errors.
        assert_eq!(report.lines, vec![2, 4]);
        assert_eq!(report.describe(), "lines 2, 4");
        assert_eq!(salvaged.len(), dataset.records.len() - 2);
    }

    #[test]
    fn skip_report_caps_listed_lines() {
        let mut report = SkipReport::default();
        for line in 1..=8 {
            report.record(line, 1);
        }
        assert_eq!(report.skipped, 8);
        assert_eq!(report.lines.len(), SKIP_REPORT_LINES);
        assert_eq!(report.describe(), "lines 1, 2, 3, 4, 5 (+3 more)");
    }

    #[test]
    fn record_stream_is_incremental() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 12 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let path = ScratchFile::new("permodyssey-db", "stream.jsonl");
        write_jsonl(&dataset, &path).unwrap();
        let mut stream = RecordStream::open(&path, StreamMode::Strict).unwrap();
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.rank, 1);
        // Remaining records arrive in order without a Vec materializing.
        let ranks: Vec<u64> = stream.map(|r| r.unwrap().rank).collect();
        assert_eq!(ranks, (2..=12).collect::<Vec<u64>>());
    }

    #[test]
    fn resume_tolerates_torn_final_line_only() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 10 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let path = ScratchFile::new("permodyssey-db", "torn.jsonl");
        write_jsonl(&dataset, &path).unwrap();

        // Tear the last record mid-line, as a kill -9 during append would.
        let bytes = std::fs::read(&path).unwrap();
        let intact_len = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let torn = &bytes[..intact_len + (bytes.len() - intact_len) / 2];
        std::fs::write(&path, torn).unwrap();

        // Strict reader refuses; resume recovers the intact prefix.
        assert!(read_jsonl(&path).is_err());
        let mut ranks = Vec::new();
        let state = resume_jsonl(&path, |record| {
            ranks.push(record.rank);
            Ok(())
        })
        .unwrap();
        assert_eq!(state.valid_len, intact_len as u64);
        assert_eq!(state.records, 9);
        assert_eq!(ranks, (1..=9).collect::<Vec<u64>>());

        // Corruption before the final line stays loud.
        let mut early = b"{oops}\n".to_vec();
        early.extend_from_slice(&bytes[..intact_len]);
        std::fs::write(&path, early).unwrap();
        assert!(resume_jsonl(&path, |_| Ok(())).is_err());
    }

    #[test]
    fn resume_tolerates_terminated_torn_final_line() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 8 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let path = ScratchFile::new("permodyssey-db", "torn-terminated.jsonl");
        write_jsonl(&dataset, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let intact_len = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        // A torn write that happened to end on a newline.
        let mut torn = bytes[..intact_len + (bytes.len() - intact_len) / 2].to_vec();
        torn.push(b'\n');
        std::fs::write(&path, torn).unwrap();
        let state = resume_jsonl(&path, |_| Ok(())).unwrap();
        assert_eq!(state.valid_len, intact_len as u64);
        assert_eq!(state.records, 7);
    }

    #[test]
    fn torn_multibyte_utf8_line_localizes_and_resumes() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 3 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let path = ScratchFile::new("permodyssey-db", "torn-utf8.jsonl");
        write_jsonl(&dataset, &path).unwrap();

        // Tear line 2 mid-record and leave a dangling UTF-8 lead byte
        // (0xC3, the first byte of 'é') before the newline — the line is
        // no longer valid UTF-8, let alone JSON, but lines 1 and 3 are
        // untouched.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(lines[0].as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&lines[1].as_bytes()[..lines[1].len() / 2]);
        bytes.push(0xC3);
        bytes.push(b'\n');
        bytes.extend_from_slice(lines[2].as_bytes());
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).unwrap();

        // Strict: refuses, and the error names the 1-based line even
        // though the line isn't printable as UTF-8.
        let err = read_jsonl(&path).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");

        // Lenient: salvages records 1 and 3, reports exactly line 2.
        let (salvaged, report) = read_lenient(&path);
        assert_eq!(
            salvaged.iter().map(|r| r.rank).collect::<Vec<u64>>(),
            vec![dataset.records[0].rank, dataset.records[2].rank]
        );
        assert_eq!(report.skipped, 1);
        assert_eq!(report.lines, vec![2]);

        // Resume: the same tear as an unterminated FINAL line (kill -9
        // mid-append, cut inside a multibyte sequence) is tolerated, and
        // valid_len stops exactly at the end of the last intact line.
        let full = text.as_bytes();
        let intact_len = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let mut torn = full[..intact_len + (full.len() - intact_len) / 2].to_vec();
        torn.push(0xC3);
        std::fs::write(&path, &torn).unwrap();
        let state = resume_jsonl(&path, |_| Ok(())).unwrap();
        assert_eq!(state.valid_len, intact_len as u64);
        assert_eq!(state.records, dataset.records.len() as u64 - 1);
    }

    #[test]
    fn resume_of_clean_file_covers_everything() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 12 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let path = ScratchFile::new("permodyssey-db", "clean.jsonl");
        write_jsonl(&dataset, &path).unwrap();
        let state = resume_jsonl(&path, |_| Ok(())).unwrap();
        assert_eq!(state.records, 12);
        assert_eq!(
            state.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "clean file is valid in full"
        );
    }

    #[test]
    fn resumed_sinks_report_the_digest_of_the_final_file() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 30 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let dir = std::env::temp_dir().join(format!("permodyssey-sealed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let one_shot = |bytes: &[u8]| {
            let mut digest = Digest64::default();
            digest.update(bytes);
            digest
        };
        for format in [DbFormat::Jsonl, DbFormat::Colsh] {
            let paths = shard_paths(&dir.join(format!("crawl.{}", format.extension())), 2);
            // Small row groups and epochs, so cuts land between groups,
            // inside them, and before an epoch marker.
            let open = |resume| {
                let (writer, scan) = ShardWriter::open(&paths, format, resume).unwrap();
                (writer.with_colsh_layout(4, 2), scan.records)
            };
            let (mut writer, _) = open(false);
            for record in &dataset.records {
                writer.push(record).unwrap();
            }
            let digests = writer.finish_sealed().unwrap();
            let full: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
            for (digest, bytes) in digests.iter().zip(&full) {
                assert_eq!(*digest, one_shot(bytes), "{format:?} fresh");
            }
            // Shard 0 torn inside the header, mid-file and one byte
            // short; shard 1 resumes intact.
            let len = full[0].len();
            for cut in [5, len / 3, len / 2, len - 1] {
                std::fs::write(&paths[0], &full[0][..cut]).unwrap();
                let (mut writer, counts) = open(true);
                for record in &dataset.records {
                    let shard = shard_index(record.rank, 2);
                    if (record.rank - 1) / 2 >= counts[shard] {
                        writer.push(record).unwrap();
                    }
                }
                let digests = writer.finish_sealed().unwrap();
                for (path, (digest, bytes)) in paths.iter().zip(digests.iter().zip(&full)) {
                    assert_eq!(&std::fs::read(path).unwrap(), bytes, "{format:?} cut {cut}");
                    assert_eq!(*digest, one_shot(bytes), "{format:?} cut {cut}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_paths_are_zero_padded() {
        let base = Path::new("out/crawl.jsonl");
        assert_eq!(shard_path(base, 0), Path::new("out/crawl-000.jsonl"));
        assert_eq!(shard_path(base, 42), Path::new("out/crawl-042.jsonl"));
    }

    #[test]
    fn rank_zero_records_stripe_to_shard_zero_without_underflow() {
        // Rank 0 only appears on lenient-parsed or hand-crafted records,
        // but `(rank - 1) % shards` used to panic on it in debug builds.
        assert_eq!(shard_index(0, 4), 0);
        assert_eq!(shard_index(1, 4), 0);
        assert_eq!(shard_index(2, 4), 1);
        assert_eq!(shard_index(5, 4), 0);
        assert_eq!(shard_index(7, 1), 0);
        // Degenerate shard count never divides by zero.
        assert_eq!(shard_index(9, 0), 0);

        // A rank-0 record flows through a sharded write end to end.
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 4 });
        let mut dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        dataset.records[0].rank = 0;
        let scratch = ScratchFile::new("permodyssey-db-rank0", "crawl.jsonl");
        let dir = scratch.parent().expect("scratch dir");
        let paths = shard_paths(&dir.join("crawl.jsonl"), 3);
        let mut writer = ShardWriter::create(&paths, DbFormat::Jsonl).unwrap();
        for record in &dataset.records {
            writer.push(record).unwrap();
        }
        writer.finish().unwrap();
        let parts: Vec<CrawlDataset> = paths.iter().map(|p| read_jsonl(p).unwrap()).collect();
        let total: usize = parts.iter().map(|part| part.records.len()).sum();
        assert_eq!(total, dataset.records.len());
        assert_eq!(parts[0].records[0].rank, 0, "rank 0 policy: shard 0");
    }

    #[test]
    fn shards_past_999_sort_numerically() {
        // {index:03} stops padding at 999, so the 1001-shard layout
        // `crawl-1000.jsonl` sorts lexicographically before
        // `crawl-999.jsonl`; merge order must follow the shard index.
        let scratch = ScratchFile::new("permodyssey-db-bigshards", "crawl.jsonl");
        let dir = scratch.parent().expect("scratch dir");
        let base = dir.join("crawl.jsonl");
        let shards = 1001usize;
        for i in 0..shards {
            std::fs::write(shard_path(&base, i), "\n").unwrap();
        }
        let expanded = expand_db_paths(dir.to_str().unwrap()).unwrap();
        let expected: Vec<PathBuf> = (0..shards).map(|i| shard_path(&base, i)).collect();
        assert_eq!(expanded, expected);
    }

    #[test]
    fn base_file_next_to_its_shards_is_rejected() {
        let scratch = ScratchFile::new("permodyssey-db-conflict", "crawl.jsonl");
        let dir = scratch.parent().expect("scratch dir");
        for name in ["crawl.jsonl", "crawl-000.jsonl", "crawl-001.jsonl"] {
            std::fs::write(dir.join(name), "\n").unwrap();
        }
        let err = expand_db_paths(dir.to_str().unwrap()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("double-counted"), "{err}");
        let glob_arg = dir.join("crawl*.jsonl");
        assert!(expand_db_paths(glob_arg.to_str().unwrap()).is_err());

        // A different base name does not conflict with the shards.
        std::fs::remove_file(dir.join("crawl.jsonl")).unwrap();
        std::fs::write(dir.join("other.jsonl"), "\n").unwrap();
        assert_eq!(expand_db_paths(dir.to_str().unwrap()).unwrap().len(), 3);

        // A single-file argument never triggers the check.
        std::fs::write(dir.join("crawl.jsonl"), "\n").unwrap();
        let single = dir.join("crawl.jsonl");
        assert_eq!(
            expand_db_paths(single.to_str().unwrap()).unwrap(),
            vec![single]
        );
    }

    #[test]
    fn format_detection_and_any_stream_read_both_formats() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 12 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let scratch = ScratchFile::new("permodyssey-db-anystream", "crawl.jsonl");
        let dir = scratch.parent().expect("scratch dir");
        let jsonl = dir.join("crawl.jsonl");
        let colsh = dir.join("crawl.colsh");
        write_jsonl(&dataset, &jsonl).unwrap();
        crate::colsh::write_colsh(&dataset, &colsh).unwrap();
        assert_eq!(detect_db_format(&jsonl).unwrap(), DbFormat::Jsonl);
        assert_eq!(detect_db_format(&colsh).unwrap(), DbFormat::Colsh);
        for path in [&jsonl, &colsh] {
            let records: Vec<SiteRecord> = AnyRecordStream::open(path, StreamMode::Strict)
                .unwrap()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(records, dataset.records);
        }
    }

    #[test]
    fn lenient_live_tail_is_clean_eof_not_corruption() {
        // The torn final line of a live-appended shard is the normal
        // state of a running job, not data loss: the lenient reader
        // must stop at the frontier without counting a corrupt skip.
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 6 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let path = ScratchFile::new("permodyssey-db", "live-tail.jsonl");
        write_jsonl(&dataset, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len() - 20;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let mut stream = RecordStream::open(&path, StreamMode::Lenient).unwrap();
        let survivors: Vec<u64> = (&mut stream).map(|r| r.unwrap().rank).collect();
        assert_eq!(survivors, vec![1, 2, 3, 4, 5]);
        let report = stream.into_skip_report();
        assert_eq!(report.skipped, 0);
        assert!(report.lines.is_empty());
        assert!(report.torn_tail);
    }

    #[test]
    fn refresh_follows_a_growing_jsonl() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 9 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let full = ScratchFile::new("permodyssey-db", "grow-full.jsonl");
        write_jsonl(&dataset, &full).unwrap();
        let bytes = std::fs::read(&full).unwrap();
        let newlines: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .collect();

        // Grow the live file in three stages, each ending mid-line
        // (except the last), as a live appender's kill states would.
        let live = full.with_file_name("grow-live.jsonl");
        std::fs::write(&live, &bytes[..newlines[2] + 5]).unwrap();
        let mut stream = RecordStream::open(&live, StreamMode::Resume).unwrap();
        let mut ranks: Vec<u64> = (&mut stream).map(|r| r.unwrap().rank).collect();
        assert_eq!(ranks, vec![1, 2, 3]);
        assert_eq!(stream.valid_len(), newlines[2] as u64 + 1);

        std::fs::write(&live, &bytes[..newlines[6] + 1]).unwrap();
        stream.refresh().unwrap();
        ranks.extend((&mut stream).map(|r| r.unwrap().rank));
        assert_eq!(ranks, vec![1, 2, 3, 4, 5, 6, 7]);

        std::fs::write(&live, &bytes).unwrap();
        stream.refresh().unwrap();
        ranks.extend((&mut stream).map(|r| r.unwrap().rank));
        assert_eq!(ranks, (1..=9).collect::<Vec<u64>>());
        assert_eq!(stream.valid_len(), bytes.len() as u64);
    }

    #[test]
    fn expand_db_paths_over_a_job_dir_reads_only_manifest_shards() {
        // A job directory accumulates non-shard artifacts (status.json,
        // stop files, stray exports); analysis over the directory must
        // read exactly the manifest-declared shards.
        let dir =
            std::env::temp_dir().join(format!("permodyssey-test-jobdir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = crate::jobs::JobManifest::new(7, 40, 2, DbFormat::Jsonl);
        manifest.store(&dir).unwrap();
        let shards = manifest.shard_files(&dir);
        for shard in &shards {
            std::fs::write(shard, "\n").unwrap();
        }
        for stray in ["status.json", "stop", "export.jsonl", "quarantine.jsonl"] {
            std::fs::write(dir.join(stray), "{}\n").unwrap();
        }
        assert_eq!(expand_db_paths(dir.to_str().unwrap()).unwrap(), shards);
        // A manifest with nothing written yet is a loud error, not an
        // empty analysis.
        for shard in &shards {
            std::fs::remove_file(shard).unwrap();
        }
        let err = expand_db_paths(dir.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("no shards"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expand_db_paths_handles_file_dir_and_glob() {
        let scratch = ScratchFile::new("permodyssey-db-expand", "crawl.jsonl");
        let dir = scratch.parent().expect("scratch dir");
        for name in ["crawl-001.jsonl", "crawl-000.jsonl", "other.txt"] {
            std::fs::write(dir.join(name), "\n").unwrap();
        }
        let single = dir.join("crawl-000.jsonl");
        assert_eq!(
            expand_db_paths(single.to_str().unwrap()).unwrap(),
            vec![single.clone()]
        );
        let from_dir = expand_db_paths(dir.to_str().unwrap()).unwrap();
        assert_eq!(
            from_dir,
            vec![dir.join("crawl-000.jsonl"), dir.join("crawl-001.jsonl")]
        );
        let glob_arg = dir.join("crawl-*.jsonl");
        let from_glob = expand_db_paths(glob_arg.to_str().unwrap()).unwrap();
        assert_eq!(from_glob, from_dir);
        assert!(expand_db_paths(dir.join("nope-*.jsonl").to_str().unwrap()).is_err());
    }
}
