//! How the crawler's bytes sit on disk, and what a reader does when
//! they are damaged: one frame codec (`.colsh` blocks and bundle pack
//! records), one tear rule, one damage mapping ([`StreamMode::recover`])
//! and one write path for the checksummed JSON files, the temp-file
//! replace and the reopen at a valid prefix. Record encoding stays with
//! each format. DESIGN.md ("Storage module") states the rules.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

// --- the damage mapping ---------------------------------------------------

/// How a reader treats damage in what it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamMode {
    /// Any damage is an error.
    Strict,
    /// Damage the reader can step over is skipped and counted (see
    /// [`SkipReport`]); a torn tail ends the stream and is flagged.
    Lenient,
    /// A torn tail ends the stream cleanly; earlier damage is an error
    /// (in a bundle pack, it cuts the pack). Tracks the valid byte
    /// prefix for resumption.
    Resume,
}

/// How many skipped line numbers a [`SkipReport`] retains verbatim.
pub const SKIP_REPORT_LINES: usize = 5;

/// What a lenient read skipped: total count plus the first few 1-based
/// line numbers (consistent with the strict reader's error numbering),
/// so damage can be localized without re-reading the file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SkipReport {
    /// Corrupt lines skipped.
    pub skipped: u64,
    /// 1-based line numbers of the first [`SKIP_REPORT_LINES`] skips.
    pub lines: Vec<u64>,
    /// The stream ended at a torn tail — the signature of a file still
    /// being appended (or killed mid-append), *not* mid-file corruption.
    /// Torn tails are flagged here instead of inflating `skipped`, so
    /// analyzing a running job doesn't misreport live shards as damaged.
    pub torn_tail: bool,
}

impl SkipReport {
    /// Counts `count` records skipped from 1-based `first` on; the
    /// report lists `first` once.
    pub(crate) fn record(&mut self, first: u64, count: u64) {
        self.skipped += count.max(1);
        if self.lines.len() < SKIP_REPORT_LINES {
            self.lines.push(first);
        }
    }

    /// Human-readable location summary, e.g. `lines 2, 4 (+3 more)`.
    pub fn describe(&self) -> String {
        if self.lines.is_empty() {
            return String::new();
        }
        let listed: Vec<String> = self.lines.iter().map(u64::to_string).collect();
        let more = self.skipped - self.lines.len() as u64;
        if more > 0 {
            format!("lines {} (+{more} more)", listed.join(", "))
        } else {
            format!("lines {}", listed.join(", "))
        }
    }
}

/// What kind of damage a reader found in one unit (a line, a row group,
/// a frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Damage {
    /// The unit runs past the end of the file: a write cut short.
    Torn,
    /// A whole unit that fails its check and that a reader can step
    /// over: its record count is known and what follows still reads.
    Skippable,
    /// A whole unit that fails its check where stepping over it would
    /// lose count of its records or mis-read what follows.
    Breaking,
}

/// Damage, with the message its error carries: what failed, and where
/// (the byte offset, or the line for JSONL).
pub(crate) struct Fault {
    pub(crate) damage: Damage,
    pub(crate) detail: String,
}

impl Fault {
    pub(crate) fn new(damage: Damage, detail: impl Into<String>) -> Fault {
        Fault {
            damage,
            detail: detail.into(),
        }
    }

    /// The fault as a read error.
    pub(crate) fn error(self) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, self.detail)
    }
}

/// What a reader does about damage its mode tolerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recovery {
    /// Step over the unit: the skip report counted it.
    Skip,
    /// End the stream at the valid prefix before the unit.
    Cut,
}

impl StreamMode {
    /// The one damage mapping. A skipped unit counts `count` records
    /// from 1-based `first` on in `skip`. `resume_cuts` is the format's
    /// `Resume` rule for mid-file damage: a shard fails (`false`), a
    /// bundle pack is cut, because a manifest whose blobs did not survive
    /// must roll back with them (`true`).
    ///
    /// | damage | `Strict` | `Lenient` | `Resume` |
    /// |---|---|---|---|
    /// | torn | error | cut, `torn_tail` flagged | cut |
    /// | skippable | error | skip and count | error, or cut |
    /// | breaking | error | error | error, or cut |
    pub(crate) fn recover(
        self,
        fault: Fault,
        resume_cuts: bool,
        skip: &mut SkipReport,
        first: u64,
        count: u64,
    ) -> std::io::Result<Recovery> {
        match (self, fault.damage) {
            (StreamMode::Strict, _) => Err(fault.error()),
            (StreamMode::Lenient, Damage::Torn) => {
                skip.torn_tail = true;
                Ok(Recovery::Cut)
            }
            (StreamMode::Lenient, Damage::Skippable) => {
                skip.record(first, count);
                Ok(Recovery::Skip)
            }
            (StreamMode::Lenient, Damage::Breaking) => Err(fault.error()),
            (StreamMode::Resume, Damage::Torn) => Ok(Recovery::Cut),
            (StreamMode::Resume, _) if resume_cuts => Ok(Recovery::Cut),
            (StreamMode::Resume, _) => Err(fault.error()),
        }
    }
}

// --- CRC32 (IEEE 802.3, reflected) ---------------------------------------

/// Slice-by-8 lookup tables: `t[0]` is the classic byte-at-a-time
/// table, `t[k][i]` advances the CRC of byte `i` through `k` more zero
/// bytes, letting the hot loop fold eight input bytes per iteration.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

pub(crate) static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

// --- shard digest ---------------------------------------------------------

const DIGEST_P1: u64 = 0x9e37_79b1_85eb_ca87;
const DIGEST_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// One multiply-rotate round. For a fixed word it is a bijection of the
/// state, so two inputs of one length that differ in a single word can
/// never meet again: any one changed byte changes the digest.
fn digest_round(state: u64, word: u64) -> u64 {
    (state ^ word.wrapping_mul(DIGEST_P2))
        .rotate_left(31)
        .wrapping_mul(DIGEST_P1)
}

/// A streaming 64-bit digest of a byte sequence, eight bytes per round:
/// what a job's completion record holds for each shard. Any split of
/// the input into [`Digest64::update`] calls gives the same value, so
/// the shard sinks fold it over exactly the bytes they write, and a
/// resume seeds it from the prefix it keeps. Not cryptographic: it
/// catches accidental change, and anyone who can edit a shard can edit
/// the record too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Digest64 {
    state: u64,
    len: u64,
    /// The bytes of a word not yet complete (`len % 8` of them), then
    /// zeros — so equal digests compare equal.
    tail: [u8; 8],
}

impl Default for Digest64 {
    fn default() -> Digest64 {
        Digest64 {
            state: DIGEST_P1,
            len: 0,
            tail: [0; 8],
        }
    }
}

impl Digest64 {
    /// Folds `bytes` in after everything folded so far.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        let fill = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if fill > 0 {
            let take = bytes.len().min(8 - fill);
            self.tail[fill..fill + take].copy_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if fill + take < 8 {
                return;
            }
            self.state = digest_round(self.state, u64::from_le_bytes(self.tail));
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            self.state = digest_round(self.state, word);
        }
        let rest = words.remainder();
        self.tail = [0; 8];
        self.tail[..rest.len()].copy_from_slice(rest);
    }

    /// Folds in everything `reader` yields, through one fixed 64 KiB
    /// buffer, and returns how many bytes that was.
    pub(crate) fn update_from(&mut self, mut reader: impl Read) -> std::io::Result<u64> {
        let mut buf = vec![0u8; 1 << 16];
        let mut read = 0u64;
        loop {
            match reader.read(&mut buf) {
                Ok(0) => return Ok(read),
                Ok(n) => {
                    self.update(&buf[..n]);
                    read += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Bytes folded so far.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// The digest of everything folded so far: the zero-padded partial
    /// word, then the length (which tells the padding apart from real
    /// zero bytes), then an avalanche so every input bit reaches every
    /// output bit.
    pub(crate) fn value(&self) -> u64 {
        let mut h = self.state;
        if !self.len.is_multiple_of(8) {
            h = digest_round(h, u64::from_le_bytes(self.tail));
        }
        h = digest_round(h, self.len);
        h ^= h >> 33;
        h = h.wrapping_mul(DIGEST_P2);
        h ^ (h >> 29)
    }
}

/// A writer that folds every byte it passes on into a [`Digest64`]:
/// beneath a `BufWriter`, it sees exactly the bytes that reach the file.
pub(crate) struct DigestWriter<W> {
    inner: W,
    digest: Digest64,
}

impl<W> DigestWriter<W> {
    /// Wraps `inner`, whose destination already holds the bytes
    /// `digest` folded.
    pub(crate) fn new(inner: W, digest: Digest64) -> DigestWriter<W> {
        DigestWriter { inner, digest }
    }

    /// The digest of every byte written so far, seed included.
    pub(crate) fn digest(&self) -> Digest64 {
        self.digest
    }
}

impl<W: Write> Write for DigestWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.digest.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

// --- frames ---------------------------------------------------------------

/// Writes one frame: `tag` (`.colsh` block ids; packs have none), the
/// payload's length and CRC, then the payload.
pub(crate) fn write_frame(
    out: &mut impl Write,
    tag: Option<u8>,
    payload: &[u8],
) -> std::io::Result<()> {
    if let Some(tag) = tag {
        out.write_all(&[tag])?;
    }
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&crc32(payload).to_le_bytes())?;
    out.write_all(payload)
}

/// What [`FrameReader::next`] found at its offset. `at` is the byte
/// offset of the frame's first byte, `tag` its tag (0 when untagged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Frame {
    /// A whole frame whose payload matches its checksum, or was passed
    /// over unread.
    Intact { tag: u8, at: u64 },
    /// A whole frame whose payload fails its checksum.
    Corrupt { tag: u8, at: u64 },
    /// A frame header or payload that runs past the end of the file.
    Torn { at: u64 },
    /// The end of the file, at a frame boundary.
    End,
}

/// Streams one file's frames in order, after the fixed bytes it starts
/// with ([`FrameReader::head`]). Lengths are checked against the file's
/// length as of the last open or [`rewind`](FrameReader::rewind), so a
/// frame beyond it reads as torn, and as nothing else.
pub(crate) struct FrameReader {
    file: BufReader<File>,
    tagged: bool,
    len: u64,
    at: u64,
}

impl FrameReader {
    /// Opens `path` at its first byte; frames carry a tag byte when
    /// `tagged`.
    pub(crate) fn open(path: &Path, tagged: bool) -> std::io::Result<FrameReader> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(FrameReader {
            file: BufReader::new(file),
            tagged,
            len,
            at: 0,
        })
    }

    /// Byte offset of the next frame.
    pub(crate) fn at(&self) -> u64 {
        self.at
    }

    /// Reads fixed bytes (a magic, a version) into `head`: `false`,
    /// reading nothing, when the file ends before `head` is full.
    pub(crate) fn head(&mut self, head: &mut [u8]) -> std::io::Result<bool> {
        if self.len.saturating_sub(self.at) < head.len() as u64 {
            return Ok(false);
        }
        self.file.read_exact(head)?;
        self.at += head.len() as u64;
        Ok(true)
    }

    /// Measures the file again and goes back to byte `at`.
    pub(crate) fn rewind(&mut self, at: u64) -> std::io::Result<()> {
        self.len = self.file.get_ref().metadata()?.len();
        self.file.seek(SeekFrom::Start(at))?;
        self.at = at;
        Ok(())
    }

    /// Reads the next frame. With `payload`, the payload goes there
    /// (cleared first and never zero-filled, so a reused buffer costs no
    /// memset) and is checked; with `None` it is passed over unread.
    /// After a torn frame the reader's position is undefined until
    /// [`rewind`](FrameReader::rewind).
    pub(crate) fn next(&mut self, payload: Option<&mut Vec<u8>>) -> std::io::Result<Frame> {
        let at = self.at;
        let left = self.len.saturating_sub(at);
        if left == 0 {
            return Ok(Frame::End);
        }
        let header = if self.tagged { 9 } else { 8 };
        if left < header {
            return Ok(Frame::Torn { at });
        }
        let mut bytes = [0u8; 9];
        let head = &mut bytes[..header as usize];
        match self.file.read_exact(head) {
            // The file shrank under the reader since it was measured.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Ok(Frame::Torn { at })
            }
            read => read?,
        }
        let (tag, fields) = match self.tagged {
            true => (head[0], &head[1..]),
            false => (0, &head[..]),
        };
        let [len, crc] = [&fields[..4], &fields[4..8]]
            .map(|field| u32::from_le_bytes(field.try_into().expect("4-byte field")));
        if left - header < u64::from(len) {
            return Ok(Frame::Torn { at });
        }
        let end = at + header + u64::from(len);
        let Some(buf) = payload else {
            self.file.seek_relative(i64::from(len))?;
            self.at = end;
            return Ok(Frame::Intact { tag, at });
        };
        buf.clear();
        buf.reserve(len as usize);
        let read = (&mut self.file).take(u64::from(len)).read_to_end(buf)?;
        if read != len as usize {
            return Ok(Frame::Torn { at });
        }
        self.at = end;
        Ok(if crc32(buf) == crc {
            Frame::Intact { tag, at }
        } else {
            Frame::Corrupt { tag, at }
        })
    }
}

/// Checks an untagged frame already in memory, which an index says
/// starts at byte `at` with a `len`-byte payload: the stored length
/// must agree and the payload must match its CRC. `frame` holds the
/// whole frame; the error says what failed, and where.
pub(crate) fn check_frame(frame: &[u8], at: u64, len: u32) -> Result<(), String> {
    let [stored_len, crc] = [&frame[..4], &frame[4..8]]
        .map(|field| u32::from_le_bytes(field.try_into().expect("4-byte field")));
    if stored_len != len {
        return Err(format!(
            "frame at byte {at} holds {stored_len} bytes, not the {len} it held at load"
        ));
    }
    if crc32(&frame[8..]) != crc {
        return Err(format!("checksum mismatch at byte {at}"));
    }
    Ok(())
}

// --- write paths ----------------------------------------------------------

/// Replaces `dir/name` with `bytes`: written to `name.tmp` first, then
/// renamed over, so a kill leaves the old file or the new one, never a
/// torn one.
pub(crate) fn replace(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, dir.join(name))
}

/// Opens `path` (created if missing) for writing after its first
/// `valid_len` bytes, dropping the rest. With `digest`, the kept bytes
/// are folded into it first.
pub(crate) fn reopen_at(
    path: &Path,
    valid_len: u64,
    digest: Option<&mut Digest64>,
) -> std::io::Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .read(true)
        .write(true)
        .open(path)?;
    file.set_len(valid_len)?;
    if let Some(digest) = digest.filter(|_| valid_len > 0) {
        if digest.update_from(&mut file)? != valid_len {
            let short = format!("{} shrank below its valid prefix", path.display());
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                short,
            ));
        }
    }
    file.seek(SeekFrom::Start(valid_len))?;
    Ok(file)
}

/// Writes `value` into `dir/name` as one JSON line plus a `crc32:`
/// trailer, through [`replace`] — the format of `job.json`,
/// `complete.json` and a bundle store's `bundle.json`.
pub(crate) fn store_checksummed<T: Serialize>(
    value: &T,
    dir: &Path,
    name: &str,
) -> std::io::Result<()> {
    let mut text = serde_json::to_string(value)
        .map_err(|e| std::io::Error::other(format!("encoding {name}: {e}")))?;
    text.push('\n');
    let crc = crc32(text.as_bytes());
    text.push_str(&format!("crc32:{crc:08x}\n"));
    replace(dir, name, text.as_bytes())
}

/// What a checksummed file is, for [`load_checksummed`]'s errors.
pub(crate) struct Checksummed<'a> {
    /// The file name inside its directory.
    pub(crate) name: &'a str,
    /// What the file holds, e.g. "job manifest".
    pub(crate) what: &'a str,
    /// What creates it, e.g. "`crawl-job start`".
    pub(crate) creator: &'a str,
    /// How to repair a torn or corrupt copy.
    pub(crate) repair: &'a str,
}

/// Loads and verifies what [`store_checksummed`] wrote into `dir`, then
/// runs `check` on it. A missing or unreadable file, a torn or corrupt
/// one (missing trailer, checksum mismatch, unparseable JSON) and a
/// value `check` refuses are each a loud error naming the file.
pub(crate) fn load_checksummed<T: Deserialize>(
    dir: &Path,
    file: &Checksummed<'_>,
    check: impl FnOnce(&T) -> Result<(), String>,
) -> std::io::Result<T> {
    let path = dir.join(file.name);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        let message = format!(
            "no readable {} at {}: {e}; {} creates one",
            file.what,
            path.display(),
            file.creator
        );
        std::io::Error::new(e.kind(), message)
    })?;
    let torn = |detail: String| {
        let message = format!(
            "{} {} is torn or corrupt ({detail}); {}",
            file.what,
            path.display(),
            file.repair
        );
        std::io::Error::new(std::io::ErrorKind::InvalidData, message)
    };
    let value: T = parse_checksummed(&text).map_err(torn)?;
    check(&value).map_err(torn)?;
    Ok(value)
}

/// Verifies and decodes what [`store_checksummed`] wrote; the error says
/// what is torn (missing trailer, bad checksum, unparseable JSON).
fn parse_checksummed<T: Deserialize>(text: &str) -> Result<T, String> {
    let Some((body, trailer)) = text.split_once('\n').and_then(|(body, rest)| {
        let trailer = rest.strip_suffix('\n').unwrap_or(rest);
        trailer.strip_prefix("crc32:").map(|t| (body, t))
    }) else {
        return Err("missing checksum trailer".to_string());
    };
    let expected = u32::from_str_radix(trailer, 16).map_err(|_| "bad checksum".to_string())?;
    if crc32(format!("{body}\n").as_bytes()) != expected {
        return Err("checksum mismatch".to_string());
    }
    serde_json::from_str(body).map_err(|e| format!("unparseable: {e}"))
}
