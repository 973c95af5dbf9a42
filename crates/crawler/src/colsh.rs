//! Binary columnar shard format (`.colsh`) — the storage-scale
//! counterpart of the JSONL database.
//!
//! JSONL stays the interchange format; `.colsh` is the analysis-scale
//! layout: records are batched into row groups, and within a group each
//! schema region (frame tree, headers, invocations, scripts, …) lives in
//! its own length-prefixed, CRC-checked block. An analysis pass that
//! only folds over headers reads the META and HEADERS blocks and seeks
//! past everything else — at top-1M scale that skip is the difference
//! between re-parsing every script source and touching a few percent of
//! the file.
//!
//! # File layout
//!
//! ```text
//! magic    b"PCOLSH1\n"
//! version  u32 LE (currently 1)
//! FDICT    block: the closed feature-token vocabulary, in registry order
//! group*   each: [EPOCH,] GROUP, DICT, then the 9 column blocks in id order
//! END      block: varint total record count
//! ```
//!
//! Every block is framed `[id: u8][len: u32 LE][crc32: u32 LE][payload]`
//! with the CRC (IEEE, reflected) taken over the payload. Strings are
//! interned into a dictionary built incrementally: each group carries a
//! DICT block listing only the entries first used in that group, so ids
//! are assigned in first-use order and a valid prefix of the file always
//! carries exactly the dictionary it references — the property
//! truncate-and-append resumption depends on. The dictionary is not
//! file-level forever: every [`DEFAULT_DICT_EPOCH_GROUPS`] row groups an
//! empty EPOCH marker block resets it, bounding writer and reader memory
//! on arbitrarily long appends (origins are unique per record, so an
//! unbounded dictionary grows linearly with the crawl). Readers rebuild
//! the dictionary per epoch; files written before the marker existed
//! simply never reset.
//!
//! The reader maps damage through the one rule of [`crate::storage`]:
//! a bad column block can be stepped over (its group is skipped and
//! counted), a torn tail ends the stream, and anything else is an
//! error naming the block's byte offset. `valid_len` marks the end of
//! the last complete group, excluding END so an append overwrites it.

use std::collections::hash_map::RandomState;
use std::fs::File;
use std::hash::BuildHasher;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::OnceLock;

use browser::{
    DegradationEvent, DegradationKind, FrameRecord, IframeAttrs, InvocationKind, InvocationRecord,
    PageVisit, PromptRecord, ScriptOutcome, ScriptRecord, VisitOutcome,
};
use registry::{all_permissions, FeatureToken, Permission};

use crate::db::ResumeState;
use crate::run::{CrawlDataset, SiteOutcome, SiteRecord};
use crate::storage::{
    reopen_at, write_frame, Damage, Digest64, DigestWriter, Fault, Frame, FrameReader, Recovery,
    SkipReport, StreamMode,
};

/// File magic: the first eight bytes of every `.colsh` database.
pub const COLSH_MAGIC: [u8; 8] = *b"PCOLSH1\n";
/// Format version written after the magic.
pub const COLSH_VERSION: u32 = 1;
/// Records per row group (the write-side default).
pub const DEFAULT_GROUP_RECORDS: usize = 1024;
/// Row groups per dictionary epoch (the write-side default): the string
/// dictionary resets at every epoch boundary, so writer and reader
/// memory is bounded by one epoch's unique strings instead of growing
/// with the whole file. `0` disables epochs (pre-epoch file layout).
pub const DEFAULT_DICT_EPOCH_GROUPS: u64 = 64;

/// Longest string the incremental dictionary will intern; longer values
/// (script sources past this size, mostly) are stored inline.
const DICT_MAX_STR: usize = 4096;
/// Hard cap on dictionary entries; once full, new strings go inline.
const DICT_MAX_ENTRIES: usize = 1 << 22;

const BLOCK_GROUP: u8 = 0x01;
const BLOCK_DICT: u8 = 0x02;
const BLOCK_FDICT: u8 = 0x03;
/// Empty marker: the string dictionary resets before the next group.
const BLOCK_EPOCH: u8 = 0x05;
const BLOCK_END: u8 = 0xEE;
/// Column block ids are `0x10 + column index`.
pub(crate) const BLOCK_COLUMN_BASE: u8 = 0x10;

const C_META: usize = 0;
const C_FRAMES: usize = 1;
const C_ATTRS: usize = 2;
const C_HEADERS: usize = 3;
const C_INVOCATIONS: usize = 4;
pub(crate) const C_SCRIPTS: usize = 5;
const C_FEATURES: usize = 6;
const C_PROMPTS: usize = 7;
const C_DEGRADATIONS: usize = 8;
const COLUMNS: usize = 9;

/// Which columns a projected read materializes. META (rank, origin,
/// outcomes, timings, frame count) is always read; the other eight are
/// opt-in. Requesting any per-frame column implies FRAMES, since the
/// per-frame blocks are keyed by the frame sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSet(u16);

impl ColumnSet {
    /// META only: ranks, outcomes and funnel-level data.
    pub const META_ONLY: ColumnSet = ColumnSet(0);
    /// Frame-tree structure (ids, parents, origins, flags).
    pub const FRAMES: ColumnSet = ColumnSet(1 << 0);
    /// `<iframe>` attributes.
    pub const ATTRS: ColumnSet = ColumnSet(1 << 1);
    /// Policy-relevant response headers.
    pub const HEADERS: ColumnSet = ColumnSet(1 << 2);
    /// Recorded API invocations.
    pub const INVOCATIONS: ColumnSet = ColumnSet(1 << 3);
    /// Collected script sources and outcomes.
    pub const SCRIPTS: ColumnSet = ColumnSet(1 << 4);
    /// Per-document allowed-feature lists.
    pub const FEATURES: ColumnSet = ColumnSet(1 << 5);
    /// Permission prompts.
    pub const PROMPTS: ColumnSet = ColumnSet(1 << 6);
    /// Degradation events.
    pub const DEGRADATIONS: ColumnSet = ColumnSet(1 << 7);
    /// Everything — full-fidelity decode.
    pub const ALL: ColumnSet = ColumnSet(0xFF);

    /// Set union.
    #[must_use]
    pub fn union(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 | other.0)
    }

    /// Whether every column in `other` is in `self`.
    pub fn contains(self, other: ColumnSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Closes the set over its structural dependencies: any per-frame
    /// column requires the FRAMES sequence it is keyed by.
    #[must_use]
    pub fn normalized(self) -> ColumnSet {
        let per_frame = ColumnSet::ATTRS
            .union(ColumnSet::HEADERS)
            .union(ColumnSet::INVOCATIONS)
            .union(ColumnSet::SCRIPTS)
            .union(ColumnSet::FEATURES);
        if self.0 & per_frame.0 != 0 {
            self.union(ColumnSet::FRAMES)
        } else {
            self
        }
    }

    /// Whether column index `k` (META = 0) is materialized.
    fn reads_column(self, k: usize) -> bool {
        k == C_META || self.0 & (1 << (k - 1)) != 0
    }
}

impl std::ops::BitOr for ColumnSet {
    type Output = ColumnSet;
    fn bitor(self, rhs: ColumnSet) -> ColumnSet {
        self.union(rhs)
    }
}

// --- primitive codecs -----------------------------------------------------

/// Appends a LEB128 varint.
fn wv(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn bad(detail: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail.to_string())
}

/// One column's buffered payload plus its read cursor.
#[derive(Default)]
struct ColBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl ColBuf {
    fn reset(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    fn take(&mut self, n: usize) -> std::io::Result<&[u8]> {
        if self.buf.len() - self.pos < n {
            return Err(bad("column payload underrun"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> std::io::Result<u8> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(bad("column payload underrun")),
        }
    }

    fn varint(&mut self) -> std::io::Result<u64> {
        // Single-byte fast path: almost every varint in a column payload
        // (ranks, counts, flags, dictionary ids) fits in seven bits.
        if let Some(&b) = self.buf.get(self.pos) {
            if b & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        self.varint_slow()
    }

    fn varint_slow(&mut self) -> std::io::Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(bad("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn inline_str(&mut self) -> std::io::Result<String> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("inline string is not UTF-8"))
    }

    /// Required string: `0` = inline, `k >= 1` = dictionary id `k - 1`.
    fn str(&mut self, dict: &ReaderDict) -> std::io::Result<String> {
        match self.varint()? {
            0 => self.inline_str(),
            k => dict.get((k - 1) as usize).map(str::to_owned),
        }
    }

    /// Optional string: `0` = None, `1` = inline, `k >= 2` = id `k - 2`.
    fn opt_str(&mut self, dict: &ReaderDict) -> std::io::Result<Option<String>> {
        match self.varint()? {
            0 => Ok(None),
            1 => self.inline_str().map(Some),
            k => dict.get((k - 2) as usize).map(|s| Some(s.to_owned())),
        }
    }
}

/// The reader-side string dictionary. Each row group's delta payload is
/// kept as a raw byte arena and entries index into it, so ingesting a
/// group costs one varint walk — no per-string allocation, and no
/// UTF-8 validation for strings a projected read never references.
/// Entry bytes are already checksum-verified with their block; UTF-8 is
/// checked when an entry is used (and once for everything when a resume
/// copies the entries into the writer's arena).
#[derive(Default)]
struct ReaderDict {
    arena: Vec<Vec<u8>>,
    entries: Vec<DictEntry>,
}

/// `(arena segment, byte offset, byte length)` for one dictionary id.
struct DictEntry {
    seg: u32,
    start: u32,
    len: u32,
}

impl ReaderDict {
    /// Indexes one group's delta payload (varint count, then
    /// length-prefixed strings) without materializing the strings.
    fn ingest(&mut self, payload: Vec<u8>) -> std::io::Result<()> {
        let seg = self.arena.len() as u32;
        let mut cursor = ColBuf {
            buf: payload,
            pos: 0,
        };
        let n = cursor.varint()? as usize;
        if self.entries.len().saturating_add(n) > DICT_MAX_ENTRIES {
            return Err(bad("string dictionary exceeds entry limit"));
        }
        self.entries.reserve(n);
        for _ in 0..n {
            let len = cursor.varint()? as usize;
            let start = cursor.pos;
            cursor.take(len)?;
            self.entries.push(DictEntry {
                seg,
                start: start as u32,
                len: len as u32,
            });
        }
        self.arena.push(cursor.buf);
        Ok(())
    }

    fn get(&self, id: usize) -> std::io::Result<&str> {
        let entry = self
            .entries
            .get(id)
            .ok_or_else(|| bad(format!("dictionary id {id} out of range")))?;
        let (seg, start, len) = (entry.seg as usize, entry.start as usize, entry.len as usize);
        let bytes = &self.arena[seg][start..start + len];
        std::str::from_utf8(bytes).map_err(|_| bad("dictionary string is not UTF-8"))
    }
}

// --- enum ordinals --------------------------------------------------------

// Each enum's on-disk ordinal is its index in its table.
const SITE_OUTCOMES: [SiteOutcome; 6] = [
    SiteOutcome::Success,
    SiteOutcome::Unreachable,
    SiteOutcome::LoadTimeout,
    SiteOutcome::Ephemeral,
    SiteOutcome::CrawlerError,
    SiteOutcome::Excluded,
];
const VISIT_OUTCOMES: [VisitOutcome; 4] = [
    VisitOutcome::Success,
    VisitOutcome::EphemeralContext,
    VisitOutcome::PageTimeout,
    VisitOutcome::CrawlerCrash,
];
const INVOCATION_KINDS: [InvocationKind; 3] = [
    InvocationKind::Invocation,
    InvocationKind::StatusQuery,
    InvocationKind::General,
];
const SCRIPT_OUTCOMES: [ScriptOutcome; 7] = [
    ScriptOutcome::Ok,
    ScriptOutcome::ParseError,
    ScriptOutcome::BudgetExceeded,
    ScriptOutcome::PoolExhausted,
    ScriptOutcome::FetchFailed,
    ScriptOutcome::BytesCapped,
    ScriptOutcome::CompileError,
];
const DEGRADATION_KINDS: [DegradationKind; 12] = [
    DegradationKind::ScriptParseError,
    DegradationKind::ScriptBudgetExceeded,
    DegradationKind::ScriptPoolExhausted,
    DegradationKind::ScriptFetchFailed,
    DegradationKind::ScriptBytesCapped,
    DegradationKind::DocumentBytesCapped,
    DegradationKind::FetchCapReached,
    DegradationKind::RedirectHopsExceeded,
    DegradationKind::FrameCapReached,
    DegradationKind::FrameDepthTruncated,
    DegradationKind::HeaderBytesCapped,
    DegradationKind::ScriptCompileError,
];

fn ord<T: PartialEq>(table: &[T], value: T) -> u8 {
    let ord = table.iter().position(|v| *v == value);
    ord.expect("every variant has an ordinal") as u8
}

fn from_ord<T: Copy>(table: &[T], b: u8, what: &str) -> std::io::Result<T> {
    let value = table.get(usize::from(b)).copied();
    value.ok_or_else(|| bad(format!("bad {what} ordinal {b}")))
}

// --- writer ---------------------------------------------------------------

/// The bits of an id-table slot that hold `id + 1`; the bits above them
/// hold the top of the entry's hash.
const SLOT_ID_MASK: u32 = (1 << 23) - 1;
const _: () = assert!(DICT_MAX_ENTRIES <= SLOT_ID_MASK as usize);

/// Word-at-a-time multiplicative hash of a dictionary string. Only the
/// id table uses it: ids are assigned in first-use order, so no hash
/// value reaches the file. Its key is random per process, as strings
/// come from crawled pages and input databases: no fixed set of them
/// collides in every run.
fn dict_hash(bytes: &[u8]) -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    let key = *KEY.get_or_init(|| RandomState::new().hash_one(0u64));
    let fold = |h: u64, word: u64| {
        let m = u128::from(h ^ word) * 0x9e37_79b9_7f4a_7c15;
        (m >> 64) as u64 ^ m as u64
    };
    let mut words = bytes.chunks_exact(8);
    let mut h = key ^ bytes.len() as u64;
    for word in &mut words {
        h = fold(
            h,
            u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")),
        );
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    fold(h, u64::from_le_bytes(tail))
}

/// The incremental string dictionary: ids in first-use order, one delta
/// block of newly-seen strings per row group. Entries lie back to back
/// in one byte arena in id order, so interning a string allocates
/// nothing of its own and the current group's new entries are the
/// arena's tail. An open-addressed table of ids finds an entry by hash.
#[derive(Default)]
struct WriterDict {
    /// Every entry's bytes, in id order.
    bytes: Vec<u8>,
    /// Where entry `id` ends in `bytes`; it starts where `id - 1` ends.
    /// `u64`, as an epoch may hold `DICT_MAX_ENTRIES × DICT_MAX_STR`
    /// bytes (16 GiB).
    ends: Vec<u64>,
    /// Linear-probing slots, a power of two of them and at most three
    /// quarters full: `0` is empty, otherwise `id + 1` under
    /// `SLOT_ID_MASK` and the top bits of the entry's hash above it, so a
    /// probe compares bytes only when those bits match.
    slots: Vec<u32>,
    /// The first id of the current row group.
    group_start: usize,
}

impl WriterDict {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn entry(&self, id: usize) -> &[u8] {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.bytes[start as usize..self.ends[id] as usize]
    }

    /// The top bits of `hash`, placed where a slot keeps them.
    fn tag(hash: u64) -> u32 {
        (hash >> 32) as u32 & !SLOT_ID_MASK
    }

    /// The id for `s`, interning it if new; `None` if `s` is ineligible
    /// (too long, or the dictionary is full) and must go inline.
    fn intern(&mut self, s: &str) -> Option<u32> {
        if s.len() > DICT_MAX_STR {
            return None;
        }
        self.reserve_slots(self.len() + 1);
        let hash = dict_hash(s.as_bytes());
        let tag = Self::tag(hash);
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                0 => break,
                slot if slot & !SLOT_ID_MASK == tag => {
                    let id = (slot & SLOT_ID_MASK) as usize - 1;
                    if self.entry(id) == s.as_bytes() {
                        return Some(id as u32);
                    }
                }
                _ => {}
            }
            i = (i + 1) & mask;
        }
        if self.len() >= DICT_MAX_ENTRIES {
            return None;
        }
        self.slots[i] = tag | (self.len() as u32 + 1);
        self.bytes.extend_from_slice(s.as_bytes());
        self.ends.push(self.bytes.len() as u64);
        Some(self.len() as u32 - 1)
    }

    /// Grows the id table to hold `entries` at most three quarters full,
    /// rehashing every entry from the arena.
    fn reserve_slots(&mut self, entries: usize) {
        if entries * 4 <= self.slots.len() * 3 {
            return;
        }
        let mut cap = self.slots.len().max(64);
        while entries * 4 > cap * 3 {
            cap *= 2;
        }
        self.slots = vec![0; cap];
        for id in 0..self.len() {
            let hash = dict_hash(self.entry(id));
            let mut i = hash as usize & (cap - 1);
            while self.slots[i] != 0 {
                i = (i + 1) & (cap - 1);
            }
            self.slots[i] = Self::tag(hash) | (id as u32 + 1);
        }
    }

    /// Writes the current group's new entries as a DICT delta payload
    /// into `out` and starts the next group.
    fn take_delta(&mut self, out: &mut Vec<u8>) {
        let new = self.group_start..self.len();
        wv(out, new.len() as u64);
        for id in new {
            let s = self.entry(id);
            wv(out, s.len() as u64);
            out.extend_from_slice(s);
        }
        self.group_start = self.len();
    }

    /// Starts a new epoch with no entries, keeping the memory for it.
    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        self.slots.fill(0);
        self.group_start = 0;
    }

    /// The dictionary a resumed writer continues: the reader's entries
    /// copied once into the arena (each checked as UTF-8, as a decode
    /// would), with the table sized for them. The arena and its offsets
    /// start at twice the restored size, what the first append past an
    /// exact fit would grow them to, so the restored bytes are never
    /// copied again (an exact fit made a 1M-origin 8-shard resume peak
    /// 38 MiB higher).
    fn restore(reader: &ReaderDict) -> std::io::Result<WriterDict> {
        let n = reader.entries.len();
        let bytes: usize = reader.entries.iter().map(|e| e.len as usize).sum();
        let mut dict = WriterDict {
            bytes: Vec::with_capacity(2 * bytes),
            ends: Vec::with_capacity(2 * n),
            slots: Vec::new(),
            group_start: n,
        };
        for id in 0..n {
            dict.bytes.extend_from_slice(reader.get(id)?.as_bytes());
            dict.ends.push(dict.bytes.len() as u64);
        }
        dict.reserve_slots(n);
        Ok(dict)
    }
}

/// Dictionary state carried from [`resume_colsh`] into
/// [`ColshWriter::append`], so appended groups assign exactly the ids an
/// uninterrupted crawl would have.
#[derive(Default)]
pub struct ColshAppendState {
    /// The writer's dictionary holding every *current-epoch* entry in
    /// the valid prefix, in id order (entries from earlier epochs are
    /// unreferenced by appended groups and need not be carried).
    dict: WriterDict,
    /// Records already on disk in the valid prefix.
    pub records: u64,
    /// Row groups flushed since the last dictionary epoch boundary, so
    /// an appending writer resets its dictionary exactly where an
    /// uninterrupted one would have.
    pub groups_in_epoch: u64,
}

/// Streaming `.colsh` writer: records accumulate into an in-memory row
/// group that is framed, checksummed and flushed every
/// [`DEFAULT_GROUP_RECORDS`] pushes; [`ColshWriter::finish`] flushes the
/// tail group and writes the END marker.
pub struct ColshWriter {
    out: BufWriter<DigestWriter<File>>,
    dict: WriterDict,
    /// The payload of a group's GROUP and DICT blocks, kept across
    /// groups.
    delta: Vec<u8>,
    cols: [Vec<u8>; COLUMNS],
    group_records: usize,
    in_group: usize,
    total: u64,
    /// Row groups per dictionary epoch; `0` disables epoch resets.
    dict_epoch_groups: u64,
    /// Full groups flushed since the last epoch boundary.
    groups_in_epoch: u64,
    /// The next flushed group starts a new epoch: emit the EPOCH marker
    /// before it. Set at push time (the dictionary resets before the
    /// first record of the new epoch is encoded).
    epoch_pending: bool,
}

impl ColshWriter {
    /// Creates a new database with the default row-group size.
    pub fn create(path: &Path) -> std::io::Result<ColshWriter> {
        ColshWriter::create_grouped(path, DEFAULT_GROUP_RECORDS)
    }

    /// Creates a new database flushing a row group every
    /// `group_records` pushes (mostly for tests exercising group
    /// boundaries; must be nonzero).
    pub fn create_grouped(path: &Path, group_records: usize) -> std::io::Result<ColshWriter> {
        let writer = ColshWriter::append(path, 0, ColshAppendState::default())?;
        Ok(writer.with_group_records(group_records))
    }

    /// Reopens an interrupted database for appending: truncates to the
    /// valid prefix [`resume_colsh`] measured (discarding any torn tail
    /// and the old END marker), restores the dictionary state so new
    /// groups continue the id sequence, and seeds the file digest with
    /// one sequential read of the kept prefix. An empty prefix (a new
    /// file, or a tear inside the header) starts over at the magic.
    pub fn append(
        path: &Path,
        valid_len: u64,
        state: ColshAppendState,
    ) -> std::io::Result<ColshWriter> {
        let mut digest = Digest64::default();
        let file = reopen_at(path, valid_len, Some(&mut digest))?;
        let mut out = BufWriter::new(DigestWriter::new(file, digest));
        if valid_len == 0 {
            out.write_all(&COLSH_MAGIC)?;
            out.write_all(&COLSH_VERSION.to_le_bytes())?;
            let mut fdict = Vec::new();
            wv(&mut fdict, all_permissions().len() as u64);
            for p in all_permissions() {
                let token = p.token();
                wv(&mut fdict, token.len() as u64);
                fdict.extend_from_slice(token.as_bytes());
            }
            write_frame(&mut out, Some(BLOCK_FDICT), &fdict)?;
        }
        Ok(ColshWriter {
            out,
            dict: state.dict,
            delta: Vec::new(),
            cols: Default::default(),
            group_records: DEFAULT_GROUP_RECORDS,
            in_group: 0,
            total: state.records,
            dict_epoch_groups: DEFAULT_DICT_EPOCH_GROUPS,
            groups_in_epoch: state.groups_in_epoch,
            epoch_pending: false,
        })
    }

    /// Overrides the row-group size (mostly for tests exercising group
    /// boundaries on appended tails).
    pub fn with_group_records(mut self, group_records: usize) -> ColshWriter {
        assert!(group_records > 0, "row group size must be nonzero");
        self.group_records = group_records;
        self
    }

    /// Overrides how many row groups a dictionary epoch spans (`0`
    /// disables epoch resets entirely — the pre-epoch file layout).
    pub fn with_dict_epoch_groups(mut self, dict_epoch_groups: u64) -> ColshWriter {
        self.dict_epoch_groups = dict_epoch_groups;
        self
    }

    fn w_str(&mut self, col: usize, s: &str) {
        match self.dict.intern(s) {
            Some(id) => wv(&mut self.cols[col], u64::from(id) + 1),
            None => {
                wv(&mut self.cols[col], 0);
                wv(&mut self.cols[col], s.len() as u64);
                self.cols[col].extend_from_slice(s.as_bytes());
            }
        }
    }

    fn w_opt_str(&mut self, col: usize, s: Option<&str>) {
        match s {
            None => wv(&mut self.cols[col], 0),
            Some(s) => match self.dict.intern(s) {
                Some(id) => wv(&mut self.cols[col], u64::from(id) + 2),
                None => {
                    wv(&mut self.cols[col], 1);
                    wv(&mut self.cols[col], s.len() as u64);
                    self.cols[col].extend_from_slice(s.as_bytes());
                }
            },
        }
    }

    /// A permission's FDICT index is its discriminant: the registry
    /// asserts `all_permissions()[i] as usize == i`, and FDICT lists the
    /// tokens in that order.
    fn w_perm(&mut self, col: usize, p: Permission) {
        wv(&mut self.cols[col], p as u64);
    }

    /// Appends one record to the current row group, flushing the group
    /// when it reaches the configured size.
    pub fn push(&mut self, record: &SiteRecord) -> std::io::Result<()> {
        // Epoch boundaries take effect at the *first push* of the new
        // epoch, not at flush time: dictionary ids are assigned while
        // encoding, so the reset must precede `encode_record`.
        if self.dict_epoch_groups > 0
            && self.in_group == 0
            && self.groups_in_epoch >= self.dict_epoch_groups
        {
            self.dict.clear();
            self.epoch_pending = true;
        }
        self.encode_record(record);
        self.in_group += 1;
        self.total += 1;
        if self.in_group >= self.group_records {
            self.flush_group()?;
        }
        Ok(())
    }

    fn encode_record(&mut self, r: &SiteRecord) {
        wv(&mut self.cols[C_META], r.rank);
        self.w_str(C_META, &r.origin);
        self.cols[C_META].push(ord(&SITE_OUTCOMES, r.outcome));
        wv(&mut self.cols[C_META], r.elapsed_ms);
        wv(&mut self.cols[C_META], u64::from(r.attempts));
        let Some(visit) = &r.visit else {
            self.cols[C_META].push(0);
            return;
        };
        self.cols[C_META].push(1);
        self.w_str(C_META, &visit.requested_url);
        self.cols[C_META].push(ord(&VISIT_OUTCOMES, visit.outcome));
        wv(&mut self.cols[C_META], visit.elapsed_ms);
        wv(&mut self.cols[C_META], u64::from(visit.schema_version));
        wv(&mut self.cols[C_META], visit.frames.len() as u64);

        for f in &visit.frames {
            wv(&mut self.cols[C_FRAMES], f.frame_id as u64);
            wv(
                &mut self.cols[C_FRAMES],
                f.parent.map(|p| p as u64 + 1).unwrap_or(0),
            );
            wv(&mut self.cols[C_FRAMES], u64::from(f.depth));
            self.w_opt_str(C_FRAMES, f.url.as_deref());
            self.w_str(C_FRAMES, &f.origin);
            self.w_opt_str(C_FRAMES, f.site.as_deref());
            let flags = u8::from(f.is_top_level) | u8::from(f.is_local_document) << 1;
            self.cols[C_FRAMES].push(flags);

            match &f.iframe_attrs {
                None => self.cols[C_ATTRS].push(0),
                Some(a) => {
                    self.cols[C_ATTRS].push(1);
                    let fields = [
                        &a.id, &a.name, &a.class, &a.src, &a.allow, &a.sandbox, &a.loading,
                    ];
                    let mut bitmap = u8::from(a.has_srcdoc) << 7;
                    for (bit, field) in fields.iter().enumerate() {
                        if field.is_some() {
                            bitmap |= 1 << bit;
                        }
                    }
                    self.cols[C_ATTRS].push(bitmap);
                    for field in fields {
                        if let Some(s) = field.as_deref() {
                            self.w_str(C_ATTRS, s);
                        }
                    }
                }
            }

            let headers = [
                &f.permissions_policy_header,
                &f.feature_policy_header,
                &f.csp_header,
            ];
            let mut bitmap = 0u8;
            for (bit, h) in headers.iter().enumerate() {
                if h.is_some() {
                    bitmap |= 1 << bit;
                }
            }
            self.cols[C_HEADERS].push(bitmap);
            for h in headers {
                if let Some(s) = h.as_deref() {
                    self.w_str(C_HEADERS, s);
                }
            }

            wv(&mut self.cols[C_INVOCATIONS], f.invocations.len() as u64);
            for inv in &f.invocations {
                self.w_str(C_INVOCATIONS, &inv.api_path);
                self.cols[C_INVOCATIONS].push(ord(&INVOCATION_KINDS, inv.kind));
                wv(&mut self.cols[C_INVOCATIONS], inv.permissions.len() as u64);
                for &p in &inv.permissions {
                    self.w_perm(C_INVOCATIONS, p);
                }
                self.w_opt_str(C_INVOCATIONS, inv.script_url.as_deref());
                let flags = u8::from(inv.constructed)
                    | u8::from(inv.via_feature_policy_api) << 1
                    | u8::from(inv.policy_blocked) << 2;
                self.cols[C_INVOCATIONS].push(flags);
            }

            wv(&mut self.cols[C_SCRIPTS], f.scripts.len() as u64);
            for s in &f.scripts {
                self.w_opt_str(C_SCRIPTS, s.url.as_deref());
                self.w_str(C_SCRIPTS, &s.source);
                self.cols[C_SCRIPTS].push(ord(&SCRIPT_OUTCOMES, s.outcome));
            }

            wv(&mut self.cols[C_FEATURES], f.allowed_features.len() as u64);
            for t in &f.allowed_features {
                self.w_perm(C_FEATURES, t.0);
            }
        }

        wv(&mut self.cols[C_PROMPTS], visit.prompts.len() as u64);
        for p in &visit.prompts {
            self.w_perm(C_PROMPTS, p.permission);
            wv(&mut self.cols[C_PROMPTS], p.frame_id as u64);
            self.cols[C_PROMPTS].push(u8::from(p.from_embedded));
            self.w_str(C_PROMPTS, &p.attributed_origin);
        }

        wv(
            &mut self.cols[C_DEGRADATIONS],
            visit.degradations.len() as u64,
        );
        for d in &visit.degradations {
            wv(&mut self.cols[C_DEGRADATIONS], d.frame_id as u64);
            self.cols[C_DEGRADATIONS].push(ord(&DEGRADATION_KINDS, d.kind));
            self.w_opt_str(C_DEGRADATIONS, d.detail.as_deref());
        }
    }

    fn flush_group(&mut self) -> std::io::Result<()> {
        if self.in_group == 0 {
            return Ok(());
        }
        if self.epoch_pending {
            write_frame(&mut self.out, Some(BLOCK_EPOCH), &[])?;
            self.epoch_pending = false;
            self.groups_in_epoch = 0;
        }
        self.groups_in_epoch += 1;
        self.delta.clear();
        wv(&mut self.delta, self.in_group as u64);
        write_frame(&mut self.out, Some(BLOCK_GROUP), &self.delta)?;
        self.delta.clear();
        self.dict.take_delta(&mut self.delta);
        write_frame(&mut self.out, Some(BLOCK_DICT), &self.delta)?;
        for (k, col) in self.cols.iter_mut().enumerate() {
            write_frame(&mut self.out, Some(BLOCK_COLUMN_BASE + k as u8), col)?;
            col.clear();
        }
        self.in_group = 0;
        Ok(())
    }

    /// Flushes the tail group and writes the END marker.
    pub fn finish(self) -> std::io::Result<()> {
        self.finish_sealed().map(|_| ())
    }

    /// [`ColshWriter::finish`], returning the digest of the whole file
    /// as written.
    pub(crate) fn finish_sealed(mut self) -> std::io::Result<Digest64> {
        self.flush_group()?;
        let mut end = Vec::new();
        wv(&mut end, self.total);
        write_frame(&mut self.out, Some(BLOCK_END), &end)?;
        self.out.flush()?;
        Ok(self.out.get_ref().digest())
    }

    /// Finishes at the last *complete* row-group boundary, discarding
    /// any partial tail group, and returns how many records are durable.
    ///
    /// This is the graceful-shutdown checkpoint: an uninterrupted crawl
    /// writes full groups of [`DEFAULT_GROUP_RECORDS`] throughout, so a
    /// stopped-and-resumed database can only be byte-identical to it if
    /// the stop never flushes a short group mid-file. The dropped tail
    /// records (< one group) are simply re-crawled on resume — the same
    /// bounded loss a kill at the last flush would have caused, but with
    /// a clean, strictly readable file and an accurate END count.
    pub fn finish_checkpoint(mut self) -> std::io::Result<u64> {
        let durable = self.total - self.in_group as u64;
        let mut end = Vec::new();
        wv(&mut end, durable);
        write_frame(&mut self.out, Some(BLOCK_END), &end)?;
        self.out.flush()?;
        Ok(durable)
    }
}

/// Writes a whole dataset as a `.colsh` database.
pub fn write_colsh(dataset: &CrawlDataset, path: &Path) -> std::io::Result<()> {
    crate::db::write_db(dataset, path, crate::db::DbFormat::Colsh)
}

// --- reader ---------------------------------------------------------------

/// Streaming `.colsh` reader: yields [`SiteRecord`]s group by group,
/// materializing only the columns in its [`ColumnSet`] projection and
/// passing over the rest unread. Damage goes through the one mapping,
/// [`StreamMode::recover`], at row-group granularity.
pub struct ColshStream {
    frames: FrameReader,
    mode: StreamMode,
    columns: ColumnSet,
    /// End of the last fully loaded row group; `0` until the header and
    /// feature dictionary have been read whole.
    valid_len: u64,
    dict: ReaderDict,
    perms: Vec<Permission>,
    cols: [ColBuf; COLUMNS],
    /// Payload of the last GROUP or END block.
    block: Vec<u8>,
    /// Byte offset of the loaded group's GROUP block, for decode errors.
    group_at: u64,
    /// Records left to decode in the loaded group.
    remaining: u64,
    /// Records passed over so far (decoded + skipped) — the 1-based
    /// record index the skip report uses, and what END must equal.
    file_records: u64,
    /// Records contained in the valid prefix (`valid_len`), updated
    /// whenever `valid_len` advances — the rewind point for `refresh`.
    valid_records: u64,
    /// Full groups committed since the last dictionary epoch boundary.
    groups_in_epoch: u64,
    /// An EPOCH marker was read but its epoch's first group has not
    /// committed yet: the dictionary reset is deferred until it does, so
    /// a tear between marker and group leaves the carried state (old
    /// dictionary, old epoch counter) exactly what an appending writer
    /// re-emitting the marker expects.
    epoch_pending: bool,
    /// Read and checksum the column blocks the projection leaves out
    /// instead of passing over them (the job-resume scan, which must not
    /// certify bytes it never checked).
    verify_skipped: bool,
    skip: SkipReport,
    done: bool,
}

/// What one attempt to load the next row group produced.
enum GroupLoad {
    /// A group is buffered. `delta` is the raw dictionary-delta payload
    /// from the DICT block at `dict_at`, committed only once the whole
    /// group loaded (so a torn group never pollutes the dictionary).
    /// `corrupt` is the offset of the first enabled column block that
    /// failed its checksum: the group's framing is intact, so its count
    /// and dictionary delta still hold.
    Group {
        count: u64,
        delta: Vec<u8>,
        dict_at: u64,
        corrupt: Option<u64>,
    },
    /// A valid END marker carrying the writer's total record count.
    End { count: u64 },
    /// A dictionary-epoch marker: the next group starts a fresh epoch.
    Epoch,
    /// Clean end of file with no END marker.
    Eof,
}

/// A damaged block: torn when it runs past the end of the file, and
/// otherwise breaking, since a block outside a column's payload holds
/// what later groups read (a count, a dictionary delta, the framing).
fn block_fault(frame: Frame, what: &str) -> Fault {
    match frame {
        Frame::Corrupt { at, .. } => Fault::new(
            Damage::Breaking,
            format!("{what} checksum mismatch at byte {at}"),
        ),
        Frame::Torn { at } => Fault::new(Damage::Torn, format!("torn {what} at byte {at}")),
        Frame::Intact { tag, at } => Fault::new(
            Damage::Breaking,
            format!("unexpected block id {tag:#x} at byte {at}, expected {what}"),
        ),
        Frame::End => Fault::new(Damage::Torn, format!("missing {what} at end of file")),
    }
}

/// Decodes a block payload's leading varint, or names the block.
fn block_varint(payload: &[u8], at: u64) -> Result<u64, Fault> {
    let mut cursor = ColBuf {
        buf: payload.to_vec(),
        pos: 0,
    };
    cursor
        .varint()
        .map_err(|e| Fault::new(Damage::Breaking, format!("{e} in block at byte {at}")))
}

impl ColshStream {
    /// Opens a database reading every column.
    pub fn open(path: &Path, mode: StreamMode) -> std::io::Result<ColshStream> {
        ColshStream::open_projected(path, mode, ColumnSet::ALL)
    }

    /// Opens a database materializing only `columns` (plus META, always).
    /// A header torn short reads as a torn tail: a strict open fails, a
    /// lenient or resuming stream ends before its first record, with
    /// [`valid_len`](ColshStream::valid_len) 0.
    pub fn open_projected(
        path: &Path,
        mode: StreamMode,
        columns: ColumnSet,
    ) -> std::io::Result<ColshStream> {
        let mut stream = ColshStream {
            frames: FrameReader::open(path, true)?,
            mode,
            columns: columns.normalized(),
            valid_len: 0,
            dict: ReaderDict::default(),
            perms: Vec::new(),
            cols: Default::default(),
            block: Vec::new(),
            group_at: 0,
            remaining: 0,
            file_records: 0,
            valid_records: 0,
            groups_in_epoch: 0,
            epoch_pending: false,
            verify_skipped: false,
            skip: SkipReport::default(),
            done: false,
        };
        stream.read_header()?;
        Ok(stream)
    }

    /// What a lenient stream skipped so far (counted in records).
    pub fn skip_report(&self) -> &SkipReport {
        &self.skip
    }

    /// Consumes the stream, returning its skip report.
    pub fn into_skip_report(self) -> SkipReport {
        self.skip
    }

    /// Byte length of the valid prefix: the end of the last fully loaded
    /// row group (the END marker is deliberately excluded, so an append
    /// at this offset overwrites it).
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Records contained in the valid prefix.
    pub fn valid_records(&self) -> u64 {
        self.valid_records
    }

    /// Re-arms an exhausted stream against a file that may have grown
    /// since: re-stats the length, seeks back to the end of the last
    /// complete row group (or reads the header again, if it was torn),
    /// and clears the terminal state so iteration resumes with only
    /// newly appended groups. Dictionary state built from the valid
    /// prefix is kept — appended groups extend it (the live-follow
    /// contract: the writer only ever appends past, or byte-identically
    /// rewrites up to, the frontier we stopped at).
    ///
    /// Must only be called once the stream has returned `None` (a
    /// partially decoded group would otherwise be re-read).
    pub fn refresh(&mut self) -> std::io::Result<()> {
        self.frames.rewind(self.valid_len)?;
        self.file_records = self.valid_records;
        self.remaining = 0;
        self.epoch_pending = false;
        self.done = false;
        for col in &mut self.cols {
            col.reset();
        }
        if self.valid_len == 0 {
            self.read_header()?;
        }
        Ok(())
    }

    /// The file-level feature vocabulary, in dictionary order.
    pub fn feature_dictionary(&self) -> &[Permission] {
        &self.perms
    }

    /// Reads the magic, the version and the feature dictionary, mapping
    /// damage through the stream mode: a torn header ends the stream.
    fn read_header(&mut self) -> std::io::Result<()> {
        if let Err(fault) = self.try_read_header()? {
            self.done = true;
            self.mode.recover(fault, false, &mut self.skip, 1, 0)?;
        }
        Ok(())
    }

    fn try_read_header(&mut self) -> std::io::Result<Result<(), Fault>> {
        let torn = |at: u64| Fault::new(Damage::Torn, format!("torn header at byte {at}"));
        let mut magic = [0u8; 8];
        if !self.frames.head(&mut magic)? {
            return Ok(Err(torn(0)));
        }
        if magic != COLSH_MAGIC {
            return Err(bad("not a columnar (.colsh) database"));
        }
        let mut version = [0u8; 4];
        if !self.frames.head(&mut version)? {
            return Ok(Err(torn(8)));
        }
        let version = u32::from_le_bytes(version);
        if version != COLSH_VERSION {
            return Err(bad(format!(
                "unsupported columnar format version {version} (reader supports {COLSH_VERSION})"
            )));
        }
        let at = match self.frames.next(Some(&mut self.block))? {
            Frame::Intact {
                tag: BLOCK_FDICT,
                at,
            } => at,
            frame => return Ok(Err(block_fault(frame, "feature dictionary"))),
        };
        let mut cursor = ColBuf {
            buf: std::mem::take(&mut self.block),
            pos: 0,
        };
        let perms = (|| {
            let n = cursor.varint()? as usize;
            let mut perms = Vec::with_capacity(n);
            for _ in 0..n {
                let token = cursor.inline_str()?;
                let perm = Permission::from_token(&token)
                    .ok_or_else(|| bad(format!("unknown feature token `{token}` in dictionary")))?;
                perms.push(perm);
            }
            Ok::<_, std::io::Error>(perms)
        })()
        .map_err(|e| bad(format!("{e} in feature dictionary at byte {at}")))?;
        self.perms = perms;
        self.valid_len = self.frames.at();
        Ok(Ok(()))
    }

    /// Attempts to load the next row group. The outer error is an I/O
    /// failure; the inner one, damage for the stream mode to map.
    fn try_load_group(&mut self) -> std::io::Result<Result<GroupLoad, Fault>> {
        let (id, at) = match self.frames.next(Some(&mut self.block))? {
            Frame::End => return Ok(Ok(GroupLoad::Eof)),
            Frame::Intact { tag, at } => (tag, at),
            frame => return Ok(Err(block_fault(frame, "block"))),
        };
        let count = match id {
            BLOCK_EPOCH => return Ok(Ok(GroupLoad::Epoch)),
            BLOCK_END | BLOCK_GROUP => match block_varint(&self.block, at) {
                Ok(count) if id == BLOCK_END => return Ok(Ok(GroupLoad::End { count })),
                Ok(count) => count,
                Err(fault) => return Ok(Err(fault)),
            },
            other => {
                let detail = format!("unexpected block id {other:#x} at byte {at}");
                return Ok(Err(Fault::new(Damage::Breaking, detail)));
            }
        };
        self.group_at = at;
        let mut delta = Vec::new();
        let dict_at = match self.frames.next(Some(&mut delta))? {
            Frame::Intact {
                tag: BLOCK_DICT,
                at,
            } => at,
            frame => return Ok(Err(block_fault(frame, "dictionary delta block"))),
        };
        let mut corrupt = None;
        for (k, col) in self.cols.iter_mut().enumerate() {
            let expected = BLOCK_COLUMN_BASE + k as u8;
            let reads = self.columns.reads_column(k);
            col.pos = 0;
            let payload = (reads || self.verify_skipped).then_some(&mut col.buf);
            match self.frames.next(payload)? {
                Frame::Intact { tag, .. } if tag == expected => {}
                Frame::Corrupt { tag, at } if tag == expected => {
                    corrupt = corrupt.or(Some(at));
                }
                frame => {
                    let what = format!("column block {expected:#x}");
                    return Ok(Err(block_fault(frame, &what)));
                }
            }
            if !reads {
                col.reset();
            }
        }
        Ok(Ok(GroupLoad::Group {
            count,
            delta,
            dict_at,
            corrupt,
        }))
    }

    /// Applies a deferred dictionary-epoch reset now that the epoch's
    /// first group is committing.
    fn commit_epoch_boundary(&mut self) {
        if self.epoch_pending {
            self.dict = ReaderDict::default();
            self.groups_in_epoch = 0;
            self.epoch_pending = false;
        }
    }

    /// Maps damage through the stream mode, ending the stream unless the
    /// damaged unit (`count` records from the next one on) is skipped.
    fn recover(&mut self, fault: Fault, count: u64) -> std::io::Result<Recovery> {
        let first = self.file_records + 1;
        let recovery = self
            .mode
            .recover(fault, false, &mut self.skip, first, count);
        if !matches!(recovery, Ok(Recovery::Skip)) {
            self.done = true;
        }
        recovery
    }

    /// Advances to the next decodable group. `Ok(true)` means records
    /// are ready; `Ok(false)` means the stream ended (cleanly or cut at
    /// damage its mode tolerates).
    fn advance_group(&mut self) -> std::io::Result<bool> {
        loop {
            let load = match self.try_load_group()? {
                Ok(load) => load,
                Err(fault) => {
                    self.recover(fault, 0)?;
                    return Ok(false);
                }
            };
            match load {
                GroupLoad::Group {
                    count,
                    delta,
                    dict_at,
                    corrupt,
                } => {
                    if let Some(at) = corrupt {
                        // A bad column block: the framing, the count and
                        // the dictionary delta survive, so a lenient read
                        // steps over the group and later groups resolve
                        // their dictionary ids as written.
                        let detail = format!("column block checksum mismatch at byte {at}");
                        self.recover(Fault::new(Damage::Skippable, detail), count)?;
                    }
                    self.commit_epoch_boundary();
                    if let Err(e) = self.dict.ingest(delta) {
                        let detail = format!("{e} in dictionary delta at byte {dict_at}");
                        self.recover(Fault::new(Damage::Breaking, detail), count)?;
                    }
                    self.groups_in_epoch += 1;
                    match corrupt {
                        Some(_) => self.file_records += count,
                        None => self.remaining = count,
                    }
                    self.valid_len = self.frames.at();
                    self.valid_records = self.file_records + self.remaining;
                    if self.remaining > 0 {
                        return Ok(true);
                    }
                }
                GroupLoad::Epoch => {
                    // Deferred: the reset applies when this epoch's
                    // first group commits. The marker itself never
                    // advances `valid_len` — if the group after it is
                    // torn, the resume point stays *before* the marker
                    // and the appending writer re-emits it.
                    self.epoch_pending = true;
                }
                GroupLoad::End { count } => {
                    self.done = true;
                    // Only a strict read certifies a finished file; the
                    // others stop at END whatever it claims.
                    if self.mode == StreamMode::Strict {
                        if count != self.file_records {
                            return Err(bad(format!(
                                "end marker claims {count} records, read {}",
                                self.file_records
                            )));
                        }
                        if self.frames.next(None)? != Frame::End {
                            return Err(bad("trailing data after end marker"));
                        }
                    }
                    return Ok(false);
                }
                GroupLoad::Eof => {
                    // Clean EOF at a block boundary with no END marker:
                    // the signature of a live file still being appended.
                    let at = self.frames.at();
                    let detail = format!("truncated database: missing end marker at byte {at}");
                    self.recover(Fault::new(Damage::Torn, detail), 0)?;
                    return Ok(false);
                }
            }
        }
    }

    fn rd_perm(cursor: &mut ColBuf, perms: &[Permission]) -> std::io::Result<Permission> {
        let idx = cursor.varint()? as usize;
        perms
            .get(idx)
            .copied()
            .ok_or_else(|| bad(format!("feature dictionary id {idx} out of range")))
    }

    fn decode_record(&mut self) -> std::io::Result<SiteRecord> {
        let columns = self.columns;
        let cols = &mut self.cols;
        let dict = &self.dict;
        let perms = &self.perms;

        let meta = &mut cols[C_META];
        let rank = meta.varint()?;
        let origin = meta.str(dict)?;
        let outcome = from_ord(&SITE_OUTCOMES, meta.u8()?, "site outcome")?;
        let elapsed_ms = meta.varint()?;
        let attempts = meta.varint()? as u32;
        let has_visit = meta.u8()?;
        if has_visit == 0 {
            return Ok(SiteRecord {
                rank,
                origin,
                outcome,
                visit: None,
                elapsed_ms,
                attempts,
            });
        }
        let requested_url = meta.str(dict)?;
        let visit_outcome = from_ord(&VISIT_OUTCOMES, meta.u8()?, "visit outcome")?;
        let visit_elapsed = meta.varint()?;
        let schema_version = meta.varint()? as u32;
        let frame_count = meta.varint()? as usize;

        let mut frames = Vec::new();
        if columns.contains(ColumnSet::FRAMES) {
            frames.reserve(frame_count);
            for _ in 0..frame_count {
                let fr = &mut cols[C_FRAMES];
                let frame_id = fr.varint()? as usize;
                let parent = match fr.varint()? {
                    0 => None,
                    p => Some((p - 1) as usize),
                };
                let depth = fr.varint()? as u32;
                let url = fr.opt_str(dict)?;
                let origin = fr.str(dict)?;
                let site = fr.opt_str(dict)?;
                let flags = fr.u8()?;

                let iframe_attrs = if columns.contains(ColumnSet::ATTRS) {
                    let at = &mut cols[C_ATTRS];
                    match at.u8()? {
                        0 => None,
                        _ => {
                            let bitmap = at.u8()?;
                            let mut fields: [Option<String>; 7] = Default::default();
                            for (bit, slot) in fields.iter_mut().enumerate() {
                                if bitmap & (1 << bit) != 0 {
                                    *slot = Some(at.str(dict)?);
                                }
                            }
                            let [id, name, class, src, allow, sandbox, loading] = fields;
                            Some(IframeAttrs {
                                id,
                                name,
                                class,
                                src,
                                allow,
                                sandbox,
                                has_srcdoc: bitmap & 0x80 != 0,
                                loading,
                            })
                        }
                    }
                } else {
                    None
                };

                let (pp, fp, csp) = if columns.contains(ColumnSet::HEADERS) {
                    let hd = &mut cols[C_HEADERS];
                    let bitmap = hd.u8()?;
                    let mut headers: [Option<String>; 3] = Default::default();
                    for (bit, slot) in headers.iter_mut().enumerate() {
                        if bitmap & (1 << bit) != 0 {
                            *slot = Some(hd.str(dict)?);
                        }
                    }
                    let [pp, fp, csp] = headers;
                    (pp, fp, csp)
                } else {
                    (None, None, None)
                };

                let mut invocations = Vec::new();
                if columns.contains(ColumnSet::INVOCATIONS) {
                    let iv = &mut cols[C_INVOCATIONS];
                    let n = iv.varint()? as usize;
                    invocations.reserve(n);
                    for _ in 0..n {
                        let api_path = iv.str(dict)?;
                        let kind = from_ord(&INVOCATION_KINDS, iv.u8()?, "invocation kind")?;
                        let np = iv.varint()? as usize;
                        let mut permissions = Vec::with_capacity(np);
                        for _ in 0..np {
                            permissions.push(Self::rd_perm(iv, perms)?);
                        }
                        let script_url = iv.opt_str(dict)?;
                        let flags = iv.u8()?;
                        invocations.push(InvocationRecord {
                            api_path,
                            kind,
                            permissions,
                            script_url,
                            constructed: flags & 1 != 0,
                            via_feature_policy_api: flags & 2 != 0,
                            policy_blocked: flags & 4 != 0,
                        });
                    }
                }

                let mut scripts = Vec::new();
                if columns.contains(ColumnSet::SCRIPTS) {
                    let sc = &mut cols[C_SCRIPTS];
                    let n = sc.varint()? as usize;
                    scripts.reserve(n);
                    for _ in 0..n {
                        let url = sc.opt_str(dict)?;
                        let source = sc.str(dict)?;
                        let outcome = from_ord(&SCRIPT_OUTCOMES, sc.u8()?, "script outcome")?;
                        scripts.push(ScriptRecord {
                            url,
                            source,
                            outcome,
                        });
                    }
                }

                let mut allowed_features = Vec::new();
                if columns.contains(ColumnSet::FEATURES) {
                    let ft = &mut cols[C_FEATURES];
                    let n = ft.varint()? as usize;
                    allowed_features.reserve(n);
                    for _ in 0..n {
                        allowed_features.push(FeatureToken(Self::rd_perm(ft, perms)?));
                    }
                }

                frames.push(FrameRecord {
                    frame_id,
                    parent,
                    depth,
                    url,
                    origin,
                    site,
                    is_top_level: flags & 1 != 0,
                    is_local_document: flags & 2 != 0,
                    iframe_attrs,
                    permissions_policy_header: pp,
                    feature_policy_header: fp,
                    csp_header: csp,
                    invocations,
                    scripts,
                    allowed_features,
                });
            }
        }

        let mut prompts = Vec::new();
        if columns.contains(ColumnSet::PROMPTS) {
            let pr = &mut cols[C_PROMPTS];
            let n = pr.varint()? as usize;
            prompts.reserve(n);
            for _ in 0..n {
                let permission = Self::rd_perm(pr, perms)?;
                let frame_id = pr.varint()? as usize;
                let from_embedded = pr.u8()? != 0;
                let attributed_origin = pr.str(dict)?;
                prompts.push(PromptRecord {
                    permission,
                    frame_id,
                    from_embedded,
                    attributed_origin,
                });
            }
        }

        let mut degradations = Vec::new();
        if columns.contains(ColumnSet::DEGRADATIONS) {
            let dg = &mut cols[C_DEGRADATIONS];
            let n = dg.varint()? as usize;
            degradations.reserve(n);
            for _ in 0..n {
                let frame_id = dg.varint()? as usize;
                let kind = from_ord(&DEGRADATION_KINDS, dg.u8()?, "degradation kind")?;
                let detail = dg.opt_str(dict)?;
                degradations.push(DegradationEvent {
                    frame_id,
                    kind,
                    detail,
                });
            }
        }

        Ok(SiteRecord {
            rank,
            origin,
            outcome,
            visit: Some(PageVisit {
                requested_url,
                frames,
                prompts,
                outcome: visit_outcome,
                elapsed_ms: visit_elapsed,
                schema_version,
                degradations,
            }),
            elapsed_ms,
            attempts,
        })
    }

    fn next_record(&mut self) -> Option<std::io::Result<SiteRecord>> {
        loop {
            if self.remaining == 0 {
                if self.done {
                    return None;
                }
                match self.advance_group() {
                    Ok(true) => {}
                    Ok(false) => return None,
                    Err(e) => return Some(Err(e)),
                }
            }
            match self.decode_record() {
                Ok(record) => {
                    self.remaining -= 1;
                    self.file_records += 1;
                    return Some(Ok(record));
                }
                Err(e) => {
                    // A decode error desynchronizes the group's cursors:
                    // a lenient read drops the rest of the group, counted.
                    let at = self.group_at;
                    let detail = format!("{e} in the row group at byte {at}");
                    let rest = self.remaining;
                    if let Err(e) = self.recover(Fault::new(Damage::Skippable, detail), rest) {
                        return Some(Err(e));
                    }
                    self.file_records += rest;
                    self.remaining = 0;
                }
            }
        }
    }
}

impl Iterator for ColshStream {
    type Item = std::io::Result<SiteRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record()
    }
}

/// Scans a possibly-interrupted `.colsh` database for resumption,
/// calling `check` on every valid record (META columns only) in file
/// order; its first error aborts the scan (pass `|_| Ok(())` to accept
/// any records).
///
/// Tolerates exactly one kind of damage — a torn tail, the signature of
/// a writer killed mid-append, a torn header included (the valid prefix
/// is then empty and the caller rewrites the file). Decodes only the
/// META column, but checks every column block's checksum, so a damaged
/// block fails the scan instead of being appended to. Returns the
/// record count + valid byte prefix, and the [`ColshAppendState`]
/// (dictionary + record count) an appending [`ColshWriter`] needs so
/// the resumed file is byte-identical to an uninterrupted write. Errors
/// if the file's feature dictionary does not match the current registry
/// (append would mis-index).
pub fn resume_colsh(
    path: &Path,
    mut check: impl FnMut(&SiteRecord) -> std::io::Result<()>,
) -> std::io::Result<(ResumeState, ColshAppendState)> {
    let mut stream = ColshStream::open_projected(path, StreamMode::Resume, ColumnSet::META_ONLY)?;
    if stream.valid_len == 0 {
        let empty = ResumeState {
            records: 0,
            valid_len: 0,
        };
        return Ok((empty, ColshAppendState::default()));
    }
    stream.verify_skipped = true;
    if stream.feature_dictionary() != all_permissions() {
        return Err(bad(
            "feature dictionary does not match the current registry; \
             re-encode the database with `convert` before resuming",
        ));
    }
    for record in &mut stream {
        check(&record?)?;
    }
    let records = stream.file_records;
    let valid_len = stream.valid_len();
    Ok((
        ResumeState { records, valid_len },
        ColshAppendState {
            dict: WriterDict::restore(&stream.dict)?,
            records,
            groups_in_epoch: stream.groups_in_epoch,
        },
    ))
}

/// Reads a whole `.colsh` database strictly.
pub fn read_colsh(path: &Path) -> std::io::Result<CrawlDataset> {
    let mut records = Vec::new();
    for record in ColshStream::open(path, StreamMode::Strict)? {
        records.push(record?);
    }
    Ok(CrawlDataset { records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{CrawlConfig, Crawler};
    use crate::scratch::ScratchFile;
    use crate::storage::{crc32, CRC32_TABLES};
    use proptest::prelude::*;
    use webgen::{PopulationConfig, WebPopulation};

    /// Pin the sliced CRC to the IEEE 802.3 check value: round-trip
    /// tests alone would pass with any self-consistent polynomial.
    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Cross lengths around the 8-byte slicing boundary against the
        // byte-at-a-time recurrence.
        let data: Vec<u8> = (0u16..=300).map(|i| (i % 251) as u8).collect();
        for n in 0..data.len() {
            let mut c = 0xFFFF_FFFFu32;
            for &b in &data[..n] {
                c = (c >> 8) ^ CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize];
            }
            assert_eq!(crc32(&data[..n]), !c, "length {n}");
        }
    }

    fn digest_of(bytes: &[u8]) -> u64 {
        let mut digest = Digest64::default();
        digest.update(bytes);
        digest.value()
    }

    /// Pins the shard digest: completion records already on disk must
    /// keep verifying, so the function can never change silently.
    #[test]
    fn digest64_matches_pinned_values() {
        let data: Vec<u8> = (0u16..=300).map(|i| (i % 251) as u8).collect();
        assert_eq!(digest_of(b""), 0xc2fb_4d20_ee18_98eb);
        assert_eq!(digest_of(b"123456789"), 0x0918_76a4_9fd5_fd7b);
        assert_eq!(digest_of(&data), 0x3742_c878_da70_1563);
        // The padding of a partial word is not a zero byte.
        assert_ne!(digest_of(b"abc"), digest_of(b"abc\0"));
        // Every round is a bijection of the state, so one changed byte
        // anywhere changes the digest.
        let whole = digest_of(&data);
        for i in 0..data.len() {
            let mut changed = data.clone();
            changed[i] ^= 0x01;
            assert_ne!(digest_of(&changed), whole, "byte {i}");
        }
    }

    proptest! {
        /// Any split of the input folds to the one-shot digest.
        #[test]
        fn digest64_is_independent_of_how_the_input_is_split(
            bytes in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..200),
            cuts in prop::collection::vec(0usize..200, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut digest = Digest64::default();
            let mut at = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                digest.update(&bytes[at..cut]);
                at = cut;
            }
            prop_assert_eq!(digest.len(), bytes.len() as u64);
            prop_assert_eq!(digest.value(), digest_of(&bytes));
        }
    }

    fn dataset(size: u64) -> CrawlDataset {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size });
        Crawler::new(CrawlConfig::default()).crawl(&pop)
    }

    fn scratch(name: &str) -> ScratchFile {
        ScratchFile::new("permodyssey-colsh", name)
    }

    #[test]
    fn round_trips_a_crawl_exactly() {
        let ds = dataset(40);
        let path = scratch("roundtrip.colsh");
        write_colsh(&ds, &path).unwrap();
        let loaded = read_colsh(&path).unwrap();
        assert_eq!(ds.records, loaded.records);
    }

    #[test]
    fn round_trips_across_group_boundaries() {
        let ds = dataset(25);
        let path = scratch("grouped.colsh");
        let mut w = ColshWriter::create_grouped(&path, 7).unwrap();
        for r in &ds.records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let loaded = read_colsh(&path).unwrap();
        assert_eq!(ds.records, loaded.records);
    }

    #[test]
    fn meta_projection_sees_ranks_and_outcomes_only() {
        let ds = dataset(30);
        let path = scratch("projected.colsh");
        write_colsh(&ds, &path).unwrap();
        let stream =
            ColshStream::open_projected(&path, StreamMode::Strict, ColumnSet::META_ONLY).unwrap();
        let records: Vec<SiteRecord> = stream.map(|r| r.unwrap()).collect();
        assert_eq!(records.len(), ds.records.len());
        for (got, want) in records.iter().zip(&ds.records) {
            assert_eq!(got.rank, want.rank);
            assert_eq!(got.origin, want.origin);
            assert_eq!(got.outcome, want.outcome);
            assert_eq!(got.visit.is_some(), want.visit.is_some());
            if let Some(v) = &got.visit {
                assert!(v.frames.is_empty());
                assert!(v.prompts.is_empty());
            }
        }
    }

    #[test]
    fn per_frame_projection_implies_frames() {
        let set = ColumnSet::HEADERS.normalized();
        assert!(set.contains(ColumnSet::FRAMES));
        assert!(set.contains(ColumnSet::HEADERS));
        assert!(!set.contains(ColumnSet::SCRIPTS));
    }

    #[test]
    fn strict_reader_rejects_missing_end_marker() {
        let ds = dataset(10);
        let path = scratch("no-end.colsh");
        write_colsh(&ds, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Drop exactly the END block: id + len + crc + varint(10) payload.
        let truncated = &bytes[..bytes.len() - 10];
        std::fs::write(&path, truncated).unwrap();
        let err = ColshStream::open(&path, StreamMode::Strict)
            .unwrap()
            .find_map(|r| r.err())
            .expect("strict read errors");
        assert!(err.to_string().contains("end marker"), "{err}");
    }

    #[test]
    fn resume_recovers_valid_prefix_and_append_matches_uninterrupted() {
        // The larger crawl restores more than 1,024 dictionary entries,
        // so the resumed writer's id table must be sized for them.
        for (size, min_restored) in [(30, 0), (300, 1025)] {
            let ds = dataset(size);
            let path = scratch("resume.colsh");
            let full = scratch("resume-full.colsh");

            // The uninterrupted reference, grouped small so the tear
            // lands between groups.
            let mut w = ColshWriter::create_grouped(&full, 10).unwrap();
            for r in &ds.records {
                w.push(r).unwrap();
            }
            w.finish().unwrap();

            // Tear the same file three quarters of the way in.
            std::fs::copy(&full, &path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let torn_at = bytes.len() * 3 / 4;
            std::fs::write(&path, &bytes[..torn_at]).unwrap();

            let mut ranks = Vec::new();
            let (state, append) = resume_colsh(&path, |record| {
                ranks.push(record.rank);
                Ok(())
            })
            .unwrap();
            assert!(state.valid_len <= torn_at as u64);
            assert_eq!(append.records, state.records);
            assert_eq!(ranks, (1..=state.records).collect::<Vec<u64>>());
            let restored = append.dict.len();
            assert!(restored >= min_restored, "{size}: restored {restored}");

            // Append the missing records; the result must be
            // byte-identical to the uninterrupted file.
            let mut w = ColshWriter::append(&path, state.valid_len, append).unwrap();
            w.group_records = 10;
            for r in &ds.records[state.records as usize..] {
                w.push(r).unwrap();
            }
            w.finish().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{size} records");
        }
    }

    #[test]
    fn writer_dictionary_assigns_ids_in_first_use_order() {
        let mut dict = WriterDict::default();
        // A permutation of 5,000 distinct strings, the empty one first:
        // enough to grow the id table several times.
        let words: Vec<String> = std::iter::once(String::new())
            .chain((1..5000).map(|i| format!("s{}", i * 7919 % 5000)))
            .collect();
        for (id, word) in words.iter().enumerate() {
            assert_eq!(dict.intern(word), Some(id as u32), "{word}");
        }
        for (id, word) in words.iter().enumerate() {
            assert_eq!(dict.intern(word), Some(id as u32), "{word} again");
        }
        let longest = "x".repeat(DICT_MAX_STR);
        assert_eq!(dict.intern(&format!("{longest}x")), None);
        assert_eq!(dict.intern(&longest), Some(5000));
        assert_eq!(dict.len(), 5001);
        // The group's delta lists all 5,001 entries (varint 0x89 0x27),
        // the empty one first (length 0); the next group's lists none.
        let mut delta = Vec::new();
        dict.take_delta(&mut delta);
        assert_eq!(delta[..3], [0x89, 0x27, 0]);
        delta.clear();
        dict.take_delta(&mut delta);
        assert_eq!(delta, [0]);
        // A new epoch starts empty.
        dict.clear();
        assert_eq!(dict.intern("s1"), Some(0));
    }

    #[test]
    fn lenient_reader_skips_a_corrupt_group_and_counts_records() {
        let ds = dataset(30);
        let path = scratch("lenient.colsh");
        let mut w = ColshWriter::create_grouped(&path, 10).unwrap();
        for r in &ds.records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();

        // Flip one byte inside the second group's META column payload.
        let bytes = std::fs::read(&path).unwrap();
        let target = find_nth_column_payload(&bytes, BLOCK_COLUMN_BASE, 2);
        let mut corrupt = bytes.clone();
        corrupt[target] ^= 0xFF;
        std::fs::write(&path, &corrupt).unwrap();

        // Strict: loud checksum error.
        let err = ColshStream::open(&path, StreamMode::Strict)
            .unwrap()
            .find_map(|r| r.err())
            .expect("strict read errors");
        assert!(err.to_string().contains("checksum"), "{err}");

        // Lenient: the middle group's 10 records are skipped, the other
        // 20 survive.
        let mut stream = ColshStream::open(&path, StreamMode::Lenient).unwrap();
        let survivors: Vec<u64> = (&mut stream).map(|r| r.unwrap().rank).collect();
        assert_eq!(survivors.len(), 20);
        let report = stream.into_skip_report();
        assert_eq!(report.skipped, 10);
        assert_eq!(report.lines, vec![11]);
    }

    #[test]
    fn dict_epochs_emit_markers_and_round_trip() {
        let ds = dataset(30);
        let path = scratch("epochs.colsh");
        let mut w = ColshWriter::create_grouped(&path, 5)
            .unwrap()
            .with_dict_epoch_groups(2);
        for r in &ds.records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        // 6 groups in 2-group epochs: markers precede groups 3 and 5.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(count_blocks(&bytes, BLOCK_EPOCH), 2);
        let loaded = read_colsh(&path).unwrap();
        assert_eq!(ds.records, loaded.records);
        // Epoch-free files stay readable and marker-free.
        let flat = scratch("epochs-off.colsh");
        let mut w = ColshWriter::create_grouped(&flat, 5)
            .unwrap()
            .with_dict_epoch_groups(0);
        for r in &ds.records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let flat_bytes = std::fs::read(&flat).unwrap();
        assert_eq!(count_blocks(&flat_bytes, BLOCK_EPOCH), 0);
        assert_eq!(read_colsh(&flat).unwrap().records, ds.records);
    }

    #[test]
    fn dict_epochs_bound_writer_dictionary_growth() {
        // Every record carries a unique origin, so an epoch-free
        // dictionary grows with the record count while an epoch-bounded
        // one is capped near one epoch's worth of strings.
        let ds = dataset(200);
        let unbounded_path = scratch("epoch-unbounded.colsh");
        let bounded_path = scratch("epoch-bounded.colsh");
        let peak_dict = |path: &std::path::Path, epoch: u64| {
            let mut w = ColshWriter::create_grouped(path, 10)
                .unwrap()
                .with_dict_epoch_groups(epoch);
            let mut peak = 0usize;
            for r in &ds.records {
                w.push(r).unwrap();
                peak = peak.max(w.dict.len());
            }
            w.finish().unwrap();
            peak
        };
        let unbounded = peak_dict(&unbounded_path, 0);
        let bounded = peak_dict(&bounded_path, 1);
        assert!(
            bounded * 2 <= unbounded,
            "epoch dictionary peaked at {bounded} entries vs {unbounded} unbounded"
        );
        // Both layouts decode to the same records.
        assert_eq!(read_colsh(&unbounded_path).unwrap().records, ds.records);
        assert_eq!(read_colsh(&bounded_path).unwrap().records, ds.records);
    }

    #[test]
    fn resume_across_a_torn_epoch_marker_is_byte_identical() {
        let ds = dataset(30);
        let full = scratch("epoch-full.colsh");
        let mut w = ColshWriter::create_grouped(&full, 5)
            .unwrap()
            .with_dict_epoch_groups(2);
        for r in &ds.records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&full).unwrap();
        // Tear at every byte in a window spanning the first EPOCH marker
        // (the 9-byte empty block before group 3) and into the group
        // behind it; resuming and appending must reproduce the
        // uninterrupted file exactly, marker included.
        let marker = find_nth_column_payload(&bytes, BLOCK_EPOCH, 1) - 9;
        let path = scratch("epoch-torn.colsh");
        for cut in marker.saturating_sub(4)..(marker + 40).min(bytes.len()) {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (state, append) = resume_colsh(&path, |_| Ok(())).unwrap();
            let mut w = ColshWriter::append(&path, state.valid_len, append)
                .unwrap()
                .with_group_records(5)
                .with_dict_epoch_groups(2);
            for r in &ds.records[state.records as usize..] {
                w.push(r).unwrap();
            }
            w.finish().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "cut at {cut}");
        }
    }

    #[test]
    fn lenient_live_tail_is_clean_eof_not_corruption() {
        // A live appender's unfinished tail group must not be counted
        // as a corrupt skip: the lenient reader stops cleanly at the
        // last complete group and flags only `torn_tail`.
        let ds = dataset(25);
        let path = scratch("livetail.colsh");
        let mut w = ColshWriter::create_grouped(&path, 10).unwrap();
        for r in &ds.records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let group3 = find_nth_column_payload(&bytes, BLOCK_GROUP, 3) - 9;
        // Cuts inside the third group's header and inside its column
        // payloads, plus the exact group boundary (END marker missing).
        for cut in [group3, group3 + 3, group3 + 40] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut stream = ColshStream::open(&path, StreamMode::Lenient).unwrap();
            let survivors: Vec<u64> = (&mut stream).map(|r| r.unwrap().rank).collect();
            assert_eq!(survivors.len(), 20, "cut at {cut}");
            let report = stream.into_skip_report();
            assert_eq!(report.skipped, 0, "cut at {cut}");
            assert!(report.lines.is_empty(), "cut at {cut}");
            assert!(report.torn_tail, "cut at {cut}");
        }
    }

    #[test]
    fn refresh_resumes_a_growing_file_without_rereading() {
        // The live follower keeps one stream open per shard and calls
        // `refresh` after each tick; growing the file by rewriting
        // successively longer prefixes of the finished file simulates a
        // live appender (every kill state is some byte prefix).
        let ds = dataset(30);
        let full = scratch("refresh-full.colsh");
        let mut w = ColshWriter::create_grouped(&full, 5)
            .unwrap()
            .with_dict_epoch_groups(2);
        for r in &ds.records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&full).unwrap();
        let cut_mid_g4 = find_nth_column_payload(&bytes, BLOCK_GROUP, 4) + 2;
        let cut_mid_g6 = find_nth_column_payload(&bytes, BLOCK_GROUP, 6) + 2;

        let live = scratch("refresh-live.colsh");
        std::fs::write(&live, &bytes[..cut_mid_g4]).unwrap();
        let mut stream = ColshStream::open(&live, StreamMode::Resume).unwrap();
        let mut got: Vec<SiteRecord> = (&mut stream).map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), 15);
        assert_eq!(stream.valid_records(), 15);

        std::fs::write(&live, &bytes[..cut_mid_g6]).unwrap();
        stream.refresh().unwrap();
        got.extend((&mut stream).map(|r| r.unwrap()));
        assert_eq!(got.len(), 25);
        assert_eq!(stream.valid_records(), 25);

        std::fs::write(&live, &bytes).unwrap();
        stream.refresh().unwrap();
        got.extend((&mut stream).map(|r| r.unwrap()));
        assert_eq!(got, ds.records);
        // valid_len excludes the 10-byte END block (id + len + crc +
        // varint(30)) so an appender can overwrite it in place.
        assert_eq!(stream.valid_len(), bytes.len() as u64 - 10);
    }

    /// How many blocks with `id` the (complete) file holds.
    fn count_blocks(bytes: &[u8], id: u8) -> usize {
        let mut offset = COLSH_MAGIC.len() + 4;
        let mut seen = 0;
        while offset < bytes.len() {
            let block_id = bytes[offset];
            let len =
                u32::from_le_bytes(bytes[offset + 1..offset + 5].try_into().unwrap()) as usize;
            if block_id == id {
                seen += 1;
            }
            offset += 9 + len;
        }
        seen
    }

    /// Byte offset of the first payload byte of the `n`-th block whose
    /// id matches (1-based), walking the block framing.
    fn find_nth_column_payload(bytes: &[u8], id: u8, n: usize) -> usize {
        let mut offset = COLSH_MAGIC.len() + 4;
        let mut seen = 0;
        loop {
            let block_id = bytes[offset];
            let len =
                u32::from_le_bytes(bytes[offset + 1..offset + 5].try_into().unwrap()) as usize;
            if block_id == id {
                seen += 1;
                if seen == n {
                    return offset + 9;
                }
            }
            offset += 9 + len;
        }
    }
}
