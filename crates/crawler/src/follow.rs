//! Live shard followers: the read side of analyze-while-crawling.
//!
//! A running job appends to its shard files continuously; a follower is
//! a persistent reader over one such file that can be polled
//! repeatedly, each poll yielding only the records appended since the
//! last one and reporting the *consistent frontier* it stopped at — the
//! end of the last complete line for JSONL, the end of the last
//! complete row group for `.colsh`. The follower never coordinates with
//! the writer: consistency comes from the formats themselves (records
//! are durable in rank order, torn tails are recognizable) and from
//! [`StreamMode::Resume`], which stops cleanly at a torn tail instead
//! of erroring or counting a skip.
//!
//! The live-follow contract the job engine provides (and the chaos
//! harness enforces) is that the writer only ever *appends past* the
//! frontier, or — after a kill and resume — *byte-identically rewrites*
//! up to it. Either way every byte a follower has already folded stays
//! valid, so per-shard fold state can persist across polls and each
//! poll reads only the delta.

use std::path::{Path, PathBuf};

use crate::colsh::ColumnSet;
use crate::db::{detect_db_format, AnyRecordStream, DbFormat};
use crate::run::SiteRecord;
use crate::storage::StreamMode;

/// One shard's consistent read frontier: everything up to `bytes` is
/// durable, complete, and has been yielded to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardFrontier {
    /// Byte length of the valid prefix (last complete line / row group).
    pub bytes: u64,
    /// Records contained in the valid prefix.
    pub records: u64,
}

/// A persistent incremental reader over one possibly-still-growing
/// shard file.
///
/// `format` is the format the shard is *declared* to have (from the job
/// manifest): a nascent `.colsh` file whose header has not been flushed
/// yet would otherwise be mis-sniffed as JSONL and cached that way. The
/// follower refuses to open the file until the on-disk magic matches
/// the declaration.
pub struct ShardFollower {
    path: PathBuf,
    format: DbFormat,
    columns: ColumnSet,
    stream: Option<AnyRecordStream>,
    frontier: ShardFrontier,
}

impl ShardFollower {
    /// A follower for `path`, materializing only `columns` where the
    /// format supports projection. The file need not exist yet.
    pub fn new(path: &Path, format: DbFormat, columns: ColumnSet) -> ShardFollower {
        ShardFollower {
            path: path.to_path_buf(),
            format,
            columns,
            stream: None,
            frontier: ShardFrontier::default(),
        }
    }

    /// The shard file this follower reads.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The frontier as of the last [`ShardFollower::poll`].
    pub fn frontier(&self) -> ShardFrontier {
        self.frontier
    }

    /// Reads every record appended since the last poll, handing each to
    /// `fold`, and returns the new frontier. A file that does not exist
    /// yet (or whose header is not durable yet) is simply "no new data",
    /// not an error — the writer will get there.
    pub fn poll(&mut self, mut fold: impl FnMut(&SiteRecord)) -> std::io::Result<ShardFrontier> {
        if let Some(stream) = self.stream.as_mut() {
            stream.refresh()?;
        } else {
            match self.try_open()? {
                Some(stream) => self.stream = Some(stream),
                None => return Ok(self.frontier),
            }
        }
        let stream = self.stream.as_mut().expect("stream just ensured");
        for record in stream.by_ref() {
            fold(&record?);
            self.frontier.records += 1;
        }
        self.frontier.bytes = stream.valid_len();
        Ok(self.frontier)
    }

    /// Attempts the first open. `Ok(None)` means "not readable yet":
    /// the file is absent, or its magic does not yet match the declared
    /// format.
    fn try_open(&self) -> std::io::Result<Option<AnyRecordStream>> {
        match detect_db_format(&self.path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
            Ok(format) if format != self.format => return Ok(None),
            Ok(_) => {}
        }
        // Open as the declared format: sniffing again could see the
        // header of a shard truncated or rewritten since the check above
        // and cache a JSONL reader over a `.colsh` file.
        // A `.colsh` header still partly written reads as a torn tail: the
        // stream holds nothing yet, and each refresh reads the header again.
        match AnyRecordStream::open_as(&self.path, self.format, StreamMode::Resume, self.columns) {
            Ok(stream) => Ok(Some(stream)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colsh::ColshWriter;
    use crate::db::write_jsonl;
    use crate::run::{CrawlConfig, Crawler};
    use crate::scratch::ScratchFile;
    use webgen::{PopulationConfig, WebPopulation};

    fn scratch(name: &str) -> ScratchFile {
        ScratchFile::new("permodyssey-follow", name)
    }

    #[test]
    fn follower_waits_for_the_file_then_reads_deltas() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 20 });
        let ds = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let full = scratch("follow-full.colsh");
        let mut w = ColshWriter::create_grouped(&full, 4).unwrap();
        for r in &ds.records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&full).unwrap();

        let live = scratch("follow-live.colsh");
        let _ = std::fs::remove_file(&live);
        let mut follower = ShardFollower::new(&live, DbFormat::Colsh, ColumnSet::ALL);
        let mut got: Vec<SiteRecord> = Vec::new();

        // Absent file: no data, no error.
        let f = follower.poll(|r| got.push(r.clone())).unwrap();
        assert_eq!(f, ShardFrontier::default());

        // A 4-byte fragment of the magic is "not durable yet", and must
        // not be cached as a JSONL stream.
        std::fs::write(&live, &bytes[..4]).unwrap();
        let f = follower.poll(|r| got.push(r.clone())).unwrap();
        assert_eq!(f.records, 0);

        // Grow the file in byte-prefix stages; polls fold only deltas.
        let mut last = 0;
        for cut in [bytes.len() / 3, bytes.len() * 2 / 3, bytes.len()] {
            std::fs::write(&live, &bytes[..cut]).unwrap();
            let f = follower.poll(|r| got.push(r.clone())).unwrap();
            assert!(f.records >= last, "frontier went backwards");
            last = f.records;
        }
        assert_eq!(got, ds.records);
        assert_eq!(follower.frontier().records, 20);
    }

    #[test]
    fn follower_reads_jsonl_deltas() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 12 });
        let ds = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let full = scratch("follow-full.jsonl");
        write_jsonl(&ds, &full).unwrap();
        let bytes = std::fs::read(&full).unwrap();

        let live = scratch("follow-live.jsonl");
        let mut follower = ShardFollower::new(&live, DbFormat::Jsonl, ColumnSet::ALL);
        let mut got: Vec<SiteRecord> = Vec::new();
        for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len()] {
            std::fs::write(&live, &bytes[..cut]).unwrap();
            follower.poll(|r| got.push(r.clone())).unwrap();
        }
        assert_eq!(got, ds.records);
        assert_eq!(follower.frontier().bytes, bytes.len() as u64);
    }
}
