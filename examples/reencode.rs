//! Re-encodes a crawl database line by line through a chosen serde
//! codec — the byte-identity referee `scripts/ci.sh` uses to prove the
//! streaming fast path and the Value-tree reference path emit the same
//! JSONL.
//!
//! ```sh
//! cargo run --release --example reencode -- \
//!     --db crawl.jsonl --out reencoded.jsonl --codec streaming
//! ```
//!
//! `--codec streaming` decodes with the strict [`crawler::RecordStream`]
//! and encodes with the buffer-reuse streaming serializer;
//! `--codec value-tree` detours every record through a `serde::Value`
//! both ways; `--codec columnar` detours every record through a binary
//! columnar (`.colsh`) sibling file — encode to it, decode back, emit
//! JSONL. `cmp` of the outputs (and of any against the input) must
//! report no difference.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crawler::{ColshStream, DbFormat, RecordStream, ShardWriter, SiteRecord, StreamMode};

fn usage() -> ExitCode {
    eprintln!("usage: reencode --db FILE --out FILE --codec streaming|value-tree|columnar");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut db: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut codec: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else {
            return usage();
        };
        match flag.as_str() {
            "--db" => db = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--codec" => codec = Some(value),
            _ => return usage(),
        }
    }
    let (Some(db), Some(out), Some(codec)) = (db, out, codec) else {
        return usage();
    };
    // A directory mixing a record/replay bundle store with record
    // shards is refused loudly rather than silently re-encoding only
    // the shard half.
    if let Err(e) = crawler::refuse_mixed_bundle_dir(&db) {
        eprintln!("reencode: {e}");
        return ExitCode::FAILURE;
    }

    let result = match codec.as_str() {
        "streaming" => reencode_streaming(&db, &out),
        "value-tree" => reencode_value_tree(&db, &out),
        "columnar" => reencode_columnar(&db, &out),
        _ => return usage(),
    };
    match result {
        Ok(records) => {
            println!(
                "reencoded {records} records via {codec} -> {}",
                out.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("reencode: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Streaming path: strict `RecordStream` in, the crawler's shard writer
/// (the streaming serializer, one reused line buffer) out.
fn reencode_streaming(db: &Path, out: &Path) -> std::io::Result<u64> {
    let records = RecordStream::open(db, StreamMode::Strict)?;
    copy(records, out, DbFormat::Jsonl)
}

/// Columnar path: stream the JSONL into a `.colsh` sibling of the
/// output, stream it back out, and re-encode as JSONL — proving the
/// binary codec loses nothing the byte-identity gate can see.
fn reencode_columnar(db: &Path, out: &Path) -> std::io::Result<u64> {
    let colsh = out.with_extension("colsh");
    let records = RecordStream::open(db, StreamMode::Strict)?;
    copy(records, &colsh, DbFormat::Colsh)?;
    let records = ColshStream::open(&colsh, StreamMode::Strict)?;
    let count = copy(records, out, DbFormat::Jsonl)?;
    std::fs::remove_file(&colsh)?;
    Ok(count)
}

/// Writes every record of `stream` to `out` in `format`; returns the
/// record count.
fn copy(
    stream: impl Iterator<Item = std::io::Result<SiteRecord>>,
    out: &Path,
    format: DbFormat,
) -> std::io::Result<u64> {
    let mut writer = ShardWriter::create(&[out.to_path_buf()], format)?;
    let mut records = 0u64;
    for record in stream {
        writer.push(&record?)?;
        records += 1;
    }
    writer.finish()?;
    Ok(records)
}

/// Reference path: every line through a `serde::Value` tree both ways.
fn reencode_value_tree(db: &Path, out: &Path) -> std::io::Result<u64> {
    let reader = std::io::BufReader::new(std::fs::File::open(db)?);
    let mut writer = std::io::BufWriter::new(std::fs::File::create(out)?);
    let mut records = 0u64;
    for (index, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record: SiteRecord = serde_json::from_str_via_value(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: {e}", index + 1),
            )
        })?;
        let encoded = serde_json::to_string_via_value(&record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        writer.write_all(encoded.as_bytes())?;
        writer.write_all(b"\n")?;
        records += 1;
    }
    writer.flush()?;
    Ok(records)
}
