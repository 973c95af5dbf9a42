//! Columnar (`.colsh`) codec round-trip and corruption properties.
//!
//! The binary columnar shard format must be a lossless re-encoding of
//! the JSONL front door: for *arbitrary* records — multibyte text,
//! control characters, nested frames, every degradation kind — the
//! JSONL bytes of a record must equal the JSONL bytes of
//! `decode(encode(record))`. Damage must never pass silently: any
//! truncation is a strict error and a recoverable resume point, and a
//! flipped payload byte trips a block checksum (strict error, lenient
//! skip-with-count).

use std::path::{Path, PathBuf};

use crawler::{resume_colsh, ColshStream, ColshWriter, SiteRecord, StreamMode, COLSH_MAGIC};
use proptest::prelude::*;

#[path = "support/records.rs"]
mod records;
use records::arb_record;

/// A test's scratch file, alone in a directory named after it and the
/// test process. Dropping it removes the directory.
struct Scratch(PathBuf);

impl std::ops::Deref for Scratch {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for Scratch {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("po-colsh-rt-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir.join(format!("{tag}.colsh")))
}

fn encode(path: &Path, records: &[SiteRecord], group: usize, epoch: u64) {
    let mut w = ColshWriter::create_grouped(path, group)
        .expect("create colsh")
        .with_dict_epoch_groups(epoch);
    for r in records {
        w.push(r).expect("push record");
    }
    w.finish().expect("finish colsh");
}

fn jsonl(records: &[SiteRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| serde_json::to_string(r).expect("encode record"))
        .collect()
}

proptest! {
    /// JSONL bytes survive the columnar detour exactly, across group
    /// boundaries and the file-level string dictionary.
    #[test]
    fn round_trip_is_byte_identical(
        records in prop::collection::vec(arb_record(), 1..12),
        group in 1usize..5,
        epoch in 0u64..4,
    ) {
        let path = scratch("roundtrip");
        encode(&path, &records, group, epoch);
        let decoded: Vec<SiteRecord> = ColshStream::open(&path, StreamMode::Strict)
            .expect("open strict")
            .collect::<std::io::Result<_>>()
            .expect("decode strict");
        prop_assert_eq!(jsonl(&decoded), jsonl(&records));
    }

    /// Every proper truncation point is (a) a strict error, (b) a
    /// lenient stream that never invents records and never panics, and
    /// (c) a resume point from which appending the missing records
    /// reproduces the uninterrupted file byte for byte.
    #[test]
    fn truncation_is_loud_and_resumable(
        records in prop::collection::vec(arb_record(), 2..8),
        group in 1usize..4,
        epoch in 0u64..3,
        cut in 0.0f64..1.0,
    ) {
        let full = scratch("tear-full");
        encode(&full, &records, group, epoch);
        let bytes = std::fs::read(&full).expect("read full file");
        let cut_at = ((bytes.len() as u64 - 1) as f64 * cut) as usize;

        let torn = scratch("tear-torn");
        std::fs::write(&torn, &bytes[..cut_at]).expect("write torn file");

        // (a) Strict: the END marker is clipped (or worse) — an error,
        // whether open() itself chokes (tear inside the header) or the
        // stream does.
        let strict = ColshStream::open(&torn, StreamMode::Strict)
            .and_then(|s| s.collect::<std::io::Result<Vec<SiteRecord>>>());
        prop_assert!(strict.is_err(), "strict accepted a truncated file");

        // (b) Lenient: no panic, no invented records, and the tear is
        // reported — as a torn live tail (clean EOF at the frontier),
        // not as corruption, so a follower can keep folding what came
        // before it. A tear inside the header fails open() itself,
        // which is just as loud.
        if let Ok(mut lenient) = ColshStream::open(&torn, StreamMode::Lenient) {
            let survivors = lenient.by_ref().filter_map(|r| r.ok()).count();
            prop_assert!(survivors <= records.len());
            let skip = lenient.into_skip_report();
            prop_assert!(
                skip.torn_tail || skip.skipped >= 1,
                "the tear is never silent"
            );
            prop_assert_eq!(skip.skipped, 0, "a byte-prefix tear is not corruption");
        }

        // (c) Resume: truncate to the valid prefix, append the rest,
        // and the file matches the uninterrupted encoding exactly.
        let (state, append) = resume_colsh(&torn, |_| Ok(())).expect("resume");
        prop_assert!(append.records <= records.len() as u64);
        let done = append.records as usize;
        let mut w = ColshWriter::append(&torn, state.valid_len, append)
            .expect("append")
            .with_group_records(group)
            .with_dict_epoch_groups(epoch);
        for r in &records[done..] {
            w.push(r).expect("push tail record");
        }
        w.finish().expect("finish tail");
        let resumed = std::fs::read(&torn).expect("read resumed file");
        prop_assert_eq!(resumed, bytes);
    }
}

/// Walks the block framing (`[id u8][len u32 LE][crc u32 LE][payload]`)
/// and returns the file offset of the first payload byte of the `n`th
/// block with id `id`.
fn nth_payload_offset(bytes: &[u8], id: u8, n: usize) -> usize {
    assert_eq!(&bytes[..COLSH_MAGIC.len()], &COLSH_MAGIC);
    let mut pos = COLSH_MAGIC.len() + 4;
    let mut seen = 0;
    while pos < bytes.len() {
        let block_id = bytes[pos];
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        if block_id == id {
            if seen == n {
                assert!(len > 0, "need a nonempty payload to corrupt");
                return pos + 9;
            }
            seen += 1;
        }
        pos += 9 + len;
    }
    panic!("block id {id:#x} occurrence {n} not found");
}

/// Damage to a row group is loud or counted, never silent. A flipped
/// column payload byte trips that block's checksum: strict errors naming
/// the checksum and the block's byte offset, lenient drops exactly that
/// row group and counts its records. Damage a lenient read cannot step
/// over — a flipped dictionary-delta byte (later groups would resolve
/// shifted ids) or an overwritten GROUP block id (the group's record
/// count is lost) — is an error naming the block's offset in both modes.
#[test]
fn corrupt_payload_byte_trips_block_checksum() {
    let records: Vec<SiteRecord> = (1..=30)
        .map(|rank| SiteRecord {
            rank,
            origin: format!("https://site-{rank}.example"),
            outcome: crawler::SiteOutcome::Unreachable,
            visit: None,
            elapsed_ms: rank * 3,
            attempts: 1,
        })
        .collect();
    let path = scratch("corrupt");
    encode(&path, &records, 10, 0);
    let clean = std::fs::read(&path).expect("read file");

    // Each input damages one block of the second group: (input, block
    // id, whether its id byte is overwritten rather than a payload byte
    // flipped, whether a lenient read steps over it).
    let inputs = [
        ("META payload byte", 0x10, false, true),
        ("DICT payload byte", 0x02, false, false),
        ("GROUP block id", 0x01, true, false),
    ];
    for (input, id, overwrite_id, skippable) in inputs {
        let mut bytes = clean.clone();
        let payload = nth_payload_offset(&bytes, id, 1);
        let block = payload - 9;
        if overwrite_id {
            bytes[block] = 0x7F;
        } else {
            bytes[payload] ^= 0xFF;
        }
        std::fs::write(&path, &bytes).expect("write corrupted file");

        let strict: std::io::Result<Vec<SiteRecord>> = ColshStream::open(&path, StreamMode::Strict)
            .expect("open strict")
            .collect();
        let err = strict.expect_err("strict accepts a damaged group");
        let at = format!("at byte {block}");
        assert!(err.to_string().contains(&at), "{input}: {err}");
        if !overwrite_id {
            assert!(err.to_string().contains("checksum"), "{input}: {err}");
        }

        let mut lenient = ColshStream::open(&path, StreamMode::Lenient).expect("open lenient");
        let read: std::io::Result<Vec<SiteRecord>> = lenient.by_ref().collect();
        if !skippable {
            let err = read.expect_err("lenient steps over damage that breaks later groups");
            assert!(err.to_string().contains(&at), "{input}: {err}");
            continue;
        }
        let survivors = read.expect("lenient skips a bad column block");
        assert_eq!(survivors.len(), 20, "two intact groups survive");
        let ranks: Vec<u64> = survivors.iter().map(|r| r.rank).collect();
        let expected: Vec<u64> = (1..=10).chain(21..=30).collect();
        assert_eq!(ranks, expected, "the corrupt middle group is dropped whole");
        let skip = lenient.into_skip_report();
        assert_eq!(skip.skipped, 10, "skips are counted in records");
    }
}
