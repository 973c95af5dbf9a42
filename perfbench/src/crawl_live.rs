//! `crawl-live`: the census path. `crawler::job_start` crawls a fresh
//! population into rank-striped JSONL shards with one visit worker plus
//! the job's writer thread. Page generation is part of every visit and
//! nothing reads a shard back inside the timed phase.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::time::Instant;

use crawler::{job_start, DbFormat, JobManifest, JobOptions, JobReport, JobState};

use crate::stats::median;
use crate::sys;

/// Origins per job.
pub const SIZE: u64 = 12_000;
/// Rank-striped output shards per job.
pub const SHARDS: usize = 4;
/// Visit workers per job (the job adds one writer thread).
pub const WORKERS: usize = 1;

/// The job every round runs.
pub fn manifest(seed: u64) -> JobManifest {
    JobManifest::new(seed, SIZE, SHARDS, DbFormat::Jsonl)
}

/// One visit worker; everything else at the engine's defaults.
pub fn options() -> JobOptions {
    JobOptions {
        workers: WORKERS,
        ..JobOptions::default()
    }
}

/// Set-up: building the population and the job manifest. It takes well
/// under a microsecond, so it is timed in batches and the median batch
/// is reported per set-up.
pub fn setup_seconds(seed: u64) -> f64 {
    const BATCH: u32 = 20_000;
    const BATCHES: usize = 15;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..BATCH {
                let manifest = manifest(std::hint::black_box(seed));
                std::hint::black_box(manifest.population());
                std::hint::black_box(options());
            }
            started.elapsed().as_secs_f64() / f64::from(BATCH)
        })
        .collect();
    median(&samples)
}

/// What one timed job round measured.
pub struct Round {
    /// Wall, CPU and peak memory of `job_start`.
    pub measured: sys::Measured,
    /// Shard bytes the job wrote.
    pub bytes: u64,
    /// Ranks that failed the round's gate.
    pub failed: u64,
    /// The job's own report.
    pub report: JobReport,
}

/// Runs one fresh job in `dir` and checks it: every rank exactly once
/// in stripe order, nothing quarantined, no caught panic.
pub fn round(dir: &Path, seed: u64) -> std::io::Result<Round> {
    let manifest = manifest(seed);
    let options = options();
    let phase = sys::Phase::start()?;
    let report = job_start(dir, &manifest, &options)
        .map_err(|e| std::io::Error::other(format!("job_start: {e}")))?;
    let measured = phase.finish()?;
    let shards = manifest.shard_files(dir);
    let bytes = sys::file_bytes(&shards)?;
    let failed = (SIZE - stripe_ranks_in_order(&shards)?) + job_failures(&report, SIZE);
    Ok(Round {
        measured,
        bytes,
        failed: failed.min(SIZE),
        report,
    })
}

/// Ranks a finished job of `size` ranks failed by its own report: every
/// rank of a quarantined lease, every caught visit panic, and every rank
/// an incomplete job left unwritten.
pub fn job_failures(report: &JobReport, size: u64) -> u64 {
    let mut failed =
        report.leases_quarantined * crawler::DEFAULT_LEASE_RECORDS + report.snapshot.panics_caught;
    if report.state != JobState::Complete || report.written != size {
        failed += (size - report.written.min(size)).max(1);
    }
    failed.min(size)
}

/// Ranks found exactly where the stripe layout puts them: shard `s`
/// holds ranks `s+1, s+1+S, …` in order, one JSONL line each. Reads only
/// the leading `{"rank":N` of each line.
pub fn stripe_ranks_in_order(shards: &[std::path::PathBuf]) -> std::io::Result<u64> {
    let stride = shards.len() as u64;
    let mut in_place = 0u64;
    for (shard, path) in shards.iter().enumerate() {
        let reader = BufReader::new(std::fs::File::open(path)?);
        for (position, line) in reader.split(b'\n').enumerate() {
            let line = line?;
            let expected = shard as u64 + 1 + position as u64 * stride;
            if leading_rank(&line) == Some(expected) && expected <= SIZE {
                in_place += 1;
            }
        }
    }
    Ok(in_place)
}

/// The rank of a JSONL record line, which the encoder writes first.
fn leading_rank(line: &[u8]) -> Option<u64> {
    let digits = line.strip_prefix(b"{\"rank\":")?;
    let end = digits.iter().position(|b| !b.is_ascii_digit())?;
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leading_rank_reads_only_the_first_field() {
        assert_eq!(leading_rank(br#"{"rank":42,"origin":"x"}"#), Some(42));
        assert_eq!(leading_rank(br#"{"origin":"x","rank":42}"#), None);
        assert_eq!(leading_rank(br#"{"rank":}"#), None);
        assert_eq!(leading_rank(b""), None);
    }
}
