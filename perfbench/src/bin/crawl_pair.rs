//! `crawl-live` rounds on their own, for comparing commits.
//!
//! Builds against nothing newer than `crawler::job_start`,
//! `JobManifest::new` and `JobOptions`, so the same measurement compiles
//! at older commits; `perfbench/pairs.sh` runs it on two commits in
//! alternation. Prints the median round's records per second and CPU
//! milliseconds per 1,000 records.
//!
//! ```text
//! crawl_pair --seed N --seconds S
//! ```

// The modules are shared with the main benchmark binary, which uses
// the parts this one leaves idle.
#![allow(dead_code)]

#[path = "../crawl_live.rs"]
mod crawl_live;
#[path = "../stats.rs"]
mod stats;
#[path = "../sys.rs"]
mod sys;

use std::time::Instant;

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> f64 {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("usage: crawl_pair --seed N --seconds S (missing {flag})"))
    };
    let seed = value("--seed") as u64;
    let seconds = value("--seconds");
    let dir =
        std::path::Path::new(".bench_work").join(format!("crawl-pair-{}", std::process::id()));
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut cpu = Vec::new();
    while rates.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let round = crawl_live::round(&dir, seed)?;
        assert_eq!(round.failed, 0, "crawl-live gate failed");
        rates.push(crawl_live::SIZE as f64 / round.measured.wall_s);
        cpu.push(round.measured.cpu_s * 1e6 / crawl_live::SIZE as f64);
        std::fs::remove_dir_all(&dir)?;
    }
    println!("{} {}", stats::median(&rates), stats::median(&cpu));
    Ok(())
}
