//! The repository's benchmark: crawl, record/replay and analyze, end to
//! end and layer by layer. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml --bin perfbench -- \
//!     --workload crawl-live|record-replay|analyze --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced runs print the end-to-end metrics; traced runs print the
//! per-layer metrics. The last line of standard output is the result.

mod analyze;
mod crawl_live;
mod live;
mod replay;
mod report;
mod stack;
mod stats;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

const USAGE: &str = "usage: perfbench --workload crawl-live|record-replay|analyze \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let slot_taken = match flag.as_str() {
            "--workload" => workload.replace(value.clone()).is_some(),
            "--seed" => seed
                .replace(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
                .is_some(),
            "--seconds" => seconds
                .replace(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds: {value:?} is not a positive number"))?,
                )
                .is_some(),
            "--trace" => traced
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
                .is_some(),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        };
        if slot_taken {
            return Err(format!("{flag} given twice"));
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        traced: traced.ok_or_else(|| missing("--trace"))?,
    })
}

/// A directory for the run's files inside the working directory,
/// removed when the run ends.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A fresh, empty path inside the work directory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = self.0.join(name);
        if path.is_dir() {
            std::fs::remove_dir_all(&path)?;
        } else if path.exists() {
            std::fs::remove_file(&path)?;
        }
        Ok(path)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.bench_work` only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn run(args: &Args) -> Result<String, String> {
    let work = WorkDir::create(&args.workload).map_err(|e| format!("work directory: {e}"))?;
    let report: Report = match (args.workload.as_str(), args.traced) {
        ("crawl-live", false) => live::untraced(args, &work),
        ("crawl-live", true) => live::traced(args, &work),
        ("record-replay", false) => replay::untraced(args, &work),
        ("record-replay", true) => replay::traced(args, &work),
        ("analyze", false) => analyze::untraced(args, &work),
        ("analyze", true) => analyze::traced(args, &work),
        (other, _) => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
    .map_err(|e| format!("{}: {e}", args.workload))?;
    let common = [
        ("workload", report::json_string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("traced", args.traced.to_string()),
        ("nproc", sys::nproc().to_string()),
        ("commit", report::json_string(&sys::commit(Path::new(".")))),
    ];
    Ok(report::render(&report, args.traced, &common))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "analyze",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, "analyze");
        assert_eq!(args.seed, 3);
        assert_eq!(args.seconds, 10.0);
        assert!(args.traced);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "analyze"][..],
            &[
                "--workload",
                "analyze",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "a",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "a",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "a",
                "--seed",
                "1",
                "--seed",
                "2",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "a",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--x",
                "1",
            ],
            &["--workload"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
